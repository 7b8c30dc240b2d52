"""Typed errors for the outcomes callers tell apart from bad input.

All subclass ``ValueError``, so code that catches ``ValueError`` for any
refused input keeps working.
"""

from __future__ import annotations


class CapExceeded(ValueError):
    """An exhaustive search refused an input larger than its cap."""


class InvariantBroken(ValueError):
    """A construction failed its own check of its output."""


class Infeasible(ValueError):
    """A well-formed input does not meet a construction's precondition: the
    drawing is not k-planar, or the certificate does not verify."""
