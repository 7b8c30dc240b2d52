"""Shared test configuration: a deterministic, bounded hypothesis profile."""

from hypothesis import settings

settings.register_profile("fancross", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("fancross")
