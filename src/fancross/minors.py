"""Shallow minor models with bounded congestion.

A model maps every pattern vertex to a nonempty branch set of host vertices.
It is valid when (i) every branch set induces a connected subgraph of radius
at most ``d``, (ii) every host vertex lies in at most ``c`` branch sets, and
(iii) the branch sets of adjacent pattern vertices touch, i.e. intersect or
are joined by a host edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import CapExceeded
from .graphs import Graph, induced, radius_center


# ===== Models =====


@dataclass(frozen=True)
class MinorModel:
    """A congestion-``c`` depth-``d`` minor model of ``pattern`` in ``host``."""

    host: Graph
    pattern: Graph
    branch: dict[int, tuple[int, ...]]
    c: int
    d: int


def _touch(host: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Whether two vertex sets intersect or are joined by a host edge."""
    sa, sb = set(a), set(b)
    if sa & sb:
        return True
    return any(w in sb for u in sa for w in host.neighbors(u))


def _structural_check(m: MinorModel) -> None:
    if m.c < 1 or m.d < 0:
        raise ValueError("bad model: c must be positive and d nonnegative")
    for v in m.pattern.vertices:
        if v not in m.branch:
            raise ValueError(f"missing branch for vertex {v}")
    for v, vs in m.branch.items():
        if not m.pattern.has_vertex(v):
            raise ValueError(f"unknown pattern vertex {v} in branch")
        if not vs:
            raise ValueError(f"empty branch for vertex {v}")
        for u in vs:
            if not m.host.has_vertex(u):
                raise ValueError(f"unknown host vertex {u} in branch")


def verify_model(m: MinorModel) -> list[str]:
    """Checks the three model conditions; returns sorted violation strings.

    Malformed models (missing, empty, or out-of-range branch sets, or bad
    parameters) raise ValueError instead.
    """
    _structural_check(m)
    out: list[str] = []
    for v in m.pattern.vertices:
        try:
            _, r = radius_center(m.host, m.branch[v])
        except ValueError:
            out.append(f"(i) branch {v} not connected")
            continue
        if r > m.d:
            out.append(f"(i) branch {v} radius {r} > {m.d}")
    loads: dict[int, int] = {}
    for v in m.pattern.vertices:
        for u in set(m.branch[v]):
            loads[u] = loads.get(u, 0) + 1
    for u in sorted(loads):
        if loads[u] > m.c:
            out.append(f"(ii) vertex {u} in {loads[u]} sets")
    for v, w in m.pattern.edges:
        if not _touch(m.host, m.branch[v], m.branch[w]):
            out.append(f"(iii) edge ({v}, {w}) does not touch")
    return sorted(out)


# ===== Exhaustive search =====


def _admissible(host: Graph, subset: tuple[int, ...], d: int) -> bool:
    """Whether the subset induces a connected subgraph of radius <= d."""
    try:
        _, r = radius_center(host, subset)
    except ValueError:
        return False
    return r <= d


def _zones_nonempty(
    host: Graph,
    pattern: Graph,
    branch: dict[int, tuple[int, ...]],
    load: dict[int, int],
    c: int,
    remaining: Iterable[int],
) -> bool:
    """Sound prune: every unassigned pattern vertex adjacent to an assigned
    one still has a free host vertex in or next to each such branch set."""
    for w in remaining:
        for wp in pattern.neighbors(w):
            if wp not in branch:
                continue
            zone = set(branch[wp])
            for u in branch[wp]:
                zone.update(host.neighbors(u))
            if not any(load[u] < c for u in zone):
                return False
    return True


def find_model_bruteforce(
    host: Graph, pattern: Graph, c: int, d: int, cap: int = 10
) -> Optional[MinorModel]:
    """Finds the first congestion-``c`` depth-``d`` model in deterministic
    order (branch sets by size, then lexicographically), or None.

    Hosts with more than ``cap`` vertices are refused; raise the cap
    explicitly for larger exhaustive runs.
    """
    if c < 1 or d < 0:
        raise ValueError("bad model: c must be positive and d nonnegative")
    if host.n > cap:
        raise CapExceeded("search cap exceeded")
    pverts = list(pattern.vertices)
    load = {u: 0 for u in host.vertices}
    branch: dict[int, tuple[int, ...]] = {}

    def candidates(v: int):
        assigned = [w for w in pattern.neighbors(v) if w in branch]
        allowed = [u for u in host.vertices if load[u] < c]
        for size in range(1, len(allowed) + 1):
            for subset in itertools.combinations(allowed, size):
                if not _admissible(host, subset, d):
                    continue
                if all(_touch(host, subset, branch[w]) for w in assigned):
                    yield subset

    def rec(i: int) -> bool:
        if i == len(pverts):
            return True
        if sum(c - load[u] for u in host.vertices) < len(pverts) - i:
            return False
        if not _zones_nonempty(host, pattern, branch, load, c, pverts[i:]):
            return False
        v = pverts[i]
        for subset in candidates(v):
            branch[v] = subset
            for u in subset:
                load[u] += 1
            if rec(i + 1):
                return True
            for u in subset:
                load[u] -= 1
            del branch[v]
        return False

    if rec(0):
        return MinorModel(host, pattern, dict(branch), c, d)
    return None


# ===== Universal-vertex reduction =====


def strip_universal(m: MinorModel, u: int) -> tuple[tuple[int, ...], MinorModel]:
    """Removes a host vertex and every pattern vertex whose branch uses it.

    Returns the removed pattern vertices (sorted) and the restricted model,
    whose host drops ``u`` and whose pattern drops the returned vertices.
    """
    if not m.host.has_vertex(u):
        raise ValueError(f"unknown host vertex {u}")
    dropped = tuple(sorted(v for v in m.pattern.vertices if u in m.branch.get(v, ())))
    keep = [v for v in m.pattern.vertices if v not in dropped]
    host = induced(m.host, [w for w in m.host.vertices if w != u])
    pattern = induced(m.pattern, keep)
    branch = {v: m.branch[v] for v in keep}
    return dropped, MinorModel(host, pattern, branch, m.c, m.d)
