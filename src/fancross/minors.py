"""Shallow minor models with bounded congestion.

A model maps every pattern vertex to a nonempty branch set of host vertices.
It is valid when (i) every branch set induces a connected subgraph of radius
at most ``d``, (ii) every host vertex lies in at most ``c`` branch sets, and
(iii) the branch sets of adjacent pattern vertices touch, i.e. intersect or
are joined by a host edge.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from functools import reduce
from operator import or_
from types import MappingProxyType
from typing import Optional

from .errors import CapExceeded
from .graphs import Graph, _checked_graph, _checked_int, induced, radius_center


# ===== Models =====


@dataclass(frozen=True)
class MinorModel:
    """A congestion-``c`` depth-``d`` minor model of ``pattern`` in ``host``.

    Its shape is checked once, when it is built, and refused with
    ``ValueError``: a host or a pattern that is not a :class:`Graph`,
    branch sets that are not a map of collections, a missing, empty or
    unknown branch set or host vertex, and a ``c`` or ``d`` out of range.
    ``branch`` becomes a read-only view of a copy whose branch sets are
    tuples, so a model never changes; :func:`verify_model` checks what it
    means.
    """

    host: Graph
    pattern: Graph
    branch: Mapping[int, tuple[int, ...]]
    c: int
    d: int

    def __post_init__(self) -> None:
        _checked_graph("host", self.host)
        _checked_graph("pattern", self.pattern)
        # The usual classes are tested first, so they skip the slower
        # abstract-class checks.
        if not isinstance(self.branch, (dict, Mapping)):
            raise ValueError(f"branch {self.branch!r} is not a map")
        _checked_bounds(self.c, self.d)
        for v in self.pattern.vertices:
            if v not in self.branch:
                raise ValueError(f"missing branch for vertex {v}")
        hosts = self.host._vertex_set
        branch: dict[int, tuple[int, ...]] = {}
        for v, vs in self.branch.items():
            if not self.pattern.has_vertex(v):
                raise ValueError(f"unknown pattern vertex {v} in branch")
            if not isinstance(vs, (tuple, Collection)):
                raise ValueError(f"branch set {vs!r} of vertex {v} is not a collection")
            if not vs:
                raise ValueError(f"empty branch for vertex {v}")
            for u in vs:
                if _checked_int("branch entry", u) not in hosts:
                    raise ValueError(f"unknown host vertex {u} in branch")
            branch[v] = tuple(vs)
        object.__setattr__(self, "branch", MappingProxyType(branch))


def _touch(host: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Whether two vertex sets intersect or are joined by a host edge."""
    sa, sb = set(a), set(b)
    if sa & sb:
        return True
    return any(w in sb for u in sa for w in host.neighbors(u))


def _checked_bounds(c: int, d: int) -> None:
    """Refuses a congestion ``c`` or a depth ``d`` that is not an int
    (``bool`` included), a ``c`` below 1 and a ``d`` below 0."""
    if _checked_int("c", c) < 1 or _checked_int("d", d) < 0:
        raise ValueError("bad model: c must be positive and d nonnegative")


def _checked_is_model(m: MinorModel) -> MinorModel:
    """``m``, refused unless it is a :class:`MinorModel`."""
    if not isinstance(m, MinorModel):
        raise ValueError(f"model {m!r} is not a MinorModel")
    return m


def verify_model(m: MinorModel) -> list[str]:
    """Checks the three model conditions; returns sorted violation strings.

    Anything but a :class:`MinorModel` raises ValueError; a model checked
    its own shape when it was built.
    """
    _checked_is_model(m)
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


def _twin_chain(pattern: Graph) -> list[Optional[int]]:
    """For each pattern vertex, by position in ``pattern.vertices``, the
    position of its latest earlier twin, or None.  Twins ``v`` and ``w``
    have N(v) - {w} = N(w) - {v}: equal open or equal closed
    neighbourhoods."""
    vs = pattern.vertices
    nbrs = [set(pattern.neighbors(v)) for v in vs]
    return [
        max((j for j in range(i) if nbrs[i] - {vs[j]} == nbrs[j] - {vs[i]}), default=None)
        for i in range(len(vs))
    ]


def find_model_bruteforce(
    host: Graph, pattern: Graph, c: int, d: int, cap: int = 10
) -> Optional[MinorModel]:
    """Finds the first congestion-``c`` depth-``d`` model, or None.

    Pattern vertices are assigned in ``pattern.vertices`` order.  Each takes
    its branch set from the admissible sets (connected, radius <= ``d``) in
    (size, lex) order: by size, then as ``itertools.combinations`` yields them
    over ``host.vertices``.  The capacity and zone prunes only cut branches
    with no valid completion, so the model returned is the least valid one
    when models are compared by the positions of their branch sets, vertex
    by vertex.  Host vertex ``i`` of ``host.vertices`` is bit ``1 << i``; a set
    is kept with its mask and its zone, the union of its members' closed
    neighbourhoods, so two sets touch exactly when one's mask meets the
    other's zone.

    Twins are pattern vertices ``w`` and ``v`` with N(v) - {w} = N(w) - {v}.
    When ``w`` is the latest earlier twin of ``v``, the sets tried for ``v``
    start at the position of ``w``'s set; equal sets are allowed.  This
    keeps the first model: if a valid model put ``w``'s set after ``v``'s,
    swapping the two sets would keep every branch set, every load and every
    touching pattern edge (the twins have the same other neighbours), so it
    would be a valid model that comes earlier.  Twinship is an equivalence,
    so chaining each vertex to its latest earlier twin orders a whole class.

    Hosts with more than ``cap`` vertices are refused; raise the cap
    explicitly for larger exhaustive runs.  A host or pattern that is not a
    :class:`Graph` is refused with ``ValueError``.
    """
    _checked_graph("host", host)
    _checked_graph("pattern", pattern)
    _checked_bounds(c, d)
    if host.n > _checked_int("cap", cap):
        raise CapExceeded("search cap exceeded")
    hverts = host.vertices
    bit = {u: 1 << i for i, u in enumerate(hverts)}
    closed = {u: bit[u] | sum(bit[w] for w in host.neighbors(u)) for u in hverts}
    ball = dict(bit)  # host vertices within distance d
    for _ in range(min(d, host.n)):
        ball = {u: reduce(or_, (closed[w] for w in hverts if b & bit[w])) for u, b in ball.items()}
    by_size: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}

    def sets_of(size: int) -> list[tuple[tuple[int, ...], int, int]]:
        if size not in by_size:
            by_size[size] = []
            for s in itertools.combinations(hverts, size):
                mask = sum(bit[u] for u in s)
                # A set of radius <= d lies in the host d-ball of its centre.
                # That is enough for one vertex, and for d < 2 (a star).
                if any(not mask & ~ball[u] for u in s) and (
                    size == 1 or d < 2 or _admissible(host, s, d)
                ):
                    by_size[size].append((s, mask, reduce(or_, (closed[u] for u in s))))
        return by_size[size]

    pverts = pattern.vertices
    p, capacity = len(pverts), c * host.n
    at = {v: i for i, v in enumerate(pverts)}
    nbrs = [{at[w] for w in pattern.neighbors(v)} for v in pverts]
    earlier = [sorted(j for j in nbrs[i] if j < i) for i in range(p)]
    # watch[i]: assigned vertices with a neighbour still unassigned at depth i
    watch = [[j for j in range(i) if max(nbrs[j], default=-1) >= i] for i in range(p)]
    twin = _twin_chain(pattern)
    chosen: list[tuple[int, ...]] = [()] * p
    zones = [0] * p
    pos = [(1, 0)] * p

    def rec(i: int, loads: tuple[int, ...], used: int) -> bool:
        # loads[j] masks the host vertices in more than j chosen sets
        if i == p:
            return True
        if capacity - used < p - i:
            return False
        full = loads[-1]
        if any(not zones[j] & ~full for j in watch[i]):
            return False
        first_size, first_index = (1, 0) if twin[i] is None else pos[twin[i]]
        for size in range(first_size, host.n - full.bit_count() + 1):
            sets = sets_of(size)
            for k in range(first_index if size == first_size else 0, len(sets)):
                subset, mask, zone = sets[k]
                if mask & full or any(not mask & zones[j] for j in earlier[i]):
                    continue
                chosen[i], zones[i], pos[i] = subset, zone, (size, k)
                grown = (loads[0] | mask,) + tuple(
                    loads[j] | (loads[j - 1] & mask) for j in range(1, c)
                )
                if rec(i + 1, grown, used + size):
                    return True
        return False

    if rec(0, (0,) * c, 0):
        return MinorModel(host, pattern, dict(zip(pverts, chosen)), c, d)
    return None


# ===== Universal-vertex reduction =====


def strip_universal(m: MinorModel, u: int) -> tuple[tuple[int, ...], MinorModel]:
    """Removes a host vertex and every pattern vertex whose branch uses it.

    Returns the removed pattern vertices (sorted) and the restricted model,
    whose host drops ``u`` and whose pattern drops the returned vertices.
    """
    if not _checked_is_model(m).host.has_vertex(_checked_int("u", u)):
        raise ValueError(f"unknown host vertex {u}")
    dropped = tuple(sorted(v for v in m.pattern.vertices if u in m.branch.get(v, ())))
    keep = [v for v in m.pattern.vertices if v not in dropped]
    host = induced(m.host, [w for w in m.host.vertices if w != u])
    pattern = induced(m.pattern, keep)
    branch = {v: m.branch[v] for v in keep}
    return dropped, MinorModel(host, pattern, branch, m.c, m.d)
