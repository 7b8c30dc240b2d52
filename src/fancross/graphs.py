"""Core graph values: simple graphs, colored graphs, fans, and generators.

All values are immutable.  Graphs are finite simple graphs over integer
vertex ids; edges are stored as sorted ``(u, v)`` tuples with ``u < v`` and
are identified by their index in the lexicographically sorted edge list.
Functions never mutate their arguments and always produce deterministically
ordered output.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


# ===== Graphs =====


def _checked_int(name: str, value: int) -> int:
    """``value``, refused with ``ValueError("<name> <value> is not an int")``
    unless it is an int; ``bool`` is refused although it is one."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an int")
    return value


def _checked_pair(name: str, value: object) -> tuple:
    """``value`` unpacked into its two items, refused with
    ``ValueError("<name> <value> is not a pair")`` unless it has two."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} {value!r} is not a pair") from None
    return a, b


def _checked_iter(name: str, value: Iterable) -> Iterator:
    """An iterator over ``value``, refused with ``ValueError("<name>
    <value> are not iterable")`` if it has none; its items are not read."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} are not iterable") from None


def _checked_graph(name: str, g: object) -> "Graph":
    """``g``, refused with ``ValueError("<name> <g> is not a Graph")``
    unless it is a :class:`Graph`."""
    if not isinstance(g, Graph):
        raise ValueError(f"{name} {g!r} is not a Graph")
    return g


@dataclass(frozen=True)
class Graph:
    """A finite simple graph with integer vertex ids.

    ``vertices`` is sorted ascending; ``edges`` is sorted lexicographically
    with each edge normalized to ``(min, max)``.  The id of an edge is its
    index in ``edges``.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def make(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> "Graph":
        """Builds a graph, normalizing order and rejecting malformed input.

        Raises:
            ValueError: on vertices or edges that cannot be iterated, an
                edge that is not a pair, ids that are not ints
                (``bool`` included), loops, parallel edges, or unknown
                endpoints.
        """
        # The checks of _checked_int and _checked_pair, with their messages,
        # written out: this runs once per vertex and edge of every plan.
        vs = list(_checked_iter("vertices", vertices))
        for v in vs:
            if type(v) is not int:
                raise ValueError(f"vertex {v!r} is not an int")
        vset = set(vs)
        norm: list[tuple[int, int]] = []
        for e in _checked_iter("edges", edges):
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair") from None
            if type(u) is not int:
                raise ValueError(f"vertex {u!r} is not an int")
            if type(v) is not int:
                raise ValueError(f"vertex {v!r} is not an int")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) has unknown endpoint")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"parallel edge {a}")
        return Graph(tuple(sorted(vset)), tuple(norm))

    @cached_property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _vertex_set(self) -> frozenset[int]:
        """The vertices as a set, for checks that look up many ints."""
        return frozenset(self.vertices)

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbor lists.

        No sort is needed: ``edges`` is sorted with every edge ``(min,
        max)``, so a vertex meets its smaller neighbours first, in order,
        and then its larger ones.
        """
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(ns) for v, ns in nbrs.items()}

    def has_vertex(self, v: int) -> bool:
        """Whether the int ``v`` is a vertex, by a binary search of the
        sorted ``vertices``, so that no adjacency is built."""
        vs = self.vertices
        i = bisect_left(vs, v) if type(v) is int else len(vs)
        return i < len(vs) and vs[i] == v

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        """The id of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._edge_index[(min(u, v), max(u, v))]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def induced(g: Graph, keep: Iterable[int]) -> Graph:
    """The subgraph of ``g`` induced by the vertex set ``keep``."""
    ks = set(keep)
    return Graph.make(
        (v for v in g.vertices if v in ks),
        (e for e in g.edges if e[0] in ks and e[1] in ks),
    )


def bfs_dists(g: Graph, source: int, within: Optional[Iterable[int]] = None) -> dict[int, int]:
    """BFS distances from ``source``, optionally restricted to a vertex set."""
    allowed = set(g.vertices) if within is None else set(within)
    if source not in allowed:
        raise ValueError(f"source {source} not in allowed set")
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.neighbors(u):
            if w in allowed and w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def radius_center(g: Graph, subset: Optional[Iterable[int]] = None) -> tuple[int, int]:
    """The center and radius of ``g`` induced on ``subset`` (default: all of V).

    Returns ``(center, radius)`` where ``center`` is the smallest vertex of
    minimum eccentricity within the induced subgraph.

    Raises:
        ValueError: ``"not connected"`` if the subset is empty or the induced
            subgraph is disconnected, and another message if ``g`` is not a
            :class:`Graph` or the subset is not a set of its vertices.
    """
    _checked_graph("graph", g)
    try:
        verts = sorted(set(g.vertices if subset is None else subset))
    except TypeError:
        verts = None
    if verts is None or not g._vertex_set.issuperset(verts):
        raise ValueError(f"subset {subset!r} is not a set of vertices of the graph")
    if not verts:
        raise ValueError("not connected")
    eccs = []
    for v in verts:
        dist = bfs_dists(g, v, within=verts)
        if len(dist) != len(verts):
            raise ValueError("not connected")
        eccs.append((max(dist.values()), v))
    ecc, center = min(eccs)
    return center, ecc


# ===== Fans and fan covers =====


@dataclass(frozen=True)
class Fan:
    """A center vertex together with a set of edges incident to it, each
    stored as ``(min, max)`` like a :class:`Graph` edge."""

    center: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _checked_int("fan center", self.center)
        if not isinstance(self.edges, (tuple, list)):
            raise ValueError(f"fan edges {self.edges!r} are not a list")
        edges = []
        for e in self.edges:
            u, v = _checked_pair("fan edge", e)
            _checked_int("fan edge end", u)
            _checked_int("fan edge end", v)
            if self.center != u and self.center != v:
                raise ValueError("not a fan")
            edges.append((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(edges)))


def vertex_cover(edges: Sequence[tuple[int, int]], ell: int) -> Optional[tuple[int, ...]]:
    """At most ``ell`` vertices touching every edge, by the classic exact
    branching on the two ends of the first uncovered edge; None if none."""
    if not edges:
        return ()
    if ell <= 0:
        return None
    u, v = edges[0]
    for center in (u, v):
        got = vertex_cover([e for e in edges if center not in e], ell - 1)
        if got is not None:
            return (center, *got)
    return None


def fan_cover(
    g: Graph, target: Iterable[Sequence[int]], ell: int
) -> Optional[list[Fan]]:
    """Covers the ``target`` edges by at most ``ell`` fans of ``g``, exactly.

    A cover exists iff the target edge set has a vertex cover of size at most
    ``ell`` (:func:`vertex_cover`).  On success the cover is the canonical
    fans of the chosen centers (:func:`_canonical_groups`).  Returns ``None``
    if no cover of size ``ell`` exists.
    """
    edges = sorted(set((min(u, v), max(u, v)) for u, v in target))
    for e in edges:
        if not g.has_edge(*e):
            raise ValueError(f"target edge {e} not in graph")
    centers = vertex_cover(edges, ell)
    if centers is None:
        return None
    # A vertex cover leaves no edge without a center.
    return [Fan(c, es) for c, es in _canonical_groups(edges, sorted(centers))]


class _FanGroup(NamedTuple):
    """A center and the edges given to it, read like a :class:`Fan` by a
    check that takes ``center`` and ``edges``, but made without its checks."""

    center: int
    edges: list[tuple[int, int]]


def _canonical_groups(
    edges: Iterable[tuple[int, int]], centers: Sequence[int]
) -> Optional[list[_FanGroup]]:
    """The canonical groups of ``edges`` on the increasing ``centers``: each
    edge goes to the least center it contains, and one group per used
    center is returned, sorted by center, its edges in the given order;
    None if some edge contains no center."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        for c in centers:
            if c in e:
                break
        else:
            return None
        groups.setdefault(c, []).append(e)
    return [_FanGroup(c, groups[c]) for c in sorted(groups)]


# ===== Colored graphs =====

_COLOR_KINDS = ("c", "cP", "b", "bP")


class _Label(NamedTuple):
    """The fields of a :class:`ColorLabel`."""

    kind: str
    index: int


class ColorLabel(_Label):
    """A color label: kind ``c``/``cP`` (indexed from 1) or ``b``/``bP`` (from 0).

    A label is the tuple ``(kind, index)``: it hashes, compares and sorts
    as that tuple, in C, and equals the plain tuple ``(kind, index)``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "ColorLabel":
        if kind not in _COLOR_KINDS:
            raise ValueError(f"unknown color kind {kind!r}")
        low = 1 if kind in ("c", "cP") else 0
        if _checked_int("color index", index) < low:
            raise ValueError(f"color index {index} out of range for {kind}")
        return super().__new__(cls, kind, index)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @staticmethod
    def parse(text: str) -> "ColorLabel":
        if not isinstance(text, str):
            raise ValueError(f"bad color label {text!r}")
        for kind in ("cP", "bP", "c", "b"):
            if text.startswith(kind) and text[len(kind):].isdigit():
                return ColorLabel(kind, int(text[len(kind):]))
        raise ValueError(f"bad color label {text!r}")


@dataclass(frozen=True)
class ColoredGraph:
    """A graph whose vertices carry sets of color labels (possibly stacked)."""

    graph: Graph
    colors: dict[int, frozenset[ColorLabel]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vset = set(_checked_graph("graph", self.graph).vertices)
        if not isinstance(self.colors, (dict, Mapping)):
            raise ValueError(f"colors {self.colors!r} are not a map")
        for v in self.colors:
            if v not in vset:
                raise ValueError(f"colored vertex {v} not in graph")
        try:
            colors = {v: frozenset(ls) for v, ls in self.colors.items() if ls}
        except TypeError:
            raise ValueError(f"colors {self.colors!r} are not a map to label sets") from None
        # The classes of all the labels are gathered in C, and each of the
        # few found is tested once.
        kinds = set(map(type, itertools.chain.from_iterable(colors.values())))
        if not all(issubclass(t, ColorLabel) for t in kinds):
            v, label = next(
                (v, x)
                for v, ls in colors.items()
                for x in ls
                if not issubclass(type(x), ColorLabel)
            )
            raise ValueError(f"color {label!r} of vertex {v} is not a ColorLabel")
        object.__setattr__(self, "colors", colors)

    def labels(self, v: int) -> frozenset[ColorLabel]:
        return self.colors.get(v, frozenset())

    def has(self, v: int, label: ColorLabel) -> bool:
        return label in self.labels(v)


# ===== Composition and generators =====


def add_universal_vertex(g: Graph) -> tuple[Graph, int]:
    """Adds a vertex adjacent to every existing vertex; returns it too."""
    u = (max(g.vertices) + 1) if _checked_graph("graph", g).n else 0
    return (
        Graph.make(g.vertices + (u,), g.edges + tuple((v, u) for v in g.vertices)),
        u,
    )


def _positive(name: str, *dims: int) -> None:
    for d in dims:
        if _checked_int("dimension", d) < 1:
            raise ValueError(f"{name} requires positive dimensions, got {dims}")


def grid2d(m: int, n: int) -> Graph:
    """The m-by-n grid graph; vertex ``(i, j)`` has id ``i * n + j``."""
    _positive("grid2d", m, n)
    verts = range(m * n)
    edges = []
    for i in range(m):
        for j in range(n):
            if j + 1 < n:
                edges.append((i * n + j, i * n + j + 1))
            if i + 1 < m:
                edges.append((i * n + j, (i + 1) * n + j))
    return Graph.make(verts, edges)


def cycle(n: int) -> Graph:
    """The cycle on vertices ``0 .. n-1``; requires ``n >= 3``."""
    if _checked_int("n", n) < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    return Graph.make(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """The path on vertices ``0 .. n-1``."""
    _positive("path", n)
    return Graph.make(range(n), [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    """The complete graph on vertices ``0 .. n-1``."""
    _positive("complete", n)
    return Graph.make(range(n), itertools.combinations(range(n), 2))
