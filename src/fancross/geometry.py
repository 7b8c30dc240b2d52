"""Exact integer plane geometry and drawing builders.

Callers give coordinates as ints, strings or :class:`fractions.Fraction`.
:func:`drawing_from_polylines` multiplies every vertex and bend point once by
the least common multiple of their denominators; positions only decide
orders (crossing ids, rotations, the order of crossings along an edge, the
outer face), and a positive common scale keeps every one of them.  From then
on the predicates :func:`orientation`, :func:`strictly_inside` and
:func:`properly_cross` see plain ``int`` coordinates, and the only rationals
are crossing points and parameters, which :func:`cross_point` and
:func:`param_along` build as ``Fraction(numerator, denominator)`` from
integer parts.  Every incidence test is exact: no epsilons, no rounding.
The entry points :func:`drawing_from_segments` and
:func:`drawing_from_polylines` turn a graph with vertex positions (and
optional per-edge bend chains) into a :class:`~fancross.drawing.Drawing`,
rejecting every degenerate configuration outright.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .drawing import Drawing
from .graphs import Graph

Coord = Union[int, Fraction]
Point = tuple[Coord, Coord]
Vec = tuple[Coord, Coord]


# ===== Primitives =====


def pt(x: object, y: object) -> Point:
    """A point with exact coordinates (accepts ints, strings, Fractions)."""
    return (Fraction(x), Fraction(y))


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: 1 counterclockwise, -1 clockwise, 0 collinear."""
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def strictly_inside(a: Point, b: Point, x: Point) -> bool:
    """Whether ``x`` lies on segment ``ab`` strictly between its endpoints."""
    if orientation(a, b, x) != 0:
        return False
    dot = (x[0] - a[0]) * (b[0] - a[0]) + (x[1] - a[1]) * (b[1] - a[1])
    length2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < length2


def properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether segments ``ab`` and ``cd`` cross at a single interior point."""
    return (
        orientation(a, b, c) * orientation(a, b, d) < 0
        and orientation(c, d, a) * orientation(c, d, b) < 0
    )


def cross_point(a: Point, b: Point, c: Point, d: Point) -> tuple[Fraction, Fraction]:
    """The intersection point of the lines ``ab`` and ``cd`` (must not be
    parallel), as ``Fraction`` coordinates."""
    r: Vec = (b[0] - a[0], b[1] - a[1])
    s: Vec = (d[0] - c[0], d[1] - c[1])
    den = r[0] * s[1] - r[1] * s[0]
    if den == 0:
        raise ValueError("parallel lines have no crossing point")
    num = (c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]
    return (
        Fraction(a[0] * den + num * r[0], den),
        Fraction(a[1] * den + num * r[1], den),
    )


def param_along(a: Point, b: Point, x: Point) -> Fraction:
    """The parameter ``t`` with ``x = a + t*(b-a)`` for a point on line ``ab``."""
    if b[0] != a[0]:
        return Fraction(x[0] - a[0], b[0] - a[0])
    if b[1] != a[1]:
        return Fraction(x[1] - a[1], b[1] - a[1])
    raise ValueError("degenerate segment")


def _half(v: Vec) -> int:
    """0 for the closed upper half starting at the positive x-axis, 1 below."""
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def dir_cmp(v1: Vec, v2: Vec) -> int:
    """Compare direction vectors by angle counterclockwise from east."""
    h1, h2 = _half(v1), _half(v2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    return (cross < 0) - (cross > 0)


def sort_ccw(items: Iterable[tuple[object, Vec]]) -> list[object]:
    """Payloads sorted by the counterclockwise angle of their vectors."""
    pairs = list(items)
    pairs.sort(key=cmp_to_key(lambda p, q: dir_cmp(p[1], q[1])))
    return [k for k, _ in pairs]


# ===== Polyline drawings =====


def drawing_from_polylines(
    g: Graph,
    pos: Mapping[int, Point],
    bends: Optional[Mapping[int, Sequence[Point]]] = None,
) -> Drawing:
    """Builds the drawing of ``g`` where each edge follows a polyline.

    ``bends[eid]`` lists an edge's interior corner points in order from its
    smaller endpoint; corners become subdivision vertices of the plan.
    Degenerate inputs raise ValueError: coincident points, a vertex or bend
    in the interior of any segment, overlapping collinear pieces,
    self-crossing edges, or three edges through one point.  Crossing vertices
    get fresh ids in coordinate order; the outer face is recovered from the
    geometry.
    """
    for v in g.vertices:
        if v not in pos:
            raise ValueError(f"vertex {v} has no position")
    bends = bends or {}
    for eid in bends:
        if not (0 <= eid < g.m):
            raise ValueError(f"unknown edge {eid} in bends")

    # One common integer scale for every vertex and bend point.
    given = [pos[v] for v in g.vertices] + [p for chain in bends.values() for p in chain]
    scale = lcm(*(Fraction(c).denominator for p in given for c in p))

    def grid(p: Point) -> tuple[int, int]:
        return (int(Fraction(p[0]) * scale), int(Fraction(p[1]) * scale))

    pts = {v: grid(pos[v]) for v in g.vertices}
    chains = {
        eid: [pts[u], *map(grid, bends.get(eid, ())), pts[v]]
        for eid, (u, v) in enumerate(g.edges)
    }

    # Every vertex and bend point is a node; nodes are pairwise distinct.
    node_pts: set[tuple[int, int]] = set()
    for p in [*pts.values(), *(p for eid in sorted(bends) for p in chains[eid][1:-1])]:
        if p in node_pts:
            raise ValueError("coincident vertices")
        node_pts.add(p)

    # Segments: (edge, index along chain, endpoints).
    segs: list[tuple[int, int, tuple[int, int], tuple[int, int]]] = []
    for eid, chain in chains.items():
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            if a == b:
                raise ValueError("degenerate segment")
            segs.append((eid, i, a, b))

    for p in node_pts:
        for _, _, a, b in segs:
            if strictly_inside(a, b, p):
                raise ValueError("vertex on edge")

    # Any collinear overlap between segments puts some chain point strictly
    # inside another segment, so the check above already rejected it.
    hits: dict[Point, set[int]] = {}  # crossing point -> the two edges
    along: dict[tuple[int, int], list[tuple[Fraction, Point]]] = {}
    for s1 in range(len(segs)):
        for s2 in range(s1 + 1, len(segs)):
            e1, i1, a, b = segs[s1]
            e2, i2, c, d = segs[s2]
            if e1 == e2:
                if abs(i1 - i2) > 1 and properly_cross(a, b, c, d):
                    raise ValueError("edge crosses itself")
                continue
            if properly_cross(a, b, c, d):
                x = cross_point(a, b, c, d)
                entry = hits.setdefault(x, set())
                entry |= {e1, e2}
                if len(entry) > 2:
                    raise ValueError("concurrent crossings")
                along.setdefault((e1, i1), []).append((param_along(a, b, x), x))
                along.setdefault((e2, i2), []).append((param_along(c, d, x), x))

    fresh = max(g.vertices, default=-1) + 1
    kind = {v: f"real:{v}" for v in g.vertices}
    ppos: dict[int, Point] = dict(pts)
    bend_id: dict[tuple[int, int], int] = {}
    for eid in sorted(bends):
        for i, p in enumerate(chains[eid][1:-1]):
            bend_id[(eid, i)] = fresh
            kind[fresh] = "subdivision"
            ppos[fresh] = p
            fresh += 1
    xid: dict[Point, int] = {}
    for x in sorted(hits):
        xid[x] = fresh
        kind[fresh] = "crossing"
        ppos[fresh] = x
        fresh += 1

    # Plan paths: walk each chain, inserting crossings in parameter order and
    # bend vertices at the chain corners.  Every plan edge lies on one
    # segment, so its direction is that segment's integer direction.
    paths: dict[int, list[int]] = {}
    dart_dir: dict[tuple[int, int], Vec] = {}
    for eid, (u, v) in enumerate(g.edges):
        chain = chains[eid]
        path = [u]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            r = (b[0] - a[0], b[1] - a[1])
            stops = [xid[x] for _, x in sorted(along.get((eid, i), ()))]
            stops.append(bend_id[(eid, i)] if i < len(chain) - 2 else v)
            for q in stops:
                dart_dir[(path[-1], q)] = r
                dart_dir[(q, path[-1])] = (-r[0], -r[1])
                path.append(q)
        paths[eid] = path
    plan_edges = [(p, q) for path in paths.values() for p, q in zip(path, path[1:])]
    plan = Graph.make(sorted(ppos), plan_edges)

    rotation: dict[int, tuple[int, ...]] = {}
    adj_eids: dict[int, list[int]] = {p: [] for p in plan.vertices}
    for peid, (p, q) in enumerate(plan.edges):
        adj_eids[p].append(peid)
        adj_eids[q].append(peid)
    for p in plan.vertices:
        items = []
        for peid in adj_eids[p]:
            a, b = plan.edges[peid]
            items.append((peid, dart_dir[(p, b if a == p else a)]))
        rotation[p] = tuple(sort_ccw(items))

    trace = {
        eid: tuple(plan.edge_id(a, b) for a, b in zip(path, path[1:]))
        for eid, path in paths.items()
    }
    d = Drawing(g, plan, rotation, kind, trace, 0)
    if plan.m:
        d = d.with_outer(_outer_face_index(d, ppos, dart_dir))
    return d


def drawing_from_segments(g: Graph, pos: Mapping[int, Point]) -> Drawing:
    """Builds the drawing of ``g`` with every edge a straight segment."""
    return drawing_from_polylines(g, pos, None)


def _outer_face_index(
    d: Drawing, ppos: Mapping[int, Point], dart_dir: Mapping[tuple[int, int], Vec]
) -> int:
    """The face on the unbounded side: walk from the lowest plan vertex along
    its highest-angle edge; the face left of that dart is outer."""
    p0 = min(
        (p for p in d.plan.vertices if d.plan.degree(p)),
        key=lambda p: (ppos[p][1], ppos[p][0]),
    )
    best = None
    for q in d.plan.neighbors(p0):
        v = dart_dir[(p0, q)]
        if best is None or dir_cmp(v, best[1]) > 0:
            best = (q, v)
    assert best is not None
    return d.face_of_dart((p0, best[0]))
