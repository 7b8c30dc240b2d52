"""Exact integer plane geometry and drawing builders.

Callers give coordinates as ints, strings or :class:`fractions.Fraction`.
:func:`drawing_from_polylines` multiplies every vertex and bend point once by
the least common multiple of their denominators (int coordinates pass
through as they are); positions only decide orders (crossing ids, rotations,
the order of crossings along an edge, the outer face), and a positive common
scale keeps every one of them.  From then on every test runs on plain
``int`` coordinates: the predicates :func:`orientation` and
:func:`properly_cross`, the node-on-segment test, and :func:`_meet`, which
gives a crossing point as the reduced integer triple ``(X, Y, D)`` for the
point ``(X/D, Y/D)``.  Crossing points are ordered by integer
cross-multiplication, and no ``Fraction`` is built for integer input.  Every
incidence test is exact: no epsilons, no rounding.
The entry points :func:`drawing_from_segments` and
:func:`drawing_from_polylines` turn a graph with vertex positions (and
optional per-edge bend chains) into a :class:`~fancross.drawing.Drawing`,
rejecting every degenerate configuration outright.  They and the
synthesizer's region arenas draw through one path: :func:`_arrangement`
finds and numbers the crossings of tagged segments, :func:`_rotations`
orders each vertex's neighbours from straight runs of vertices, and
:func:`_drawing_along` assembles the plan, rotations and traces.  The last
two work on integer ids and small integers: a crossing's four rays are two
opposite pairs, which one :func:`dir_cmp` orders, and the plan is numbered
once, its edges then read by their ``(min, max)`` pairs.  :func:`sort_ccw`
stays the one general ordering of rays.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .drawing import Drawing
from .graphs import Graph, _checked_int, _checked_pair

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


def properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether segments ``ab`` and ``cd`` cross at a single interior point."""
    return (
        orientation(a, b, c) * orientation(a, b, d) < 0
        and orientation(c, d, a) * orientation(c, d, b) < 0
    )


def _meet(a: Point, b: Point, c: Point, d: Point) -> tuple[int, int, int]:
    """The intersection point of the lines ``ab`` and ``cd`` on integer
    coordinates (they must not be parallel), as the reduced integer triple
    ``(X, Y, D)`` with ``D > 0`` for the point ``(X/D, Y/D)``; equal points
    give equal triples."""
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    den = rx * sy - ry * sx
    if den == 0:
        raise ValueError("parallel lines have no crossing point")
    num = (c[0] - a[0]) * sy - (c[1] - a[1]) * sx
    x, y = a[0] * den + num * rx, a[1] * den + num * ry
    if den < 0:
        x, y, den = -x, -y, -den
    g = gcd(x, y, den)
    return (x // g, y // g, den // g)


def _point_cmp(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """Compare records ``(X, Y, D, ...)`` by the point ``(X/D, Y/D)`` in
    (x, y) order."""
    c = p[0] * q[2] - q[0] * p[2] or p[1] * q[2] - q[1] * p[2]
    return (c > 0) - (c < 0)


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


# ===== Segment arrangements and the drawings along them =====


def _box(a: Point, b: Point) -> tuple[Coord, Coord, Coord, Coord]:
    """The bounding box ``(xlo, xhi, ylo, yhi)`` of segment ``ab``."""
    return (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))


def _arrangement(
    segs: Sequence[tuple[object, Point, Point]],
) -> Optional[tuple[list[tuple[int, int, int]], list[list[int]]]]:
    """The crossings of the integer segments ``(tag, a, b)``.

    Pairs are tested in order ``(s1, s2)``, ``s1 < s2``; pairs with disjoint
    bounding boxes and pairs that share an endpoint never cross.  Two
    crossing segments with one tag raise ``ValueError("edge crosses
    itself")``, and the answer is None as soon as a crossing point repeats
    under another set of tags.  Otherwise returns the crossing points as
    :func:`_meet` triples in coordinate order and, for each segment, the
    numbers of its crossings in order from ``a``.  A segment is monotone in
    (x, y) order, so those are its crossing numbers increasing from its
    smaller end.
    """
    boxes = [_box(a, b) for _, a, b in segs]
    tags_at: dict[tuple[int, int, int], set[object]] = {}
    recs: list[tuple[int, int, int, int, int]] = []
    for s1, (t1, a, b) in enumerate(segs):
        (ax, ay), (bx, by) = a, b
        rx, ry = bx - ax, by - ay
        xlo, xhi, ylo, yhi = boxes[s1]
        for s2 in range(s1 + 1, len(segs)):
            cxlo, cxhi, cylo, cyhi = boxes[s2]
            if cxhi < xlo or cxlo > xhi or cyhi < ylo or cylo > yhi:
                continue
            t2, c, d = segs[s2]
            (cx, cy), (dx, dy) = c, d
            o1 = rx * (cy - ay) - ry * (cx - ax)
            o2 = rx * (dy - ay) - ry * (dx - ax)
            if not (o1 < 0 < o2 or o2 < 0 < o1):
                continue
            sx, sy = dx - cx, dy - cy
            o3 = sx * (ay - cy) - sy * (ax - cx)
            o4 = sx * (by - cy) - sy * (bx - cx)
            if not (o3 < 0 < o4 or o4 < 0 < o3):
                continue
            if t1 == t2:
                raise ValueError("edge crosses itself")
            x = _meet(a, b, c, d)
            tags = {t1, t2}
            if tags_at.setdefault(x, tags) != tags:
                return None
            recs.append((*x, s1, s2))
    recs.sort(key=cmp_to_key(_point_cmp))  # stable: ties keep (s1, s2) order
    along: list[list[int]] = [[] for _ in segs]
    for i, (*_, s1, s2) in enumerate(recs):
        along[s1].append(i)
        along[s2].append(i)
    for on, (_, a, b) in zip(along, segs):
        if a > b:
            on.reverse()
    return [r[:3] for r in recs], along


def _rotations(runs: Iterable[tuple[Sequence[int], Vec]]) -> dict[int, tuple[int, ...]]:
    """Each vertex's neighbours in counterclockwise order, from straight runs
    of vertices, each given with its non-zero integer direction from first
    to last.  The order is :func:`sort_ccw`'s for every vertex.

    A vertex inside a run gets the run's two rays one after the other, so a
    crossing gets two opposite pairs.  There, with ``u`` and ``v`` the rays
    of the two pairs in the upper half (:func:`_half` 0) and ``u`` before
    ``v``, the order is ``u, v, -u, -v``, from one :func:`dir_cmp`.  Two
    rays take one :func:`dir_cmp`, one ray none, and any other vertex goes
    through :func:`sort_ccw`.
    """
    rays: dict[int, list[tuple[int, Vec]]] = {}
    for run, (dx, dy) in runs:
        fwd, back = (dx, dy), (-dx, -dy)
        for p, q in zip(run, run[1:]):
            rays.setdefault(p, []).append((q, fwd))
            rays.setdefault(q, []).append((p, back))
    out: dict[int, tuple[int, ...]] = {}
    for v, items in rays.items():
        if len(items) == 1:
            out[v] = (items[0][0],)
            continue
        if len(items) == 2:
            (p, a), (q, b) = items
            out[v] = (q, p) if dir_cmp(b, a) < 0 else (p, q)
            continue
        if len(items) == 4:
            (p, a), (q, b), (r, c), (s, e) = items
            if a == (-b[0], -b[1]) and c == (-e[0], -e[1]):
                u = (p, q, a) if _half(a) == 0 else (q, p, b)
                w = (r, s, c) if _half(c) == 0 else (s, r, e)
                turn = dir_cmp(u[2], w[2])
                if turn:  # else both pairs lie on one line
                    if turn > 0:
                        u, w = w, u
                    out[v] = (u[0], w[0], u[1], w[1])
                    continue
        out[v] = tuple(sort_ccw(items))
    return out


def _drawing_along(
    base: Graph,
    kind: Mapping[int, str],
    paths: Mapping[int, Sequence[int]],
    around: Mapping[int, Sequence[int]],
) -> Drawing:
    """The drawing of ``base`` whose edge ``eid`` runs through the plan
    vertices ``paths[eid]``, with outer face 0.

    The plan vertices are the keys of ``kind``.  ``around[v]`` lists the
    neighbours of ``v`` in counterclockwise order; a vertex missing from it
    lists its edges by id, which is the order of its sorted neighbours, as
    the plan's edges are sorted ``(min, max)`` pairs.  The plan is numbered
    once, by :meth:`Graph.make`, and every other rotation slot and every
    trace step is read from its edge index by its ``(min, max)`` pair.
    """
    plan = Graph.make(kind, (e for path in paths.values() for e in zip(path, path[1:])))
    index = plan._edge_index
    own: dict[int, list[int]] = {v: [] for v in plan.vertices if v not in around}
    for i, (p, q) in enumerate(plan.edges):
        if p in own:
            own[p].append(i)
        if q in own:
            own[q].append(i)
    rotation = {
        v: tuple(own[v]) if v in own else tuple(
            index[(v, w) if v < w else (w, v)] for w in around[v]
        )
        for v in plan.vertices
    }
    trace = {
        e: tuple(index[(p, q) if p < q else (q, p)] for p, q in zip(path, path[1:]))
        for e, path in paths.items()
    }
    return Drawing(base, plan, rotation, kind, trace, 0)


# ===== Polyline drawings =====


def _checked_point(name: str, p: object) -> None:
    """Refuses ``p`` with ``ValueError`` naming it unless it is a pair of
    numbers that ``Fraction`` reads.  A ``str``, which ``Fraction`` parses,
    and a ``bool``, which it reads as 0 or 1, are not numbers here."""
    for c in _checked_pair(name, p):
        if type(c) is not int:
            try:
                if isinstance(c, (str, bool)):
                    raise TypeError
                Fraction(c)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"{name} {p!r} has a coordinate {c!r} that is not a number"
                ) from None


def drawing_from_polylines(
    g: Graph,
    pos: Mapping[int, Point],
    bends: Optional[Mapping[int, Sequence[Point]]] = None,
) -> Drawing:
    """Builds the drawing of ``g`` where each edge follows a polyline.

    ``bends[eid]`` lists an edge's interior corner points in order from its
    smaller endpoint; corners become subdivision vertices of the plan.
    Malformed and degenerate inputs raise ValueError: a position or bend
    that is not a pair of numbers, bends that are not a map, an edge's
    bends that are not a list or name an edge ``g`` does not have,
    coincident points, a vertex or bend in the interior of
    any segment, overlapping collinear pieces, self-crossing edges, or
    three edges through one point.  Crossing vertices get fresh ids in
    coordinate order; the outer face, of the whole drawing and of every
    other plan component, is recovered from the geometry.
    """
    for v in g.vertices:
        if v not in pos:
            raise ValueError(f"vertex {v} has no position")
        _checked_point(f"position of vertex {v}", pos[v])
    bends = bends or {}
    if not isinstance(bends, Mapping):
        raise ValueError(f"bends {bends!r} are not a map from edge ids")
    for eid, chain in bends.items():
        if not (0 <= _checked_int("bent edge", eid) < g.m):
            raise ValueError(f"unknown edge {eid} in bends")
        if not isinstance(chain, (tuple, list)):
            raise ValueError(f"bends {chain!r} of edge {eid} are not a list")
        for p in chain:
            _checked_point(f"bend of edge {eid}", p)

    # One common integer scale for every vertex and bend point.
    given = [pos[v] for v in g.vertices] + [p for chain in bends.values() for p in chain]
    scale = lcm(*(1 if type(c) is int else Fraction(c).denominator for p in given for c in p))

    def coord(c: object) -> int:
        return c * scale if type(c) is int else int(Fraction(c) * scale)

    def grid(p: Point) -> tuple[int, int]:
        return (coord(p[0]), coord(p[1]))

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

    # Segments, tagged by their edge, in chain order.  None is degenerate:
    # its ends are two nodes, which are distinct.
    segs: list[tuple[int, Point, Point]] = [
        (eid, a, b) for eid, chain in chains.items() for a, b in zip(chain, chain[1:])
    ]

    # A node strictly inside a segment lies in its bounding box, so only the
    # nodes in its x-range are tested, by their x order.
    nodes = sorted(node_pts)
    for _, a, b in segs:
        (ax, ay), (bx, by) = a, b
        xlo, xhi, ylo, yhi = _box(a, b)
        for p in nodes[bisect_left(nodes, (xlo,)) : bisect_left(nodes, (xhi + 1,))]:
            px, py = p
            if ylo <= py <= yhi and p != a and p != b:
                if (bx - ax) * (py - ay) == (by - ay) * (px - ax):
                    raise ValueError("vertex on edge")

    # Any collinear overlap between segments puts some chain point strictly
    # inside another segment, so the check above already rejected it.
    arr = _arrangement(segs)
    if arr is None:
        raise ValueError("concurrent crossings")
    xs, along = arr

    fresh = max(g.vertices, default=-1) + 1
    kind = {v: f"real:{v}" for v in g.vertices}
    ppos: dict[int, tuple[int, int]] = dict(pts)  # real and bend vertices
    corners: dict[int, list[int]] = {}
    for eid in sorted(bends):
        corners[eid] = []
        for p in chains[eid][1:-1]:
            corners[eid].append(fresh)
            kind[fresh] = "subdivision"
            ppos[fresh] = p
            fresh += 1
    xid = range(fresh, fresh + len(xs))
    for p in xid:
        kind[p] = "crossing"

    # Plan paths: each segment runs from its first corner through its
    # crossings to the next corner, along the segment's integer direction.
    paths: dict[int, list[int]] = {}
    runs: list[tuple[list[int], Vec]] = []
    crossings_on = iter(along)
    for eid, (u, v) in enumerate(g.edges):
        chain = chains[eid]
        path = [u]
        for a, b, q in zip(chain, chain[1:], [*corners.get(eid, ()), v]):
            run = [path[-1], *(xid[c] for c in next(crossings_on)), q]
            runs.append((run, (b[0] - a[0], b[1] - a[1])))
            path.extend(run[1:])
        paths[eid] = path

    d = _drawing_along(g, kind, paths, _rotations(runs))
    if d.plan.m:
        # A crossing lies strictly inside a segment, one of whose ends is
        # lower, so each component's lowest vertex is a real or bend vertex.
        comp = d.plan_components
        lowest: dict[int, tuple[int, int, int]] = {}  # plan component -> (y, x, p)
        for p, (x, y) in ppos.items():
            if d.plan.degree(p):
                at = (y, x, p)
                lowest[comp[p]] = min(lowest.get(comp[p], at), at)
        outer, *outers = (_outer_face_index(d, p) for *_, p in sorted(lowest.values()))
        d = d.with_outer(outer, sorted(outers))
    return d


def drawing_from_segments(g: Graph, pos: Mapping[int, Point]) -> Drawing:
    """Builds the drawing of ``g`` with every edge a straight segment."""
    return drawing_from_polylines(g, pos, None)


def _outer_face_index(d: Drawing, p0: int) -> int:
    """The face on the unbounded side of the plan component whose lowest
    vertex is ``p0``.  Every edge at ``p0`` points into the closed upper
    half-plane, so the last edge of its rotation has the highest angle, and
    the face left of it is outer."""
    e = d.rotation[p0][-1]
    return d._dart_face(2 * e + (d.plan.edges[e][0] != p0))
