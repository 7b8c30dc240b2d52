"""Built-in example drawings and generators.

The named fixtures (``fig1a``, ``fig1b``, ``fig3``) are fixed drawings used
throughout the test suite and exposed by the command line ``gen`` command;
``random_kplanar`` produces seeded pseudo-random k-planar drawings.
"""

from __future__ import annotations

import random

from .cluster import Certificate
from .drawing import Drawing, SubdivisionPlan
from .geometry import Point, _meet, drawing_from_segments, properly_cross, pt
from .graphs import Fan, Graph, _checked_int


# ===== fig1a: three crossing components, a (2,2)-clustered certificate =====

_FIG1A_POS: dict[int, Point] = {
    0: pt("-3/5", 0),  # a
    1: pt("3/5", 0),  # i
    2: pt("-8/5", 1),  # c
    3: pt(0, "11/10"),  # g
    4: pt("-3/5", 2),  # d
    5: pt("4/5", 2),  # f
    6: pt("3/10", "11/5"),  # e
    7: pt("-8/5", "3/2"),  # s1
    8: pt("-11/10", 2),  # s2
    9: pt("-7/5", "17/10"),  # s3
    10: pt("9/10", "1/5"),  # s4
    11: pt("6/5", "3/5"),  # s5
    12: pt("11/10", 1),  # s6
}

_FIG1A_EDGES = [
    (2, 0),  # c-a
    (0, 1),  # a-i
    (0, 7),  # a-s1
    (0, 8),  # a-s2
    (0, 4),  # a-d
    (2, 9),  # c-s3
    (2, 10),  # c-s4
    (2, 11),  # c-s5
    (2, 5),  # c-f
    (1, 3),  # i-g
    (1, 6),  # i-e
    (1, 5),  # i-f
    (1, 12),  # i-s6
    (2, 3),  # c-g
    (3, 6),  # g-e
    (4, 5),  # d-f
    (5, 6),  # f-e
    (6, 4),  # e-d
]


def fig1a() -> Drawing:
    """Eighteen edges, 25 crossings, three crossing-graph components after
    four cuts."""
    g = Graph.make(sorted(_FIG1A_POS), _FIG1A_EDGES)
    return drawing_from_segments(g, _FIG1A_POS)


def fig1a_certificate() -> Certificate:
    """The hand-assembled (k=2, ell=2) certificate for :func:`fig1a`.

    Each of the four cut edges changes crossing color exactly once along its
    trace, so one interior cut per edge separates the components; every
    component is then covered by two fans.
    """
    g = Graph.make(sorted(_FIG1A_POS), _FIG1A_EDGES)
    e = g.edge_id
    # Cut positions: after the 3 near-center crossings of c-s4 / c-s5 / c-f,
    # and after the 2 near-i crossings of i-e.
    plan = SubdivisionPlan(
        {e(2, 10): (3,), e(2, 11): (3,), e(2, 5): (3,), e(1, 6): (2,)}
    )
    covers = {
        0: (  # a-edges against c-edges
            Fan(0, ((0, 4), (0, 7), (0, 8))),
            Fan(2, ((2, 3), (2, 5), (2, 9), (2, 10), (2, 11))),
        ),
        1: (  # i-edges against the far arcs of c-s4 and c-s5
            Fan(1, ((1, 3), (1, 5), (1, 6), (1, 12))),
            Fan(2, ((2, 10), (2, 11))),
        ),
        2: (  # the top arcs against each other
            Fan(5, ((2, 5), (4, 5))),
            Fan(6, ((1, 6), (3, 6))),
        ),
    }
    assignment = {
        # component 0
        (e(0, 4), 0): 0,
        (e(0, 7), 0): 0,
        (e(0, 8), 0): 0,
        (e(2, 3), 0): 2,
        (e(2, 5), 0): 2,
        (e(2, 9), 0): 2,
        (e(2, 10), 0): 2,
        (e(2, 11), 0): 2,
        # component 1
        (e(1, 3), 0): 1,
        (e(1, 5), 0): 1,
        (e(1, 6), 0): 1,
        (e(1, 12), 0): 1,
        (e(2, 10), 1): 2,
        (e(2, 11), 1): 2,
        # component 2
        (e(1, 6), 1): 6,
        (e(3, 6), 0): 6,
        (e(2, 5), 1): 5,
        (e(4, 5), 0): 5,
    }
    return Certificate(2, 2, plan, covers, assignment)


# ===== fig1b: a convex path with length-2 chords =====


def fig1b(m: int) -> Drawing:
    """A path on ``m + 2`` vertices placed on a parabola, plus the ``m``
    chords skipping one vertex; consecutive chords cross, forming a single
    path-shaped crossing component."""
    if _checked_int("m", m) < 1:
        raise ValueError("m must be positive")
    n = m + 2
    verts = range(n)
    edges = [(j, j + 1) for j in range(n - 1)] + [(j, j + 2) for j in range(m)]
    g = Graph.make(verts, edges)
    pos = {j: pt(j + 1, (j + 1) ** 2) for j in verts}
    return drawing_from_segments(g, pos)


# ===== fig3: the pentagon with all diagonals =====


def fig3() -> Drawing:
    """The complete graph on five vertices in convex position: five pairwise
    crossings of the diagonals, a five-cycle crossing graph."""
    g = Graph.make(
        range(5),
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)],
    )
    pos = {0: pt(0, 4), 1: pt(-4, 1), 2: pt(-2, -3), 3: pt(2, -3), 4: pt(4, 1)}
    return drawing_from_segments(g, pos)


# ===== Seeded random k-planar drawings =====


def random_kplanar(n: int, k: int, seed: int) -> Drawing:
    """A seeded straight-line drawing with at most ``k`` crossings per edge.

    Vertices sit at distinct integer x positions (so the backbone path is
    crossing-free); random chords are added greedily while the drawing stays
    non-degenerate and k-planar.  Each candidate chord is tested only against
    the accepted segments, with the exact integer predicates; the drawing is
    built once at the end.
    """
    if _checked_int("n", n) < 2:
        raise ValueError("n must be at least 2")
    if _checked_int("k", k) < 0:
        raise ValueError("k must be nonnegative")
    rng = random.Random(_checked_int("seed", seed))
    pos = {i: (i, rng.randrange(0, 2 * n + 1)) for i in range(n)}
    edges = [(i, i + 1) for i in range(n - 1)]
    load = {e: 0 for e in edges}  # crossings on each accepted edge
    points: set[tuple[int, int, int]] = set()  # crossing points of the accepted edges
    # A chord is kept only where drawing_from_segments would accept it: no
    # vertex inside it, no crossing point shared by three edges, and at most
    # k crossings on it and on every edge it crosses.  Vertex i sits at
    # x = i, so only the vertices strictly between u and w can lie inside
    # chord (u, w), and only edges whose x-range overlaps (u, w) can cross it.
    for _ in range(3 * n):
        u, w = rng.randrange(n), rng.randrange(n)
        u, w = min(u, w), max(u, w)
        if w - u < 2 or (u, w) in load:
            continue
        a, b = pos[u], pos[w]
        dx, dy = w - u, b[1] - a[1]
        if any(dx * (pos[v][1] - a[1]) == dy * (v - u) for v in range(u + 1, w)):
            continue
        hits: list[tuple[int, int]] = []
        new: set[tuple[int, int, int]] = set()
        for e in edges:
            if e[1] <= u or e[0] >= w:
                continue
            c, d = pos[e[0]], pos[e[1]]
            if not properly_cross(a, b, c, d):
                continue
            hits.append(e)
            if len(hits) > k or load[e] >= k:
                break
            x = _meet(a, b, c, d)
            if x in points or x in new:
                break
            new.add(x)
        else:
            for e in hits:
                load[e] += 1
            load[(u, w)] = len(hits)
            edges.append((u, w))
            points |= new
    return drawing_from_segments(Graph.make(range(n), edges), pos)
