"""Exact geometry primitives and the straight-line drawing builder."""

from __future__ import annotations

import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import (
    cross_point,
    oracle_arrangement,
    oracle_drawing_along,
    oracle_drawing_from_polylines,
    param_along,
    strictly_inside,
)
from test_exact_arithmetic import SRC
from test_synth import RETRY_CHORDS, random_chords, random_model

from fancross import fixtures, geometry, synth
from fancross.drawing import crossings_per_edge, validate
from fancross.geometry import (
    _arrangement,
    _drawing_along,
    _meet,
    _rotations,
    dir_cmp,
    drawing_from_polylines,
    drawing_from_segments,
    orientation,
    properly_cross,
    pt,
    sort_ccw,
)
from fancross.graphs import Graph, grid2d


# ===== Primitives =====


def test_orientation_signs():
    assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == -1
    assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_strictly_inside():
    assert strictly_inside(pt(0, 0), pt(2, 2), pt(1, 1))
    assert not strictly_inside(pt(0, 0), pt(2, 2), pt(0, 0))
    assert not strictly_inside(pt(0, 0), pt(2, 2), pt(2, 2))
    assert not strictly_inside(pt(0, 0), pt(2, 2), pt(3, 3))
    assert not strictly_inside(pt(0, 0), pt(2, 2), pt(1, 0))


def test_properly_cross_and_point():
    a, b, c, d = pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0)
    assert properly_cross(a, b, c, d)
    assert cross_point(a, b, c, d) == (Fraction(1), Fraction(1))
    # Sharing an endpoint is never a proper crossing.
    assert not properly_cross(a, b, a, d)
    # Touching at an interior point of one segment only is not proper.
    assert not properly_cross(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 1))


def test_param_along():
    assert param_along(pt(0, 0), pt(4, 0), pt(1, 0)) == Fraction(1, 4)
    assert param_along(pt(0, 0), pt(0, 4), pt(0, 3)) == Fraction(3, 4)


@pytest.mark.parametrize("p", [lambda x, y: (x, y), pt], ids=["int", "Fraction"])
def test_cross_point_and_param_are_fractions(p):
    x = cross_point(p(0, 0), p(3, 1), p(0, 1), p(3, 0))
    assert x == (Fraction(3, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in x)
    t = param_along(p(0, 0), p(3, 0), p(1, 0))
    assert t == Fraction(1, 3) and type(t) is Fraction


# ----- the integer kernel against a naive rational reference -----


def _ref_orient(a, b, c):
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (cross > 0) - (cross < 0)


def _ref_inside(a, b, x):
    # x = a + t (b - a) with 0 < t < 1.
    if _ref_orient(a, b, x) != 0:
        return False
    i = 0 if a[0] != b[0] else 1
    t = (x[i] - a[i]) / (b[i] - a[i])
    return 0 < t < 1


def _ref_cross_point(a, b, c, d):
    # Solve a + t (b - a) = c + u (d - c) by Cramer's rule.
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / (r[0] * s[1] - r[1] * s[0])
    return (a[0] + t * r[0], a[1] + t * r[1])


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
points = st.tuples(rationals, rationals)


def _scaled(*ps):
    """The points times the lcm of their denominators, as ints, and the scale."""
    scale = lcm(*(c.denominator for p in ps for c in p))
    return [(int(p[0] * scale), int(p[1] * scale)) for p in ps], scale


@given(points, points, points, points)
def test_integer_predicates_match_rational_reference(a, b, c, d):
    (ia, ib, ic, id_), scale = _scaled(a, b, c, d)
    assert all(type(v) is int for p in (ia, ib, ic, id_) for v in p)
    assert orientation(ia, ib, ic) == _ref_orient(a, b, c)
    if a != b:
        assert strictly_inside(ia, ib, ic) == _ref_inside(a, b, c)
    crosses = properly_cross(ia, ib, ic, id_)
    ref = (
        _ref_orient(a, b, c) * _ref_orient(a, b, d) < 0
        and _ref_orient(c, d, a) * _ref_orient(c, d, b) < 0
    )
    assert crosses == ref
    if crosses:
        x = cross_point(ia, ib, ic, id_)
        assert (x[0] / scale, x[1] / scale) == _ref_cross_point(a, b, c, d)
        assert _ref_inside(a, b, _ref_cross_point(a, b, c, d))
        t = param_along(ia, ib, x)
        assert type(t) is Fraction and 0 < t < 1
        assert x == (ia[0] + t * (ib[0] - ia[0]), ia[1] + t * (ib[1] - ia[1]))


@st.composite
def polyline_inputs(draw):
    n = draw(st.integers(3, 7))
    coord = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    spots = st.tuples(coord, coord)
    pos = dict(enumerate(draw(st.lists(spots, min_size=n, max_size=n, unique=True))))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2, max_size=9))
    g = Graph.make(range(n), edges)
    bends = {}
    for eid in range(g.m):
        chain = draw(st.lists(spots, max_size=2))
        if chain:
            bends[eid] = chain
    return g, pos, bends


def _build(g, pos, bends, build=drawing_from_polylines):
    try:
        return build(g, pos, bends)
    except ValueError as exc:
        return str(exc)


@given(polyline_inputs(), st.fractions(min_value=Fraction(1, 50), max_value=50))
def test_drawing_is_invariant_under_positive_scaling(inp, factor):
    # Positions only decide orders, so any positive common scale, including
    # one that makes every coordinate a non-integer, gives the same drawing.
    g, pos, bends = inp
    spos = {v: (x * factor, y * factor) for v, (x, y) in pos.items()}
    sbends = {e: [(x * factor, y * factor) for x, y in ch] for e, ch in bends.items()}
    assert _build(g, spos, sbends) == _build(g, pos, bends)


def test_ccw_sort_starts_east():
    vecs = {
        "e": (Fraction(1), Fraction(0)),
        "ne": (Fraction(1), Fraction(1)),
        "n": (Fraction(0), Fraction(1)),
        "w": (Fraction(-1), Fraction(0)),
        "s": (Fraction(0), Fraction(-1)),
        "se": (Fraction(1), Fraction(-1)),
    }
    order = sort_ccw(vecs.items())
    assert order == ["e", "ne", "n", "w", "s", "se"]
    assert dir_cmp(vecs["e"], vecs["n"]) < 0
    assert dir_cmp(vecs["s"], vecs["w"]) > 0


# ===== Triangle: face conventions =====


def triangle():
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    return drawing_from_segments(g, {0: pt(0, 0), 1: pt(2, 0), 2: pt(1, 1)})


def test_triangle_is_valid_with_two_faces():
    d = triangle()
    assert validate(d) == []
    assert len(d.faces) == 2


def test_triangle_inner_face_is_counterclockwise():
    d = triangle()
    # The face left of dart (0,1) walks the triangle counterclockwise.
    inner = d.faces[d.face_of_dart((0, 1))]
    assert set(inner) == {(0, 1), (1, 2), (2, 0)}


def test_triangle_outer_face_from_geometry():
    d = triangle()
    outer = d.faces[d.outer]
    assert set(outer) == {(0, 2), (2, 1), (1, 0)}
    assert d.outer != d.face_of_dart((0, 1))


# ===== The X: one crossing =====


def xfix():
    g = Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)])
    return drawing_from_segments(
        g, {0: pt(0, 0), 1: pt(2, 2), 2: pt(0, 2), 3: pt(2, 0)}
    )


def test_x_crossing_vertex_and_plan():
    d = xfix()
    assert validate(d) == []
    assert sorted(d.plan.vertices) == [0, 1, 2, 3, 4]
    assert d.kind[4] == "crossing"
    assert d.plan.edges == ((0, 4), (1, 4), (2, 4), (3, 4))
    assert crossings_per_edge(d) == {0: 1, 1: 1}
    assert len(d.faces) == 1 and d.outer == 0


def test_x_paths_oriented_from_smaller_endpoint():
    d = xfix()
    assert d.paths[0] == (0, 4, 1)
    assert d.paths[1] == (2, 4, 3)


# ===== Degeneracies are rejected =====


def test_rejects_coincident_vertices():
    g = Graph.make([0, 1], [(0, 1)])
    with pytest.raises(ValueError, match="coincident vertices"):
        drawing_from_segments(g, {0: pt(1, 1), 1: pt(1, 1)})


def test_rejects_vertex_on_edge():
    g = Graph.make([0, 1, 2], [(0, 1)])
    with pytest.raises(ValueError, match="vertex on edge"):
        drawing_from_segments(g, {0: pt(0, 0), 1: pt(2, 0), 2: pt(1, 0)})


def test_rejects_overlapping_edges():
    # Collinear overlap always puts a vertex inside the other segment.
    g = Graph.make([0, 1, 2], [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="vertex on edge"):
        drawing_from_segments(g, {0: pt(0, 0), 1: pt(2, 0), 2: pt(3, 0)})


def test_rejects_concurrent_crossings():
    # Three diagonals of a regular-ish hexagon all pass through the origin.
    g = Graph.make([0, 1, 2, 3, 4, 5], [(0, 3), (1, 4), (2, 5)])
    pos = {
        0: pt(2, 0),
        1: pt(1, 2),
        2: pt(-1, 2),
        3: pt(-2, 0),
        4: pt(-1, -2),
        5: pt(1, -2),
    }
    with pytest.raises(ValueError, match="concurrent crossings"):
        drawing_from_segments(g, pos)


def test_rejects_missing_position():
    g = Graph.make([0, 1], [(0, 1)])
    with pytest.raises(ValueError, match="no position"):
        drawing_from_segments(g, {0: pt(0, 0)})


# ===== Planar inputs =====


def test_grid_drawing_is_plane():
    g = grid2d(3, 3)
    pos = {i * 3 + j: pt(j, i) for i in range(3) for j in range(3)}
    d = drawing_from_segments(g, pos)
    assert validate(d) == []
    assert crossings_per_edge(d) == {e: 0 for e in range(g.m)}
    # 4 unit squares plus the outer face.
    assert len(d.faces) == 5
    outer = d.faces[d.outer]
    assert len(outer) == 8


def test_edgeless_graph_draws():
    g = Graph.make([0, 1], [])
    d = drawing_from_segments(g, {0: pt(0, 0), 1: pt(1, 0)})
    assert validate(d) == []
    assert d.faces == () and d.outer == 0


# ===== Polylines =====


def test_polyline_double_crossing_with_bend():
    from fancross.geometry import drawing_from_polylines

    g = Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)])
    pos = {0: pt(0, 0), 1: pt(10, 0), 2: pt(2, 3), 3: pt(8, 3)}
    d = drawing_from_polylines(g, pos, {1: [pt(5, -2)]})
    assert validate(d) == []
    assert crossings_per_edge(d) == {0: 2, 1: 2}
    kinds = sorted(d.kind[p].split(":")[0] for p in d.plan.vertices)
    assert kinds.count("crossing") == 2
    assert kinds.count("subdivision") == 1
    # One bend vertex sits between the two crossings on the detouring edge.
    path = d.paths[1]
    assert [d.kind_of(p) for p in path] == [
        "real",
        "crossing",
        "subdivision",
        "crossing",
        "real",
    ]


def test_polyline_rejects_self_crossing():
    from fancross.geometry import drawing_from_polylines

    g = Graph.make([0, 1], [(0, 1)])
    pos = {0: pt(0, 0), 1: pt(4, 0)}
    # The chain loops over itself.
    bends = {0: [pt(4, 2), pt(2, 2), pt(2, -1), pt(6, -1), pt(6, 1)]}
    with pytest.raises(ValueError, match="edge crosses itself"):
        drawing_from_polylines(g, pos, bends)


def test_polyline_rejects_bend_on_edge():
    from fancross.geometry import drawing_from_polylines

    g = Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)])
    pos = {0: pt(0, 0), 1: pt(4, 0), 2: pt(0, 2), 3: pt(4, 2)}
    with pytest.raises(ValueError, match="vertex on edge"):
        drawing_from_polylines(g, pos, {1: [pt(2, 0)]})


@pytest.mark.parametrize(
    "pos, bends, message",
    [
        (None, {0.5: [pt(1, 1)]}, r"^bent edge 0\.5 is not an int$"),
        (None, {"0": [pt(1, 1)]}, r"^bent edge '0' is not an int$"),
        (None, {0: 5}, r"^bends 5 of edge 0 are not a list$"),
        (None, {0: pt(1, 1)}, r"^bend of edge 0 Fraction\(1, 1\) is not a pair$"),
        (None, {0: [(1, 1, 1)]}, r"^bend of edge 0 \(1, 1, 1\) is not a pair$"),
        ({0: (4,), 1: pt(4, 0)}, None, r"^position of vertex 0 \(4,\) is not a pair$"),
    ],
)
def test_polyline_refuses_bends_and_points_of_the_wrong_shape(pos, bends, message):
    """These raised ``KeyError``, ``TypeError`` or ``IndexError``, except
    the three-coordinate bend, whose third coordinate was dropped."""
    from fancross.geometry import drawing_from_polylines

    g = Graph.make([0, 1], [(0, 1)])
    with pytest.raises(ValueError, match=message):
        drawing_from_polylines(g, pos or {0: pt(0, 0), 1: pt(4, 0)}, bends)


# ===== The shared arrangement against the builder it replaced =====


def random_polylines(rng):
    """A small graph with random bends on a lattice coarse enough that
    coincident points, vertices on edges, self-crossings and concurrent
    crossings all occur."""
    n = rng.randint(2, 7)
    span = rng.choice((2, 5, 12))

    def spot():
        x = Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))
        return (x, Fraction(rng.randint(-span, span)))

    pos = {v: spot() for v in range(n)}
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.make(range(n), rng.sample(pairs, rng.randint(1, min(len(pairs), 9))))
    bends = {
        eid: [spot() for _ in range(rng.randint(1, 3))]
        for eid in range(g.m)
        if rng.random() < 0.4
    }
    return g, pos, bends


def edges_in_order(*edges):
    """Edges given as ``(start, bends, end)``, numbered in the order given."""
    g = Graph.make(range(2 * len(edges)), [(2 * i, 2 * i + 1) for i in range(len(edges))])
    pos, bends = {}, {}
    for i, (a, chain, b) in enumerate(edges):
        pos[2 * i], pos[2 * i + 1] = pt(*a), pt(*b)
        if chain:
            bends[i] = [pt(*p) for p in chain]
    return g, pos, bends


LOOP = ((0, 0), [(4, 2), (4, 0)], (0, 2))  # crosses itself at (2, 1)
UP = ((2, -2), [], (2, 4))  # through (2, 1)
ACROSS = ((-1, 1), [], (5, 1))  # through (2, 1)
SLOPE = ((0, 0), [], (4, 2))  # through (2, 1)

# The builder reports the first degeneracy its pair loop meets.  LOOP
# crosses itself at a point that UP and ACROSS also pass through.  When LOOP
# comes first, its own segments are paired first.  When UP comes first, its
# pairs at that point come first: with LOOP alone they have one tag set, so
# the self-crossing still follows, and with ACROSS too the tag sets differ.
DEGENERATE = [
    (edges_in_order(((0, 0), [], (2, 0)), ((2, 0), [], (2, 2))), "coincident vertices"),
    (edges_in_order(((0, 0), [(3, 3)], (0, 4)), ((3, 3), [], (5, 5))), "coincident vertices"),
    (edges_in_order(((0, 0), [], (4, 0)), ((2, 0), [], (2, 3))), "vertex on edge"),
    (edges_in_order(((0, 0), [(2, 0)], (2, 2)), ((1, 0), [], (1, 3))), "vertex on edge"),
    (edges_in_order(LOOP), "edge crosses itself"),
    (edges_in_order(SLOPE, UP, ACROSS), "concurrent crossings"),
    (edges_in_order(LOOP, UP), "edge crosses itself"),
    (edges_in_order(UP, LOOP), "edge crosses itself"),
    (edges_in_order(LOOP, UP, ACROSS), "edge crosses itself"),
    (edges_in_order(UP, ACROSS, LOOP), "concurrent crossings"),
    (edges_in_order(UP, LOOP, ACROSS), "concurrent crossings"),
]


def test_polylines_match_the_replaced_builder_on_a_seeded_corpus(monkeypatch):
    corpus = [inp for inp, _ in DEGENERATE]
    segments = fixtures.drawing_from_segments

    def recorded(g, pos):
        corpus.append((g, pos, None))
        return segments(g, pos)

    monkeypatch.setattr(fixtures, "drawing_from_segments", recorded)
    fixtures.fig1a()
    fixtures.fig3()
    for m in range(1, 6):
        fixtures.fig1b(m)
    for n, k, seed in itertools.product(range(4, 13), range(1, 4), range(3)):
        fixtures.random_kplanar(n, k, seed)
    rng = random.Random(1301)
    corpus += [random_polylines(rng) for _ in range(300)]

    outcomes = Counter()
    for g, pos, bends in corpus:
        got = _build(g, pos, bends)
        want = _build(g, pos, bends, oracle_drawing_from_polylines)
        if not isinstance(want, str):
            # Slot by slot first, so that a difference names its vertex or edge.
            assert got.plan == want.plan
            for p in want.plan.vertices:
                assert (p, got.rotation[p]) == (p, want.rotation[p])
            for e in range(want.base.m):
                assert (e, got.trace[e]) == (e, want.trace[e])
        assert got == want
        outcomes[got if isinstance(got, str) else "drawn"] += 1
    for (g, pos, bends), err in DEGENERATE:
        assert _build(g, pos, bends) == err
    assert set(outcomes) == {
        "drawn",
        "coincident vertices",
        "vertex on edge",
        "edge crosses itself",
        "concurrent crossings",
    }
    assert outcomes["drawn"] > len(corpus) // 2


@given(st.randoms(use_true_random=False))
def test_random_polylines_match_the_replaced_builder(rng):
    g, pos, bends = random_polylines(rng)
    assert _build(g, pos, bends) == _build(g, pos, bends, oracle_drawing_from_polylines)


# ===== The kernel: rotations from runs, and the plan along them =====


# The four axis directions and one direction in each quadrant.
COMPASS = [(1, 0), (0, 1), (-1, 0), (0, -1), (2, 3), (-3, 2), (-2, -5), (5, -1)]
directions = st.one_of(
    st.sampled_from(COMPASS),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
)
# Runs of distinct vertices over a few ids, so that runs share vertices: a
# vertex inside two runs gets two opposite pairs, as a crossing does, and
# one inside a run and at the end of others gets an opposite pair and more.
runs_of_vertices = st.lists(
    st.tuples(st.lists(st.integers(0, 7), min_size=2, max_size=5, unique=True), directions),
    max_size=8,
)


def rays_at(runs):
    """Each vertex's ``(neighbour, direction)`` rays, run by run."""
    rays = {}
    for run, (dx, dy) in runs:
        for p, q in zip(run, run[1:]):
            rays.setdefault(p, []).append((q, (dx, dy)))
            rays.setdefault(q, []).append((p, (-dx, -dy)))
    return rays


@given(runs_of_vertices)
def test_rotations_are_sort_ccw_per_vertex(runs):
    want = {v: tuple(sort_ccw(items)) for v, items in rays_at(runs).items()}
    assert _rotations(runs) == want


def test_crossings_are_ordered_as_sort_ccw_orders_them():
    # Every pair of lines through the crossing 0, each run given from
    # either end, and the two runs in either order; pairs on one line too.
    lines = COMPASS[:2] + COMPASS[4:6] + [(1, 1), (1, -1), (4, 1)]
    for u, v in itertools.product(lines, repeat=2):
        for su, sv in itertools.product((1, -1), repeat=2):
            du, dv = (su * u[0], su * u[1]), (sv * v[0], sv * v[1])
            for runs in (
                [([10, 0, 11], du), ([12, 0, 13], dv)],
                [([12, 0, 13], dv), ([10, 0, 11], du)],
            ):
                got = _rotations(runs)[0]
                assert got == tuple(sort_ccw(rays_at(runs)[0])), (runs, got)


def test_drawing_along_matches_the_edge_id_builder_slot_by_slot():
    """The seeded ``random_kplanar`` drawings rebuilt from their plan paths,
    with the rotations of a random half of the plan vertices given and the
    other half left to take their edges in id order."""
    rng = random.Random(3131)
    unordered = 0
    for n, k, seed in itertools.product(range(4, 13, 2), range(1, 4), range(3)):
        d = fixtures.random_kplanar(n, k, seed)
        given_at = {p for p in d.plan.vertices if rng.random() < 0.5}
        around = {
            p: [b if a == p else a for a, b in (d.plan.edges[e] for e in d.rotation[p])]
            for p in given_at
        }
        paths = {e: list(path) for e, path in d.paths.items()}
        got = _drawing_along(d.base, d.kind, paths, around)
        want = oracle_drawing_along(d.base, d.kind, paths, around)
        assert got.plan == want.plan == d.plan
        for p in want.plan.vertices:
            assert (p, got.rotation[p]) == (p, want.rotation[p])
        for e in range(want.base.m):
            assert (e, got.trace[e]) == (e, want.trace[e]) == (e, d.trace[e])
        assert got == want
        unordered += sum(1 for p in d.plan.vertices if p not in given_at and d.plan.degree(p) > 2)
    assert unordered > 50


@pytest.mark.parametrize(
    "paths, message",
    [
        ({0: [0, 1, 1]}, r"^loop at vertex 1$"),
        ({0: [0, 1, 2], 1: [2, 1]}, r"^parallel edge \(1, 2\)$"),
        ({0: [0, 1], 1: [1, 3]}, r"^edge \(1, 3\) has unknown endpoint$"),
    ],
)
def test_drawing_along_refuses_what_graph_make_refuses(paths, message):
    base = Graph.make(range(3), [(0, 1), (1, 2)])
    kind = {v: f"real:{v}" for v in range(3)}
    with pytest.raises(ValueError, match=message):
        _drawing_along(base, kind, paths, {})


# ===== The integer arrangement against the Fraction one it replaced =====


ints = st.integers(-10**6, 10**6)
int_points = st.tuples(ints, ints)


@given(int_points, int_points, int_points, int_points)
def test_meet_is_the_cross_point_scaled_to_a_reduced_triple(a, b, c, d):
    r, s = (b[0] - a[0], b[1] - a[1]), (d[0] - c[0], d[1] - c[1])
    assume(r[0] * s[1] != r[1] * s[0])
    x, y = cross_point(a, b, c, d)
    den = lcm(x.denominator, y.denominator)
    assert _meet(a, b, c, d) == (int(x * den), int(y * den), den)
    assert gcd(*_meet(a, b, c, d)) == 1 and _meet(c, d, a, b) == _meet(a, b, c, d)


def arrangement_outcome(arrange, segs):
    """The crossing points as ``Fraction`` pairs and each segment's crossing
    numbers, None, or the ``ValueError`` text."""
    try:
        arr = arrange(segs)
    except ValueError as exc:
        return str(exc)
    if arr is None:
        return None
    xs, along = arr
    if arrange is _arrangement:
        xs = [(Fraction(x, den), Fraction(y, den)) for x, y, den in xs]
    return xs, along


# Segment lists that the builders never hand over, or only hand over after
# their own checks: shared endpoints, collinear touching and overlapping
# pieces, a self-crossing, three or four segments through one point, two
# tags that cross twice, at one point or at two, and segments given from
# either end.
RAW_DEGENERATE = [
    [(0, (0, 0), (2, 2)), (1, (2, 2), (4, 0)), (2, (0, 2), (2, 2))],
    [(0, (0, 0), (4, 0)), (1, (2, 0), (6, 0)), (2, (4, 0), (8, 0))],
    [(0, (0, 0), (4, 0)), (1, (2, 0), (2, 3)), (2, (2, -3), (2, 0))],
    [(0, (0, 0), (4, 4)), (0, (0, 4), (4, 0))],
    [(0, (0, 0), (4, 4)), (1, (0, 4), (4, 0)), (2, (2, -1), (2, 5))],
    [(0, (4, 4), (0, 0)), (1, (4, 0), (0, 4)), (2, (2, 5), (2, -1)), (3, (-1, 2), (5, 2))],
    [(0, (0, 0), (4, 4)), (1, (0, 4), (4, 0)), (0, (4, 0), (0, 4))],
    [(0, (0, 0), (4, 4)), (1, (0, 4), (4, 0)), (1, (2, 5), (2, -1)), (0, (-1, 2), (5, 2))],
    [(0, (3, 0), (3, 9)), (1, (0, 1), (9, 1)), (1, (9, 2), (0, 2)), (2, (0, 9), (9, 0))],
    [(0, (0, 0), (0, 5)), (1, (-1, 3), (1, 2)), (2, (1, 4), (-1, 1))],
    [],
]


def test_arrangement_matches_the_replaced_one_on_a_seeded_corpus(monkeypatch):
    corpus = list(RAW_DEGENERATE)
    polylines, arenas = geometry._arrangement, synth._arrangement

    def recorded(arrange):
        def call(segs):
            corpus.append(list(segs))
            return arrange(segs)

        return call

    monkeypatch.setattr(geometry, "_arrangement", recorded(polylines))
    monkeypatch.setattr(synth, "_arrangement", recorded(arenas))
    for n, k, seed in itertools.product(range(4, 25, 2), range(1, 4), range(3)):
        fixtures.random_kplanar(n, k, seed)
    fixtures.fig1a()
    fixtures.fig3()
    rng = random.Random(2207)
    for _ in range(300):
        _build(*random_polylines(rng))
    for g, pos, bends in (inp for inp, _ in DEGENERATE):
        _build(g, pos, bends)
    rng = random.Random(1)  # the synthesis model corpus of tests/test_synth.py
    for _ in range(1500):
        hd, m = random_model(rng)
        synth.synthesize(hd, m)
    rng = random.Random(4127)
    arenas = [random_chords(rng) for _ in range(200)]
    arenas += [(list(range(n)), [(i, a, b) for i, (a, b) in enumerate(ps)]) for n, ps in RETRY_CHORDS]
    for vids, chords in arenas:
        try:
            synth._arena(vids, chords, itertools.count())
        except synth.InvariantBroken:
            pass

    outcomes = Counter()
    for segs in corpus:
        got = arrangement_outcome(_arrangement, segs)
        assert got == arrangement_outcome(oracle_arrangement, segs)
        outcomes[got if not isinstance(got, tuple) else bool(got[0])] += 1
    # Arrangements with and without crossings, refusals and self-crossings:
    # there are 992, 8,919, 24 and 49.
    assert outcomes[True] > 900 and outcomes[False] > 8000
    assert outcomes[None] > 20 and outcomes["edge crosses itself"] > 40


def test_integer_input_builds_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    # The kernel's own module is the only one in the library that names
    # ``Fraction``, so every one the fixtures, the builders or the arenas
    # could make would be counted here.
    names = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    modules = [importlib.import_module(f"fancross.{name}") for name in names]
    assert [m for m in modules if hasattr(m, "Fraction")] == [geometry]
    monkeypatch.setattr(geometry, "Fraction", Counted)
    for n, k, seed in itertools.product(range(4, 25, 4), range(1, 4), range(2)):
        fixtures.random_kplanar(n, k, seed)
    g = grid2d(3, 3)
    drawing_from_segments(g, {i * 3 + j: (j, i) for i in range(3) for j in range(3)})
    xfix_pos = {0: (0, 0), 1: (2, 2), 2: (0, 2), 3: (2, 0)}
    drawing_from_segments(Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)]), xfix_pos)
    rng = random.Random(4127)
    for _ in range(50):
        vids, chords = random_chords(rng)
        synth._arena(vids, chords, itertools.count())
    assert made == []
    # The guard sees a Fraction when one is due.
    drawing_from_segments(Graph.make([0, 1], [(0, 1)]), {0: (0, 0), 1: (Fraction(1, 2), 0)})
    assert made
