"""Drawing invariants, subdivision, crossing graphs, and the fan property."""

from __future__ import annotations

import bisect
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _passage_side as oracle_passage_side
from oracles import _strong_failures as oracle_strong_failures
from oracles import (
    oracle_component_index,
    oracle_crossing_graph,
    oracle_edge_groups,
    oracle_faces,
    oracle_fan_core,
    oracle_search_certificate,
    oracle_subdivide_with_map,
    stitched_path,
)

from fancross import cluster, drawing, synth, transduce
from fancross.cluster import (
    Certificate,
    _cut_options,
    _kept_options,
    search_certificate,
    verify_certificate,
)
from fancross.drawing import (
    ArcRef,
    Drawing,
    SubdivisionPlan,
    _components,
    _crossing_graph,
    _cut,
    _cut_step,
    _fan_core,
    _passage_side,
    _plane_simple,
    _steps,
    _vertex_path,
    crossing_graph,
    crossings_per_edge,
    is_k_planar,
    planarize,
    subdivide_with_map,
    validate,
)
from fancross.errors import CapExceeded
from fancross.fixtures import fig1a, fig1a_certificate, fig1b, fig3, random_kplanar
from fancross.geometry import drawing_from_polylines, drawing_from_segments, pt
from fancross.graphs import Fan, Graph, complete, grid2d
from fancross.jsonio import drawing_from_json, drawing_to_json
from fancross.minors import find_model_bruteforce
from fancross.synth import synthesize
from fancross.transduce import eval_formula, transduce_clustered, transduce_kplanar
from test_cluster import ORACLE_SPACE, cut_space
from test_synth import random_model
from test_transduce import grid_syntheses


def xfix():
    g = Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)])
    return drawing_from_segments(
        g, {0: pt(0, 0), 1: pt(2, 2), 2: pt(0, 2), 3: pt(2, 0)}
    )


def lens():
    """Two edges crossing twice; a bend keeps the plan simple.

    Base edges (0,1) and (2,3) cross at 4 and 5; edge (2,3) detours through
    the subdivision vertex 6 between the crossings.
    """
    base = Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)])
    plan = Graph.make(
        [0, 1, 2, 3, 4, 5, 6],
        [(0, 4), (4, 6), (6, 5), (5, 1), (2, 4), (4, 5), (5, 3)],
    )
    eid = plan.edge_id
    rotation = {
        0: (eid(0, 4),),
        1: (eid(1, 5),),
        2: (eid(2, 4),),
        3: (eid(3, 5),),
        4: (eid(4, 5), eid(2, 4), eid(0, 4), eid(4, 6)),
        5: (eid(1, 5), eid(3, 5), eid(4, 5), eid(6, 5)),
        6: (eid(4, 6), eid(6, 5)),
    }
    kind = {v: f"real:{v}" for v in range(4)}
    kind.update({4: "crossing", 5: "crossing", 6: "subdivision"})
    trace = {
        0: (eid(0, 4), eid(4, 5), eid(5, 1)),
        1: (eid(2, 4), eid(4, 6), eid(6, 5), eid(5, 3)),
    }
    d = Drawing(base, plan, rotation, kind, trace, 0)
    return Drawing(base, plan, rotation, kind, trace, d.face_of_dart((4, 5)))


# ===== Validation =====


def test_lens_fixture_is_valid():
    d = lens()
    assert validate(d) == []
    assert len(d.faces) == 2
    outer = d.faces[d.outer]
    assert len(outer) == 11
    inner = d.faces[1 - d.outer]
    assert set(inner) == {(4, 6), (6, 5), (5, 4)}


def test_lens_crossing_counts():
    d = lens()
    assert crossings_per_edge(d) == {0: 2, 1: 2}
    assert d.edge_crossings[0] == (4, 5)
    assert d.edge_crossings[1] == (4, 5)
    assert is_k_planar(d, 2) and not is_k_planar(d, 1)


def test_validate_flags_bad_rotation():
    d = lens()
    rot = dict(d.rotation)
    rot[6] = (rot[6][0], rot[6][0])
    bad = Drawing(d.base, d.plan, rot, d.kind, d.trace, d.outer)
    assert any(v.startswith("rotation:") for v in validate(bad))
    with pytest.raises(ValueError, match="rotations do not list"):
        bad.faces


def test_vertex_path_rejects_unknown_plan_edge():
    d = xfix()
    for bad in ([999], [0, 999], [-1], [0.0], ["0"]):
        with pytest.raises(ValueError, match="unknown plan edge"):
            _vertex_path(d.plan, bad)


def test_validate_reports_out_of_range_trace():
    d = xfix()
    trace = dict(d.trace)
    trace[0] = (999,)
    bad = Drawing(d.base, d.plan, d.rotation, d.kind, trace, d.outer)
    assert "trace path: edge 0: unknown plan edge 999" in validate(bad)


def test_validate_flags_tangential_crossing():
    d = xfix()
    rot = dict(d.rotation)
    a, b, c, e = rot[4]
    rot[4] = (a, c, b, e)  # swap two entries: passages no longer interleave
    bad = Drawing(d.base, d.plan, rot, d.kind, d.trace, d.outer)
    assert any(v.startswith("tangential intersection") for v in validate(bad))


def test_validate_flags_wrong_kind():
    d = xfix()
    kind = dict(d.kind)
    kind[4] = "subdivision"
    bad = Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)
    assert any(v.startswith("subdivision degree") for v in validate(bad))


def test_validate_flags_crossing_of_wrong_degree():
    d = lens()
    kind = dict(d.kind)
    kind[6] = "crossing"
    bad = Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)
    assert validate(bad) == ["crossing degree: vertex 6"]


def test_validate_flags_trace_through_a_real_vertex():
    """The triangle's edge (0, 2) is traced through real vertex 1, along
    the plan edges of the other two."""
    base = Graph.make([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    plan = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    rotation = {0: (0,), 1: (0, 1), 2: (1,)}
    kind = {v: f"real:{v}" for v in range(3)}
    bad = Drawing(base, plan, rotation, kind, {0: (0,), 1: (0, 1), 2: (1,)}, 0)
    assert validate(bad) == [
        "trace interior: edge 1 passes real vertex 1",
        "edge coverage: plan edge 0 used 2 times",
        "edge coverage: plan edge 1 used 2 times",
    ]


def test_validate_flags_missing_real_copy():
    d = xfix()
    kind = dict(d.kind)
    kind[0] = "real:9"
    bad = Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)
    errs = validate(bad)
    assert any(v.startswith("real bijection") for v in errs)


@pytest.mark.parametrize("bad", ["real:--0", "real:\u00b2", "real:\u0663", "real:0x1", "real: 1"])
def test_validate_reports_malformed_real_kind(bad):
    d = xfix()
    kind = dict(d.kind)
    kind[0] = bad
    broken = Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)
    assert validate(broken) == [
        f"kind value: vertex 0 has {bad!r}",
        "real bijection: base vertex 0",
    ]
    assert broken.real_pvid == {1: 1, 2: 2, 3: 3}


def test_real_kind_reads_signed_ascii_digits():
    d = xfix()
    kind = dict(d.kind)
    kind[0] = "real:-0"
    assert validate(Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)) == []
    kind[0] = "real:-1"
    errs = validate(Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer))
    assert errs == ["real bijection: base vertex 0", "real bijection: unknown base vertex -1"]


def test_validate_flags_non_planar_rotation():
    d = drawing_from_segments(
        Graph.make(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        {0: pt(0, 0), 1: pt(4, 0), 2: pt(0, 4), 3: pt(1, 1)},
    )
    rot = dict(d.rotation)
    a, b, c = rot[3]
    rot[3] = (b, a, c)
    bad = Drawing(d.base, d.plan, rot, d.kind, d.trace, d.outer)
    assert validate(bad) == ["euler: plan component 0"]


def test_validate_names_the_nonplane_component_by_least_vertex():
    """An isolated vertex, a plane triangle and K4 with one rotation
    swapped, in that id order: only component 2 is not plane."""
    edges = [(1, 2), (1, 3), (2, 3)] + [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    pos = {0: pt(-4, 0), 1: pt(-2, 0), 2: pt(-1, 0), 3: pt(-2, 1)}
    pos.update({4: pt(0, 0), 5: pt(4, 0), 6: pt(0, 4), 7: pt(1, 1)})
    d = drawing_from_segments(Graph.make(range(8), edges), pos)
    assert validate(d) == [] and _plane_simple(d.plan.edges, d.rotation)
    rot = dict(d.rotation)
    a, b, c = rot[7]
    rot[7] = (b, a, c)
    bad = Drawing(d.base, d.plan, rot, d.kind, d.trace, d.outer)
    assert validate(bad) == ["euler: plan component 2"]
    assert not _plane_simple(bad.plan.edges, bad.rotation)


def test_validate_flags_outer_out_of_range():
    d = xfix()
    bad = Drawing(d.base, d.plan, d.rotation, d.kind, d.trace, 99)
    assert "outer face: index out of range" in validate(bad)


def two_triangles():
    """Two triangles side by side: two plan components of two faces each,
    the left one holding the outer face."""
    g = Graph.make(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    pos = {0: pt(0, 0), 1: pt(2, 0), 2: pt(1, 2), 3: pt(10, 0), 4: pt(12, 0), 5: pt(11, 2)}
    return drawing_from_segments(g, pos)


def test_every_plan_component_is_rooted_at_its_outer_face():
    d = two_triangles()
    assert validate(d) == [] and len(d.outers) == 1
    for f in (d.outer, *d.outers):
        assert d._dual_tree[f] == -1
        assert set(d.faces[f]) & {(0, 2), (3, 5)}  # clockwise round a triangle


def test_validate_flags_outer_faces_outside_their_components():
    d = two_triangles()
    comp = d.plan_components
    left, right = ([f for f, face in enumerate(d.faces) if comp[face[0][0]] == c] for c in (0, 1))
    inner = next(f for f in left if f != d.outer)
    for f in right:
        assert validate(d.with_outer(d.outer, [f])) == []
    for outers, error in (
        ([len(d.faces)], f"outer faces: entry {len(d.faces)} out of range"),
        ([-1], "outer faces: entry -1 out of range"),
        ([inner], f"outer faces: entry {inner} shares plan component 0 with the outer face"),
        (right, f"outer faces: entry {right[1]} shares plan component 1 with entry {right[0]}"),
    ):
        assert validate(d.with_outer(d.outer, outers)) == [error]


def test_validate_flags_unused_plan_edge():
    d = lens()
    trace = dict(d.trace)
    trace[1] = (d.plan.edge_id(2, 4), d.plan.edge_id(4, 5), d.plan.edge_id(5, 3))
    bad = Drawing(d.base, d.plan, d.rotation, d.kind, trace, d.outer)
    errs = validate(bad)
    assert any(v.startswith("edge coverage") for v in errs)


# ===== Faces =====


def face_corpus():
    """Fixtures, seeded k-planar drawings, and their subdivisions and
    planarizations."""
    out = [xfix(), lens(), fig1a(), fig1b(4), fig3()]
    for n in range(4, 15):
        for k in range(1, 4):
            out.append(random_kplanar(n, k, 10 * n + k))
    derived = []
    for i, d in enumerate(out):
        derived.append(subdivide_with_map(d, random_plan(d, random.Random(i)))[0])
        derived.append(planarize(d)[0])
    return out + derived


def random_plan(d, rng):
    """Up to two cut positions on up to three random base edges."""
    cuts = {}
    for eid in rng.sample(range(d.base.m), min(3, d.base.m)):
        c = len(d.edge_crossings[eid])
        cuts[eid] = tuple(rng.randint(0, c) for _ in range(rng.randint(1, 2)))
    return SubdivisionPlan(cuts)


def assert_faces_match_oracle(d):
    expected = oracle_faces(d)
    assert d.faces == expected
    for i, f in enumerate(expected):
        for dart in f:
            assert d.face_of_dart(dart) == i


def test_faces_match_oracle():
    for d in face_corpus():
        assert_faces_match_oracle(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 14), st.integers(1, 3), st.integers(0, 10**6))
def test_faces_match_oracle_on_random_drawings(n, k, seed):
    d = random_kplanar(n, k, seed)
    for each in (d, subdivide_with_map(d, random_plan(d, random.Random(seed)))[0], planarize(d)[0]):
        assert_faces_match_oracle(each)


def test_component_index_matches_bfs_oracle():
    for seed in range(200):
        rng = random.Random(seed)
        vs = rng.sample(range(40), rng.randint(0, 15))
        p = rng.random() * 0.4
        es = [(a, b) for a in vs for b in vs if a < b and rng.random() < p]
        rng.shuffle(es)
        g = Graph.make(vs, es)
        incident = {v: [] for v in g.vertices}
        for e, (a, b) in enumerate(g.edges):
            incident[a].append(e)
            incident[b].append(e)
        rotation = {v: rng.sample(r, len(r)) for v, r in incident.items()}
        kind = {v: f"real:{v}" for v in g.vertices}
        d = Drawing(g, g, rotation, kind, {e: (e,) for e in range(g.m)}, 0)
        got = d.plan_components
        assert got == oracle_component_index(vs, es), seed
        assert list(got) == sorted(vs)


def test_face_of_unknown_dart_raises():
    with pytest.raises(KeyError):
        xfix().face_of_dart((0, 1))


def test_constructed_drawings_trace_faces_once(monkeypatch):
    calls = []
    real = drawing._embed

    def counted(ends, rot):
        calls.append(len(ends))
        return real(ends, rot)

    monkeypatch.setattr(drawing, "_embed", counted)
    d = fig3()
    assert len(calls) == 1
    d.faces
    assert len(calls) == 1
    # One kernel call serves faces, components, the Euler check and every
    # outer face.
    calls.clear()
    fresh = Drawing(d.base, d.plan, d.rotation, d.kind, d.trace, d.outer)
    assert validate(fresh) == []
    assert fresh.faces == d.faces and fresh.plan_components
    assert fresh.with_outer(0).faces == d.faces
    assert len(calls) == 1
    for plan in (SubdivisionPlan({0: (0,)}), SubdivisionPlan({5: (1,), 6: (0, 2)})):
        calls.clear()
        d2 = subdivide_with_map(d, plan)[0]
        assert validate(d2) == [] and d2.faces[d2.outer]
        assert len(calls) == 1
    # A plan without cuts hands back the drawing itself, faces and all.
    calls.clear()
    d2, pieces = subdivide_with_map(d, SubdivisionPlan({3: ()}))
    assert d2 is d and pieces == {e: [e] for e in range(d.base.m)}
    assert d2.faces and calls == []


# ===== Subdivision =====


def test_subdivide_lens_between_crossings():
    d = lens()
    d2, pieces = subdivide_with_map(d, SubdivisionPlan({1: (1,)}))
    assert validate(d2) == []
    # Edge (2,3) split at a fresh vertex 7 on plan edge (4,6).
    assert sorted(d2.base.vertices) == [0, 1, 2, 3, 7]
    assert d2.base.edges == ((0, 1), (2, 7), (3, 7))
    assert d2.kind[7] == "real:7"
    assert pieces[1] == [d2.base.edge_id(2, 7), d2.base.edge_id(3, 7)]
    assert pieces[0] == [d2.base.edge_id(0, 1)]
    assert crossings_per_edge(d2) == {
        d2.base.edge_id(0, 1): 2,
        d2.base.edge_id(2, 7): 1,
        d2.base.edge_id(3, 7): 1,
    }
    # Refinement does not change the face structure.
    assert len(d2.faces) == len(d.faces)


def test_subdivide_gap_zero_and_repeats():
    d = xfix()
    d2 = subdivide_with_map(d, SubdivisionPlan({0: (0, 0, 1)}))[0]
    assert validate(d2) == []
    # Three cuts: two chained before the crossing, one after.
    assert d2.base.m == 4 + 1  # edge (2,3) intact, edge (0,1) in four pieces
    assert crossings_per_edge(d2)[d2.base.edge_id(2, 3)] == 1


def test_subdivide_rejects_bad_positions():
    d = xfix()
    with pytest.raises(ValueError, match="cut on crossing"):
        subdivide_with_map(d, SubdivisionPlan({0: (2,)}))[0]
    with pytest.raises(ValueError, match="unknown edge"):
        subdivide_with_map(d, SubdivisionPlan({9: (0,)}))[0]


def test_subdivide_preserves_crossing_graph():
    d = lens()
    plan = SubdivisionPlan({0: (1,), 1: (1,)})
    cg = crossing_graph(d, plan)
    d2, pieces = subdivide_with_map(d, plan)
    cg2 = crossing_graph(d2)
    mapped = sorted(
        (pieces[a.edge][i], xs)
        for (a, i, xs) in (
            (node, _piece_index(cg, n), cg.crossings[n])
            for n, node in enumerate(cg.nodes)
        )
    )
    direct = sorted((node.edge, cg2.crossings[n]) for n, node in enumerate(cg2.nodes))
    assert [xs for _, xs in mapped] == [xs for _, xs in direct]


def _piece_index(cg, n):
    node = cg.nodes[n]
    return sum(1 for other in cg.nodes if other.edge == node.edge and other < node)


def relabelled(d, rng):
    """``d`` with its base vertices renamed, in a random order, to ids above
    every plan vertex; the plan is untouched."""
    low = max(d.plan.vertices) + 1 + rng.randrange(4)
    new = dict(zip(d.base.vertices, rng.sample(range(low, low + 2 * d.base.n), d.base.n)))
    base = Graph.make(new.values(), [(new[u], new[v]) for u, v in d.base.edges])
    kind = dict(d.kind)
    for v, p in d.real_pvid.items():
        kind[p] = f"real:{new[v]}"
    trace = {base.edge_id(new[u], new[v]): d.trace[e] for e, (u, v) in enumerate(d.base.edges)}
    return Drawing(base, d.plan, d.rotation, kind, trace, d.outer, d.outers)


def cut_plan(d, rng):
    """Cuts on up to four random edges: at gap 0, at the last gap, at a
    repeated gap, or at random gaps."""
    cuts = {}
    for eid in rng.sample(range(d.base.m), rng.randint(1, min(4, d.base.m))):
        c = len(d.edge_crossings[eid])
        g = rng.randint(0, c)
        cuts[eid] = rng.choice([(0,), (c,), (g, g), (0, c), (g,), (0, g, g, c)])
    return SubdivisionPlan(cuts)


def cutting_case(d, seed):
    """``d``, maybe relabelled and maybe with a random outer face, and a
    random cut plan for it."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        d = relabelled(d, rng)
    if rng.random() < 0.5:
        d = d.with_outer(rng.randrange(len(d.faces)))
    return d, cut_plan(d, rng)


def assert_cuts_match_oracle(d, plan):
    assert validate(d) == []
    d2, pieces = subdivide_with_map(d, plan)
    o2, arc_to_new, _ = oracle_subdivide_with_map(d, plan)
    for name in ("base", "plan", "rotation", "kind", "trace", "outer", "outers"):
        assert getattr(d2, name) == getattr(o2, name), name
    assert d2.rotation.keys() == o2.rotation.keys()
    expected = {}
    for (eid, _), ne in sorted(arc_to_new.items()):
        expected.setdefault(eid, []).append(ne)
    assert pieces == expected


def test_cutting_matches_oracle_on_seeded_corpus():
    fixed = [xfix(), lens(), fig1a(), fig1b(4), fig3()]
    for seed in range(240):
        n, k = 4 + seed % 15, 1 + seed // 15 % 3
        d = fixed[seed % 5] if seed < 40 else random_kplanar(n, k, seed)
        assert_cuts_match_oracle(*cutting_case(d, seed))
    # Drawings with two plan components, whose cuts carry both outer faces.
    two = 0
    for seed in range(60):
        d = case_drawing(4 + seed % 9, 1 + seed % 3, seed)[0]
        two += len(set(d.plan_components.values())) > 1
        assert_cuts_match_oracle(*cutting_case(d, seed))
    assert two > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 18), st.integers(1, 3), st.integers(0, 10**6))
def test_cutting_matches_oracle_on_random_drawings(n, k, seed):
    assert_cuts_match_oracle(*cutting_case(random_kplanar(n, k, seed), seed))


# ===== Facts derived once per drawing =====


def test_drawing_maps_are_read_only():
    d = lens()
    with pytest.raises(TypeError):
        d.rotation[0] = ()
    with pytest.raises(TypeError):
        d.kind[4] = "subdivision"
    with pytest.raises(TypeError):
        d.trace[0] = (0,)
    assert validate(d) == []


@pytest.mark.parametrize("validated_first", [True, False])
def test_caller_dicts_do_not_reach_the_drawing(validated_first):
    src = lens()
    rotation, kind, trace = dict(src.rotation), dict(src.kind), dict(src.trace)
    d = Drawing(src.base, src.plan, rotation, kind, trace, src.outer)
    if validated_first:
        assert validate(d) == []
    rotation[6] = (rotation[6][0], rotation[6][0])
    kind[4] = "subdivision"
    trace[1] = trace[0]
    assert (d.rotation, d.kind, d.trace) == (src.rotation, src.kind, src.trace)
    assert validate(d) == []
    # The same dicts, mutated, make a drawing that is refused.
    assert validate(Drawing(src.base, src.plan, rotation, kind, trace, src.outer))


def cut_outcome(d, plan):
    try:
        return subdivide_with_map(d, plan)[0].outer
    except IndexError:
        return "IndexError"


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 14), st.integers(1, 3), st.integers(0, 10**6))
def test_with_outer_drops_what_depends_on_the_outer_face(n, k, seed):
    d = random_kplanar(n, k, seed)
    plan = cut_plan(d, random.Random(seed))
    assert validate(d) == []
    subdivide_with_map(d, plan)
    d._dual_tree
    for o in range(-2, len(d.faces) + 2):
        moved = d.with_outer(o)
        fresh = Drawing(d.base, d.plan, d.rotation, d.kind, d.trace, o)
        assert moved == fresh
        assert validate(moved) == validate(fresh)
        in_range = 0 <= o < len(d.faces)
        assert ("outer face: index out of range" in validate(moved)) != in_range
        assert cut_outcome(moved, plan) == cut_outcome(fresh, plan)
        if in_range:
            assert moved._dual_tree == fresh._dual_tree


def count_derivations(monkeypatch):
    """Counts every run of the uncached validator, cut builder, rotation
    system cut and crossing graph builder, wherever they are imported, as
    ``(drawing, cuts)``."""
    calls = {"_validate": [], "_cut": [], "_split": [], "_crossing_graph": []}
    for name, modules in (
        ("_validate", (drawing,)),
        ("_cut", (drawing,)),
        ("_split", (drawing, transduce)),
        ("_crossing_graph", (drawing,)),
    ):
        real = getattr(drawing, name)

        def counted(d, *rest, real=real, log=calls[name]):
            log.append((d, *rest))
            return real(d, *rest)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_pipeline_derives_each_fact_once(monkeypatch):
    calls = count_derivations(monkeypatch)
    built = []
    post_init = Drawing.__post_init__

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Drawing, "__post_init__", counted_post_init)
    g = grid2d(2, 3)
    host = drawing_from_segments(g, {i * 3 + j: pt(j, i) for i in range(2) for j in range(3)})
    m = find_model_bruteforce(g, complete(4), 2, 2, cap=16)
    res = synthesize(host, m)
    synthesize(host, m)
    d, cert = res.drawing, res.cert
    assert cert.plan.cuts
    assert validate(d) == []
    assert verify_certificate(d, cert, strong=True).verdict
    built.clear()
    out = transduce_clustered(d, cert, {}, res.kPrime)
    # The certificate's cuts and the stubs are made on one rotation system
    # of d itself: no cut drawing, and no drawing at all.
    assert built == []
    assert eval_formula(out) == d.base

    def on(name, x):
        return [rest for y, *rest in calls[name] if y is x]

    assert on("_validate", host) == [[]]
    assert on("_validate", d) == [[]]
    assert on("_crossing_graph", d) == [[cert.plan.cuts]]
    assert calls["_cut"] == []
    assert on("_split", d) == [[cert.plan.cuts]] and len(calls["_split"]) == 1

    k4 = fig3()
    transduce_kplanar(k4, {}, 2)
    calls["_validate"].clear()
    transduce_kplanar(k4, {}, 2)
    assert calls["_validate"] == []


def test_strong_search_leaves_only_its_certificate_in_the_slot(monkeypatch):
    calls = count_derivations(monkeypatch)
    d = fig3()
    cert = search_certificate(d, 2, 2, strong=True)
    assert cert.plan.cuts
    # The search takes its edge groups from the uncut crossing graph and
    # checks strong candidates on d itself, so nothing is cut; the
    # certificate's crossing graph then goes into the slot, and the uncut
    # one stays kept beside it.
    assert calls["_cut"] == [] and calls["_split"] == []
    assert calls["_crossing_graph"] == [(d, {}), (d, cert.plan.cuts)]
    slot = d.__dict__["_plan_slot"]
    assert slot == (cert.plan.cuts, crossing_graph(d, cert.plan))
    uncut = d.__dict__["_uncut_graph"]
    assert uncut == _crossing_graph(d, {}) and crossing_graph(d) is uncut
    # Cutting builds a new drawing on every call and adds nothing to the slot.
    d2 = subdivide_with_map(d, cert.plan)[0]
    assert subdivide_with_map(d, cert.plan)[0] is not d2
    assert calls["_cut"] == [(d, cert.plan.cuts)] * 2
    assert d.__dict__["_plan_slot"] is slot and len(slot) == 2
    # Searching again builds neither graph again: the uncut one is kept
    # apart from the slot, which still holds the certificate's plan.
    assert search_certificate(d, 2, 2, strong=True) == cert
    assert calls["_crossing_graph"] == [(d, {}), (d, cert.plan.cuts)]
    assert d.__dict__["_plan_slot"] is slot and d.__dict__["_uncut_graph"] is uncut


def test_a_certificate_without_cuts_reads_the_search_graph(monkeypatch):
    """The slot keeps uncut plans too: the uncut graph the search reads is
    the one that verification and the transducer read afterwards."""
    calls = count_derivations(monkeypatch)
    d = random_kplanar(10, 2, 3)
    cert = search_certificate(d, 2, 2)
    assert cert.plan.cuts == {}
    assert calls["_crossing_graph"] == [(d, {})]
    for _ in range(3):
        assert verify_certificate(d, cert).verdict
        assert eval_formula(transduce_clustered(d, cert, {}, 2)) == d.base
    assert calls["_crossing_graph"] == [(d, {})]


def test_with_outer_keeps_the_crossing_graph_slot(monkeypatch):
    """A crossing graph does not depend on the outer faces, so a drawing
    with other outer faces shares both kept graphs; a plan with other cuts
    then replaces the slot of that drawing alone, and leaves the uncut
    graph."""
    calls = count_derivations(monkeypatch)
    d = fig3()
    plan = SubdivisionPlan({1: (1,)})
    cg = crossing_graph(d, plan)
    slot = d.__dict__["_plan_slot"]
    for outer in range(len(d.faces)):
        moved = d.with_outer(outer)
        assert moved.__dict__["_plan_slot"] is slot
        assert crossing_graph(moved, plan) is cg
    assert calls["_crossing_graph"] == [(d, plan.cuts)]
    other = SubdivisionPlan({2: (1,)})
    assert crossing_graph(moved, other) == _crossing_graph(d, other.cuts)
    assert moved.__dict__["_plan_slot"][0] == other.cuts
    assert d.__dict__["_plan_slot"] is slot
    assert crossing_graph(d, plan) is cg
    # The uncut graph is kept beside the slot and shared the same way.
    del calls["_crossing_graph"][:]
    uncut = crossing_graph(d)
    assert d.__dict__["_uncut_graph"] is uncut
    assert uncut == _crossing_graph(d, {})
    assert d.__dict__["_plan_slot"] is slot
    for outer in range(len(d.faces)):
        moved = d.with_outer(outer)
        assert moved.__dict__["_uncut_graph"] is uncut
        assert moved.__dict__["_plan_slot"] is slot
        assert crossing_graph(moved) is uncut
    assert calls["_crossing_graph"] == [(d, {})]
    # A plan with other cuts replaces the slot and leaves the uncut graph.
    crossing_graph(d, other)
    assert d.__dict__["_plan_slot"][0] == other.cuts
    assert crossing_graph(d) is uncut
    assert calls["_crossing_graph"] == [(d, {}), (d, other.cuts)]


# ===== Crossing graphs =====


def test_crossing_graph_of_x():
    d = xfix()
    cg = crossing_graph(d)
    assert cg.nodes == (ArcRef(0, 0, 1), ArcRef(1, 0, 1))
    assert cg.edges == ((0, 1),)
    assert cg.crossings == ((4,), (4,))
    assert cg.components() == [[0, 1]]


def test_crossing_graph_of_lens_with_cut():
    d = lens()
    cg = crossing_graph(d, SubdivisionPlan({1: (1,)}))
    assert cg.nodes == (ArcRef(0, 0, 2), ArcRef(1, 0, 1), ArcRef(1, 1, 2))
    assert sorted(cg.edges) == [(0, 1), (0, 2)]
    assert cg.components() == [[0, 1, 2]]


def test_an_arc_is_its_tuple():
    """An arc equals, hashes, sorts and prints as it did as a frozen
    ordered dataclass, and also equals the plain ``(edge, lo, hi)``."""
    a = ArcRef(1, 0, 2)
    assert (a.edge, a.lo, a.hi) == (1, 0, 2)
    assert a == ArcRef(1, 0, 2) and a != ArcRef(1, 0, 1)
    assert hash(a) == hash(ArcRef(1, 0, 2)) and len({a, ArcRef(1, 0, 2)}) == 1
    assert sorted([ArcRef(2, 0, 1), ArcRef(1, 1, 2), a]) == [a, ArcRef(1, 1, 2), ArcRef(2, 0, 1)]
    assert ArcRef(1, 0, 2) < ArcRef(1, 1, 0) < ArcRef(2, 0, 0)
    assert repr(a) == str(a) == "ArcRef(edge=1, lo=0, hi=2)"
    assert a == (1, 0, 2) and hash(a) == hash((1, 0, 2))
    assert {(1, 0, 2): "memo"}[a] == "memo" and {a: "memo"}[(1, 0, 2)] == "memo"


def test_crossing_graph_isolated_arcs():
    g = Graph.make([0, 1, 2], [(0, 1), (1, 2)])
    d = drawing_from_segments(g, {0: pt(0, 0), 1: pt(1, 0), 2: pt(1, 1)})
    cg = crossing_graph(d)
    assert cg.nodes == (ArcRef(0, 0, 0), ArcRef(1, 0, 0))
    assert cg.edges == ()
    assert cg.components() == []
    assert cg.components(nontrivial=False) == [[0], [1]]


def crossing_graph_corpus():
    """Seeded k-planar drawings, the paper's figures and the shared grid
    syntheses."""
    out = [random_kplanar(n, k, seed) for n in range(6, 13) for k in (1, 2, 3) for seed in range(6)]
    out += [fig1a(), *(fig1b(m) for m in range(3, 9)), fig3()]
    return out + [res.drawing for res in grid_syntheses()]


def assert_crossing_graph_matches_oracles(d, rng):
    """The uncut graph and three random cut plans against the arc-owner
    oracle, and the uncut graph's components against the edge groups."""
    assert crossing_graph(d).components() == oracle_edge_groups(d)
    for plan in (SubdivisionPlan(), *(cut_plan(d, rng) for _ in range(3))):
        cg = crossing_graph(d, plan)
        want = oracle_crossing_graph(d, plan.cuts)
        assert (cg.nodes, cg.edges, cg.crossings) == (want.nodes, want.edges, want.crossings)
        assert cg.components() == want.components()
        assert cg.components(nontrivial=False) == want.components(nontrivial=False)


def test_crossing_graph_matches_oracles_on_seeded_corpus(monkeypatch):
    searched = []
    first_plan = cluster._GroupSearch.first_plan

    def recorded(self, edges):
        searched.append(list(edges))
        return first_plan(self, edges)

    monkeypatch.setattr(cluster._GroupSearch, "first_plan", recorded)
    found = 0
    for i, d in enumerate(crossing_graph_corpus()):
        assert_crossing_graph_matches_oracles(d, random.Random(i))
        # The search walks exactly these groups, in this order, until one
        # has no plan.
        del searched[:]
        try:
            cert = search_certificate(d, 2, 2)
        except CapExceeded:
            continue
        groups = oracle_edge_groups(d)
        assert searched == (groups if cert else groups[: len(searched)])
        found += cert is not None and len(groups) > 1
    assert found >= 60


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 12), st.integers(1, 3), st.integers(0, 10**6))
def test_crossing_graph_matches_oracles_on_random_drawings(n, k, seed):
    assert_crossing_graph_matches_oracles(random_kplanar(n, k, seed), random.Random(seed))


def oracle_components(cg):
    """Every component of ``cg`` by the breadth-first oracle, each sorted,
    in the order of their least nodes."""
    label = oracle_component_index(range(len(cg.nodes)), cg.edges)
    comps = {}
    for n in range(len(cg.nodes)):
        comps.setdefault(label[n], []).append(n)
    return list(comps.values())


def test_kept_components_equal_fresh_ones_on_seeded_corpus():
    """A crossing graph keeps its components after the first call.  On
    every call they equal those of a freshly built graph, which has kept
    nothing yet, and the breadth-first oracle's; uncut, the nontrivial ones
    are the edge groups.  It keeps its arc keys the same way."""
    for i, d in enumerate(crossing_graph_corpus()):
        rng = random.Random(i)
        for plan in (SubdivisionPlan(), *(cut_plan(d, rng) for _ in range(2))):
            cg = crossing_graph(d, plan)
            every = cg.components(nontrivial=False)
            fresh = _crossing_graph(d, plan.cuts)
            assert fresh is not cg and "_kept_components" not in fresh.__dict__
            assert fresh.components(nontrivial=False) == every == oracle_components(cg)
            assert cg.components() == [c for c in every if len(c) >= 2]
            assert cg.components(nontrivial=False) == every
            # Each arc's key: its edge and the number of earlier arcs of it.
            edges = [a.edge for a in cg.nodes]
            keys = tuple((e, edges[:n].count(e)) for n, e in enumerate(edges))
            assert cg._arc_keys == fresh._arc_keys == keys and cg._arc_keys is cg._arc_keys
        assert crossing_graph(d).components() == oracle_edge_groups(d)


def test_a_caller_cannot_change_the_kept_components():
    d = lens()
    cg = crossing_graph(d, SubdivisionPlan({1: (1,)}))
    comps = cg.components()
    comps[0].append(9)
    comps.append([7])
    every = cg.components(nontrivial=False)
    every[0].clear()
    assert cg.components() == cg.components(nontrivial=False) == [[0, 1, 2]]
    cg = crossing_graph(drawing_from_segments(
        Graph.make([0, 1, 2], [(0, 1), (1, 2)]), {0: pt(0, 0), 1: pt(1, 0), 2: pt(1, 1)}
    ))
    cg.components().append([0, 1])
    cg.components(nontrivial=False).pop()
    assert cg.components() == []
    assert cg.components(nontrivial=False) == [[0], [1]]


def test_verification_and_the_compile_find_the_components_once(monkeypatch):
    """``verify_certificate`` and then ``transduce_clustered`` on one
    certificate read one crossing graph, whose components are found once;
    a search finds those of the uncut graph and of its certificate's plan
    once each, and verification and the compile after it find none."""
    calls = []
    real = drawing._components
    monkeypatch.setattr(drawing, "_components", lambda n, edges: calls.append(n) or real(n, edges))
    d, cert = fig1a(), fig1a_certificate()
    assert verify_certificate(d, cert, strong=True).verdict
    assert verify_certificate(d, cert).verdict
    assert eval_formula(transduce_clustered(d, cert, {}, 2)) == d.base
    assert len(calls) == 1
    del calls[:]
    d = fig3()
    cert = search_certificate(d, 2, 2, strong=True)
    assert cert.plan.cuts and len(calls) == 2
    assert verify_certificate(d, cert, strong=True).verdict
    assert eval_formula(transduce_clustered(d, cert, {}, 2)) == d.base
    assert len(calls) == 2


def synth_corpus(count):
    """The drawings of the first ``count`` results of the seeded model
    corpus of ``tests/test_synth.py``."""
    rng = random.Random(1)
    return [synthesize(*random_model(rng)).drawing for _ in range(count)]


def test_kept_passage_sides_equal_the_path_oracle():
    """At every crossing, for both of its edges and both directions of the
    other, the side ``_passage_side`` keeps on the drawing equals the path
    oracle's; a later call returns the kept side.  Over the paper's
    figures, the seeded ``random_kplanar`` set, the grid syntheses and part
    of the synthesis corpus."""
    corpus = [*crossing_graph_corpus(), lens(), xfix(), *synth_corpus(400)]
    assert sum(len(d.crossing_edges) for d in corpus) >= 900
    for d in corpus:
        for x, pair in d.crossing_edges.items():
            for eid, fid in (pair, pair[::-1]):
                for forward in (True, False):
                    side = _passage_side(d, eid, x, fid, forward)
                    p = d.paths[fid] if forward else d.paths[fid][::-1]
                    assert side == oracle_passage_side(d, d.paths[eid], x, (p[p.index(x) - 1], x))
                    assert d._sides[eid, x, fid, forward] == side
        assert len(d._sides) == 4 * len(d.crossing_edges)
        kept = dict(d._sides)
        for (eid, x, fid, forward), side in kept.items():
            assert _passage_side(d, eid, x, fid, forward) == side
        assert d._sides == kept
        assert d.with_outer(d.outer)._sides is d._sides


# ===== Tables kept for certificate searches =====


def test_kept_search_tables_equal_fresh_ones_on_seeded_corpus():
    """The crossing count, the cut options of every fold, the crossing
    index and the uncut crossing graph a drawing keeps equal freshly built
    ones, and a drawing with other outer faces shares them."""
    for d in crossing_graph_corpus():
        assert d._crossing_count == sum(kind == "crossing" for kind in d.kind.values())
        assert d._crossing_count == len(d.crossing_edges)
        c_max = max(crossings_per_edge(d).values(), default=0)
        for k in range(1, 7):
            kept = _kept_options(d, k)
            assert kept == _cut_options(d, k)
            assert _kept_options(d, k) is kept is d._fold_options[min(k, c_max)]
        assert sorted(d._fold_options) == sorted({min(k, c_max) for k in range(1, 7)})
        # Positions counted along each edge's plan path.
        index = {}
        for eid, path in d.paths.items():
            xs = [p for p in path if d.kind[p] == "crossing"]
            index.update(((eid, x), j) for j, x in enumerate(xs, 1))
        assert d._crossing_index == index
        uncut = crossing_graph(d)
        assert uncut is d._uncut_graph
        for want in (_crossing_graph(d, {}), oracle_crossing_graph(d, {})):
            assert (uncut.nodes, uncut.edges, uncut.crossings) == (
                want.nodes,
                want.edges,
                want.crossings,
            )
        moved = d.with_outer(d.outer)
        for name in ("_crossing_count", "_fold_options", "_crossing_index", "_uncut_graph"):
            assert getattr(moved, name) is getattr(d, name), name


def test_searches_on_kept_tables_equal_the_oracle():
    """Every search equals the oracle's, on a fresh copy of the drawing and
    on one whose tables, and a certificate's plan slot, are already built."""
    compared = 0
    for d in crossing_graph_corpus():
        if d._crossing_count > 64:
            continue
        warm = Drawing(d.base, d.plan, d.rotation, d.kind, d.trace, d.outer, d.outers)
        crossing_graph(warm, SubdivisionPlan({0: (0,)}))
        for k in range(1, 7):
            _kept_options(warm, k)
        assert 2 * warm._crossing_count == len(warm._crossing_index)
        for k in (1, 2, 3):
            if cut_space(d, k) > ORACLE_SPACE:
                continue
            for ell in (1, 2, 3):
                for strong in (False, True):
                    want = oracle_search_certificate(d, k, ell, strong=strong, cap=64)
                    fresh = Drawing(d.base, d.plan, d.rotation, d.kind, d.trace, d.outer, d.outers)
                    got = search_certificate(fresh, k, ell, strong=strong, cap=64)
                    assert got == want, (k, ell, strong)
                    got = search_certificate(warm, k, ell, strong=strong, cap=64)
                    assert got == want, (k, ell, strong)
                    compared += 1
    assert compared >= 1000


def test_a_query_sequence_builds_each_table_once(monkeypatch):
    """The benchmark's query pattern on one drawing: its crossing graph, a
    weak search whose certificate has cuts, verification and the clustered
    compile, then more searches.  The uncut crossing graph is built once
    and the cut options once per effective fold, although the certificate's
    cut graph took the plan slot in between."""
    calls = count_derivations(monkeypatch)
    folds = []
    real_options = cluster._cut_options

    def cut_options(d, k):
        folds.append(k)
        return real_options(d, k)

    monkeypatch.setattr(cluster, "_cut_options", cut_options)
    d = fig3()
    assert max(crossings_per_edge(d).values()) == 2
    uncut = crossing_graph(d)
    cert = search_certificate(d, 2, 2)
    assert cert.plan.cuts
    assert verify_certificate(d, cert).verdict
    assert eval_formula(transduce_clustered(d, cert, {}, 2)) == d.base
    assert crossing_graph(d) is uncut
    # Folds 2, 3 and 6 are all effective fold 2; fold 1 is its own.
    assert search_certificate(d, 3, 2) == replace(cert, k=3)
    assert search_certificate(d, 6, 2, strong=True) is not None
    assert search_certificate(d, 1, 3) is not None
    assert search_certificate(d.with_outer(d.outer), 2, 3) is not None
    assert folds == [2, 1]
    assert [c for c in calls["_crossing_graph"] if c == (d, {})] == [(d, {})]
    assert d.__dict__["_uncut_graph"] is uncut


# ===== The verdict a drawing keeps =====


def json_copy(d):
    """``d`` read back from its JSON document: equal, and keeping nothing."""
    copy = drawing_from_json(drawing_to_json(d))
    assert copy == d and copy is not d
    return copy


def without_first_cover(cert):
    """``cert`` less its first cover, which fails as ``"no cover"``."""
    first = min(cert.covers)
    return Certificate(
        cert.k, cert.ell, cert.plan, {c: f for c, f in cert.covers.items() if c != first}, cert.assignment
    )


def verdict_cases():
    """``(drawing, certificate)`` pairs: the first 400 results of the
    synthesis corpus, whose drawings keep the strong verdict ``synthesize``
    reached; weak and strong search certificates on the seeded
    ``random_kplanar`` drawings and on the figures, with fig1a's own; and
    each of the last two with its first cover removed."""
    rng = random.Random(1)
    for _ in range(400):
        res = synthesize(*random_model(rng))
        yield res.drawing, res.cert
    drawings = [random_kplanar(n, k, seed) for n in range(6, 13) for k in (1, 2, 3) for seed in range(6)]
    drawings += [fig1a(), *(fig1b(m) for m in range(3, 9)), fig3()]
    certs = [(fig1a(), fig1a_certificate())]
    for d in drawings:
        for k, ell, strong in ((2, 1, False), (2, 2, False), (2, 2, True)):
            try:
                cert = search_certificate(d, k, ell, strong=strong)
            except CapExceeded:
                continue
            if cert is not None:
                certs.append((d, cert))
    for d, cert in certs:
        yield d, cert
        if cert.covers:
            yield d, without_first_cover(cert)


def assert_kept_verdicts_equal_fresh_ones(d, cert):
    """Over a query sequence with every pair of modes in turn, by a caller
    who clears every report's ``stats``, each answer on ``d`` equals a
    fresh verification on a copy of ``d`` read back from JSON; returns the
    fresh reports, weak and strong."""
    want = [verify_certificate(json_copy(d), cert, strong=strong) for strong in (False, True)]
    for strong in (True, False, True, False, False, True, True):
        rep = verify_certificate(d, cert, strong=strong)
        assert rep == want[strong], strong
        rep.stats.clear()
    return want


def test_kept_verdicts_equal_fresh_ones_on_seeded_corpus():
    """Each case is asked on its drawing and then on that drawing with the
    next face outside, which keeps no verdict.  The corpus holds
    certificates that pass both checks, pass the weak one only, and fail
    both, and certificates whose strong verdict the other outer face
    changes."""
    outcomes = Counter()
    moved_differ = 0
    for d, cert in verdict_cases():
        want = assert_kept_verdicts_equal_fresh_ones(d, cert)
        moved = d.with_outer((d.outer + 1) % max(len(d.faces), 1))
        assert "_verdict_slot" in d.__dict__ and "_verdict_slot" not in moved.__dict__
        moved_want = assert_kept_verdicts_equal_fresh_ones(moved, cert)
        for rep in (*want, *moved_want):
            outcomes[rep.verdict, rep is want[1] or rep is moved_want[1]] += 1
        moved_differ += moved_want[1] != want[1]
        outcomes["weak pass, strong fail"] += sum(w.verdict > s.verdict for w, s in (want, moved_want))
    assert outcomes[True, True] >= 400
    assert outcomes[False, True] >= 100
    assert outcomes["weak pass, strong fail"] >= 20
    assert moved_differ >= 20


def test_a_drawing_keeps_one_verdict_for_one_certificate_object(monkeypatch):
    """With face 5 outside, fig3's weak (2, 2) certificate passes the weak
    check and fails the strong one.  A weak pass does not answer a strong
    query, nor a failed strong check a weak one; the slot answers only the
    certificate object it holds, so an equal certificate is checked again,
    and a twin of it that holds float ids cannot be built; and the drawing
    with face 1 outside, where the strong check passes, keeps nothing of
    it."""
    checked = []
    real = cluster._structural_check
    monkeypatch.setattr(cluster, "_structural_check", lambda d, c: checked.append(c) or real(d, c))
    d = fig3().with_outer(5)
    cert = search_certificate(d, 2, 2)
    assert verify_certificate(d, cert).verdict
    assert not verify_certificate(d, cert, strong=True).verdict
    assert checked == [cert, cert]
    assert verify_certificate(d, cert).verdict
    assert not verify_certificate(d, cert, strong=True).verdict
    assert not verify_certificate(d, cert, strong=True).verdict
    assert checked == [cert] * 4
    assert d.__dict__["_verdict_slot"][:2] == (cert, True)
    twin = Certificate(cert.k, cert.ell, cert.plan, dict(cert.covers), dict(cert.assignment))
    assert twin == cert
    assert not verify_certificate(d, twin, strong=True).verdict
    assert len(checked) == 5 and checked[-1] is twin
    with pytest.raises(ValueError, match=r"^assignment center \d\.0 is not an int$"):
        replace(twin, assignment={key: float(c) for key, c in twin.assignment.items()})
    assert d.__dict__["_verdict_slot"][0] is twin
    moved = d.with_outer(1)
    assert "_verdict_slot" not in moved.__dict__
    assert verify_certificate(moved, twin, strong=True).verdict
    assert not verify_certificate(d, twin, strong=True).verdict


def test_a_caller_cannot_change_a_kept_verdict():
    """Every report has its own ``stats`` and every call its own component
    lists, so what a caller does to them reaches no later answer."""
    d, cert = fig1a(), fig1a_certificate()
    first = verify_certificate(d, cert, strong=True)
    want = dict(first.stats)
    first.stats["components"] = 99
    second = verify_certificate(d, cert, strong=True)
    assert second.stats == want and second.stats is not first.stats
    second.stats.clear()
    weak = verify_certificate(d, cert)
    assert weak.stats == want and weak.verdict
    _, cg, comps, keys = cluster._verified(d, cert, False)
    assert keys is cg._arc_keys
    comps[0].append(99)
    comps.append([7])
    with pytest.raises(TypeError):
        keys[0] = (9, 9)
    clusters = [[2, 3, 4, 10, 11, 13, 14, 16], [5, 6, 7, 9, 15, 17], [8, 12, 18, 19]]
    assert cluster._verified(d, cert, False)[2] == cg.components() == clusters
    assert verify_certificate(d, cert, strong=True).stats == want


def test_a_certificate_never_changes():
    """A certificate's maps and its plan's cuts refuse item assignment, its
    fan lists are tuples, and the dicts a caller built it from, changed
    afterwards, do not reach it."""
    base = fig1a_certificate()
    cuts = {e: list(g) for e, g in base.plan.cuts.items()}
    covers = {c: list(fans) for c, fans in base.covers.items()}
    assignment = dict(base.assignment)
    cert = Certificate(base.k, base.ell, SubdivisionPlan(cuts), covers, assignment)
    assert cert == base
    assert all(type(fans) is tuple for fans in cert.covers.values())
    for m in (cert.covers, cert.assignment, cert.plan.cuts):
        with pytest.raises(TypeError):
            m[0] = ()
    cuts.clear()
    covers[0].pop()
    covers.clear()
    assignment[(0, 0)] = 99
    assert cert == base
    d = fig1a()
    assert verify_certificate(d, cert, strong=True).verdict


def test_the_strong_check_runs_only_inside_synthesize(monkeypatch):
    """From a model to the decoded pattern, the synthesized certificate is
    checked once, strongly, inside ``synthesize``: the caller's
    ``validate``, its strong ``verify_certificate`` and the clustered
    compile's weak check run neither the structural nor the strong check
    again.  Over the grid models of the theorem pipeline and part of the
    synthesis corpus, which includes certificates from the exact covers."""
    phase = ["synthesize"]
    calls = Counter()
    checked = []
    real_failures, real_check = cluster._strong_failures, cluster._structural_check

    def strong_failures(*args):
        calls["strong", phase[0]] += 1
        return real_failures(*args)

    def structural_check(d, cert):
        calls["structural", phase[0]] += 1
        checked.append(cert)
        return real_check(d, cert)

    monkeypatch.setattr(cluster, "_strong_failures", strong_failures)
    monkeypatch.setattr(cluster, "_structural_check", structural_check)
    real_certificate = synth._certificate
    monkeypatch.setattr(
        synth, "_certificate", lambda *args: calls.update(["exact"]) or real_certificate(*args)
    )
    rng = random.Random(1)
    models = [random_model(rng) for _ in range(360)]
    g = grid2d(2, 3)
    host = drawing_from_segments(g, {i * 3 + j: pt(j, i) for i in range(2) for j in range(3)})
    models.append((host, find_model_bruteforce(g, complete(4), 2, 2, cap=16)))
    decoded = 0
    for host, m in models:
        phase[0] = "synthesize"
        del checked[:]
        res = synthesize(host, m)
        assert checked[-1] is res.cert
        phase[0] = "after"
        assert validate(res.drawing) == []
        assert verify_certificate(res.drawing, res.cert, strong=True).verdict
        out = transduce_clustered(res.drawing, res.cert, {}, res.kPrime)
        decoded += eval_formula(out) == m.pattern
    assert decoded == len(models) and calls["exact"] == 1
    assert calls["strong", "synthesize"] > 0 and calls["structural", "synthesize"] >= len(models)
    assert calls["strong", "after"] == calls["structural", "after"] == 0


# ===== Planarize =====


def test_planarize_x():
    d = xfix()
    p, xmap = planarize(d)
    assert validate(p) == []
    assert p.base == d.plan
    assert crossings_per_edge(p) == {e: 0 for e in range(p.base.m)}
    assert xmap == {4: 4}
    assert len(p.faces) == len(d.faces)


def test_planarize_lens_keeps_bend_vertex():
    d = lens()
    p, xmap = planarize(d)
    assert validate(p) == []
    assert p.base.n == 7 and p.base.m == 7
    assert xmap == {4: 4, 5: 5}


# ===== Sides and the fan property =====


def spokes_from(d, center, eids):
    """The base edges ``eids`` as ``_fan_core`` spokes walked from ``center``."""
    return [(e, d.base.edges[e][0] == center) for e in eids]


def on_cut_drawing(d, eid, lo, hi, cuts, spokes):
    """The same case as the path oracles take it: the drawing cut at
    ``cuts``, the arc's plan path there and every spoke's stitched plan
    path from the center."""
    d2, pieces = _cut(d, cuts)
    alpha = d2.paths[pieces[eid][bisect.bisect_right(cuts.get(eid, ()), lo)]]
    fan = []
    for f, forward in spokes:
        center = d.base.edges[f][0 if forward else 1]
        chain = pieces[f] if forward else pieces[f][::-1]
        fan.append(stitched_path(d2, chain, d2.real_pvid[center]))
    return d2, alpha, fan


def hits_of(d, eid, lo, hi, spokes):
    """The spokes as ``_fan_core`` hits on the arc of ``eid`` from gap
    ``lo`` to gap ``hi``: each with the crossings it shares with the arc,
    none left out, so a spoke that misses the arc fails condition (1)."""
    alpha_x = set(d.edge_crossings[eid][lo:hi])
    return [(alpha_x & set(d.edge_crossings[f]), f, forward) for f, forward in spokes]


def strong_fan(d, eid, spokes, lo=0, hi=None, cuts=None):
    """``_fan_core`` on the arc of ``eid`` from gap ``lo`` to gap ``hi`` (by
    default its whole edge) under ``cuts``, checked against
    ``oracle_fan_core`` on the cut drawing."""
    cuts = cuts or {}
    hi = len(d.edge_crossings[eid]) if hi is None else hi
    got = _fan_core(d, eid, lo, hi, cuts, hits_of(d, eid, lo, hi, spokes))
    assert got == oracle_fan_core(*on_cut_drawing(d, eid, lo, hi, cuts, spokes))
    return got


def approach_sides(d, eid, spokes, lo=0, hi=None):
    """The side from which each spoke meets the arc of ``eid`` from gap
    ``lo`` to gap ``hi``, each checked against the path oracle's side."""
    ax = set(d.edge_crossings[eid][lo:hi])
    sides = set()
    for f, forward in spokes:
        (x,) = ax & set(d.edge_crossings[f])
        side = _passage_side(d, eid, x, f, forward)
        p = d.paths[f] if forward else d.paths[f][::-1]
        assert side == oracle_passage_side(d, d.paths[eid], x, (p[p.index(x) - 1], x))
        sides.add(side)
    return sides


def test_side_of_approach_is_side_dependent():
    d = xfix()
    sides = [approach_sides(d, 0, spokes_from(d, center, [1])) for center in (2, 3)]
    assert sides == [{"right"}, {"left"}]


def test_fan_property_weak_on_x():
    d = xfix()
    assert strong_fan(d, 0, spokes_from(d, 2, [1]))
    assert strong_fan(d, 0, spokes_from(d, 3, [1]))


def test_fan_property_fails_on_double_crossing():
    d = lens()
    # The whole edge (2,3) crosses the whole edge (0,1) twice: not a fan
    # crossing pattern.
    assert not strong_fan(d, 0, spokes_from(d, 2, [1]))


def test_fan_property_on_arc_of_lens():
    d = lens()
    # Cut (0,1) after its first crossing; the arc up to it is crossed once.
    assert strong_fan(d, 0, spokes_from(d, 2, [1]), 0, 1, {0: (1,)})
    assert strong_fan(d, 0, spokes_from(d, 2, [1]), 1, 2, {0: (1,)})
    # A cut on (2,3) after its first crossing lies next to the bend 6.
    assert 6 in d.plan.edges[_steps(d, 1)[_cut_step(d, 1, 1)]]
    for lo, hi in ((0, 1), (1, 2)):
        strong_fan(d, 1, spokes_from(d, 0, [0]), lo, hi, {1: (1,)})


def test_fan_property_same_side_requirement():
    # Two parallel verticals crossed by one horizontal: centers on opposite
    # ends approach from different sides.
    g = Graph.make([0, 1, 2, 3, 4, 5], [(0, 1), (2, 3), (4, 5)])
    pos = {
        0: pt(0, 0),
        1: pt(10, 0),
        2: pt(2, -1),
        3: pt(2, 1),
        4: pt(4, -1),
        5: pt(4, 1),
    }
    d = drawing_from_segments(g, pos)
    assert strong_fan(d, 0, spokes_from(d, 3, [1]))
    # Mixed sides fail: walk one edge from below, the other from above.
    mixed = spokes_from(d, 2, [1]) + spokes_from(d, 5, [2])
    assert approach_sides(d, 0, mixed) == {"left", "right"}
    assert not strong_fan(d, 0, mixed)


def test_fan_property_empty_fan_true():
    d = xfix()
    assert strong_fan(d, 0, [])


def test_strong_fan_detects_enclosure():
    # Two fan edges from one center cross each other twice, forming a pocket;
    # the crossed edge sneaks in through them and ends inside.  Each fan edge
    # crosses it exactly once and from the same side, so the weak property
    # holds, but the end of the edge cannot reach the outer face.
    g = Graph.make([0, 1, 2, 3, 4], [(0, 1), (0, 2), (3, 4)])
    pos = {0: pt(0, 0), 1: pt(2, 4), 2: pt(4, -1), 3: pt(12, 2), 4: pt(6, 2)}
    bends = {
        0: [pt(8, 0), pt(8, 4)],
        1: [pt(4, -2), pt(10, -2), pt(10, 6), pt(4, 6)],
    }
    d = drawing_from_polylines(g, pos, bends)
    assert validate(d) == []
    spokes = spokes_from(d, 0, [0, 1])
    assert len(approach_sides(d, 2, spokes)) == 1  # weak: fine
    assert not strong_fan(d, 2, spokes)
    cert = Certificate(
        1, 2, covers={0: (Fan(0, ((0, 1), (0, 2))), Fan(4, ((3, 4),)))},
        assignment={(0, 0): 0, (1, 0): 0, (2, 0): 4},
    )
    assert verify_certificate(d, cert).verdict
    strong = verify_certificate(d, cert, strong=True)
    assert (0, "fan property: center 0 arc (2, 0)") in strong.failures


def case_drawing(n, k, seed):
    """``random_kplanar(n, k, seed)``, maybe beside a copy of itself with
    edges dropped, maybe with a bend on some edges, and distinct random cuts
    at any gaps, 0 and the last among them.  Returns the drawing, its cuts
    and the random generator for the cases."""
    rng = random.Random(seed)
    d = random_kplanar(n, k, seed)
    # The generator's vertex positions are its first n draws.  Any subset of
    # its edges is again a valid straight-line drawing, and so is a copy to
    # the right of it, a plan component that misses the outer face.
    prng = random.Random(seed)
    ys = [prng.randrange(0, 2 * n + 1) for _ in range(n)]
    edges = list(d.base.edges)
    pos = {i: pt(i, ys[i]) for i in range(n)}
    if rng.random() < 0.5:
        pos.update({i + n: pt(i + n, ys[i]) for i in range(n)})
        edges = [e for e in edges if rng.random() < 0.6] + [(u + n, v + n) for u, v in edges]
    g = Graph.make(range(len(pos)), edges)
    bends = {}
    if rng.random() < 0.5:
        for eid, (u, v) in enumerate(g.edges):
            if rng.random() < 0.3:
                (x1, y1), (x2, y2) = pos[u], pos[v]
                lift = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 3)
                bends[eid] = [pt((x1 + x2) / 2, (y1 + y2) / 2 + lift)]
    if bends or len(pos) > n:
        try:
            d = drawing_from_polylines(g, pos, bends)
        except ValueError:  # a bend on a vertex, a segment or a crossing
            d = drawing_from_segments(g, pos)
    cuts = {}
    for eid in rng.sample(range(d.base.m), rng.randint(1, min(4, d.base.m))):
        c = len(d.edge_crossings[eid])
        some = tuple(sorted(rng.sample(range(c + 1), min(2, c + 1))))
        cuts[eid] = rng.choice([(0,), (c,), tuple(sorted({0, c})), some, (rng.randint(0, c),)])
    return d, cuts, rng


def crossed_arcs(d, cuts):
    """Every arc ``(edge, lo, hi)`` of the plan that has a crossing."""
    out = []
    for e, xs in d.edge_crossings.items():
        b = [0, *cuts.get(e, ()), len(xs)]
        out += [(e, lo, hi) for lo, hi in zip(b, b[1:]) if lo < hi]
    return out


def fan_cases(d, cuts, rng, count):
    """Random strong fan checks: a crossed arc, a center at an end of an
    edge crossing it (most often the end with the most such edges), and a
    random subset of the center's edges that cross the arc.  Some cases move
    the outer face to a random face or to a face beside the arc."""
    arcs = crossed_arcs(d, cuts)
    for _ in range(count if arcs else 0):
        e, lo, hi = rng.choice(arcs)
        ax = set(d.edge_crossings[e][lo:hi])
        hit = [f for f in range(d.base.m) if f != e and ax & set(d.edge_crossings[f])]
        ends = [v for f in hit for v in d.base.edges[f]]
        if rng.random() < 0.7:
            center = max(sorted(set(ends)), key=ends.count)
        else:
            center = rng.choice(ends)
        spokes = [
            (f, d.base.edges[f][0] == center)
            for f in hit
            if center in d.base.edges[f] and rng.random() < 0.8
        ]
        rooted = d
        if rng.random() < 0.3:
            rooted = d.with_outer(rng.randrange(len(d.faces)))
        elif rng.random() < 0.5:
            path = d.paths[e]
            i = rng.randrange(len(path) - 1)
            dart = (path[i], path[i + 1])
            rooted = d.with_outer(d.face_of_dart(dart if rng.random() < 0.5 else dart[::-1]))
        yield rooted, e, lo, hi, spokes


def decided_by_enclosure(d, e, lo, hi, spokes):
    """Whether conditions (1) and (2) hold, so that (3) decides."""
    ax = set(d.edge_crossings[e][lo:hi])
    if any(len(ax & set(d.edge_crossings[f])) != 1 for f, _ in spokes):
        return False
    return len(approach_sides(d, e, spokes, lo, hi)) <= 1


def off_outer_component(d, e):
    """Whether base edge ``e``'s plan component misses the outer face."""
    comp = oracle_component_index(d.plan.vertices, d.plan.edges)
    return comp[d.paths[e][0]] != comp[d.faces[d.outer][0][0]]


def test_strong_fan_matches_oracle_on_seeded_corpus():
    enclosed = off_outer = at_cut = 0
    for seed in range(400):
        n, k = 4 + seed % 13, 1 + seed % 3
        d, cuts, rng = case_drawing(n, k, seed)
        for d3, e, lo, hi, spokes in fan_cases(d, cuts, rng, 6):
            got = strong_fan(d3, e, spokes, lo, hi, cuts)
            enclosed += not got and decided_by_enclosure(d3, e, lo, hi, spokes)
            off_outer += off_outer_component(d3, e)
            at_cut += lo in cuts.get(e, ()) or hi in cuts.get(e, ())
    assert enclosed > 0 and off_outer > 0 and at_cut > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 14), st.integers(1, 3), st.integers(0, 10**6))
def test_strong_fan_matches_oracle_on_random_drawings(n, k, seed):
    d, cuts, rng = case_drawing(n, k, seed)
    for d3, e, lo, hi, spokes in fan_cases(d, cuts, rng, 4):
        strong_fan(d3, e, spokes, lo, hi, cuts)


def test_strong_fan_follows_the_outer_face():
    # The diagonal (1, 4) of the convex pentagon is crossed by the fan of
    # 0; with the outer face inside the triangle the fan cuts off, the kept
    # paths enclose both ends of the diagonal.
    # Each re-rooted drawing starts from one whose dual tree is built.
    d = fig3()
    eid = d.base.edge_id
    alpha, spokes = eid(1, 4), spokes_from(d, 0, [eid(0, 2), eid(0, 3)])
    assert strong_fan(d, alpha, spokes)
    got = [strong_fan(d.with_outer(i), alpha, spokes) for i in range(len(d.faces))]
    assert True in got and False in got


# ===== Strong failures against the path checks on the cut drawing =====


def strong_failures_agree(d, cuts, rng):
    """Every component of ``cuts`` under a random fan cover (each edge in the
    fan of a random end): ``cluster._strong_failures`` on ``d`` must list
    the same failures as the path checks on ``_cut(d, cuts)``.  Returns
    what the comparison covered: failing components, arcs that start at a
    cut at gap 0 or end at a cut at the last gap, components that miss the
    outer face, and cuts next to a bend."""
    cg = _crossing_graph(d, cuts)
    keys = cg._arc_keys
    d2, pieces = _cut(d, cuts)
    comp_of = oracle_component_index(d.plan.vertices, d.plan.edges)
    outer = comp_of[d.faces[d.outer][0][0]]
    seen = Counter()
    for cid, comp in enumerate(cg.components()):
        arcs = [(a.edge, a.lo, a.hi) for a in (cg.nodes[n] for n in comp)]
        groups = {}
        for e in sorted({a[0] for a in arcs}):
            groups.setdefault(rng.choice(d.base.edges[e]), []).append(d.base.edges[e])
        fans = [Fan(c, tuple(es)) for c, es in sorted(groups.items())]
        got = list(cluster._strong_failures(d, cuts, cid, cluster._crossed_arcs(d, arcs), fans))
        assert got == oracle_strong_failures(d, d2, pieces, cg, keys, cid, comp, fans)
        seen["failing"] += bool(got)
        seen["off outer"] += comp_of[d.paths[arcs[0][0]][0]] != outer
        for e, lo, hi in arcs:
            gaps = cuts.get(e, ())
            seen["gap 0"] += lo == 0 and 0 in gaps
            seen["gap c"] += hi == len(d.edge_crossings[e]) and hi in gaps
    for e, gaps in cuts.items():
        for g in gaps:
            ends = d.plan.edges[_steps(d, e)[_cut_step(d, e, g)]]
            seen["bend"] += any(d.kind_of(p) == "subdivision" for p in ends)
    return seen


def test_strong_failures_match_path_checks_on_seeded_corpus():
    seen = Counter()
    moved = 0
    for seed in range(300):
        d, cuts, rng = case_drawing(6 + seed % 9, 1 + seed % 3, seed)
        if rng.random() < 0.3:
            d = d.with_outer(rng.randrange(len(d.faces)))
        seen += strong_failures_agree(d, cuts, rng)
        # A cut drawing names the root of every plan component besides the
        # outer face's; count those that are not the least-dart default.
        d2 = _cut(d, cuts)[0]
        comp = d2.plan_components
        first = {}
        for i, face in enumerate(d2.faces):
            first.setdefault(comp[face[0][0]], i)
        moved += any(first[comp[d2.faces[f][0][0]]] != f for f in d2.outers)
    assert set(seen) == {"failing", "off outer", "gap 0", "gap c", "bend"}
    assert moved > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 14), st.integers(1, 3), st.integers(0, 10**6))
def test_strong_failures_match_path_checks_on_random_drawings(n, k, seed):
    d, cuts, rng = case_drawing(n, k, seed)
    strong_failures_agree(d, cuts, rng)


# ===== JSON =====


def test_drawing_json_round_trip():
    d = lens()
    doc = json.loads(json.dumps(drawing_to_json(d)))
    d2 = drawing_from_json(doc)
    assert d2 == d
    assert validate(d2) == []


def test_drawing_json_round_trip_with_two_plan_components():
    d = two_triangles()
    doc = json.loads(json.dumps(drawing_to_json(d)))
    assert doc["outers"] == list(d.outers)
    assert drawing_from_json(doc) == d
    # A drawing with one plan component keeps its one-outer-face document.
    assert "outers" not in drawing_to_json(lens())


def test_drawing_json_refuses_non_integer_outers():
    doc = json.loads(json.dumps(drawing_to_json(two_triangles())))
    for bad in (True, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="bad drawing document: outers entry"):
            drawing_from_json({**doc, "outers": [bad]})


def test_drawing_json_rejects_malformed():
    with pytest.raises(ValueError, match="bad drawing document"):
        drawing_from_json({"base": {"vertices": [], "edges": []}})


def test_drawing_json_refuses_non_integer_outer():
    doc = json.loads(json.dumps(drawing_to_json(lens())))
    for bad in (0.5, 1.0, True, "0"):
        with pytest.raises(ValueError, match="bad drawing document: outer entry"):
            drawing_from_json({**doc, "outer": bad})


def test_drawing_json_rejects_non_integer_ids():
    doc = json.loads(json.dumps(drawing_to_json(lens())))
    for field, key in (("rotation", "6"), ("trace", "0")):
        for bad in (0.0, True, "0", None):
            broken = json.loads(json.dumps(doc))
            broken[field][key][0] = bad
            with pytest.raises(ValueError, match=f"bad drawing document: {field} entry"):
                drawing_from_json(broken)
