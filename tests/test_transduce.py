"""Colored-graph compilation of drawings and its formula evaluator."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    _RotSys,
    oracle_eval_formula,
    oracle_eval_rendered,
    oracle_faces,
    oracle_materialize,
    oracle_nonplane_components,
    oracle_path_search,
    oracle_surgery_nonplane,
    oracle_surgery_ok,
    oracle_transduce_clustered,
    oracle_transduce_kplanar,
)

from fancross import cluster, drawing, transduce
from fancross.cluster import Certificate, search_certificate
from fancross.drawing import Drawing, SubdivisionPlan, _embed, validate
from fancross.errors import CapExceeded, Infeasible, InvariantBroken
from fancross.fixtures import fig1a, fig1a_certificate, fig1b, fig3, random_kplanar
from fancross.geometry import drawing_from_polylines, drawing_from_segments, pt
from fancross.graphs import (
    ColorLabel,
    ColoredGraph,
    Fan,
    Graph,
    bfs_dists,
    complete,
    cycle,
    grid2d,
    path,
)
from fancross.jsonio import transduction_from_json, transduction_to_json
from fancross.minors import find_model_bruteforce
from fancross.synth import SynthResult, synthesize
from fancross.transduce import (
    TransductionFormula,
    TransductionOutput,
    _subdivides_plan,
    eval_formula,
    render_formula,
    roundtrip,
    transduce_clustered,
    transduce_kplanar,
)

B0, B1, B2 = ColorLabel("b", 0), ColorLabel("b", 1), ColorLabel("b", 2)


@pytest.fixture(autouse=True, scope="module")
def surgery_checked_by_oracle():
    """Every system this module's transducers check is also judged by
    ``oracle_surgery_ok``, and the library's checks must agree with it: the
    clustered output system where ``_plane_simple`` reads it, and the
    k-planar one where ``_subdivides_plan`` reads it, whose verdict must
    also be ``_plane_simple``'s."""
    real_check = transduce._plane_simple

    def check(ends, rot):
        got = real_check(ends, rot)
        assert got == oracle_surgery_ok(as_rotsys(ends, rot))
        return got

    def kplanar_check(ends, rot, *plan):
        got = _subdivides_plan(ends, rot, *plan)
        assert got == check(ends, rot)
        return got

    transduce._plane_simple = check
    transduce._subdivides_plan = kplanar_check
    yield
    transduce._plane_simple = real_check
    transduce._subdivides_plan = _subdivides_plan


def as_rotsys(ends, rot) -> _RotSys:
    """A ``_RotSys`` over a system with dense edge ids, sharing its
    rotation lists, so that the oracles and the corruptions can read it."""
    rs = object.__new__(_RotSys)
    rs.rot = rot
    rs.ends = dict(enumerate(ends))
    rs._fresh_e = len(ends)
    rs._fresh_v = max(rot, default=-1) + 1
    return rs


def dense_system(rs: _RotSys) -> tuple[list, dict]:
    """The system with its edge ids made dense in ``ends`` order; a
    rotation entry that names no edge becomes the first id past the last."""
    ids = {e: i for i, e in enumerate(rs.ends)}
    return list(rs.ends.values()), {v: [ids.get(e, len(ids)) for e in r] for v, r in rs.rot.items()}


def triangle_drawing():
    g = Graph.make(range(3), [(0, 1), (0, 2), (1, 2)])
    return drawing_from_segments(g, {0: (0, 0), 1: (4, 0), 2: (2, 3)})


def square_drawing():
    g = Graph.make(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    return drawing_from_segments(g, {0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4)})


def k4_drawing():
    g = complete(4)
    return drawing_from_segments(g, {0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4)})


def lens_drawing():
    """Two edges crossing twice; a bend keeps the plan simple."""
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


def adjacent_crossing():
    """Two edges sharing a vertex cross once thanks to a detour."""
    g = Graph.make(range(3), [(0, 1), (0, 2)])
    return drawing_from_polylines(
        g, {0: (0, 0), 1: (4, 0), 2: (2, 3)}, {1: [(2, -2)]}
    )


def adjacent_certificate():
    return Certificate(
        k=1,
        ell=1,
        covers={0: (Fan(0, ((0, 1), (0, 2))),)},
        assignment={(0, 0): 0, (1, 0): 0},
    )


def tangle():
    """An edge cut between two crossings whose arcs share one cluster.

    Edge (0,1) crosses (2,3) and then (4,5); those two also cross each
    other, so cutting (0,1) between its crossings leaves all four arcs in a
    single crossing-graph component.
    """
    g = Graph.make(range(6), [(0, 1), (2, 3), (4, 5)])
    pos = {0: (0, 0), 1: (10, 0), 2: (2, 3), 3: (5, -3), 4: (6, 3), 5: (2, -3)}
    return drawing_from_segments(g, pos)


def tangle_certificate(g: Graph) -> Certificate:
    e = g.edge_id(0, 1)
    return Certificate(
        k=3,
        ell=3,
        plan=SubdivisionPlan({e: (1,)}),
        covers={0: (Fan(0, ((0, 1),)), Fan(2, ((2, 3),)), Fan(4, ((4, 5),)))},
        assignment={
            (e, 0): 0,
            (e, 1): 0,
            (g.edge_id(2, 3), 0): 2,
            (g.edge_id(4, 5), 0): 4,
        },
    )


def color_counts(out: TransductionOutput) -> Counter:
    return Counter(str(l) for ls in out.colored.colors.values() for l in ls)


# ===== Formula container =====


def test_formula_budgets():
    for k in range(1, 5):
        assert TransductionFormula.for_mode(k, "kplanar").max_path_len == 3 * (k + 1)
        assert TransductionFormula.for_mode(k, "clustered").max_path_len == 4 * k + 2


def test_formula_rejects_bad_parameters():
    with pytest.raises(ValueError, match="unknown mode"):
        TransductionFormula.for_mode(2, "fan")
    with pytest.raises(ValueError, match="k must be positive"):
        TransductionFormula.for_mode(0, "kplanar")
    with pytest.raises(ValueError, match="max_path_len"):
        TransductionFormula(2, "kplanar", 7)
    with pytest.raises(ValueError, match="max_path_len"):
        TransductionFormula(2, "kplanar", 9.0)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_a_fold_bound_that_is_not_an_int_is_refused(k):
    """Each transducer, ``roundtrip`` in both modes and the formula refuse
    it, so no document is written that ``transduction_from_json`` would
    refuse to read back."""
    d, cert = fig1a(), fig1a_certificate()
    for call in (
        lambda: transduce_kplanar(d, {}, k),
        lambda: transduce_clustered(d, cert, {}, k),
        lambda: roundtrip(d.base, d, [], k, "kplanar"),
        lambda: roundtrip(d.base, d, [], k, "clustered", cert),
        lambda: TransductionFormula.for_mode(k, "clustered"),
        lambda: TransductionFormula(k, "kplanar", 9),
    ):
        with pytest.raises(ValueError, match=rf"^k {k!r} is not an int$"):
            call()


# ===== Mode kplanar: structure =====


def test_plane_triangle_has_no_b_colors():
    d = triangle_drawing()
    out = transduce_kplanar(d, {}, 1)
    assert out.colored.graph.n == 3 + 2 * 3
    assert color_counts(out) == Counter()
    assert eval_formula(out) == d.base


def test_fig3_vertex_and_color_counts():
    out = transduce_kplanar(fig3(), {}, 2)
    assert out.colored.graph.n == 50
    assert color_counts(out) == Counter({"b0": 5, "b1": 10, "b2": 10})


def test_fig3_crossings_flanked_by_one_b1_and_b2_pair_each():
    out = transduce_kplanar(fig3(), {}, 2)
    cg = out.colored
    for v in cg.graph.vertices:
        if B0 not in cg.labels(v):
            continue
        nbrs = cg.graph.neighbors(v)
        assert len(nbrs) == 4
        marks = sorted(str(l) for w in nbrs for l in cg.labels(w))
        assert marks == ["b1", "b1", "b2", "b2"]


def test_fig3_evaluates_to_k5():
    out = transduce_kplanar(fig3(), {}, 2)
    assert eval_formula(out) == complete(5)


def test_kplanar_distances_are_multiples_of_three():
    d = fig3()
    out = transduce_kplanar(d, {}, 2)
    g = out.colored.graph
    for eid, (u, v) in enumerate(d.base.edges):
        dist = bfs_dists(g, out.embed[u])[out.embed[v]]
        assert dist % 3 == 0
        assert dist <= 3 * (len(d.edge_crossings[eid]) + 1)
        assert dist <= out.formula.max_path_len


def test_lens_bends_are_smoothed_away():
    d = lens_drawing()
    out = transduce_kplanar(d, {}, 2)
    assert out.colored.graph.n == 4 + 2 + 2 * 6
    assert eval_formula(out) == d.base


def test_apex_over_k4_restores_k5():
    d = k4_drawing()
    out = transduce_kplanar(d, {4: (0, 1, 2, 3)}, 2)
    c1, cp1 = ColorLabel("c", 1), ColorLabel("cP", 1)
    assert out.colored.labels(4) == frozenset({c1})
    assert all(cp1 in out.colored.labels(out.embed[v]) for v in range(4))
    assert out.colored.graph.degree(4) == 0
    assert eval_formula(out) == complete(5)
    assert roundtrip(complete(5), d, [4], 2, "kplanar")


def test_adversarial_side_swap_drops_exactly_one_edge():
    out = transduce_kplanar(fig3(), {}, 2)
    cg = out.colored
    cols = {v: set(ls) for v, ls in cg.colors.items()}
    hub = min(v for v, ls in cols.items() if B0 in ls)
    tainted = next(w for w in cg.graph.neighbors(hub) if B1 in cols.get(w, set()))
    cols[tainted] = {B2}
    mutated = dataclasses.replace(
        out,
        colored=ColoredGraph(cg.graph, {v: frozenset(s) for v, s in cols.items()}),
    )
    got = eval_formula(mutated)
    assert set(got.edges) < set(complete(5).edges)
    assert len(got.edges) == complete(5).m - 1


def test_kplanar_rejections():
    with pytest.raises(ValueError, match="not k-planar"):
        transduce_kplanar(fig3(), {}, 1)
    with pytest.raises(ValueError, match=r"\|X\| > k"):
        transduce_kplanar(k4_drawing(), {4: (), 5: ()}, 1)
    with pytest.raises(ValueError, match="X overlaps the drawing"):
        transduce_kplanar(k4_drawing(), {0: ()}, 1)
    with pytest.raises(ValueError, match="unknown neighbor"):
        transduce_kplanar(k4_drawing(), {4: (9,)}, 1)
    with pytest.raises(ValueError, match="unknown neighbor"):
        transduce_kplanar(k4_drawing(), {4: (4,)}, 1)
    with pytest.raises(ValueError, match="k must be positive"):
        transduce_kplanar(k4_drawing(), {}, 0)


# ===== Mode clustered: structure =====


def test_fig1a_builds_three_hubs_and_round_trips():
    d = fig1a()
    out = transduce_clustered(d, fig1a_certificate(), {}, 2)
    counts = color_counts(out)
    assert counts["b0"] == 3
    assert counts["bP0"] == 40
    assert eval_formula(out) == d.base


def test_trivial_certificate_on_plane_drawing_adds_only_stubs():
    d = square_drawing()
    out = transduce_clustered(d, Certificate(k=1, ell=1), {}, 1)
    counts = color_counts(out)
    assert counts["b0"] == 0 and counts["b1"] == 0
    assert counts["bP0"] == 2 * d.base.m
    assert out.colored.graph.n == d.base.n + 2 * d.base.m
    assert eval_formula(out) == d.base


def test_single_cluster_witness_needs_the_full_budget():
    d = adjacent_crossing()
    out = transduce_clustered(d, adjacent_certificate(), {}, 1)
    g = out.colored.graph
    dist = bfs_dists(g, out.embed[0])[out.embed[1]]
    assert dist == out.formula.max_path_len == 6
    assert eval_formula(out) == d.base


def test_tangle_shortcut_through_shared_hub():
    d = tangle()
    cert = tangle_certificate(d.base)
    out = transduce_clustered(d, cert, {}, 3)
    assert color_counts(out)["b0"] == 1
    assert eval_formula(out) == d.base


def test_clustered_with_apex_round_trips():
    d = fig1a()
    base = d.base
    apex = max(base.vertices) + 1
    h = Graph.make(
        tuple(base.vertices) + (apex,),
        tuple(base.edges) + ((0, apex), (1, apex)),
    )
    assert roundtrip(h, d, [apex], 2, "clustered", cert=fig1a_certificate())


def test_clustered_rejections():
    d = adjacent_crossing()
    good = adjacent_certificate()
    with pytest.raises(ValueError, match="certificate invalid"):
        transduce_clustered(d, dataclasses.replace(good, assignment={}), {}, 1)
    with pytest.raises(ValueError, match="certificate invalid"):
        transduce_clustered(d, dataclasses.replace(good, k=2), {}, 1)
    with pytest.raises(ValueError, match="certificate invalid"):
        transduce_clustered(d, dataclasses.replace(good, ell=2), {}, 1)
    with pytest.raises(ValueError, match="certificate invalid"):
        roundtrip(d.base, d, [], 1, "clustered")


def test_unmet_preconditions_raise_infeasible():
    d = adjacent_crossing()
    for call, message in (
        (lambda: transduce_kplanar(fig3(), {}, 1), "not k-planar"),
        (lambda: transduce_clustered(d, Certificate(1, 1), {}, 1), "certificate invalid"),
        (lambda: roundtrip(d.base, d, [], 1, "clustered"), "certificate invalid"),
    ):
        with pytest.raises(Infeasible, match=message):
            call()
    with pytest.raises(ValueError, match="X overlaps the drawing") as info:
        transduce_kplanar(k4_drawing(), {0: ()}, 1)
    assert not isinstance(info.value, Infeasible)


# ===== The surgery self-check =====


def swap_at_degree_three(rs):
    v = min(v for v, r in rs.rot.items() if len(r) == 3)
    r = rs.rot[v]
    r[0], r[1] = r[1], r[0]


def duplicate_an_edge(rs):
    e = min(rs.ends)
    a, b = rs.ends[e]
    ne = rs.new_edge_id()
    rs.ends[ne] = (a, b)
    rs.rot[a].insert(rs.rot[a].index(e) + 1, ne)
    rs.rot[b].insert(rs.rot[b].index(e), ne)


def drop_from_a_rotation(rs):
    e = min(rs.ends)
    rs.rot[rs.ends[e][0]].remove(e)


def add_a_loop(rs):
    v = min(rs.rot)
    ne = rs.new_edge_id()
    rs.ends[ne] = (v, v)
    rs.rot[v][:0] = [ne, ne]


def add_a_loop_listed_once(rs):
    v = min(rs.rot)
    ne = rs.new_edge_id()
    rs.ends[ne] = (v, v)
    rs.rot[v].append(ne)


def duplicate_an_edge_reversed_apart(rs):
    """A second edge ``(b, a)`` beside ``(a, b)``, listed at the far end of
    both rotations."""
    e = min(rs.ends)
    a, b = rs.ends[e]
    ne = rs.new_edge_id()
    rs.ends[ne] = (b, a)
    rs.rot[a].insert(0, ne)
    rs.rot[b].append(ne)


def edge_to_an_unlisted_vertex(rs):
    v = min(rs.rot)
    ne, w = rs.new_edge_id(), rs.new_vertex_id()
    rs.ends[ne] = (v, w)
    rs.rot[v].append(ne)


def drop_a_rotation(rs):
    """Every edge at the vertex keeps it as an end, which ``rot`` lacks."""
    del rs.rot[min(v for v, r in rs.rot.items() if r)]


@pytest.mark.parametrize(
    "corrupt",
    [
        swap_at_degree_three,
        duplicate_an_edge,
        duplicate_an_edge_reversed_apart,
        drop_from_a_rotation,
        drop_a_rotation,
        edge_to_an_unlisted_vertex,
        add_a_loop,
        add_a_loop_listed_once,
    ],
)
@pytest.mark.parametrize("mode", ["kplanar", "clustered"])
def test_corrupted_surgery_is_refused(monkeypatch, corrupt, mode):
    """Refused by the check itself, never by ``Graph`` or a lookup while the
    output graph is assembled.  Each mode's output system is corrupted
    where its check reads it: ``_subdivides_plan`` for the k-planar mode,
    ``_plane_simple`` for the clustered one."""
    seen = []
    name = "_subdivides_plan" if mode == "kplanar" else "_plane_simple"
    checked = getattr(transduce, name)

    def corrupted(ends, rot, *plan):
        rs = as_rotsys(ends, rot)
        assert rs.is_plane_simple()
        corrupt(rs)
        seen.append(rs)
        assert list(rs.ends) == list(range(len(rs.ends)))  # still dense
        return checked(list(rs.ends.values()), rs.rot, *plan)

    monkeypatch.setattr(transduce, name, corrupted)
    with pytest.raises(InvariantBroken, match="construction invariant broken") as info:
        if mode == "kplanar":
            transduce_kplanar(k4_drawing(), {}, 1)
        else:
            transduce_clustered(fig1a(), fig1a_certificate(), {}, 2)
    assert type(info.value) is InvariantBroken
    assert len(seen) == 1
    assert not seen[0].is_plane_simple() and not oracle_surgery_ok(seen[0])


def plane_k4_drawing():
    g = complete(4)
    return drawing_from_segments(g, {0: (0, 0), 1: (6, 0), 2: (3, 6), 3: (3, 2)})


def disjoint_union(rs: _RotSys, other: _RotSys) -> None:
    """Adds a copy of ``other`` to ``rs``, on vertex and edge ids above
    those ``rs`` has handed out."""
    dv, de = rs._fresh_v, rs._fresh_e
    for v, r in other.rot.items():
        rs.rot[v + dv] = [e + de for e in r]
    for e, (a, b) in other.ends.items():
        rs.ends[e + de] = (a + dv, b + dv)
    rs._fresh_v += other._fresh_v
    rs._fresh_e += other._fresh_e


def add_isolated_vertex(rs: _RotSys) -> None:
    rs.rot[rs.new_vertex_id()] = []


def test_nonplane_component_beside_plane_ones_is_refused():
    """K4 with one rotation swapped has genus 1: V - E + F = 4 - 6 + 2 = 0.
    A plane triangle (3 - 3 + 2) and an isolated vertex (1 + 1) beside it
    do not hide it."""
    rs = _RotSys(plane_k4_drawing())
    disjoint_union(rs, _RotSys(triangle_drawing()))
    add_isolated_vertex(rs)
    assert rs.is_plane_simple() and oracle_surgery_ok(rs)
    swap_at_degree_three(rs)
    assert min(v for v, r in rs.rot.items() if len(r) == 3) < 4
    assert not rs.is_plane_simple()
    assert not oracle_surgery_ok(rs)


# Corruptions of a rotation system, each applicable after any other.


def _discard(rs, v, e):
    if e in rs.rot.get(v, ()):
        rs.rot[v].remove(e)


def _insert(rs, rng, v, e):
    if v in rs.rot:
        rs.rot[v].insert(rng.randint(0, len(rs.rot[v])), e)


@pytest.mark.parametrize("end", [0, 1])
def test_edge_listed_away_from_its_end_is_refused(end):
    """The edge 0-1 listed at one of its ends and at 2.  Taking the entry
    at 2 for the missing end would write each dart once and give a plane
    edge (2 - 1 + 1) beside an isolated vertex, so only the end check
    refuses it."""
    rs = _RotSys(triangle_drawing())
    for e in list(rs.ends):
        rs.remove_edge(e)
    e = rs.new_edge_id()
    rs.ends[e] = (0, 1)
    rs.rot[end].append(e)
    rs.rot[2].append(e)
    assert not rs.is_plane_simple()
    assert not oracle_surgery_ok(rs)


def swap_two(rs, rng):
    v = rng.choice([v for v, r in rs.rot.items() if len(r) >= 3] or [min(rs.rot)])
    r = rs.rot[v]
    if len(r) >= 2:
        i, j = rng.sample(range(len(r)), 2)
        r[i], r[j] = r[j], r[i]


def reverse_one(rs, rng):
    rs.rot[rng.choice(sorted(rs.rot))].reverse()


def move_one(rs, rng):
    r = rs.rot[rng.choice(sorted(rs.rot))]
    if r:
        r.insert(rng.randrange(len(r)), r.pop(rng.randrange(len(r))))


def add_chord(rs, rng):
    """An edge between two vertices at random rotation slots; plane exactly
    when the two slots open onto one face."""
    a, b = rng.sample(sorted(rs.rot), 2)
    ne = rs.new_edge_id()
    rs.ends[ne] = (a, b)
    _insert(rs, rng, a, ne)
    _insert(rs, rng, b, ne)


def add_parallel(rs, rng):
    if rs.ends:
        a, b = rs.ends[rng.choice(sorted(rs.ends))]
        ne = rs.new_edge_id()
        rs.ends[ne] = (a, b)
        _insert(rs, rng, a, ne)
        _insert(rs, rng, b, ne)


def add_loop(rs, rng):
    v = rng.choice(sorted(rs.rot))
    ne = rs.new_edge_id()
    rs.ends[ne] = (v, v)
    _insert(rs, rng, v, ne)
    _insert(rs, rng, v, ne)


def remove_one(rs, rng):
    if rs.ends:
        e = rng.choice(sorted(rs.ends))
        for v in rs.ends.pop(e):
            _discard(rs, v, e)


def contract_one(rs, rng):
    """Plane, but may leave parallel edges behind."""
    if rs.ends:
        e = rng.choice(sorted(rs.ends))
        keep, gone = rs.ends[e]
        if keep != gone and all(
            rs.rot.get(v, []).count(e) == 1 and all(f in rs.ends for f in rs.rot[v])
            for v in (keep, gone)
        ):
            rs.contract(e, keep)


def drop_entry(rs, rng):
    r = rs.rot[rng.choice([v for v, r in rs.rot.items() if r] or [min(rs.rot)])]
    if r:
        r.pop(rng.randrange(len(r)))


def list_twice(rs, rng):
    if rs.ends:
        e = rng.choice(sorted(rs.ends))
        _insert(rs, rng, rs.ends[e][0], e)


def list_unknown_edge(rs, rng):
    _insert(rs, rng, rng.choice(sorted(rs.rot)), rs.new_edge_id())


def list_at_a_non_end(rs, rng):
    """Moves an edge's entry from one of its ends to another vertex."""
    if rs.ends:
        e = rng.choice(sorted(rs.ends))
        _discard(rs, rng.choice(rs.ends[e]), e)
        _insert(rs, rng, rng.choice(sorted(rs.rot)), e)


def end_at_unknown_vertex(rs, rng):
    if rs.ends:
        e = rng.choice(sorted(rs.ends))
        a, b = rs.ends[e]
        _discard(rs, b, e)
        rs.ends[e] = (a, rs.new_vertex_id())


CORRUPTIONS = [
    swap_two,
    reverse_one,
    move_one,
    add_chord,
    add_chord,
    add_parallel,
    add_loop,
    remove_one,
    contract_one,
    drop_entry,
    list_twice,
    list_unknown_edge,
    list_at_a_non_end,
    end_at_unknown_vertex,
    lambda rs, rng: add_isolated_vertex(rs),
]


def surgery_case(rng: random.Random, parts: list[tuple[int, int, int]], isolated: int,
                 corrupt: list[int]) -> tuple[_RotSys, list[bool]]:
    """The plans of ``random_kplanar(n, k, seed)`` for each part, side by
    side, plus isolated vertices; the first part gets the corruptions.
    Also returns the oracle's verdict on each part alone."""
    systems = [_RotSys(random_kplanar(n, k, seed)) for n, k, seed in parts]
    for i in corrupt:
        CORRUPTIONS[i % len(CORRUPTIONS)](systems[0], rng)
    alone = [oracle_surgery_ok(copy.deepcopy(part)) for part in systems]
    rs = systems[0]
    for other in systems[1:]:
        disjoint_union(rs, other)
    for _ in range(isolated):
        add_isolated_vertex(rs)
    return rs, alone


def test_surgery_check_matches_oracle_on_seeded_corpus():
    verdicts = Counter()
    for seed in range(240):
        rng = random.Random(f"surgery-{seed}")
        parts = [(rng.randint(4, 14), rng.randint(1, 3), rng.randrange(10**6))
                 for _ in range(rng.randint(1, 3))]
        corrupt = [rng.randrange(len(CORRUPTIONS)) for _ in range(rng.choice((0, 1, 1, 2)))]
        rs, alone = surgery_case(rng, parts, rng.randint(0, 2), corrupt)
        got = rs.is_plane_simple()
        assert got == oracle_surgery_ok(rs), seed
        one_bad = len(parts) > 1 and not alone[0] and all(alone[1:])
        euler = bool(oracle_surgery_nonplane(rs))  # simple and well listed, not plane
        verdicts[got] += 1
        verdicts["one bad part"] += one_bad
        verdicts["not plane"] += euler
        verdicts["one part not plane"] += one_bad and euler
    assert verdicts[True] >= 60 and verdicts[False] >= 100
    assert verdicts["one bad part"] >= 60
    assert verdicts["not plane"] >= 25
    assert verdicts["one part not plane"] >= 12


@settings(max_examples=80)
@given(
    st.lists(st.tuples(st.integers(4, 12), st.integers(1, 3), st.integers(0, 10**6)),
             min_size=1, max_size=3),
    st.integers(0, 2),
    st.lists(st.integers(0, len(CORRUPTIONS) - 1), max_size=3),
    st.integers(0, 10**6),
)
def test_surgery_check_matches_oracle_on_random_systems(parts, isolated, corrupt, seed):
    rs, _ = surgery_case(random.Random(seed), parts, isolated, corrupt)
    assert rs.is_plane_simple() == oracle_surgery_ok(rs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(4, 12), st.integers(1, 3), st.integers(0, 10**6), st.integers(0, 2)),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 10**6),
)
def test_validate_flags_exactly_the_nonplane_components(parts, seed):
    """Plans side by side, each with up to two rotation swaps: ``validate``
    flags the components whose V - E + F is not 2 by the oracle's count."""
    rng = random.Random(seed)
    systems = []
    for n, k, s, swaps in parts:
        systems.append(_RotSys(random_kplanar(n, k, s)))
        for _ in range(swaps):
            swap_two(systems[-1], rng)
    rs = systems[0]
    for other in systems[1:]:
        disjoint_union(rs, other)
    d = oracle_materialize(rs)
    errs = validate(d)
    assert all(e.startswith("euler: plan component ") for e in errs)
    assert [int(e.rsplit(" ", 1)[1]) for e in errs] == oracle_nonplane_components(d)
    assert rs.is_plane_simple() == (not errs) == oracle_surgery_ok(rs)


# ===== The dart kernel on dense edge ids =====


def kernel_faces(ends, emb) -> tuple:
    """The kernel's faces as ``(tail, head)`` dart cycles, each rotated to
    its least dart and ordered by it, as ``oracle_faces`` gives them."""
    darts = [t for a, b in ends for t in ((a, b), (b, a))]
    out = []
    for start in emb.faces:
        orbit, x = [darts[start]], emb.nxt[start]
        while x != start:
            orbit.append(darts[x])
            x = emb.nxt[x]
        i = orbit.index(min(orbit))
        out.append(tuple(orbit[i:] + orbit[:i]))
    return tuple(sorted(out))


def kernel_nonplane(rot, emb) -> list[int]:
    """The components of genus other than 0, numbered by least vertex as
    ``oracle_component_index`` numbers them."""
    least: dict[int, int] = {}
    for v, c in zip(rot, emb.comp):
        least[c] = min(v, least.get(c, v))
    number = {c: i for i, c in enumerate(sorted(least, key=least.get))}
    return sorted(number[c] for c, g in enumerate(emb.genus) if g)


def assert_kernel_matches_oracles(rs: _RotSys) -> str:
    """``_embed`` on the system with dense ids against ``oracle_faces`` and
    ``oracle_nonplane_components`` on its materialized drawing: it refuses
    exactly the systems whose drawing fails to materialize (a loop, an end
    without a rotation, an unknown edge) or fails a rotation check of
    ``validate``, and otherwise gives the oracles' faces and non-plane
    components.  A system with parallel edges has no drawing to compare
    with.  Returns which of these held."""
    ends, rot = dense_system(rs)
    emb = _embed(ends, rot)
    if len({tuple(sorted(ab)) for ab in ends}) != len(ends):
        return "parallel"
    try:
        d = oracle_materialize(rs)
        errs = validate(d)
    except (KeyError, ValueError):
        errs = ["does not materialize"]
    if any(not e.startswith("euler:") for e in errs):
        assert emb is None, errs
        return "refused"
    assert emb is not None
    assert kernel_faces(ends, emb) == oracle_faces(d)
    nonplane = kernel_nonplane(rot, emb)
    assert nonplane == oracle_nonplane_components(d)
    return "not plane" if nonplane else "plane"


def test_dense_kernel_matches_face_oracles_on_seeded_systems():
    verdicts = Counter()
    for seed in range(200):
        rng = random.Random(f"kernel-{seed}")
        parts = [(rng.randint(4, 12), rng.randint(1, 3), rng.randrange(10**6))
                 for _ in range(rng.randint(1, 3))]
        corrupt = [rng.randrange(len(CORRUPTIONS)) for _ in range(rng.choice((0, 1, 1, 2)))]
        rs, _ = surgery_case(rng, parts, rng.randint(0, 2), corrupt)
        verdicts[assert_kernel_matches_oracles(rs)] += 1
    assert verdicts["plane"] >= 40 and verdicts["not plane"] >= 20, verdicts
    assert verdicts["refused"] >= 50 and verdicts["parallel"] >= 10, verdicts


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(4, 12), st.integers(1, 3), st.integers(0, 10**6)),
             min_size=1, max_size=3),
    st.integers(0, 2),
    st.lists(st.integers(0, len(CORRUPTIONS) - 1), max_size=3),
    st.integers(0, 10**6),
)
def test_dense_kernel_matches_face_oracles_on_random_systems(parts, isolated, corrupt, seed):
    assert_kernel_matches_oracles(surgery_case(random.Random(seed), parts, isolated, corrupt)[0])


@pytest.mark.parametrize(
    "alias",
    [
        lambda e, m: e - m,  # wraps round to e itself
        lambda e, m: -1,
        lambda e, m: m,
        lambda e, m: 10**9,
        lambda e, m: float(e),
        lambda e, m: str(e),
        lambda e, m: None,
    ],
)
def test_dense_kernel_refuses_ids_that_name_no_edge(alias):
    """Edge 0 renamed at both of its ends.  ``e - m`` would index the edge
    lists at ``e`` itself and give the same faces, were negative ids not
    refused.  (For the last edge, ``e - m`` is -1, the mark of an unwritten
    successor, which would refuse it anyway.)"""
    d = plane_k4_drawing()
    ends, m = list(d.plan.edges), d.plan.m
    rot = {v: list(r) for v, r in d.rotation.items()}
    assert _embed(ends, rot) is not None
    e = 0
    for r in rot.values():
        r[:] = [alias(e, m) if f == e else f for f in r]
    assert _embed(ends, rot) is None


# ===== Shared output invariants =====


def test_color_budget_within_bound():
    for k, out in [
        (2, transduce_kplanar(fig3(), {}, 2)),
        (2, transduce_clustered(fig1a(), fig1a_certificate(), {}, 2)),
    ]:
        distinct = {str(l) for ls in out.colored.colors.values() for l in ls}
        limit = 2 * k + 3 if out.formula.mode == "kplanar" else 2 * k + 2 * (k + 1)
        assert len(distinct) <= limit


def test_embed_is_an_injection_onto_original_ids():
    d = fig1a()
    out = transduce_clustered(d, fig1a_certificate(), {}, 2)
    assert sorted(out.embed) == list(d.base.vertices)
    assert len(set(out.embed.values())) == len(out.embed)
    assert all(out.colored.graph.has_vertex(g) for g in out.embed.values())


def test_deleted_vertices_are_isolated():
    out = transduce_kplanar(k4_drawing(), {4: (0, 1), 5: (2, 4)}, 2)
    assert out.x == (4, 5)
    assert out.colored.graph.degree(4) == 0
    assert out.colored.graph.degree(5) == 0


def test_output_rejects_malformed_embed_and_x():
    out = transduce_kplanar(fig3(), {}, 2)
    with pytest.raises(ValueError, match="embed maps 0 to 9999, not a vertex"):
        dataclasses.replace(out, embed={**out.embed, 0: 9999})
    with pytest.raises(ValueError, match="embed is not injective"):
        dataclasses.replace(out, embed={**out.embed, 1: out.embed[0]})
    with pytest.raises(ValueError, match="X is not a subset of the embedded vertices"):
        dataclasses.replace(out, x=(9,))
    doc = transduction_to_json(out)
    doc["embed"]["0"] = 9999
    with pytest.raises(ValueError, match="not a vertex of the colored graph"):
        transduction_from_json(doc)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda out: {"embed": {0.0 if h == 0 else h: v for h, v in out.embed.items()}},
         r"^embedded vertex 0\.0 is not an int$"),
        (lambda out: {"embed": {**out.embed, 0: 0.0}}, r"^embed image 0\.0 is not an int$"),
        (lambda out: {"x": (5.0,)}, r"^X vertex 5\.0 is not an int$"),
    ],
)
def test_output_refuses_ids_that_are_not_ints(change, message):
    """A float equal to an original vertex or its image passed the
    membership tests; ``eval_formula`` then refused the output, and
    ``transduction_from_json`` refused its document."""
    out = transduce_kplanar(fig3(), {5: (0, 1)}, 2)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(out, **change(out))


def test_eval_is_deterministic():
    out = transduce_clustered(fig1a(), fig1a_certificate(), {}, 2)
    assert eval_formula(out) == eval_formula(out)


def test_roundtrip_rejects_mismatched_graph():
    d = triangle_drawing()
    with pytest.raises(ValueError, match="drawing does not match the graph"):
        roundtrip(complete(4), d, [], 1, "kplanar")
    h = Graph.make(range(3), [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="drawing does not match the graph"):
        roundtrip(h, d, [], 1, "kplanar")
    with pytest.raises(ValueError, match="unknown mode"):
        roundtrip(d.base, d, [], 1, "planar")


# ===== Seeded round trips =====


def test_seeded_kplanar_roundtrips():
    for seed in range(20):
        rng = random.Random(seed)
        n, k = rng.randint(4, 10), rng.randint(1, 3)
        d = random_kplanar(n, k, seed)
        base = list(d.base.vertices)
        xs = list(range(max(base) + 1, max(base) + 1 + rng.randint(0, k)))
        hedges = set(d.base.edges)
        for x in xs:
            others = [v for v in base + xs if v != x]
            for w in rng.sample(others, rng.randint(0, min(3, len(others)))):
                hedges.add((min(x, w), max(x, w)))
        h = Graph.make(base + xs, hedges)
        assert roundtrip(h, d, xs, k, "kplanar"), f"seed {seed}"


def test_seeded_clustered_roundtrips():
    done = 0
    for seed in range(40):
        rng = random.Random(1000 + seed)
        n, k = rng.randint(4, 8), rng.randint(1, 2)
        d = random_kplanar(n, k, seed)
        if sum(len(x) for x in d.edge_crossings.values()) // 2 > 8:
            continue
        try:
            cert = search_certificate(d, k, k, strong=False, cap=8)
        except ValueError:
            continue
        if cert is None:
            continue
        assert roundtrip(d.base, d, [], k, "clustered", cert=cert), f"seed {seed}"
        done += 1
        if done == 10:
            break
    assert done == 10


# ===== Evaluator against the per-pair oracle =====


def random_x(rng: random.Random, d: Drawing, k: int) -> dict[int, tuple[int, ...]]:
    """Up to k deleted vertices, each with up to three random neighbors."""
    base = list(d.base.vertices)
    xs = list(range(max(base) + 1, max(base) + 1 + rng.randint(0, k)))
    return {
        x: tuple(rng.sample([v for v in base + xs if v != x], rng.randint(0, 3)))
        for x in xs
    }


def synth_grid_drawing(rows: int, cols: int) -> Drawing:
    g = grid2d(rows, cols)
    return drawing_from_segments(
        g, {i * cols + j: pt(j, i) for i in range(rows) for j in range(cols)}
    )


@lru_cache(maxsize=1)
def oracle_corpus() -> tuple[TransductionOutput, ...]:
    """k-planar outputs for n in 4..14 and k in 1..3 with random X, fig1a at
    (2, 2), and synthesized drawings of K4, K5, K6 and the 3x3 grid."""
    outs = []
    for n in range(4, 15):
        for k in range(1, 4):
            seed = 100 * n + k
            d = random_kplanar(n, k, seed)
            outs.append(transduce_kplanar(d, random_x(random.Random(seed), d, k), k))
    outs.append(transduce_clustered(fig1a(), fig1a_certificate(), {}, 2))
    for res in grid_syntheses()[:4]:
        outs.append(transduce_clustered(res.drawing, res.cert, {}, res.kPrime))
    return tuple(outs)


# (pattern, rows, cols, k): the first (k, k) model of the pattern in the
# rows x cols grid, synthesized on the grid's straight-line drawing.
GRID_MODELS = [
    (complete(4), 2, 2, 2),
    (complete(5), 2, 2, 2),
    (complete(6), 2, 2, 2),
    (grid2d(3, 3), 3, 3, 1),
    (path(3), 1, 3, 2),
    (cycle(4), 2, 2, 2),
    (complete(4), 3, 3, 2),
    (complete(4), 2, 3, 2),
    (complete(5), 2, 3, 2),
]


@lru_cache(maxsize=1)
def grid_syntheses() -> tuple[SynthResult, ...]:
    out = []
    for pattern, rows, cols, k in GRID_MODELS:
        m = find_model_bruteforce(grid2d(rows, cols), pattern, k, k, cap=16)
        out.append(synthesize(synth_grid_drawing(rows, cols), m))
    return tuple(out)


# ===== The clustered transducer against its two-cut oracle =====


def searched_certificates(d: Drawing):
    """``(certificate, strong)`` for every weak and strong certificate that
    the search finds on ``d`` at k = ell in 1..3."""
    for k in (1, 2, 3):
        for strong in (False, True):
            try:
                cert = search_certificate(d, k, k, strong=strong)
            except CapExceeded:
                continue
            if cert is not None:
                yield cert, strong


def with_one_more_cut(d: Drawing, cert: Certificate, strong: bool, rng: random.Random, tries: int):
    """Up to ``tries`` certificates on ``cert``'s plan plus one more cut at
    gap 0 or at gap c of an edge with c crossings, each where
    ``cluster._certificate`` still certifies the plan."""
    spots = [
        (eid, g)
        for eid in range(d.base.m)
        if len(cert.plan.cuts.get(eid, ())) < cert.k - 1
        for g in sorted({0, len(d.edge_crossings[eid])} - set(cert.plan.cuts.get(eid, ())))
    ]
    for eid, g in rng.sample(spots, min(tries, len(spots))):
        cuts = dict(cert.plan.cuts)
        cuts[eid] = cuts.get(eid, ()) + (g,)
        more = cluster._certificate(d, cert.k, cert.ell, strong, SubdivisionPlan(cuts))
        if more is not None:
            yield more


def clustered_bytes(build, d: Drawing, cert: Certificate, x_edges, k: int) -> str:
    out = build(d, cert, x_edges, k)
    return json.dumps(transduction_to_json(out), sort_keys=True, separators=(",", ":"))


def assert_matches_two_cut_oracle(d: Drawing, cert: Certificate, rng: random.Random, case=None) -> None:
    """The compact, key-sorted JSON of both transducers, with a random X."""
    k = max(cert.k, cert.ell)
    x_edges = random_x(rng, d, k)
    got = clustered_bytes(transduce_clustered, d, cert, x_edges, k)
    assert got == clustered_bytes(oracle_transduce_clustered, d, cert, x_edges, k), case


def test_clustered_transduction_matches_two_cut_oracle():
    """Searched certificates on seeded k-planar drawings, fig3, fig1b(3..8)
    and fig1a; each with up to three more cuts at an edge's first or last
    gap; fig1a's own certificate; and synthesized drawings on grid hosts."""
    rng = random.Random("two-cut")
    drawings = [random_kplanar(n, k, seed) for n in range(6, 13) for k in range(1, 4) for seed in range(6)]
    drawings += [fig3(), *(fig1b(m) for m in range(3, 9)), fig1a()]
    cases = []
    searched_with_cuts = 0
    for d in drawings:
        for cert, strong in searched_certificates(d):
            cases.append((d, cert))
            searched_with_cuts += bool(cert.plan.cuts)
            cases += [(d, more) for more in with_one_more_cut(d, cert, strong, rng, 3)]
    cases.append((fig1a(), fig1a_certificate()))
    cases += [(res.drawing, res.cert) for res in grid_syntheses()]
    for i, (d, cert) in enumerate(cases):
        assert_matches_two_cut_oracle(d, cert, rng, i)
    with_cuts = sum(bool(cert.plan.cuts) for _, cert in cases)
    counts = (len(cases), with_cuts, searched_with_cuts)
    assert counts[0] >= 2000 and counts[1] >= 1600 and counts[2] >= 120, counts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(6, 12),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_clustered_transduction_matches_two_cut_oracle_on_random_drawings(n, k, seed, rng):
    d = random_kplanar(n, k, seed)
    for cert, strong in searched_certificates(d):
        assert_matches_two_cut_oracle(d, cert, rng)
        for more in with_one_more_cut(d, cert, strong, rng, 2):
            assert_matches_two_cut_oracle(d, more, rng)


# ===== The k-planar transducer against its surgery oracle =====


def kplanar_bytes(build, d: Drawing, x_edges, k: int) -> str:
    out = build(d, x_edges, k)
    return json.dumps(transduction_to_json(out), sort_keys=True, separators=(",", ":"))


def assert_matches_surgery_oracle(d: Drawing, x_edges, k: int, case=None) -> None:
    """The compact, key-sorted JSON of ``transduce_kplanar`` and of
    ``oracle_transduce_kplanar``."""
    got = kplanar_bytes(transduce_kplanar, d, x_edges, k)
    assert got == kplanar_bytes(oracle_transduce_kplanar, d, x_edges, k), case


def criterion4_case(seed: int) -> tuple[Drawing, dict, int]:
    """Criterion 4's drawing and X for ``seed``."""
    rng = random.Random(seed)
    n, k = rng.randint(4, 12), rng.randint(1, 3)
    d = random_kplanar(n, k, seed)
    base = list(d.base.vertices)
    xs = list(range(max(base) + 1, max(base) + 1 + rng.randint(0, k)))
    hedges = set(d.base.edges)
    for x in xs:
        others = [v for v in base + xs if v != x]
        for w in rng.sample(others, rng.randint(0, min(3, len(others)))):
            hedges.add((min(x, w), max(x, w)))
    h = Graph.make(base + xs, hedges)
    return d, {x: h.neighbors(x) for x in xs}, k


def bent_drawing(n: int, k: int, seed: int, rng: random.Random) -> Drawing:
    """``random_kplanar(n, k, seed)`` with one to three bends, each a little
    off the segment, on about a third of its edges, or the straight drawing
    if the bends are degenerate."""
    d = random_kplanar(n, k, seed)
    prng = random.Random(seed)  # the generator's positions are its first n draws
    pos = {i: pt(i, prng.randrange(0, 2 * n + 1)) for i in range(n)}
    bends = {}
    for eid, (u, v) in enumerate(d.base.edges):
        if rng.random() < 0.35:
            (x1, y1), (x2, y2) = pos[u], pos[v]
            c = rng.randint(1, 3)
            bends[eid] = [
                pt(x1 + t * (x2 - x1), y1 + t * (y2 - y1) + Fraction(rng.choice((-2, -1, 1, 2)), 5))
                for t in (Fraction(j, c + 1) for j in range(1, c + 1))
            ]
    try:
        return drawing_from_polylines(d.base, pos, bends)
    except ValueError:  # a bend on a vertex, a segment or a crossing
        return d


def bend_counts(d: Drawing) -> Counter:
    """How many strands of ``d`` have 1, 2, 3, ... bends."""
    bends = set(transduce._bends(d))
    out = Counter()
    for path in d.paths.values():
        run = 0
        for p in path[1:]:
            if p in bends:
                run += 1
            else:
                if run:
                    out[run] += 1
                run = 0
    return out


def test_kplanar_transduction_matches_surgery_oracle_on_criterion4():
    for seed in range(100):
        d, x_edges, k = criterion4_case(seed)
        assert_matches_surgery_oracle(d, x_edges, k, seed)


def test_kplanar_transduction_matches_surgery_oracle_on_decode_sized_drawings():
    """Straight-line drawings of 24 to 48 vertices, like the decode
    benchmark's, with two deleted vertices."""
    rng = random.Random("decode-sized-bytes")
    for n in (24, 36, 48):
        for k in (2, 4, 6):
            for _ in range(2):
                d = random_kplanar(n, k, rng.randrange(10**6))
                base = list(d.base.vertices)
                xs = (max(base) + 1, max(base) + 2)
                x_edges = {x: tuple(rng.sample(base, rng.randint(1, 4))) for x in xs}
                assert_matches_surgery_oracle(d, x_edges, k, (n, k))


def test_kplanar_transduction_matches_surgery_oracle_on_bent_drawings():
    """Polyline drawings: ``case_drawing``'s, with one bend on some edges
    and sometimes a second plan component, and drawings with up to three
    bends on an edge; the lens, whose bend lies between two crossings.
    Both transducers see the same k, and where it is too small both refuse
    alike."""
    from test_drawing import case_drawing  # test_drawing imports this module

    rng = random.Random("bent-bytes")
    drawings = [lens_drawing()]
    for seed in range(150):
        drawings.append(case_drawing(rng.randint(6, 12), rng.randint(1, 3), seed)[0])
        drawings.append(bent_drawing(rng.randint(5, 12), rng.randint(1, 3), seed, rng))
    strands = Counter()
    refused = 0
    for i, d in enumerate(drawings):
        strands += bend_counts(d)
        k = rng.randint(1, 4)
        x_edges = random_x(rng, d, k)
        try:
            want = kplanar_bytes(oracle_transduce_kplanar, d, x_edges, k)
        except Infeasible:
            refused += 1
            with pytest.raises(Infeasible, match="not k-planar"):
                transduce_kplanar(d, x_edges, k)
            continue
        assert kplanar_bytes(transduce_kplanar, d, x_edges, k) == want, i
    assert len(drawings) - refused >= 180 and refused >= 40, refused
    assert strands[1] >= 600 and strands[2] >= 150 and strands[3] >= 120, strands


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 14),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_kplanar_transduction_matches_surgery_oracle_on_random_drawings(n, k, seed, bent, rng):
    d = bent_drawing(n, k, seed, rng) if bent else random_kplanar(n, k, seed)
    k = max(k, max(map(len, d.edge_crossings.values()), default=1))
    assert_matches_surgery_oracle(d, random_x(rng, d, k), k)


# ===== The k-planar check against the plan =====


def recorded(calls: list):
    """``_subdivides_plan``, appending the arguments of each call to ``calls``."""
    return lambda *args: calls.append(args) or _subdivides_plan(*args)


def kplanar_checks(monkeypatch, cases) -> list[tuple]:
    """The arguments of every ``_subdivides_plan`` call that compiling each
    ``(d, x_edges, k)`` of ``cases`` makes: the output system's edge ends
    and rotations, then the plan's side."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(transduce, "_subdivides_plan", recorded(calls))
        for d, x_edges, k in cases:
            transduce_kplanar(d, x_edges, k)
    assert len(calls) == len(cases)
    return calls


class Compiled(SimpleNamespace):
    """One ``_subdivides_plan`` call's arguments, each a copy that a
    corruption may change."""

    def plan_check(self) -> bool:
        return _subdivides_plan(
            self.ends, self.rot, self.d, self.inner, self.strands, self.ren, self.first, self.darts
        )

    def plane_check(self) -> bool:
        return drawing._plane_simple(self.ends, self.rot)


def compiled(monkeypatch, d: Drawing, k: int = 1) -> Compiled:
    ((ends, rot, d, inner, strands, ren, first, darts),) = kplanar_checks(monkeypatch, [(d, {}, k)])
    c = Compiled(
        ends=list(ends), rot={v: list(r) for v, r in rot.items()}, d=d, inner=set(inner),
        strands=list(strands), ren=dict(ren), first=first, darts=list(darts),
    )
    assert c.plan_check() and c.plane_check()
    return c


def first_strand(c: Compiled) -> tuple[int, int, int]:
    """The ids ``x, y, z`` of the first strand's path ``a, s, s + 1, b``."""
    (x, y), (_, z) = c.rot[c.first], c.rot[c.first + 1]
    return x, y, z


def swap_at_the_crossing(c):
    """Two neighbouring entries of the crossing's rotation swapped."""
    r = next(r for v, r in c.rot.items() if len(r) == 4)
    r[0], r[1] = r[1], r[0]


def join_to_the_far_end(c):
    """The first strand's first subdivision vertex joined to the strand's
    far end in place of its own, and listed there opposite the strand's
    last edge."""
    x, _, z = first_strand(c)
    near, far = c.ends[x][0], c.ends[z][0]
    c.ends[x] = (far, c.first)
    c.rot[near].remove(x)
    r = c.rot[far]
    i = r.index(z)
    c.rot[far] = [z, r[(i + 1) % 3], x, r[(i + 2) % 3]]


def duplicate_the_first_middle_edge(c):
    """A second edge ``(s, s + 1)`` beside the first strand's middle one."""
    _, y, _ = first_strand(c)
    c.ends.append(c.ends[y])
    c.rot[c.first].append(len(c.ends) - 1)
    c.rot[c.first + 1].insert(0, len(c.ends) - 1)


def write_the_first_end_wrong(c):
    """The first strand's first edge written to its far end; the rotations
    still list it at its own."""
    x, _, z = first_strand(c)
    c.ends[x] = (c.ends[z][0], c.first)


def write_the_first_middle_wrong(c):
    _, y, _ = first_strand(c)
    c.ends[y] = (c.first, c.first + 2)


def write_the_first_last_wrong(c):
    x, _, z = first_strand(c)
    c.ends[z] = (c.ends[x][0], c.first + 1)


def list_the_first_end_for_the_middle(c):
    """``s + 1`` lists the first edge, not the middle one."""
    c.rot[c.first + 1][0] = c.rot[c.first][0]


def add_an_edge_listed_nowhere(c):
    c.ends.append((0, 1))


def name_the_last_edge_negatively(c):
    """The last id written as ``-1``, which a list lookup would take for it."""
    last = len(c.ends) - 1
    for r in c.rot.values():
        r[:] = [-1 if e == last else e for e in r]


def list_a_strand_twice(c):
    """The first strand again, written as a compile that met it twice
    would: three more edges, and the second copy's end edges in the slots
    of the first's, which are listed only at ``s`` and ``s + 1``."""
    a, b, _, _ = c.strands[0]
    x, _, z = first_strand(c)
    s, e = c.first + 2 * len(c.strands), len(c.ends)
    c.ends += [(c.ren[a], s), (s, s + 1), (c.ren[b], s + 1)]
    c.rot[s], c.rot[s + 1] = [e, e + 1], [e + 1, e + 2]
    for v, old, new in ((c.ren[a], x, e), (c.ren[b], z, e + 2)):
        r = c.rot[v]
        r[r.index(old)] = new
    c.strands.append(c.strands[0])


@pytest.mark.parametrize(
    "corrupt",
    [
        swap_at_the_crossing,
        join_to_the_far_end,
        duplicate_the_first_middle_edge,
        write_the_first_end_wrong,
        write_the_first_middle_wrong,
        write_the_first_last_wrong,
        list_the_first_end_for_the_middle,
        add_an_edge_listed_nowhere,
        name_the_last_edge_negatively,
        list_a_strand_twice,
    ],
)
def test_plan_check_and_plane_check_refuse_a_corrupted_kplanar_system(monkeypatch, corrupt):
    """K4 with its diagonals crossing compiles to a subdivided wheel, the
    crossing its hub and every corner of degree 3.  Each corruption of
    that system is refused by ``_subdivides_plan`` and by the face-tracing
    check it replaced, and the oracle agrees."""
    c = compiled(monkeypatch, k4_drawing())
    corrupt(c)
    assert not c.plane_check()
    assert not oracle_surgery_ok(as_rotsys(c.ends, c.rot))
    assert not c.plan_check()


def test_strands_that_are_not_plan_paths_are_refused(monkeypatch):
    """Strands 0 and 1 of the K4 compile with their far ends swapped: the
    compile writes a system for them, which is not plane, and refuses it,
    as each is no path of the plan."""
    real_strands = transduce._strands

    def swapped(*args):
        strands = real_strands(*args)
        (a1, b1, f1, g1), (a2, b2, f2, g2) = strands[:2]
        return [(a1, b2, f1, g2), (a2, b1, f2, g1), *strands[2:]]

    monkeypatch.setattr(transduce, "_strands", swapped)
    seen = []
    monkeypatch.setattr(transduce, "_subdivides_plan", recorded(seen))
    with pytest.raises(InvariantBroken, match="construction invariant broken"):
        transduce_kplanar(k4_drawing(), {}, 1)
    ((ends, rot, *_),) = seen
    assert not drawing._plane_simple(ends, rot)


def map_the_bend_to_a_spare_vertex(c):
    """The bend named too, as a spare vertex that lists the first edge
    twice; not plane."""
    spare = max(c.rot) + 1
    c.ren[min(c.inner)] = spare
    c.rot[spare] = [0, 0]


@pytest.mark.parametrize(
    "corrupt",
    [
        map_the_bend_to_a_spare_vertex,
        lambda c: c.ren.update({max(c.ren): c.first}),
        lambda c: c.ren.update({max(c.ren): min(c.ren.values())}),
        lambda c: c.inner.add(max(c.ren)),
        lambda c: c.rot.update({max(c.rot) + 1: []}),
        lambda c: c.darts.pop(),
        lambda c: c.darts.append(0),
    ],
    ids=[
        "the bend too",
        "a subdivision id",
        "one id twice",
        "a crossing as inner",
        "a spare vertex",
        "a dart short",
        "a dart too many",
    ],
)
def test_plan_check_refuses_a_wrong_vertex_map(monkeypatch, corrupt):
    """The lens, whose bend lies between its two crossings, with its
    output vertices named wrongly: not the image of the plan under this
    map, so the plan check refuses it, whether or not it is plane."""
    c = compiled(monkeypatch, lens_drawing(), 2)
    corrupt(c)
    assert not c.plan_check()
    if corrupt is map_the_bend_to_a_spare_vertex:
        assert not c.plane_check()


def x_with_two_isolated_vertices() -> Drawing:
    """Two crossing edges, and vertices 4 and 5 on their own."""
    g = Graph.make(range(6), [(0, 2), (1, 3)])
    pos = {0: (0, 0), 1: (0, 2), 2: (2, 2), 3: (2, 0), 4: (5, 5), 5: (6, 0)}
    return drawing_from_segments(g, pos)


def list_the_first_edge_at_a_spare_vertex(c):
    """Vertex 5 named 4, and a spare vertex in its place that lists the
    first edge twice."""
    c.ren[c.d.real_pvid[5]] = 4
    del c.rot[5]
    c.rot[max(c.rot) + 1] = [0, 0]


def drop_vertex_5_from_the_map(c):
    del c.ren[c.d.real_pvid[5]]
    del c.rot[5]


def name_vertex_5_as_4(c):
    c.ren[c.d.real_pvid[5]] = 4
    del c.rot[5]


@pytest.mark.parametrize(
    "corrupt",
    [list_the_first_edge_at_a_spare_vertex, drop_vertex_5_from_the_map, name_vertex_5_as_4],
)
def test_plan_check_refuses_a_wrong_map_of_isolated_vertices(monkeypatch, corrupt):
    """Isolated vertices have empty rotations, so only the counts and the
    vertex set tell that the map lost one or gave two the same id.  The
    first corruption is not plane either."""
    c = compiled(monkeypatch, x_with_two_isolated_vertices())
    corrupt(c)
    assert not c.plan_check()
    if corrupt is list_the_first_edge_at_a_spare_vertex:
        assert not c.plane_check()


def test_plan_check_refuses_a_walk_round_a_cycle_of_inner_vertices():
    """A plan path 0, 1, 2, 3, 4 with the chord 1-3, read with 1, 2 and 3 as
    bends: from 0 the walk leaves each of them by the first edge of its
    rotation, 1 -> 2 -> 3 -> 1 and round again.  The check stops when the
    walk has met more bends than there are, where it would never end."""
    pe = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)]
    rotation = {0: (0,), 1: (1, 0, 3), 2: (2, 1), 3: (3, 2, 4), 4: (4,)}
    plan = SimpleNamespace(plan=SimpleNamespace(edges=pe), rotation=rotation)
    ends = [(0, 5), (5, 6), (4, 6), (0, 7), (7, 8), (4, 8)]
    rot = {0: [0], 4: [2], 5: [0, 1], 6: [1, 2], 7: [3, 4], 8: [4, 5]}
    strands = [(0, 4, 0, 4), (0, 4, 0, 4)]
    darts = [0, 9]  # 0 leaves by edge 0 forward, 4 by edge 4 backward
    assert not _subdivides_plan(ends, rot, plan, {1, 2, 3}, strands, {0: 0, 4: 4}, 5, darts)


def test_kplanar_compile_hands_its_check_the_darts_of_the_plan(monkeypatch):
    """The compile turns each plan rotation into darts once, and its check
    reads the same list: for every vertex that is not a bend, in rotation
    map order, the darts leaving it, in rotation order."""
    rng = random.Random("darts")
    cases = decode_sized_cases()
    for seed in range(10):
        d = bent_drawing(rng.randint(5, 12), rng.randint(1, 3), seed, rng)
        cases.append((d, {}, max(map(len, d.edge_crossings.values()), default=0) + 1))
    bends = 0
    for ends, rot, d, inner, strands, ren, first, darts in kplanar_checks(monkeypatch, cases):
        pe = d.plan.edges
        want = [
            2 * f if pe[f][0] == p else 2 * f + 1
            for p, r in d.rotation.items()
            if p not in inner
            for f in r
        ]
        assert darts == want
        bends += len(inner)
    assert bends > 10


def test_plan_check_accepts_only_plane_systems_on_the_oracle_corpora(monkeypatch):
    """Every system the k-planar compile checks on the decode-sized and the
    bent drawings passes both checks.  Each, corrupted by one to three
    seeded ``CORRUPTIONS``, passes ``_subdivides_plan`` only if
    ``_plane_simple`` accepts it: the plan check is the stricter, as it
    also fixes which plane system the compile writes."""
    rng = random.Random("plan-check")
    cases = decode_sized_cases()
    for seed in range(60):
        d = bent_drawing(rng.randint(5, 12), rng.randint(1, 3), seed, rng)
        k = max(map(len, d.edge_crossings.values()), default=0) + 1
        cases.append((d, random_x(rng, d, k), k))
    verdicts = Counter()
    for ends, rot, *plan in kplanar_checks(monkeypatch, cases):
        assert _subdivides_plan(ends, rot, *plan) and drawing._plane_simple(ends, rot)
        for _ in range(3):
            rs = as_rotsys(list(ends), {v: list(r) for v, r in rot.items()})
            for _ in range(rng.randint(1, 3)):
                rng.choice(CORRUPTIONS)(rs, rng)
            bad_ends, bad_rot = dense_system(rs)
            got = (
                _subdivides_plan(bad_ends, bad_rot, *plan),
                drawing._plane_simple(bad_ends, bad_rot),
            )
            assert got != (True, False)
            verdicts[got] += 1
    assert verdicts[False, False] >= 150 and verdicts[False, True] >= 15, verdicts


def test_kplanar_compile_traces_no_face_of_its_output(monkeypatch):
    """The dart kernel runs only for the input's verdict: once on a fresh
    drawing, from ``_require_valid``, and not at all once the drawing keeps
    its verdict."""
    kept = random_kplanar(12, 2, 7)
    assert validate(kept) == []
    fresh = Drawing(
        kept.base, kept.plan, kept.rotation, kept.kind, kept.trace, kept.outer, kept.outers
    )
    x_edges = {12: (0, 5)}
    monkeypatch.setattr(transduce, "_subdivides_plan", _subdivides_plan)
    calls = []
    real_embed = drawing._embed
    monkeypatch.setattr(drawing, "_embed", lambda *args: calls.append(args) or real_embed(*args))
    want = transduction_to_json(transduce_kplanar(kept, x_edges, 2))
    assert calls == []
    assert transduction_to_json(transduce_kplanar(fresh, x_edges, 2)) == want
    assert [args[0] for args in calls] == [fresh.plan.edges]
    calls.clear()
    transduce_kplanar(fresh, x_edges, 2)
    assert calls == []


def test_decoded_graph_is_normalized():
    """``eval_formula`` builds its graph without ``Graph.make``; it must
    equal the graph ``Graph.make`` builds from the same vertices and
    edges, on dense ids and on relabelled ones."""
    for out in oracle_corpus():
        for o in (out, relabelled(out, RELABELS["reversed"])):
            g = eval_formula(o)
            assert g == Graph.make(reversed(g.vertices), [(b, a) for a, b in reversed(g.edges)])
            assert all(type(v) is int for v in g.vertices)


def test_assembled_graph_is_normalized():
    """``_output`` builds its graph without ``Graph.make``; it must equal
    the graph ``Graph.make`` builds from the same vertices and edges."""
    for out in oracle_corpus():
        g = out.colored.graph
        assert g == Graph.make(reversed(g.vertices), [(b, a) for a, b in reversed(g.edges)])
        assert all(type(v) is int for v in g.vertices)


def test_eval_matches_per_pair_oracle():
    corpus = oracle_corpus()
    assert len(corpus) == 33 + 1 + 4
    for i, out in enumerate(corpus):
        assert eval_formula(out) == oracle_eval_formula(out), i


def test_eval_matches_per_pair_oracle_on_decode_sized_outputs():
    """k-planar outputs of the size the decode benchmark runs, with two
    deleted vertices, read in their own mode and in the clustered one."""
    rng = random.Random("decode-sized")
    for i in range(40):
        n, k = rng.randint(16, 24), rng.randint(2, 4)
        d = random_kplanar(n, k, rng.randrange(10**6))
        base = list(d.base.vertices)
        xs = (max(base) + 1, max(base) + 2)
        x_edges = {x: tuple(rng.sample(base, rng.randint(1, 4))) for x in xs}
        out = transduce_kplanar(d, x_edges, k)
        swapped = dataclasses.replace(out, formula=TransductionFormula.for_mode(k, "clustered"))
        for o in (out, swapped):
            assert eval_formula(o) == oracle_eval_formula(o), (i, o.formula.mode)


def chain_output(length: int, mode: str, inner: ColorLabel) -> TransductionOutput:
    """Original vertices 0 and 1 joined by a path of ``length`` edges whose
    internal vertices 2, 3, ... all carry ``inner``."""
    verts = [0] + list(range(2, length + 1)) + [1]
    g = Graph.make(verts, zip(verts, verts[1:]))
    colors = {v: frozenset({inner}) for v in verts[1:-1]}
    return TransductionOutput(
        ColoredGraph(g, colors), {0: 0, 1: 1}, TransductionFormula.for_mode(1, mode), ()
    )


@pytest.mark.parametrize("mode, inner", [("kplanar", B1), ("clustered", ColorLabel("bP", 0))])
def test_path_budget_is_exact(mode, inner):
    budget = TransductionFormula.for_mode(1, mode).max_path_len
    for length, adjacent in ((budget, True), (budget + 1, False)):
        out = chain_output(length, mode, inner)
        got = eval_formula(out)
        assert got == oracle_eval_formula(out)
        assert got.has_edge(0, 1) == adjacent, length


def test_witnessed_target_stays_usable_inside_later_paths():
    """In kplanar mode an original vertex may sit inside a path, so on the
    path 0-1-2 the source 0 reaches 2 through the target 1 it witnessed."""
    g = Graph.make(range(3), [(0, 1), (1, 2)])
    out = TransductionOutput(
        ColoredGraph(g), {v: v for v in range(3)}, TransductionFormula.for_mode(1, "kplanar"), ()
    )
    assert eval_formula(out) == oracle_eval_formula(out) == complete(3)


# Indices run past every corpus output's largest index and its k, so a
# recolored graph can hold hub-pair labels no table entry matches.
RECOLOR_LABELS = [
    ColorLabel(kind, j) for kind in ("b", "bP") for j in range(7)
] + [ColorLabel(kind, j) for kind in ("c", "cP") for j in range(1, 7)]
PLAIN_LABELS = [B1, B2, ColorLabel("bP", 0)] + [
    ColorLabel(kind, j) for kind in ("b", "bP") for j in range(3, 7)
]


@given(st.data())
def test_eval_matches_oracle_after_recoloring_and_mode_swap(data):
    out = data.draw(st.sampled_from(oracle_corpus()))
    g = out.colored.graph
    colors = dict(out.colored.colors)
    for v in data.draw(st.lists(st.sampled_from(g.vertices), max_size=8, unique=True)):
        labels = data.draw(st.sets(st.sampled_from(RECOLOR_LABELS), max_size=4))
        if data.draw(st.booleans()):
            # A hub that also holds a label plain in one of the modes.
            labels |= {B0, data.draw(st.sampled_from(PLAIN_LABELS))}
        colors[v] = frozenset(labels)
    mode = data.draw(st.sampled_from(("kplanar", "clustered")))
    mutated = TransductionOutput(
        ColoredGraph(g, colors),
        out.embed,
        TransductionFormula.for_mode(out.formula.k, mode),
        out.x,
    )
    assert eval_formula(mutated) == oracle_eval_formula(mutated)


# Hub-pair labels up to index 3, the plain labels of both modes and the
# handshake labels, for colored graphs built from scratch.
SCRATCH_LABELS = [B1, B2, ColorLabel("bP", 0)] + [
    ColorLabel(kind, j) for kind in ("b", "bP") for j in (1, 3)
] + [ColorLabel(kind, j) for kind in ("c", "cP") for j in (1, 2)]


def scratch_output(rng: random.Random, mode: str) -> TransductionOutput:
    """A colored graph on at most 10 vertices, not made by a transducer.

    A random set of ``b0`` hubs, most holding ``b0`` alone, is often joined
    into a cycle (hubs next to hubs, and a cycle through them).  Every
    vertex gets up to two labels from ``SCRATCH_LABELS``, so original
    vertices may be plain.  Often a chain ``x a0 h1 a1 h2 ... y`` through
    one to three hubs is planted between two original vertices, each hub
    between a pair it lets through at some index up to 3.  Random extra
    edges close more cycles.
    """
    n = rng.randint(3, 10)
    hubs = rng.sample(range(n), rng.randint(0, n // 2 + 1))
    pairs = list(itertools.combinations(range(n), 2))
    edges = set(rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n // 2))))
    if rng.random() < 0.5:
        edges |= {(min(a, b), max(a, b)) for a, b in zip(hubs, hubs[1:] + hubs[:1]) if a != b}
    colors = {v: set(rng.sample(SCRATCH_LABELS, rng.randint(0, 2))) for v in range(n)}
    for v in hubs:
        colors[v] = {B0} | (colors[v] if rng.random() < 0.2 else set())
    orig = set(rng.sample(range(n), rng.randint(2, n)))
    if n >= 5 and rng.random() < 0.7:
        chain = rng.sample(range(n), 2 * rng.randint(1, min(3, (n - 3) // 2)) + 3)
        orig |= {chain[0], chain[-1]}
        edges |= {(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])}
        hub_pairs = transduce._mode(mode).hub_pairs(3)
        for i in range(2, len(chain) - 2, 2):
            opens, closes = rng.choice(hub_pairs)
            colors[chain[i]] = {B0}
            colors[chain[i - 1]].add(opens)
            colors[chain[i + 1]].add(closes)
    return TransductionOutput(
        ColoredGraph(Graph.make(range(n), edges), {v: frozenset(ls) for v, ls in colors.items()}),
        dict(enumerate(rng.sample(sorted(orig), len(orig)))),
        TransductionFormula.for_mode(rng.randint(1, 3), mode),
        (),
    )


@settings(max_examples=200)
@given(st.randoms(use_true_random=False), st.sampled_from(("kplanar", "clustered")))
def test_eval_matches_oracle_on_colored_graphs_from_scratch(rng, mode):
    out = scratch_output(rng, mode)
    assert eval_formula(out) == oracle_eval_formula(out)


@pytest.mark.parametrize("mode", ["kplanar", "clustered"])
def test_eval_matches_oracle_on_seeded_scratch_corpus(mode):
    """The corpus decodes edges that only a path through a hub witnesses,
    so frames are pushed past hubs and popped back from them."""
    rng = random.Random(f"scratch-{mode}")
    through_hubs = 0
    for i in range(1000):
        out = scratch_output(rng, mode)
        got = eval_formula(out)
        assert got == oracle_eval_formula(out), i
        bare = {v: ls - {B0} for v, ls in out.colored.colors.items()}
        no_hubs = dataclasses.replace(out, colored=ColoredGraph(out.colored.graph, bare))
        through_hubs += bool(set(got.edges) - set(eval_formula(no_hubs).edges))
    assert through_hubs >= 100, through_hubs


def relabelled(out: TransductionOutput, new) -> TransductionOutput:
    """``out`` with every vertex of its colored graph and every original
    vertex ``v`` renamed ``new(v)``."""
    g = out.colored.graph
    return TransductionOutput(
        ColoredGraph(
            Graph.make(map(new, g.vertices), [(new(u), new(v)) for u, v in g.edges]),
            {new(v): ls for v, ls in out.colored.colors.items()},
        ),
        {new(h): new(v) for h, v in out.embed.items()},
        out.formula,
        tuple(sorted(map(new, out.x))),
    )


def assert_decode_ignores_ids(out: TransductionOutput, new) -> None:
    """The decode of ``out`` relabelled by ``new`` is the relabelled decode
    of ``out``, and the per-pair oracle's; the relabelled ids are not
    ``0 .. n - 1``, so the search maps them to positions."""
    moved = relabelled(out, new)
    assert moved.colored.graph.vertices != tuple(range(out.colored.graph.n))
    want = eval_formula(out)
    got = eval_formula(moved)
    assert got == Graph.make(map(new, want.vertices), [(new(a), new(b)) for a, b in want.edges])
    assert got == oracle_eval_formula(moved)


# Relabellings onto ids that are not 0 .. n - 1.
RELABELS = {
    "offset": lambda v: v + 1000,
    "negative": lambda v: v - 37,
    "gaps": lambda v: 3 * v + 5,
    "reversed": lambda v: -2 * v,
}


@pytest.mark.parametrize("name", sorted(RELABELS))
def test_decode_ignores_vertex_ids(name):
    new = RELABELS[name]
    outs = list(oracle_corpus())
    for mode in ("kplanar", "clustered"):
        rng = random.Random(f"relabel-{name}-{mode}")
        outs += [scratch_output(rng, mode) for _ in range(100)]
    for out in outs:
        assert_decode_ignores_ids(out, new)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_decode_ignores_vertex_ids_under_any_injection(data):
    if data.draw(st.booleans()):
        out = data.draw(st.sampled_from(oracle_corpus()))
    else:
        rng = data.draw(st.randoms(use_true_random=False))
        out = scratch_output(rng, data.draw(st.sampled_from(("kplanar", "clustered"))))
    verts = out.colored.graph.vertices
    if data.draw(st.booleans()):
        # An affine map, possibly order-reversing.
        scale = data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        shift = data.draw(st.integers(-10**4, 10**4))
        image = {v: scale * v + shift for v in verts}
    else:
        # Any injection onto ids with gaps, on both sides of 0.
        low = data.draw(st.integers(-3 * len(verts), 0))
        image = dict(zip(verts, data.draw(st.permutations(range(low, low + 3 * len(verts) + 1)))))
    assume(sorted(image.values()) != list(range(len(verts))))
    assert_decode_ignores_ids(out, image.__getitem__)


@pytest.mark.parametrize("shift", [0, 100])
def test_an_early_return_leaves_no_vertex_on_the_path(shift):
    """The inner vertices of the path ``v0 .. v5`` are plain, so the
    search from ``v0`` witnesses its one target ``v5`` from the frame of
    ``v4`` and returns with ``v0 .. v4`` on its path; the searches after
    it must find those vertices free again."""
    verts = [v + shift for v in range(6)]
    g = Graph.make(verts, zip(verts, verts[1:]))
    cg = ColoredGraph(g, {v: frozenset({B1}) for v in verts[1:-1]})
    witnessed = transduce._path_search(cg, TransductionFormula.for_mode(1, "kplanar"))
    assert witnessed(verts[0], {verts[5]}) == [verts[5]]
    assert witnessed(verts[5], {verts[0]}) == [verts[0]]
    assert witnessed(verts[2], {verts[0], verts[5]}) == [verts[0], verts[5]]
    assert witnessed(verts[0], {verts[5]}) == [verts[5]]


def decode_sized_cases() -> list[tuple[Drawing, dict[int, tuple[int, ...]], int]]:
    """k-planar drawings of the decode benchmark's sizes, n in (24, 36, 48)
    and k in (2, 4, 6), each with two deleted vertices and its k."""
    rng = random.Random("decode-sized-search")
    cases = []
    for n in (24, 36, 48):
        for k in (2, 4, 6):
            d = random_kplanar(n, k, rng.randrange(10**6))
            x_edges = {x: tuple(rng.sample(range(n), rng.randint(1, 4))) for x in (n, n + 1)}
            cases.append((d, x_edges, k))
    return cases


def test_position_search_matches_the_hashed_search():
    """``_path_search`` witnesses the same targets, in the same order, as
    the hashed search it replaced (``oracle_path_search``), from every
    source ``eval_formula`` asks about, in both modes and on shifted ids."""
    calls = 0
    for d, x_edges, k in decode_sized_cases():
        out = transduce_kplanar(d, x_edges, k)
        swapped = dataclasses.replace(
            out, formula=TransductionFormula.for_mode(out.formula.k, "clustered")
        )
        for o in (out, swapped, relabelled(out, RELABELS["gaps"])):
            fast = transduce._path_search(o.colored, o.formula)
            slow = oracle_path_search(o.colored, o.formula)
            later = set(o.embed.values())
            for a in sorted(o.embed):
                later.discard(o.embed[a])
                assert fast(o.embed[a], later) == slow(o.embed[a], later), (o.formula, a)
                calls += 1
    assert calls >= 9 * 3 * 24, calls


def test_decode_builds_no_graph_adjacency_and_writes_edges_in_order(monkeypatch):
    """On decode-sized drawings neither the k-planar compile nor
    ``eval_formula`` computes ``Graph.adj``: the path search's neighbour
    lists are the decode's one adjacency.  The compile hands ``_output``
    its edges already in ``Graph`` order, so the sort there meets one
    sorted run."""
    cases = decode_sized_cases()
    # The module's oracle check of each system builds drawings of its own.
    monkeypatch.setattr(transduce, "_subdivides_plan", _subdivides_plan)
    adj = Graph.__dict__["adj"]
    computed = []
    monkeypatch.setattr(adj, "func", lambda g, real=adj.func: computed.append(g) or real(g))
    handed = []
    real_output = transduce._output

    def output(hverts, verts, gedges, *rest):
        handed.append(list(gedges))
        return real_output(hverts, verts, gedges, *rest)

    monkeypatch.setattr(transduce, "_output", output)
    for d, x_edges, k in cases:
        g = eval_formula(transduce_kplanar(d, x_edges, k))
        assert g.m > d.base.m
    assert computed == []
    assert len(handed) == len(cases)
    for edges in handed:
        assert edges == sorted(edges)


def test_handshake_reads_indices_up_to_k_at_any_k():
    out = transduce_kplanar(k4_drawing(), {4: (0, 1)}, 1)
    colors = dict(out.colored.colors)
    colors[4] |= {ColorLabel("c", 2)}
    colors[2] = frozenset({ColorLabel("cP", 2)})
    mutated = dataclasses.replace(out, colored=ColoredGraph(out.colored.graph, colors))
    assert (2, 4) not in eval_formula(mutated).edges
    wide = dataclasses.replace(mutated, formula=TransductionFormula.for_mode(10**9, "clustered"))
    assert (2, 4) in eval_formula(wide).edges


# ===== Rendering =====


def test_render_is_deterministic():
    f = TransductionFormula.for_mode(2, "clustered")
    assert render_formula(f) == render_formula(f)


def test_render_kplanar_quantifier_counts():
    text = render_formula(TransductionFormula.for_mode(1, "kplanar"))
    disjuncts = text.split("\n  | ")
    longest = disjuncts[-1]
    assert longest.count("exists ") == 5
    assert all(f"exists z{i}: " in longest for i in range(1, 6))
    assert "(c1(x) & cP1(y)) | (cP1(x) & c1(y))" in disjuncts[0]
    assert "b0(" in text and "b1(" in text and "b2(" in text


def test_render_clustered_quantifier_counts():
    text = render_formula(TransductionFormula.for_mode(1, "clustered"))
    longest = text.split("\n  | ")[-1]
    assert longest.count("exists ") == 5
    assert "bP0(" in text and "bP1(" in text
    text2 = render_formula(TransductionFormula.for_mode(2, "clustered"))
    assert "c2(" in text2 and "b2(" in text2 and "bP2(" in text2


RENDER_SHA256 = {
    ("kplanar", 1): "d5ea7bfc58e6f436ef416b34c6b7025c72bceb2a3bed1a4c77a64344bd5071f2",
    ("kplanar", 2): "19cf3aeafd46344f61de8498faef7a96868a2277fb6e681d8a7e6c87f9a09b22",
    ("kplanar", 3): "15ecb8669a1ac273f5c436686c4feacba23fdd18e52a567bd6fad91b688801f3",
    ("kplanar", 5): "be30c29d121eb739d24f47383bb643bc718c67a8ce2d7e91ac8d77994114af0a",
    ("clustered", 1): "742f5b96a8df031af1e41669b802ceb1cabecf01d98df5162c020cacdc14eb34",
    ("clustered", 2): "006f8bf1707c46cd9dd2f019930e738000b26c800def3f2bea721fc1a68a4239",
    ("clustered", 3): "1f92181de20c687130449ba2b5080eae37cbf90f9edba2c649f0898a4e16e4b0",
    ("clustered", 5): "d1e0463c33f3683adacf4e3eb4defba0583acd31e734442052dcbf7a4d90db5d",
}


@pytest.mark.parametrize("mode, k", sorted(RENDER_SHA256))
def test_render_text_is_pinned(mode, k):
    text = render_formula(TransductionFormula.for_mode(k, mode))
    assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256[(mode, k)]


# sha256 of the compact, key-sorted transduction JSON, recorded before the
# cuts moved onto the shared rotation-system builder.
TRANSDUCTIONS = {
    "kplanar-fig1a": (lambda: transduce_kplanar(fig1a(), {}, 7),
                      "51f8dc1ac0ff90e309657a743cb33fcd243d766415d2ea9917d0cd978a9edbac"),
    "kplanar-fig1b": (lambda: transduce_kplanar(fig1b(4), {}, 2),
                      "f6bcf8dac13aead76c9107b8ad08606f75108a9c5c7b676068ea74efef399cfb"),
    "kplanar-fig3": (lambda: transduce_kplanar(fig3(), {5: (0, 1, 2, 3, 4)}, 2),
                     "30d5ae33896e56db99cb22b229bed21db159388101b46a4992bbf29fe44f65e3"),
    "kplanar-random-10-2-5": (lambda: transduce_kplanar(random_kplanar(10, 2, 5), {}, 2),
                              "0fac119a0690d91893f30996705c306c3a1753955ffc0ebefe930d998f3f04ec"),
    "kplanar-random-14-3-11": (lambda: transduce_kplanar(random_kplanar(14, 3, 11), {}, 3),
                               "20e59d5c716f2a993b43148a4c79b583d36f3c59290e9711af4989121eff5b82"),
    "clustered-fig1a": (lambda: transduce_clustered(fig1a(), fig1a_certificate(), {}, 2),
                        "09c319a9eec6e46714258062386b238fd8d90ef0790ec488bf2a2916da20668d"),
}


@pytest.mark.parametrize("name", sorted(TRANSDUCTIONS))
def test_transduction_bytes_are_pinned(name):
    build, digest = TRANSDUCTIONS[name]
    doc = json.dumps(transduction_to_json(build()), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


SMALL_LABELS = [ColorLabel(kind, j) for kind in ("b", "bP") for j in range(3)] + [
    ColorLabel(kind, j) for kind in ("c", "cP") for j in (1, 2)
]


def small_colored_output(rng: random.Random, mode: str, k: int) -> TransductionOutput:
    """A random colored graph on at most 6 vertices, some of them original."""
    n = rng.randint(2, 6)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    colors = {v: frozenset(rng.sample(SMALL_LABELS, rng.randint(0, 2))) for v in range(n)}
    orig = rng.sample(range(n), rng.randint(2, n))
    return TransductionOutput(
        ColoredGraph(Graph.make(range(n), edges), colors),
        dict(enumerate(orig)),
        TransductionFormula.for_mode(k, mode),
        (),
    )


PATH_LABELS = [frozenset(), frozenset({B0}), frozenset({B1}), frozenset({ColorLabel("bP", 1)}), frozenset({B2})]


def labelled_paths(mode: str, k: int):
    """Original vertices 0 and 1 joined by a path with up to four internal
    vertices, under every labelling of them from ``PATH_LABELS``."""
    for p in range(5):
        verts = [0, *range(2, p + 2), 1]
        g = Graph.make(verts, zip(verts, verts[1:]))
        for labels in itertools.product(PATH_LABELS, repeat=p):
            yield TransductionOutput(
                ColoredGraph(g, dict(zip(verts[1:-1], labels))),
                {0: 0, 1: 1},
                TransductionFormula.for_mode(k, mode),
                (),
            )


@pytest.mark.parametrize("mode", ["kplanar", "clustered"])
@pytest.mark.parametrize("k", [1, 2])
def test_eval_matches_the_rendered_text(mode, k):
    for i, out in enumerate(labelled_paths(mode, k)):
        assert eval_formula(out) == oracle_eval_rendered(out), i
    rng = random.Random(f"render-{mode}-{k}")
    for i in range(200):
        out = small_colored_output(rng, mode, k)
        assert eval_formula(out) == oracle_eval_rendered(out), i


# ===== JSON wire format =====


def test_transduction_json_round_trip():
    for out in [
        transduce_kplanar(k4_drawing(), {4: (0, 1, 2, 3)}, 2),
        transduce_clustered(fig1a(), fig1a_certificate(), {}, 2),
    ]:
        doc = transduction_to_json(out)
        back = transduction_from_json(doc)
        assert back == out
        assert eval_formula(back) == eval_formula(out)


def test_transduction_json_shape():
    out = transduce_kplanar(k4_drawing(), {4: (0, 1, 2, 3)}, 2)
    doc = transduction_to_json(out)
    assert doc["formula"] == {"k": 2, "mode": "kplanar"}
    assert doc["X"] == [4]
    assert doc["embed"]["0"] == 0
    assert doc["colors"][str(out.embed[0])] == ["cP1"]


def test_transduction_json_refuses_non_integers():
    doc = transduction_to_json(transduce_kplanar(k4_drawing(), {4: (0, 1, 2, 3)}, 2))
    for mutate in (
        lambda d: d["formula"].update(k=2.9),
        lambda d: d["formula"].update(k=True),
        lambda d: d.update(X=[4.0]),
        lambda d: d.update(X=[2.7]),
        lambda d: d["embed"].update({"0": float(d["embed"]["0"])}),
        lambda d: d["embed"].update({"0.5": 99}),
    ):
        broken = json.loads(json.dumps(doc))
        mutate(broken)
        with pytest.raises(ValueError, match="bad transduction document"):
            transduction_from_json(broken)


def test_transduction_json_rejects_malformed():
    out = transduce_kplanar(triangle_drawing(), {}, 1)
    doc = transduction_to_json(out)
    for key in ("embed", "formula", "X"):
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ValueError, match="bad transduction document"):
            transduction_from_json(broken)
    with pytest.raises(ValueError, match="bad graph document"):
        transduction_from_json({"embed": {}, "formula": {"k": 1, "mode": "kplanar"}, "X": []})
