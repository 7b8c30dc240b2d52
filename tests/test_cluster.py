"""Certificate verification and exact search, checked against enumeration oracles."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fancross import cluster, synth
from fancross.transduce import transduce_clustered
from fancross.errors import CapExceeded, InvariantBroken
from fancross.cluster import (
    Certificate,
    _cut_options,
    min_ell,
    search_certificate,
    verify_certificate,
)
from fancross.drawing import (
    ArcRef,
    CrossingGraph,
    Drawing,
    SubdivisionPlan,
    _fan_core,
    crossing_graph,
    validate,
)
from fancross.fixtures import fig1a, fig1a_certificate, fig1b, fig3, random_kplanar
from fancross.geometry import drawing_from_polylines, drawing_from_segments, pt
from fancross.graphs import Fan, Graph, fan_cover, grid2d
from fancross.minors import MinorModel
from fancross.jsonio import certificate_from_json, certificate_to_json
from oracles import oracle_cluster_feasible, oracle_search_certificate


def xdrawing():
    g = Graph.make([0, 1, 2, 3], [(0, 1), (2, 3)])
    return drawing_from_segments(
        g, {0: pt(0, 0), 1: pt(2, 2), 2: pt(0, 2), 3: pt(2, 0)}
    )


def pocket():
    """Two fan edges cross twice and enclose an endpoint of the edge they cross."""
    g = Graph.make([0, 1, 2, 3, 4], [(0, 1), (0, 2), (3, 4)])
    pos = {0: pt(0, 0), 1: pt(2, 4), 2: pt(4, -1), 3: pt(12, 2), 4: pt(6, 2)}
    bends = {
        0: [pt(8, 0), pt(8, 4)],
        1: [pt(4, -2), pt(10, -2), pt(10, 6), pt(4, 6)],
    }
    return drawing_from_polylines(g, pos, bends)


def adjacent_crossing():
    """Two edges sharing a vertex cross once thanks to a detour."""
    g = Graph.make([0, 1, 2], [(0, 1), (0, 2)])
    pos = {0: pt(0, 0), 1: pt(4, 0), 2: pt(2, 3)}
    return drawing_from_polylines(g, pos, {1: [pt(2, -2)]})


# ===== Verification: failure reporting =====


def test_missing_cover_is_reported():
    cert = fig1a_certificate()
    covers = dict(cert.covers)
    del covers[2]
    rep = verify_certificate(fig1a(), replace(cert, covers=covers))
    assert not rep.verdict
    assert (2, "no cover") in rep.failures


def test_unknown_component_is_reported():
    cert = fig1a_certificate()
    covers = dict(cert.covers)
    covers[9] = covers[2]
    rep = verify_certificate(fig1a(), replace(cert, covers=covers))
    assert not rep.verdict
    assert (9, "unknown component") in rep.failures


def test_unassigned_arc_is_reported():
    d = fig1a()
    cert = fig1a_certificate()
    key = (d.base.edge_id(0, 4), 0)
    assignment = dict(cert.assignment)
    del assignment[key]
    rep = verify_certificate(d, replace(cert, assignment=assignment))
    assert rep.failures == ((0, f"arc unassigned: {key}"),)


def test_assignment_to_absent_fan_is_reported():
    d = fig1a()
    cert = fig1a_certificate()
    key = (d.base.edge_id(0, 4), 0)
    assignment = dict(cert.assignment)
    assignment[key] = 12
    rep = verify_certificate(d, replace(cert, assignment=assignment))
    assert rep.failures == ((0, f"assigned fan not in cover: {key}"),)


def test_assignment_to_foreign_fan_is_reported():
    d = fig1a()
    cert = fig1a_certificate()
    key = (d.base.edge_id(0, 4), 0)
    assignment = dict(cert.assignment)
    assignment[key] = 2  # a cover fan of this component, but not the arc's own
    rep = verify_certificate(d, replace(cert, assignment=assignment))
    assert rep.failures == ((0, f"arc not covered by its fan: {key}"),)


def test_fan_edges_written_backwards_verify_the_same():
    d = fig1a()
    cert = fig1a_certificate()
    covers = {
        cid: tuple(Fan(f.center, tuple((v, u) for u, v in f.edges)) for f in fans)
        for cid, fans in cert.covers.items()
    }
    flipped = replace(cert, covers=covers)
    assert flipped.covers == cert.covers
    for strong in (False, True):
        assert verify_certificate(d, flipped, strong) == verify_certificate(d, cert, strong)


def test_fan_budget_is_reported_per_component():
    rep = verify_certificate(fig1a(), replace(fig1a_certificate(), ell=1))
    assert not rep.verdict
    assert [f for f in rep.failures if f[1] == "too many fans"] == [
        (0, "too many fans"),
        (1, "too many fans"),
        (2, "too many fans"),
    ]


# ===== Verification: malformed certificates raise =====


def test_cut_budget_is_structural():
    cert = fig1a_certificate()
    with pytest.raises(ValueError, match="too many cuts"):
        verify_certificate(fig1a(), replace(cert, k=1))


def test_duplicate_fan_center_is_structural():
    d = fig1a()
    cert = fig1a_certificate()
    covers = dict(cert.covers)
    covers[2] = (Fan(5, ((2, 5),)), Fan(5, ((4, 5),)), Fan(6, ((1, 6), (3, 6))))
    with pytest.raises(ValueError, match="duplicate fan center"):
        verify_certificate(d, replace(cert, covers=covers))


def test_unknown_fan_edge_is_structural():
    cert = fig1a_certificate()
    covers = dict(cert.covers)
    covers[2] = (Fan(90, ((90, 99),)),)
    with pytest.raises(ValueError, match="not a fan"):
        verify_certificate(fig1a(), replace(cert, covers=covers))
    covers[2] = (Fan(5, ((5, 12),)),)
    with pytest.raises(ValueError, match=r"unknown fan edge \(5, 12\)"):
        verify_certificate(fig1a(), replace(cert, covers=covers))


def test_out_of_range_arc_is_structural():
    cert = fig1a_certificate()
    assignment = dict(cert.assignment)
    assignment[(0, 7)] = 0
    with pytest.raises(ValueError, match="unknown arc in assignment"):
        verify_certificate(fig1a(), replace(cert, assignment=assignment))


def test_unknown_assignment_center_is_structural():
    cert = fig1a_certificate()
    assignment = dict(cert.assignment)
    assignment[(2, 0)] = 99
    with pytest.raises(ValueError, match="^unknown center in assignment$"):
        verify_certificate(fig1a(), replace(cert, assignment=assignment))


def test_nonpositive_parameters_are_structural():
    with pytest.raises(ValueError, match="k and ell must be positive"):
        verify_certificate(fig1a(), Certificate(0, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: search_certificate(d, 2.0, 2), r"^k 2\.0 is not an int$"),
        (lambda d: search_certificate(d, 2, 2.0), r"^ell 2\.0 is not an int$"),
        (lambda d: search_certificate(d, True, 2, strong=True), r"^k True is not an int$"),
        (lambda d: min_ell(d, 2.0), r"^k 2\.0 is not an int$"),
        (lambda d: verify_certificate(d, Certificate(2.0, 2.5)), r"^k 2\.0 is not an int$"),
        (lambda d: verify_certificate(d, Certificate(2, False)), r"^ell False is not an int$"),
    ],
)
def test_bounds_that_are_not_ints_are_refused(call, message):
    """On ``fig3()``: a float ``k`` once raised ``TypeError`` from the cut
    options, a float ``ell`` came back in the certificate, and the verifier
    took ``Certificate(2.0, 2.5)`` as it was."""
    with pytest.raises(ValueError, match=message):
        call(fig3())


def test_cut_position_out_of_range_is_structural():
    d = fig1b(3)
    plan = SubdivisionPlan({d.base.edge_id(1, 3): (99,)})
    with pytest.raises(ValueError, match="cut on crossing"):
        verify_certificate(d, Certificate(2, 2, plan))


def test_repeated_cut_position_is_structural():
    # fig1a's certificate at k = 3 with its cut on edge 7 given twice: the
    # copy spends a cut of the budget on a crossing-free arc, here assigned.
    # The certificate refuses it when it is built.
    cert = fig1a_certificate()
    plan = SubdivisionPlan({**cert.plan.cuts, 7: (2, 2)})
    with pytest.raises(ValueError, match="repeated cut"):
        replace(cert, k=3, plan=plan, assignment={**cert.assignment, (7, 2): 6})


# ===== Search vs. oracle =====

GRID_CASES = [
    ("x", xdrawing, "all", 2),
    ("chords3", lambda: fig1b(3), "all", 2),
    ("pocket", pocket, "all", 2),
    ("adjacent", adjacent_crossing, "all", 2),
    ("chords5", lambda: fig1b(5), "interior", 3),
    ("clique5", fig3, "interior", 3),
]


@pytest.mark.parametrize("name,make,gaps,kmax", GRID_CASES)
def test_search_matches_oracle_weak(name, make, gaps, kmax):
    d = make()
    for k in range(1, kmax + 1):
        for ell in range(1, 4):
            found = search_certificate(d, k, ell) is not None
            assert found == oracle_cluster_feasible(d, k, ell, gaps=gaps), (k, ell)


@pytest.mark.parametrize("name,make,gaps,kmax", GRID_CASES)
def test_search_matches_oracle_strong(name, make, gaps, kmax):
    d = make()
    kmax = min(kmax, 2)
    for k in range(1, kmax + 1):
        for ell in range(1, 4):
            found = search_certificate(d, k, ell, strong=True) is not None
            expect = oracle_cluster_feasible(d, k, ell, strong=True, gaps=gaps)
            assert found == expect, (k, ell)


@pytest.mark.parametrize("name,make,gaps,kmax", GRID_CASES)
def test_search_results_verify(name, make, gaps, kmax):
    d = make()
    for strong in (False, True):
        for k in range(1, kmax + 1):
            for ell in range(1, 4):
                cert = search_certificate(d, k, ell, strong=strong)
                if cert is None:
                    continue
                assert cert.k == k and cert.ell == ell
                assert all(len(g) <= k - 1 for g in cert.plan.cuts.values())
                rep = verify_certificate(d, cert, strong=strong)
                assert rep.verdict, rep.failures


# ===== Search vs. the product-order oracle: the same first certificate =====

ORACLE_SPACE = 256  # cut choices per query; keeps the exhaustive oracle fast


def cut_space(d, k):
    return math.prod(len(opts) for opts in _cut_options(d, k))


def assert_same_first_certificates(d):
    for k in (1, 2, 3):
        if cut_space(d, k) > ORACLE_SPACE:
            continue
        for ell in (1, 2, 3):
            for strong in (False, True):
                got = search_certificate(d, k, ell, strong=strong, cap=64)
                want = oracle_search_certificate(d, k, ell, strong=strong, cap=64)
                assert got == want, (k, ell, strong)


@pytest.mark.parametrize("name,make,gaps,kmax", GRID_CASES)
def test_search_returns_oracle_certificate_on_grid(name, make, gaps, kmax):
    assert_same_first_certificates(make())


@pytest.mark.parametrize("n", range(5, 11))
def test_search_returns_oracle_certificate_on_random_drawings(n):
    for seed in range(10):
        assert_same_first_certificates(random_kplanar(n, 2 + seed % 3, seed))


@given(
    n=st.integers(4, 9),
    kk=st.integers(1, 4),
    seed=st.integers(0, 10**4),
    k=st.integers(1, 3),
    ell=st.integers(1, 3),
    strong=st.booleans(),
)
def test_search_returns_oracle_certificate_property(n, kk, seed, k, ell, strong):
    d = random_kplanar(n, kk, seed)
    while cut_space(d, k) > ORACLE_SPACE:
        k -= 1
    got = search_certificate(d, k, ell, strong=strong, cap=64)
    assert got == oracle_search_certificate(d, k, ell, strong=strong, cap=64)


def chain_and_zigzag(m):
    """Two crossing-graph components: ``fig1b(m)``'s chord chain, then an
    edge that a zigzag edge crosses five times.  An arc of the straight edge
    is crossed twice by the zigzag edge under every cut at fold 2, so the
    second component has a weak certificate but no strong one."""
    n = m + 2
    edges = [(j, j + 1) for j in range(n - 1)] + [(j, j + 2) for j in range(m)]
    pos = {j: pt(j + 1, (j + 1) ** 2) for j in range(n)}
    a, b, c, e = n, n + 1, n + 2, n + 3
    pos.update({a: pt(200, 0), b: pt(240, 0), c: pt(211, 3), e: pt(221, -3)})
    g = Graph.make(range(n + 4), edges + [(a, b), (c, e)])
    zigzag = [pt(213, -3), pt(215, 3), pt(217, -3), pt(219, 3)]
    return drawing_from_polylines(g, pos, {g.edge_id(c, e): zigzag})


def test_search_adds_across_components(monkeypatch):
    d = chain_and_zigzag(8)
    assert search_certificate(d, 2, 2) is not None
    calls: list[str] = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for name in ("fan_cover", "vertex_cover", "_strong_cover"):
        monkeypatch.setattr(cluster, name, counted(getattr(cluster, name)))
    assert search_certificate(d, 2, 2, strong=True) is None
    # 64 choices for the chain times 25 for the zigzag pair; the search
    # settles the chain once and then tries the pair's 25 on their own.
    assert cut_space(d, 2) == 1600
    assert "_strong_cover" in calls and len(calls) <= 64


def test_search_across_components_matches_oracle():
    d = chain_and_zigzag(4)
    for strong in (False, True):
        want = oracle_search_certificate(d, 2, 2, strong=strong)
        assert search_certificate(d, 2, 2, strong=strong) == want


def test_pocket_fold_thresholds():
    d = pocket()
    assert search_certificate(d, 1, 2) is not None
    assert search_certificate(d, 1, 3, strong=True) is None
    assert search_certificate(d, 2, 2, strong=True) is not None


def test_adjacent_crossing_single_fan_is_strong():
    d = adjacent_crossing()
    cert = search_certificate(d, 1, 1, strong=True)
    assert cert is not None
    assert cert.covers[0] == (Fan(0, ((0, 1), (0, 2))),)


def test_disjoint_crossing_blocks_single_fan():
    assert search_certificate(xdrawing(), 3, 1) is None


# ===== Strong candidates are checked on the uncut drawing =====


def test_strong_candidates_build_no_drawing_and_no_crossing_graph(monkeypatch):
    checks, built, inside = [], [], []
    real_cover = cluster._GroupSearch._component_cover

    def component_cover(self, *args):
        checks.append(args[0])
        inside.append(True)
        try:
            return real_cover(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(cluster._GroupSearch, "_component_cover", component_cover)
    builders = ((Drawing, "__post_init__"), (Drawing, "with_outer"), (CrossingGraph, "__init__"))
    for cls, name in builders:

        def counted(self, *args, real=getattr(cls, name), name=name, **kwargs):
            if inside:
                built.append(name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    drawings = [fig3(), fig1a(), pocket(), chain_and_zigzag(4)]
    drawings += [random_kplanar(9, 3, seed) for seed in range(6)]
    for d in drawings:
        for k, ell in ((2, 2), (3, 2), (3, 1)):
            search_certificate(d, k, ell, strong=True, cap=40)
    assert any(len({a[0] for a in arcs}) < len(arcs) for arcs in checks)  # some arcs cut
    assert built == []


def test_strong_certificate_takes_the_search_covers(monkeypatch):
    """A strong search hands its covers to ``_certificate``, which runs no
    ``_strong_cover`` of its own and returns what the cover search would."""
    inside, calls = [], []
    real_certificate, real_cover = cluster._certificate, cluster._strong_cover

    def certificate(*args):
        inside.append(True)
        try:
            return real_certificate(*args)
        finally:
            inside.pop()

    def strong_cover(*args):
        calls.append(bool(inside))
        return real_cover(*args)

    monkeypatch.setattr(cluster, "_certificate", certificate)
    monkeypatch.setattr(cluster, "_strong_cover", strong_cover)
    drawings = [fig3(), fig1a(), pocket(), adjacent_crossing(), chain_and_zigzag(4)]
    drawings += [random_kplanar(9, 3, seed) for seed in range(8)]
    found = 0
    for d in drawings:
        for k, ell in ((2, 2), (3, 2), (3, 1), (2, 3)):
            cert = search_certificate(d, k, ell, strong=True, cap=40)
            if cert is not None:
                found += 1
                assert cert == real_certificate(d, k, ell, True, cert.plan)
    assert found >= 20
    assert calls and not any(calls)


def test_certificate_refuses_a_missing_or_failing_cover(monkeypatch):
    """``pocket``'s one component has a weak cover by two fans that fails
    the strong check, and no strong cover by three.  A strong search whose
    memo holds no cover for the component, None, or that weak cover raises
    ``InvariantBroken``: the first two give no certificate, and the third
    fails the verifier's strong check.  The weak cover is put in the memo
    by a ``_strong_cover`` patched to return it, so the search accepts
    the uncut plan."""
    d, plan = pocket(), SubdivisionPlan()
    cg = crossing_graph(d, plan)
    (comp,) = cg.components()
    key = frozenset(cg.nodes[n] for n in comp)
    weak = fan_cover(d.base, [d.base.edges[e] for e in sorted({a[0] for a in key})], 2)
    assert cluster._certificate(d, 1, 2, False, plan) is not None
    assert cluster._certificate(d, 1, 3, True, plan) is None
    real_certificate = cluster._certificate
    monkeypatch.setattr(cluster, "_strong_cover", lambda *args: weak)
    handed = []
    for memo in ({}, {key: None}, None):

        def certificate(d, k, ell, strong, plan, found=None, memo=memo):
            handed.append(found)
            return real_certificate(d, k, ell, strong, plan, found if memo is None else memo)

        monkeypatch.setattr(cluster, "_certificate", certificate)
        with pytest.raises(InvariantBroken, match="certificate search invariant broken"):
            search_certificate(d, 1, 2, strong=True)
    assert handed[-1] == {key: weak}


def test_a_searched_certificate_is_checked_strongly_once(monkeypatch):
    """From a strong search through a strong verification of its
    certificate to the clustered compile, ``_strong_failures`` runs on each
    final cover once, inside the verifier, and the structural check once;
    the search's own candidates are plain groups, not fans.  A weak search
    checks nothing of its certificate."""
    finals, structural = [], []
    real_failures, real_structural = cluster._strong_failures, cluster._structural_check

    def strong_failures(d, cuts, cid, crossed, fans):
        if all(isinstance(f, Fan) for f in fans):
            finals.append(cid)
        return real_failures(d, cuts, cid, crossed, fans)

    monkeypatch.setattr(cluster, "_strong_failures", strong_failures)
    monkeypatch.setattr(
        cluster, "_structural_check", lambda d, c: structural.append(c) or real_structural(d, c)
    )
    for d, k, ell in ((fig1a(), 2, 2), (fig3(), 2, 2), (random_kplanar(8, 3, 2), 3, 2)):
        assert search_certificate(d, k, ell, cap=64) is not None
        assert structural == [] and "_verdict_slot" not in d.__dict__
        finals.clear()
        cert = search_certificate(d, k, ell, strong=True, cap=64)
        assert cert is not None
        assert verify_certificate(d, cert, strong=True).verdict
        transduce_clustered(d, cert, {}, k)
        assert sorted(finals) == list(range(len(crossing_graph(d, cert.plan).components())))
        assert structural == [cert]
        structural.clear()


def test_strong_memo_keyed_by_tuples_is_read_by_crossing_graph_nodes(monkeypatch):
    """A strong search keys its memo by plain ``(edge, lo, hi)`` tuples, and
    ``_certificate`` looks each component up by its ``ArcRef`` nodes, which
    equal them; the certificates are the oracle's."""
    memos = []
    real_certificate = cluster._certificate

    def certificate(d, k, ell, strong, plan, memo=None):
        memos.append((plan, memo))
        return real_certificate(d, k, ell, strong, plan, memo)

    monkeypatch.setattr(cluster, "_certificate", certificate)
    drawings = [fig3(), pocket(), adjacent_crossing(), chain_and_zigzag(4)]
    drawings += [random_kplanar(n, 2 + seed % 3, seed) for n in (7, 9) for seed in range(5)]
    looked_up = 0
    for d in drawings:
        for k, ell in ((1, 2), (2, 2), (2, 3)):
            if cut_space(d, k) > ORACLE_SPACE:
                continue
            memos.clear()
            got = search_certificate(d, k, ell, strong=True, cap=64)
            assert got == oracle_search_certificate(d, k, ell, strong=True, cap=64)
            if got is None:
                continue
            ((plan, memo),) = memos
            assert all(type(a) is tuple for key in memo for a in key)
            cg = crossing_graph(d, plan)
            for comp in cg.components():
                assert all(type(cg.nodes[n]) is ArcRef for n in comp)
                assert memo[frozenset(cg.nodes[n] for n in comp)] is not None
                looked_up += 1
    assert looked_up >= 20


def synth_drawing_with_19_crossings():
    """The drawing that ``synthesize`` builds for a 7-vertex pattern in the
    3 x 3 grid at k = 2: 19 crossings, where the construction's own fan
    assignment fails the strong check and exact covers need three fans."""
    g = grid2d(3, 3)
    host = drawing_from_segments(g, {i * 3 + j: pt(j, i) for i in range(3) for j in range(3)})
    pattern = Graph.make(
        range(7),
        [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6),
         (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)],
    )
    branch = {0: (8,), 1: (2, 5), 2: (3, 6), 3: (7,), 4: (2, 4, 5), 5: (7, 8), 6: (0, 3, 4, 6)}
    return synth.synthesize(host, MinorModel(g, pattern, branch, 2, 2)).drawing


def test_strong_search_refuses_the_19_crossing_synth_drawing():
    d = synth_drawing_with_19_crossings()
    assert sum(d.kind_of(p) == "crossing" for p in d.plan.vertices) == 19
    assert search_certificate(d, 2, 2, strong=True, cap=19) is None


# ===== k-planar drawings are k-fold 2-clustered =====


def assert_certifies_at_k_and_two(d: Drawing, k: int) -> None:
    """``d`` has at most ``k`` crossings per edge, so cutting each edge
    between its consecutive crossings leaves every crossing a cluster of
    two arcs, each a fan of its own: a k-fold 2-clustered certificate,
    weak and strong, which the searches find and verification accepts."""
    assert all(len(xs) <= k for xs in d.edge_crossings.values())
    for strong in (False, True):
        cert = search_certificate(d, k, 2, strong=strong, cap=40)
        assert cert is not None and (cert.k, cert.ell) == (k, 2)
        assert verify_certificate(d, cert, strong=strong).verdict
        assert verify_certificate(d, cert).verdict


def test_kplanar_drawings_certify_at_k_and_two():
    """126 seeded drawings, n from 6 to 12, k from 1 to 3, seeds 0 to 5.
    Six have more crossings than the default cap of 12, so the searches
    get ``cap=40``."""
    over_default_cap = 0
    for n in range(6, 13):
        for k in (1, 2, 3):
            for seed in range(6):
                d = random_kplanar(n, k, seed)
                over_default_cap += len(d.crossing_edges) > 12
                assert_certifies_at_k_and_two(d, k)
    assert over_default_cap == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 12), st.integers(1, 3), st.integers(0, 10**6))
def test_kplanar_drawings_certify_at_k_and_two_property(n, k, seed):
    assert_certifies_at_k_and_two(random_kplanar(n, k, seed), k)


# ===== Strong verdicts and vertex ids =====


def beside_a_copy(n, k, seed, perm, dx, dy):
    """``random_kplanar(n, k, seed)``, then the same geometry translated by
    ``(dx, dy)`` with vertex ``u`` renamed ``n + perm[u]``, alone and beside
    the original.  The generator's vertex positions are its first n draws."""
    d = random_kplanar(n, k, seed)
    rng = random.Random(seed)
    pos = {i: pt(i, rng.randrange(0, 2 * n + 1)) for i in range(n)}
    moved = {n + perm[u]: pt(x + dx, y + dy) for u, (x, y) in pos.items()}
    copy_edges = [(n + perm[u], n + perm[v]) for u, v in d.base.edges]
    alone = drawing_from_segments(Graph.make(moved, copy_edges), moved)
    union = Graph.make(range(2 * n), [*d.base.edges, *copy_edges])
    return d, alone, drawing_from_segments(union, {**pos, **moved})


def test_strong_verdict_ignores_the_ids_of_a_second_copy():
    # Renamed so, the copy's face with the least dart is a bounded triangle
    # at its vertex 9, the original's vertex 3, not its unbounded face.
    perm = [2, 3, 1, 0, 4, 5, 6, 7, 8]
    d, alone, union = beside_a_copy(9, 2, 2, perm, 1000, 0)
    assert validate(union) == [] and len(set(union.plan_components.values())) == 2
    assert len(union.outers) == 1
    assert search_certificate(union, 1, 2) is not None
    for drawing in (d, alone, union):
        assert search_certificate(drawing, 1, 2, strong=True, cap=24) is not None


def fan_verdicts(d, union):
    """For every edge of ``d`` and every end of an edge crossing it, whether
    that end's edges crossing it pass ``_fan_core``, in ``d`` and in
    ``union``, which draws ``d`` with the same vertex ids beside more."""

    def check(g, alpha, center, ends):
        eid = g.base.edge_id(*alpha)
        alpha_x = set(g.edge_crossings[eid])
        hits = []
        for e in ends:
            fid = g.base.edge_id(*e)
            hits.append((alpha_x & set(g.edge_crossings[fid]), fid, e[0] == center))
        return _fan_core(g, eid, 0, len(g.edge_crossings[eid]), {}, hits)

    out = []
    for e, alpha in enumerate(d.base.edges):
        xs = set(d.edge_crossings[e])
        hit = [d.base.edges[f] for f in range(d.base.m) if xs & set(d.edge_crossings[f])]
        for center in sorted({v for ends in hit for v in ends}):
            ends = [f for f in hit if center in f]
            out.append((check(d, alpha, center, ends), check(union, alpha, center, ends)))
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 10),
    st.integers(1, 3),
    st.integers(0, 10**6),
    st.integers(1, 2),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_strong_verdict_ignores_a_relabelled_translated_copy(n, kk, seed, k, ell, rng):
    perm = rng.sample(range(n), n)
    shift = (rng.randint(n, 3 * n), rng.randint(-2 * n, 2 * n))
    d, alone, union = beside_a_copy(n, kk, seed, perm, *shift)
    assert validate(union) == []
    for part in (d, alone):
        for got, expected in fan_verdicts(part, union):
            assert got == expected
    expected = search_certificate(d, k, ell, strong=True, cap=24) is not None
    assert (search_certificate(union, k, ell, strong=True, cap=48) is not None) == expected


def test_fan_verdicts_ignore_a_relabelled_translated_copy_on_seeded_corpus():
    rng = random.Random(16)
    default_differs = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        perm = rng.sample(range(n), n)
        shift = (rng.randint(n, 3 * n), rng.randint(-2 * n, 2 * n))
        d, alone, union = beside_a_copy(n, rng.randint(1, 3), rng.randrange(10**6), perm, *shift)
        # The same drawing with every component but the outer face's rooted
        # at its least-dart face.
        by_ids = union.with_outer(union.outer)
        differs = False
        for part in (d, alone):
            for got, expected in fan_verdicts(part, union):
                assert got == expected
            differs |= fan_verdicts(part, by_ids) != fan_verdicts(part, union)
        default_differs += differs
    assert default_differs > 0


# ===== Minimum cluster count =====


def test_min_ell_on_chord_family():
    assert [min_ell(fig1b(m), 1) for m in range(2, 9)] == [2, 2, 2, 3, 4, 4, 4]


def test_min_ell_trivial_when_crossing_free():
    assert min_ell(fig1b(1), 1) == 1


def test_min_ell_improves_with_cuts():
    d = fig1b(6)
    assert min_ell(d, 1) == 4
    assert min_ell(d, 2) == 2


def test_min_ell_monotone_in_fold():
    for make in (xdrawing, pocket, fig3):
        d = make()
        vals = [min_ell(d, k) for k in (1, 2, 3)]
        assert vals == sorted(vals, reverse=True)


# ===== Guard rails =====


def test_search_cap():
    with pytest.raises(CapExceeded, match="search cap exceeded"):
        search_certificate(fig1a(), 2, 2)


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError, match="k and ell must be positive"):
        search_certificate(xdrawing(), 0, 1)


# ===== Serialization =====


def test_certificate_json_round_trip():
    d = fig1a()
    cert = fig1a_certificate()
    doc = certificate_to_json(cert, d.base)
    back = certificate_from_json(doc, d.base)
    assert back == cert
    assert verify_certificate(d, back).verdict


@pytest.mark.parametrize(
    "path, value",
    [
        (("cuts", "7"), [1.5]),
        (("cuts", "7"), [2.0]),
        (("cuts", "7"), ["2"]),
        (("k",), 2.9),
        (("k",), 2.0),
        (("ell",), True),
        (("covers", "0", 0, "center"), 0.0),
        (("covers", "0", 0, "edges", 0), -1),
        (("covers", "0", 0, "edges", 0), 18),
        (("covers", "0", 0, "edges", 0), 2.0),
        (("assignment", 0, "edge"), -1),
        (("assignment", 0, "edge"), 2.0),
        (("assignment", 0, "piece"), False),
        (("assignment", 0, "center"), "0"),
    ],
)
def test_certificate_json_refuses_non_integers(path, value):
    d = fig1a()
    doc = certificate_to_json(fig1a_certificate(), d.base)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    with pytest.raises(ValueError, match="bad certificate document"):
        certificate_from_json(doc, d.base)


@pytest.mark.parametrize("key", ["-1", "18", "1.5", "x"])
def test_certificate_json_refuses_bad_cut_edges(key):
    d = fig1a()
    doc = certificate_to_json(fig1a_certificate(), d.base)
    doc["cuts"][key] = [1]
    with pytest.raises(ValueError, match="bad certificate document: cuts entry"):
        certificate_from_json(doc, d.base)


def test_certificate_json_rejects_malformed():
    with pytest.raises(ValueError, match="bad certificate document"):
        certificate_from_json({"k": 2}, fig1a().base)
