"""Certificate verification and exact search, checked against enumeration oracles."""

from __future__ import annotations

from dataclasses import replace

import pytest

from fancross.errors import CapExceeded
from fancross.cluster import (
    Certificate,
    min_ell,
    search_certificate,
    verify_certificate,
)
from fancross.drawing import SubdivisionPlan
from fancross.fixtures import fig1a, fig1a_certificate, fig1b, fig3
from fancross.geometry import drawing_from_polylines, drawing_from_segments, pt
from fancross.graphs import Fan, Graph
from fancross.jsonio import certificate_from_json, certificate_to_json
from oracles import oracle_cluster_feasible


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


def test_nonpositive_parameters_are_structural():
    with pytest.raises(ValueError, match="k and ell must be positive"):
        verify_certificate(fig1a(), Certificate(0, 1))


def test_cut_position_out_of_range_is_structural():
    d = fig1b(3)
    plan = SubdivisionPlan({d.base.edge_id(1, 3): (99,)})
    with pytest.raises(ValueError, match="cut on crossing"):
        verify_certificate(d, Certificate(2, 2, plan))


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


def test_certificate_json_rejects_malformed():
    with pytest.raises(ValueError, match="bad certificate document"):
        certificate_from_json({"k": 2}, fig1a().base)
