"""Pinned facts about the bundled example drawings."""

from __future__ import annotations

import pytest

from fancross.cluster import verify_certificate
from fancross.drawing import crossing_graph, is_k_planar, planarize, validate
from fancross.fixtures import fig1a, fig1a_certificate, fig1b, fig3, random_kplanar
from fancross.graphs import bfs_dists
from fancross.jsonio import drawing_to_json
from oracles import oracle_random_kplanar


# ===== The heavily crossed two-hub drawing (fig1a) =====


def test_fig1a_is_valid():
    assert validate(fig1a()) == []


def test_fig1a_crossing_counts():
    d = fig1a()
    eid = d.base.edge_id
    counts = {e: len(xs) for e, xs in d.edge_crossings.items()}
    assert sum(counts.values()) == 50  # 25 crossings, two passages each
    assert counts[eid(2, 10)] == 7 and counts[eid(2, 11)] == 7
    assert counts[eid(2, 5)] == 5 and counts[eid(0, 7)] == 5
    assert counts[eid(0, 4)] == 4 and counts[eid(0, 8)] == 4
    assert counts[eid(1, 6)] == 4
    assert counts[eid(2, 3)] == 3
    assert counts[eid(1, 3)] == counts[eid(1, 5)] == counts[eid(1, 12)] == 2
    assert counts[eid(3, 6)] == counts[eid(4, 5)] == 2
    assert counts[eid(2, 9)] == 1
    for a, b in [(0, 1), (0, 2), (4, 6), (5, 6)]:
        assert counts[eid(a, b)] == 0


def test_fig1a_component_split_under_certificate_cuts():
    d = fig1a()
    cert = fig1a_certificate()
    eid = d.base.edge_id
    cg = crossing_graph(d, cert.plan)
    comps = cg.components()
    assert [len(c) for c in comps] == [8, 6, 4]
    spans = [
        {(cg.nodes[n].edge, cg.nodes[n].lo, cg.nodes[n].hi) for n in comp}
        for comp in comps
    ]
    assert spans[0] == {
        (eid(0, 4), 0, 4),
        (eid(0, 7), 0, 5),
        (eid(0, 8), 0, 4),
        (eid(2, 3), 0, 3),
        (eid(2, 5), 0, 3),
        (eid(2, 9), 0, 1),
        (eid(2, 10), 0, 3),
        (eid(2, 11), 0, 3),
    }
    assert spans[1] == {
        (eid(1, 3), 0, 2),
        (eid(1, 5), 0, 2),
        (eid(1, 6), 0, 2),
        (eid(1, 12), 0, 2),
        (eid(2, 10), 3, 7),
        (eid(2, 11), 3, 7),
    }
    assert spans[2] == {
        (eid(1, 6), 2, 4),
        (eid(2, 5), 3, 5),
        (eid(3, 6), 0, 2),
        (eid(4, 5), 0, 2),
    }


def test_fig1a_certificate_verifies_weak():
    d = fig1a()
    rep = verify_certificate(d, fig1a_certificate())
    assert rep.verdict
    assert rep.failures == ()
    assert rep.stats == {"components": 3, "arcs": 18, "maxFans": 2}


def test_fig1a_planarity_fold():
    d = fig1a()
    assert is_k_planar(d, 7)
    assert not is_k_planar(d, 6)


# ===== The convex path-with-chords family (fig1b) =====


def test_fig1b_shape_and_crossings():
    for m in range(1, 9):
        d = fig1b(m)
        assert validate(d) == []
        assert d.base.n == m + 2 and d.base.m == 2 * m + 1
        total = sum(len(xs) for xs in d.edge_crossings.values()) // 2
        assert total == m - 1
        comps = crossing_graph(d).components()
        assert [len(c) for c in comps] == ([m] if m >= 2 else [])


def test_fig1b_only_consecutive_chords_cross():
    d = fig1b(6)
    eid = d.base.edge_id
    for j in range(6):
        expected = 2 if 0 < j < 5 else 1
        assert len(d.edge_crossings[eid(j, j + 2)]) == expected


def test_fig1b_rejects_nonpositive_size():
    with pytest.raises(ValueError, match="m must be positive"):
        fig1b(0)


# ===== The convex five-clique drawing (fig3) =====


def test_fig3_facts():
    d = fig3()
    assert validate(d) == []
    assert d.base.n == 5 and d.base.m == 10
    assert sum(len(xs) for xs in d.edge_crossings.values()) == 10
    assert is_k_planar(d, 2)
    assert not is_k_planar(d, 1)


def test_fig3_crossing_graph_is_a_five_cycle():
    cg = crossing_graph(fig3())
    comps = cg.components()
    assert [len(c) for c in comps] == [5]
    assert len(cg.edges) == 5
    deg = {n: 0 for n in comps[0]}
    for a, b in cg.edges:
        deg[a] += 1
        deg[b] += 1
    assert set(deg.values()) == {2}


def test_fig3_planarize():
    d2, xmap = planarize(fig3())
    assert validate(d2) == []
    assert d2.base.n == 10 and d2.base.m == 20
    assert len(xmap) == 5


# ===== Seeded random drawings =====


def test_random_kplanar_is_deterministic_and_valid():
    for seed in range(3):
        d1 = random_kplanar(9, 2, seed)
        d2 = random_kplanar(9, 2, seed)
        assert d1 == d2
        assert validate(d1) == []
        assert is_k_planar(d1, 2)
        assert len(bfs_dists(d1.base, 0)) == d1.base.n


@pytest.mark.parametrize("n", range(2, 13))
def test_random_kplanar_matches_rebuild_oracle(n):
    # The incremental generator must accept exactly the chords that
    # rebuilding the whole drawing per candidate accepts.
    for k in range(4):
        for seed in range(20):
            got = drawing_to_json(random_kplanar(n, k, seed))
            assert got == drawing_to_json(oracle_random_kplanar(n, k, seed)), (n, k, seed)


@pytest.mark.parametrize("n, k, seed", [(12, 3, 228), (13, 3, 228), (14, 3, 251)])
def test_random_kplanar_skips_chords_through_crossings(n, k, seed):
    # In these runs a candidate chord passes through the crossing point of
    # two accepted edges and no other check rejects it; it must be rejected
    # as the rebuild would reject it.
    got = drawing_to_json(random_kplanar(n, k, seed))
    assert got == drawing_to_json(oracle_random_kplanar(n, k, seed))


def test_random_kplanar_varies_with_seed():
    assert random_kplanar(9, 2, 0) != random_kplanar(9, 2, 1)


def test_random_kplanar_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_kplanar(1, 2, 0)
    with pytest.raises(ValueError):
        random_kplanar(5, -1, 0)
