"""Minor-model verification and brute-force search, against independent oracles."""

from __future__ import annotations

import random

import pytest

from fancross.errors import CapExceeded
from fancross.graphs import Graph, complete, cycle, grid2d, path
from fancross.jsonio import model_from_json, model_to_json
from fancross.minors import (
    MinorModel,
    find_model_bruteforce,
    strip_universal,
    verify_model,
)
from oracles import oracle_contains_minor_c1, oracle_model_violations


def k4_in_grid():
    return find_model_bruteforce(grid2d(3, 3), complete(4), 1, 1, cap=9)


# ===== Verification =====


def test_found_model_is_valid():
    m = k4_in_grid()
    assert m is not None
    assert verify_model(m) == []


def test_disconnected_branch_is_reported():
    m = MinorModel(path(4), path(2), {0: (0, 1), 1: (0, 3)}, 2, 3)
    assert verify_model(m) == ["(i) branch 1 not connected"]


def test_radius_overflow_is_reported():
    m = MinorModel(path(4), path(2), {0: (0, 1, 2), 1: (3,)}, 1, 0)
    assert verify_model(m) == ["(i) branch 0 radius 1 > 0"]


def test_congestion_overflow_is_reported():
    m = MinorModel(path(3), path(2), {0: (0, 1), 1: (1, 2)}, 1, 1)
    assert verify_model(m) == ["(ii) vertex 1 in 2 sets"]


def test_missing_touch_is_reported():
    m = MinorModel(path(4), path(2), {0: (0,), 1: (3,)}, 1, 0)
    assert verify_model(m) == ["(iii) edge (0, 1) does not touch"]


def test_touch_by_intersection_counts():
    m = MinorModel(path(3), path(2), {0: (0, 1), 1: (1, 2)}, 2, 1)
    assert verify_model(m) == []


def test_structural_problems_raise():
    with pytest.raises(ValueError, match="missing branch for vertex 1"):
        verify_model(MinorModel(path(3), path(2), {0: (0,)}, 1, 1))
    with pytest.raises(ValueError, match="empty branch for vertex 0"):
        verify_model(MinorModel(path(3), path(2), {0: (), 1: (1,)}, 1, 1))
    with pytest.raises(ValueError, match="unknown host vertex 9"):
        verify_model(MinorModel(path(3), path(2), {0: (9,), 1: (1,)}, 1, 1))
    with pytest.raises(ValueError, match="unknown pattern vertex 7"):
        verify_model(
            MinorModel(path(3), path(2), {0: (0,), 1: (1,), 7: (2,)}, 1, 1)
        )
    with pytest.raises(ValueError, match="c must be positive"):
        verify_model(MinorModel(path(3), path(2), {0: (0,), 1: (1,)}, 0, 1))


def test_verification_matches_oracle_on_seeded_models():
    for seed in range(60):
        m = _random_model(seed)
        assert verify_model(m) == oracle_model_violations(m), seed


def _random_model(seed: int) -> MinorModel:
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    verts = list(range(n))
    edges = [
        (u, v) for u in verts for v in verts if u < v and rng.random() < 0.4
    ]
    host = Graph.make(verts, edges)
    p = rng.randint(1, 4)
    pverts = list(range(p))
    pedges = [
        (u, v) for u in pverts for v in pverts if u < v and rng.random() < 0.6
    ]
    pattern = Graph.make(pverts, pedges)
    branch = {
        v: tuple(sorted(rng.sample(verts, rng.randint(1, max(1, n // 2)))))
        for v in pverts
    }
    return MinorModel(host, pattern, branch, rng.randint(1, 2), rng.randint(0, 2))


# ===== Search =====


SMALL_CASES = [
    (path(4), complete(3), 1),
    (path(4), complete(3), 2),
    (cycle(5), complete(3), 0),
    (cycle(5), complete(3), 1),
    (cycle(5), complete(4), 2),
    (grid2d(2, 3), complete(3), 1),
    (complete(4), complete(4), 0),
]


@pytest.mark.parametrize("host,pattern,d", SMALL_CASES)
def test_search_matches_partition_oracle(host, pattern, d):
    found = find_model_bruteforce(host, pattern, 1, d) is not None
    assert found == oracle_contains_minor_c1(host, pattern, d)


def test_found_models_verify():
    for host, pattern, d in SMALL_CASES:
        m = find_model_bruteforce(host, pattern, 1, d)
        if m is not None:
            assert verify_model(m) == []


def test_search_is_deterministic():
    a = find_model_bruteforce(cycle(5), complete(3), 1, 1)
    b = find_model_bruteforce(cycle(5), complete(3), 1, 1)
    assert a == b and a is not None


def test_congestion_two_allows_overlap():
    host = path(3)
    assert find_model_bruteforce(host, complete(3), 1, 1) is None
    m = find_model_bruteforce(host, complete(3), 2, 1)
    assert m is not None
    assert verify_model(m) == []


def test_search_cap():
    with pytest.raises(CapExceeded, match="search cap exceeded"):
        find_model_bruteforce(grid2d(4, 3), path(2), 1, 1)
    assert find_model_bruteforce(grid2d(4, 3), path(2), 1, 1, cap=12) is not None


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError, match="c must be positive"):
        find_model_bruteforce(path(3), path(2), 0, 1)
    with pytest.raises(ValueError, match="d nonnegative"):
        find_model_bruteforce(path(3), path(2), 1, -1)


# ===== Universal-vertex reduction =====


def test_strip_universal_drops_hub_branches():
    host = cycle(4)
    hub = 4
    verts = list(host.vertices) + [hub]
    edges = list(host.edges) + [(v, hub) for v in host.vertices]
    wheel = Graph.make(verts, edges)
    pattern = complete(3)
    m = MinorModel(wheel, pattern, {0: (hub,), 1: (0, 1), 2: (2,)}, 1, 1)
    assert verify_model(m) == []
    dropped, rest = strip_universal(m, hub)
    assert dropped == (0,)
    assert rest.host == cycle(4)
    assert set(rest.pattern.vertices) == {1, 2}
    assert rest.branch == {1: (0, 1), 2: (2,)}
    assert verify_model(rest) == []


def test_strip_universal_unknown_vertex():
    m = k4_in_grid()
    with pytest.raises(ValueError, match="unknown host vertex 99"):
        strip_universal(m, 99)


# ===== Serialization =====


def test_model_json_round_trip():
    m = k4_in_grid()
    assert model_from_json(model_to_json(m)) == m


@pytest.mark.parametrize(
    "field, value",
    [
        ("c", 1.5),
        ("c", 1.0),
        ("d", True),
        ("d", "1"),
        ("branch", {"0.5": [0]}),
        ("branch", {"0": [0.0]}),
    ],
)
def test_model_json_refuses_non_integers(field, value):
    doc = {**model_to_json(k4_in_grid()), field: value}
    with pytest.raises(ValueError, match="bad model document"):
        model_from_json(doc)


def test_model_json_rejects_malformed():
    with pytest.raises(ValueError, match="bad model document"):
        model_from_json({"host": {"vertices": [], "edges": []}})
