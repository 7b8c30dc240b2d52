"""Minor-model verification and brute-force search, against independent oracles."""

from __future__ import annotations

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fancross.errors import CapExceeded
from fancross.graphs import Graph, complete, cycle, grid2d, path
from fancross.jsonio import model_from_json, model_to_json
from fancross.minors import (
    MinorModel,
    _twin_chain,
    find_model_bruteforce,
    strip_universal,
    verify_model,
)
from oracles import oracle_contains_minor_c1, oracle_find_model, oracle_model_violations


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


def k3_in_grid(c, d, cap=10):
    return find_model_bruteforce(grid2d(2, 3), complete(3), c, d, cap)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: k3_in_grid(2.0, 2), r"^c 2\.0 is not an int$"),
        (lambda m: k3_in_grid(2, 2.0), r"^d 2\.0 is not an int$"),
        (lambda m: k3_in_grid(True, 2), r"^c True is not an int$"),
        (lambda m: k3_in_grid(2, 2, cap=10.5), r"^cap 10\.5 is not an int$"),
        (lambda m: verify_model(dataclasses.replace(m, c=2.0)), r"^c 2\.0 is not an int$"),
        (lambda m: verify_model(dataclasses.replace(m, d=False)), r"^d False is not an int$"),
    ],
)
def test_bounds_that_are_not_ints_are_refused(call, message):
    """A float ``c`` or ``d`` once raised ``TypeError`` in the search, and
    ``c=True`` gave a model whose document ``model_from_json`` refuses;
    ``verify_model`` took ``c=2.0`` and the search took ``cap=10.5``."""
    m = k3_in_grid(2, 2)
    assert m is not None and verify_model(m) == []
    with pytest.raises(ValueError, match=message):
        call(m)


# ===== First model against the old search =====


def bipartite(a: int, b: int) -> Graph:
    """K_{a,b} on parts 0..a-1 and a..a+b-1; a star when a = 1."""
    return Graph.make(range(a + b), [(u, a + v) for u in range(a) for v in range(b)])


# Closed twins {0, 1}, open twins {2, 3} and open twins {4, 5}.
MIXED_TWINS = Graph.make(
    range(6), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
)


def assert_same_first_model(host, pattern, c, d) -> bool:
    """Checks the search against the old one; returns whether a model exists."""
    got = find_model_bruteforce(host, pattern, c, d)
    want = oracle_find_model(host, pattern, c, d)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.branch == want.branch
    return want is not None


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.random()
    return Graph.make(
        range(n), [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_twin_chain():
    assert _twin_chain(complete(4)) == [None, 0, 1, 2]
    assert _twin_chain(bipartite(2, 3)) == [None, 0, None, 2, 3]
    assert _twin_chain(bipartite(1, 4)) == [None, None, 1, 2, 3]
    assert _twin_chain(path(3)) == [None, None, 0]
    assert _twin_chain(path(4)) == [None] * 4
    assert _twin_chain(MIXED_TWINS) == [None, 0, None, 2, None, 4]
    assert _twin_chain(Graph.make([3, 7, 9], [(3, 9), (7, 9)])) == [None, 0, None]


def test_first_model_matches_oracle_on_seeded_corpus():
    found = 0
    for seed in range(300):
        rng = random.Random(seed)
        host, pattern = _random_graph(rng, rng.randint(2, 8)), _random_graph(rng, rng.randint(1, 6))
        found += assert_same_first_model(host, pattern, rng.randint(1, 3), rng.randint(0, 2))
    assert 150 < found < 280  # both verdicts are well represented


@settings(max_examples=200)
@given(
    st.integers(2, 8),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 2**28 - 1),
    st.integers(0, 2**15 - 1),
)
def test_first_model_matches_oracle_on_random_graphs(n, p, c, d, hbits, pbits):
    hpairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ppairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    host = Graph.make(range(n), [e for i, e in enumerate(hpairs) if hbits >> i & 1])
    pattern = Graph.make(range(p), [e for i, e in enumerate(ppairs) if pbits >> i & 1])
    assert_same_first_model(host, pattern, c, d)


TWIN_PATTERNS = [complete(n) for n in (2, 3, 4, 5)] + [
    bipartite(2, 2), bipartite(2, 3), bipartite(1, 3), bipartite(1, 4), MIXED_TWINS,
]


@pytest.mark.parametrize("pattern", TWIN_PATTERNS)
@pytest.mark.parametrize("c", [1, 2, 3])
def test_first_model_matches_oracle_on_twin_patterns(pattern, c):
    for host in (grid2d(2, 3), cycle(5), path(4), complete(4)):
        for d in (0, 1, 2):
            assert_same_first_model(host, pattern, c, d)


@pytest.mark.parametrize("rows, cols, n, model", [
    (2, 3, 7, False), (2, 3, 8, False), (3, 3, 7, True),
])
def test_large_complete_patterns_at_congestion_two(rows, cols, n, model):
    start = time.perf_counter()
    m = find_model_bruteforce(grid2d(rows, cols), complete(n), 2, 2)
    assert time.perf_counter() - start < 5.0
    assert (m is not None) == model
    if m is not None:
        assert verify_model(m) == [] and oracle_model_violations(m) == []


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
