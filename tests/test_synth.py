"""Drawing synthesis from minor models, re-checked with the independent verifier."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_arena

from fancross import cluster, synth
from fancross.cluster import verify_certificate
from fancross.drawing import validate
from fancross.errors import InvariantBroken
from fancross.geometry import _rotations, drawing_from_segments, pt
from fancross.graphs import Graph, add_universal_vertex, complete, cycle, grid2d, path
from fancross.jsonio import synthresult_from_json, synthresult_to_json
from fancross.minors import MinorModel, _touch, find_model_bruteforce, verify_model
from fancross.synth import RegionTag, SynthResult, pipeline_theorem2, synthesize


def grid_drawing(rows, cols):
    g = grid2d(rows, cols)
    pos = {i * cols + j: pt(j, i) for i in range(rows) for j in range(cols)}
    return g, drawing_from_segments(g, pos)


def crossing_count(d):
    return sum(1 for pv in d.plan.vertices if d.kind[pv] == "crossing")


def check_result(res, k):
    """The postconditions every synthesis result must satisfy."""
    assert validate(res.drawing) == []
    report = verify_certificate(res.drawing, res.cert, strong=True)
    assert report.verdict, report.failures
    assert res.kPrime == max(res.cert.k, res.cert.ell)
    for eid, walk in res.routes.items():
        assert len(walk) - 1 <= 2 * k + 1
        v, w = res.drawing.base.edges[eid]
        assert walk[0] != walk[-1] or len(walk) == 1
    for pv, tag in res.tags.items():
        assert res.drawing.kind[pv] == "crossing"
        assert tag.kind in ("vertexRegion", "edgeRegion")
    return res


# ===== Trivial and crossing-free instances =====


def test_single_edge_between_adjacent_singletons():
    host = Graph.make([0, 1], [(0, 1)])
    hd = drawing_from_segments(host, {0: pt(0, 0), 1: pt(1, 0)})
    m = MinorModel(host, path(2), {0: (0,), 1: (1,)}, 1, 1)
    res = check_result(synthesize(hd, m), 1)
    assert crossing_count(res.drawing) == 0
    assert res.cert.covers == {} and res.cert.plan.cuts == {}
    assert res.kPrime == 1
    assert res.routes == {0: (0, 1)}


def test_c4_in_2x3_grid_is_crossing_free():
    g, hd = grid_drawing(2, 3)
    m = find_model_bruteforce(g, cycle(4), 1, 1, cap=6)
    assert m is not None
    res = check_result(synthesize(hd, m), 1)
    assert crossing_count(res.drawing) == 0
    assert res.kPrime == 1
    assert res.tags == {}


def test_route_walks_connect_the_right_roots():
    g, hd = grid_drawing(2, 3)
    m = find_model_bruteforce(g, cycle(4), 1, 1, cap=6)
    res = synthesize(hd, m)
    for eid, (v, w) in enumerate(m.pattern.edges):
        walk = res.routes[eid]
        assert walk[0] in m.branch[v] and walk[-1] in m.branch[w]
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)


# ===== Crossing-bearing instances =====


def spread_k4():
    """K4 on 4x4-grid quadrants; both diagonals use the host edge (6, 10)."""
    g, hd = grid_drawing(4, 4)
    branch = {
        0: (0, 1, 4, 5, 6),
        1: (2, 3, 6, 7),
        2: (8, 9, 10, 12, 13),
        3: (10, 11, 14, 15),
    }
    return g, hd, MinorModel(g, complete(4), branch, 2, 2)


def test_spread_k4_crosses_only_in_the_shared_edge_region():
    g, hd, m = spread_k4()
    assert verify_model(m) == []
    res = check_result(synthesize(hd, m), 2)
    assert crossing_count(res.drawing) == 1
    (tag,) = res.tags.values()
    assert tag == RegionTag("edgeRegion", (6, 10))
    assert res.cert.ell == 2


def test_crossing_tags_lie_on_both_routes():
    g, hd, m = spread_k4()
    res = synthesize(hd, m)
    d = res.drawing
    for pv, tag in res.tags.items():
        eids = {
            beid for beid, pes in d.trace.items()
            if any(pv in (d.plan.edges[pe][0], d.plan.edges[pe][1]) for pe in pes)
        }
        assert len(eids) == 2
        for beid in eids:
            walk = set(res.routes[beid])
            if tag.kind == "vertexRegion":
                assert tag.ref[0] in walk
            else:
                assert set(tag.ref) & walk


def test_k4_on_two_shared_host_vertices():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(g, complete(4), {0: (0,), 1: (0,), 2: (1,), 3: (1,)}, 2, 2)
    res = check_result(synthesize(hd, m), 2)
    assert crossing_count(res.drawing) > 0
    assert res.kPrime <= 16
    # two pattern vertices share each root: their mutual edge is one plan edge
    assert res.routes[0] == (0,)


def test_max_length_route_uses_2k_plus_1_host_edges():
    host = path(11)
    hd = drawing_from_segments(host, {i: pt(i, 0) for i in range(11)})
    m = MinorModel(host, path(2), {0: tuple(range(5)), 1: tuple(range(5, 10))}, 2, 2)
    res = check_result(synthesize(hd, m), 2)
    assert res.routes == {0: (2, 3, 4, 5, 6, 7)}


# ===== Grid matrix =====


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "pat,rows,cols",
    [(path(3), 1, 3), (cycle(4), 2, 2), (complete(4), 3, 3)],
)
def test_small_grid_matrix(pat, rows, cols, k):
    g, hd = grid_drawing(rows, cols)
    m = find_model_bruteforce(g, pat, k, k, cap=9)
    assert m is not None
    res = check_result(synthesize(hd, m), k)
    assert res.kPrime <= 8 * k


def remapped_8x8_model():
    """The first K4 model in the 3 x 3 grid at k = 1, moved into the 8 x 8 grid."""
    m0 = find_model_bruteforce(grid2d(3, 3), complete(4), 1, 1, cap=9)
    remap = lambda v: (v // 3) * 8 + (v % 3)
    g8, hd8 = grid_drawing(8, 8)
    m = MinorModel(
        g8,
        m0.pattern,
        {x: tuple(sorted(remap(u) for u in b)) for x, b in m0.branch.items()},
        1,
        1,
    )
    return hd8, m


def test_remapped_model_on_8x8_grid():
    hd8, m = remapped_8x8_model()
    assert verify_model(m) == []
    res = check_result(synthesize(hd8, m), 1)
    assert res.kPrime <= 8


# sha256 of each result's JSON document (``json.dumps(..., sort_keys=True)``)
# for the grid matrix above and the remapped 8 x 8 model, recorded while
# synthesis still retried with reversed bundles.  These models are certified
# by the construction's own fan assignment, so their output must not change.
SYNTH_DIGESTS = {
    ("path3", 1, 3, 1): "755623cb2f03c5a738b9b75c9671a6cee3a1bb46dbb3966e09ab5a8da62c93e5",
    ("path3", 1, 3, 2): "1b1d89fa271cc2f98953e5cb382db233093be357c532fe745de91ee951aa764b",
    ("cycle4", 2, 2, 1): "3ec0b85b6d8b676c9daf8bd129aeeab6741a81775fa97971d3b5d1c92cf746a0",
    ("cycle4", 2, 2, 2): "b950839d13b9483198fc2a517419db4685cbcaf9a79a11c7a6a4e2477c343793",
    ("k4", 3, 3, 1): "a3b54356a2642b593a227b0329eb030e7542dea7de896a08bcdefd397dafcc5c",
    ("k4", 3, 3, 2): "4cd4a5698740da4d8534c47d9d4bd400e37b795a4eab32520210239e0e3e80b1",
    ("k4-remapped", 8, 8, 1): "43a10250e212be6bdc6654e97b69b0cbc308f0c07599552700539ebdf5dfe6c5",
}


@pytest.mark.parametrize("case", sorted(SYNTH_DIGESTS))
def test_synthesis_matches_golden_digest(case):
    name, rows, cols, k = case
    if name == "k4-remapped":
        hd, m = remapped_8x8_model()
    else:
        g, hd = grid_drawing(rows, cols)
        pat = {"path3": path(3), "cycle4": cycle(4), "k4": complete(4)}[name]
        m = find_model_bruteforce(g, pat, k, k, cap=9)
    doc = json.dumps(synthresult_to_json(synthesize(hd, m)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == SYNTH_DIGESTS[case]


# ===== Determinism and serialization =====


def test_synthesis_is_deterministic():
    g, hd, m = spread_k4()
    a = synthesize(hd, m)
    b = synthesize(hd, m)
    assert a.drawing == b.drawing
    assert a.cert == b.cert
    assert a.tags == b.tags and a.routes == b.routes


def test_json_roundtrip():
    g, hd, m = spread_k4()
    res = synthesize(hd, m)
    back = synthresult_from_json(synthresult_to_json(res))
    assert back.drawing == res.drawing
    assert back.cert == res.cert
    assert back.kPrime == res.kPrime
    assert back.tags == res.tags
    assert back.routes == res.routes


def test_bad_synthesis_document():
    with pytest.raises(ValueError, match="bad synthesis document"):
        synthresult_from_json({"kPrime": 1})


def test_synthesis_document_refuses_non_integers():
    g, hd, m = spread_k4()
    doc = json.loads(json.dumps(synthresult_to_json(synthesize(hd, m))))
    route, tag = sorted(doc["routes"])[0], sorted(doc["tags"])[0]
    ref = doc["tags"][tag]["ref"]
    broken = [{**doc, "kPrime": bad} for bad in (2.9, 2.0, "2", True, None)]
    broken += [
        {**doc, "routes": {**doc["routes"], route: [0.5, "x"]}},
        {**doc, "routes": {"x": doc["routes"][route]}},
        {**doc, "tags": {**doc["tags"], tag: {**doc["tags"][tag], "ref": [1.5, *ref[1:]]}}},
        {**doc, "tags": {"1.5": doc["tags"][tag]}},
    ]
    for bad in broken:
        with pytest.raises(ValueError, match=r"bad synthesis document: \w+ entry"):
            synthresult_from_json(bad)


# ===== Degenerate patterns =====


def test_isolated_pattern_vertex_is_kept():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(g, Graph.make([0, 1, 5], [(0, 1)]), {0: (0,), 1: (1,), 5: (3,)}, 1, 1)
    res = check_result(synthesize(hd, m), 1)
    assert res.drawing.kind[5] == "real:5"
    assert res.drawing.plan.degree(5) == 0


def test_edgeless_pattern():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(g, Graph.make([3, 4], []), {3: (0,), 4: (3,)}, 1, 1)
    res = check_result(synthesize(hd, m), 1)
    assert res.routes == {} and res.tags == {}
    assert res.drawing.plan.m == 0


# ===== Apex pipeline =====


def wheel5():
    return Graph.make(
        range(5),
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)],
    )


def test_pipeline_splits_hub_and_draws_rim():
    g, hd = grid_drawing(2, 2)
    gplus, apex = add_universal_vertex(g)
    m = MinorModel(
        gplus, wheel5(), {0: (0,), 1: (1,), 2: (3,), 3: (2,), 4: (apex,)}, 1, 1
    )
    dropped, res = pipeline_theorem2(gplus, apex, hd, m, 1)
    assert dropped == (4,)
    assert res.drawing.base.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    check_result(res, 1)


def test_pipeline_with_unused_apex_drops_nothing():
    g, hd = grid_drawing(2, 2)
    gplus, apex = add_universal_vertex(g)
    m = MinorModel(gplus, cycle(4), {0: (0,), 1: (1,), 2: (3,), 3: (2,)}, 1, 1)
    dropped, res = pipeline_theorem2(gplus, apex, hd, m, 1)
    assert dropped == ()
    assert set(res.routes) == {0, 1, 2, 3}
    check_result(res, 1)


def test_pipeline_rejects_non_universal_vertex():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(g, cycle(4), {0: (0,), 1: (1,), 2: (3,), 3: (2,)}, 1, 1)
    with pytest.raises(ValueError, match="not universal"):
        pipeline_theorem2(g, 0, hd, m, 1)


def test_pipeline_rejects_a_model_of_another_host():
    """The model lives in the grid, not in the grid plus the apex; the
    drawing is fine, so the message names the model."""
    g, hd = grid_drawing(2, 2)
    gplus, apex = add_universal_vertex(g)
    m = MinorModel(g, cycle(4), {0: (0,), 1: (1,), 2: (3,), 3: (2,)}, 1, 1)
    with pytest.raises(ValueError, match="^model does not match the host$"):
        pipeline_theorem2(gplus, apex, hd, m, 1)


def test_pipeline_may_drop_everything():
    g, hd = grid_drawing(2, 2)
    gplus, apex = add_universal_vertex(g)
    m = MinorModel(gplus, Graph.make([7], []), {7: (apex,)}, 1, 1)
    dropped, res = pipeline_theorem2(gplus, apex, hd, m, 1)
    assert dropped == (7,)
    assert res.drawing.plan.n == 0


# ===== Input validation =====


def test_rejects_host_drawing_with_crossings():
    from fancross.fixtures import fig3

    fd = fig3()
    m = MinorModel(fd.base, path(2), {0: (0,), 1: (1,)}, 1, 1)
    with pytest.raises(ValueError, match="host drawing has crossings"):
        synthesize(fd, m)


def test_rejects_mismatched_host():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(grid2d(3, 3), path(2), {0: (0,), 1: (1,)}, 1, 1)
    with pytest.raises(ValueError, match="drawing does not match the host"):
        synthesize(hd, m)


def test_rejects_unequal_congestion_and_depth():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(g, path(2), {0: (0,), 1: (1,)}, 1, 2)
    with pytest.raises(ValueError, match="model must have c = d"):
        synthesize(hd, m)


def test_rejects_invalid_model():
    g, hd = grid_drawing(2, 2)
    m = MinorModel(g, path(2), {0: (0,), 1: (3,)}, 1, 1)
    with pytest.raises(ValueError, match="invalid model"):
        synthesize(hd, m)


def test_region_tag_validation():
    with pytest.raises(ValueError, match="unknown region kind"):
        RegionTag("middle", (1,))
    with pytest.raises(ValueError, match="one host vertex"):
        RegionTag("vertexRegion", (1, 2))
    with pytest.raises(ValueError, match="two host vertices"):
        RegionTag("edgeRegion", (1,))


# ===== Region arenas =====

# Chord sets, as position pairs, whose first jitter puts three chords through
# one point: the arenas that need a retry when K6, K7 and K8 are drawn in the
# 2x2 grid at k = 3.
RETRY_CHORDS = [
    (12, [(0, 9), (3, 10), (6, 11), (1, 9), (4, 10), (7, 11), (2, 9), (5, 10), (8, 11),
          (9, 10), (9, 11), (10, 11)]),
    (15, [(3, 12), (6, 13), (9, 14), (4, 12), (7, 13), (10, 14), (5, 12), (8, 13),
          (11, 14), (12, 13), (12, 14), (12, 2), (13, 14), (13, 1), (14, 0)]),
    (18, [(6, 15), (9, 16), (12, 17), (7, 15), (10, 16), (13, 17), (8, 15), (11, 16),
          (14, 17), (15, 16), (15, 17), (15, 5), (15, 4), (16, 17), (16, 3), (16, 2),
          (17, 1), (17, 0)]),
]


def random_chords(rng):
    """Plan vertex ids for 2-18 positions and distinct chords between them."""
    n = rng.randint(2, 18)
    pairs = list(itertools.combinations(range(n), 2))
    picked = rng.sample(pairs, rng.randint(1, min(len(pairs), 20)))
    chords = [
        ((i, rng.randrange(3)), *(p if rng.random() < 0.5 else p[::-1]))
        for i, p in enumerate(picked)
    ]
    return rng.sample(range(10 * n), n), chords


def arena_corpus(size):
    """``size`` seeded random arenas, then the arenas that retry the jitter."""
    rng = random.Random(4127)
    corpus = [random_chords(rng) for _ in range(size)]
    for n, pairs in RETRY_CHORDS:
        corpus.append((list(range(n)), [((i, 0), a, b) for i, (a, b) in enumerate(pairs)]))
    return corpus


def arena_outcome(arena, vids, chords):
    """Chains, rotations and crossing ids of one arena, and the next fresh id."""
    fresh = itertools.count(1000)
    try:
        if arena is oracle_arena:
            chains, _, rots, xids = oracle_arena(vids, chords, fresh)
        else:
            runs, xids = arena(vids, chords, fresh)
            chains = {ref: chain for ref, (chain, _) in runs.items()}
            # As the builder does: an order needs two or more arena edges.
            rots = {v: r for v, r in _rotations(runs.values()).items() if len(r) > 1}
    except InvariantBroken as exc:
        return str(exc)
    return chains, rots, xids, next(fresh)


def test_arenas_match_the_replaced_arena_on_a_seeded_corpus():
    corpus = arena_corpus(200)
    crossings = 0
    for vids, chords in corpus:
        got = arena_outcome(synth._arena, vids, chords)
        assert got == arena_outcome(oracle_arena, vids, chords)
        crossings += len(got[2])
    assert crossings > 1000


@given(st.randoms(use_true_random=False))
def test_random_arenas_match_the_replaced_arena(rng):
    vids, chords = random_chords(rng)
    assert arena_outcome(synth._arena, vids, chords) == arena_outcome(oracle_arena, vids, chords)


@pytest.mark.parametrize("factor", [1, 3, 999983 * 2000, (999983 * 2000) ** 2 + 1])
def test_arena_is_invariant_under_a_positive_scale(monkeypatch, factor):
    """``_arena`` divides its points by their greatest common divisor.  With
    that divisor replaced by ``1 / factor``, every point is instead the
    unreduced one times ``factor``, and the chains, the crossing ids and
    the order of the directions at every vertex stay the same; the first
    factor leaves the points unreduced."""
    corpus = arena_corpus(150)
    reduced = [arena_outcome(synth._arena, vids, chords) for vids, chords in corpus]
    monkeypatch.setattr(synth, "gcd", lambda *coords: Fraction(1, factor))
    scaled = [arena_outcome(synth._arena, vids, chords) for vids, chords in corpus]
    assert scaled == reduced
    assert sum(len(got[2]) for got in reduced if not isinstance(got, str)) > 500


def test_arena_points_are_divided_by_their_common_factor(monkeypatch):
    """The points ``_arena`` hands to the arrangement are its unreduced
    points, read with the divisor replaced by 1, divided by one common
    factor; without jitter that factor is ``D**2``."""
    corpus = arena_corpus(150)

    def handed(**patch):
        seen = []
        arrangement = synth._arrangement
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(synth, name, value)
            m.setattr(synth, "_arrangement", lambda segs: seen.append(segs) or arrangement(segs))
            for vids, chords in corpus:
                arena_outcome(synth._arena, vids, chords)
        return [[c for _, a, b in segs for c in (*a, *b)] for segs in seen]

    reduced, raw = handed(), handed(gcd=lambda *coords: 1)
    assert len(reduced) == len(raw) > len(corpus)
    factors = Counter()
    for small, big in zip(reduced, raw):
        g = next(b // a for a, b in zip(small, big) if a)
        assert g > 0 and big == [c * g for c in small]
        factors[g == (999983 * 2000) ** 2] += 1
    assert factors[True] > 100 and factors[False] > 10


def test_arena_retries_the_jitter_for_k6_in_the_2x2_grid(monkeypatch):
    refused = []
    arrangement = synth._arrangement

    def recorded(segs):
        arr = arrangement(segs)
        if arr is None:
            refused.append(len(segs))
        return arr

    monkeypatch.setattr(synth, "_arrangement", recorded)
    g, hd = grid_drawing(2, 2)
    m = find_model_bruteforce(g, complete(6), 3, 3, cap=16)
    assert m is not None
    check_result(synthesize(hd, m), 3)
    assert refused


# ===== Construction invariants =====


def test_overlong_route_is_an_invariant_error(monkeypatch):
    make_routes = synth._make_routes

    def padded(*args):
        routes, mid_of, eid_of_mid = make_routes(*args)
        routes[0] = dataclasses.replace(routes[0], segments=routes[0].segments * 4)
        return routes, mid_of, eid_of_mid

    monkeypatch.setattr(synth, "_make_routes", padded)
    g, hd = grid_drawing(2, 3)
    m = find_model_bruteforce(g, cycle(4), 1, 1, cap=6)
    with pytest.raises(InvariantBroken, match=r"more than 2k \+ 1 host edges"):
        synthesize(hd, m)


def test_too_many_apex_branches_is_an_invariant_error(monkeypatch):
    strip = synth.strip_universal

    def overcounted(m, u):
        dropped, m2 = strip(m, u)
        return dropped + (98, 99), m2

    monkeypatch.setattr(synth, "strip_universal", overcounted)
    g, hd = grid_drawing(2, 2)
    gplus, apex = add_universal_vertex(g)
    m = MinorModel(
        gplus, wheel5(), {0: (0,), 1: (1,), 2: (3,), 3: (2,), 4: (apex,)}, 1, 1
    )
    with pytest.raises(InvariantBroken, match="more than k pattern vertices"):
        pipeline_theorem2(gplus, apex, hd, m, 1)


@pytest.mark.parametrize(
    "fallback",
    [lambda *args: None, lambda *args: dataclasses.replace(cluster._certificate(*args), covers={})],
    ids=["none", "unverified"],
)
def test_missing_strong_certificate_is_an_invariant_error(monkeypatch, fallback):
    monkeypatch.setattr(synth, "_certificate", fallback)
    hd, m = k3_in_3x3_grid()
    with pytest.raises(InvariantBroken, match="no strong certificate on the synthesized cuts"):
        synthesize(hd, m)


# ===== Exact-cover fallback =====


@pytest.fixture
def fallbacks(monkeypatch):
    """The exact-cover certificates synthesis computes, in call order."""
    calls = []
    certificate = synth._certificate

    def recorded(*args):
        calls.append(certificate(*args))
        return calls[-1]

    monkeypatch.setattr(synth, "_certificate", recorded)
    return calls


def k3_in_3x3_grid():
    g, hd = grid_drawing(3, 3)
    return hd, MinorModel(g, complete(3), {0: (1, 3, 4, 6, 7), 1: (3, 4, 6, 7), 2: (0, 1)}, 2, 2)


def test_exact_covers_rescue_a_model(fallbacks):
    """The construction's fan assignment fails the strong check on this
    model; exact covers certify the same one-crossing drawing at ell = 1."""
    hd, m = k3_in_3x3_grid()
    assert verify_model(m) == []
    res = check_result(synthesize(hd, m), 2)
    assert crossing_count(res.drawing) == 1
    assert (res.cert.ell, res.kPrime) == (1, 1)
    assert len(fallbacks) == 1


def test_exact_covers_certify_a_dense_model(fallbacks):
    """A 7-vertex pattern in the 3 x 3 grid at k = 2 whose 19-crossing
    drawing needs three fans in some component."""
    g, hd = grid_drawing(3, 3)
    pattern = Graph.make(
        range(7),
        [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6),
         (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)],
    )
    branch = {0: (8,), 1: (2, 5), 2: (3, 6), 3: (7,), 4: (2, 4, 5), 5: (7, 8), 6: (0, 3, 4, 6)}
    m = MinorModel(g, pattern, branch, 2, 2)
    assert verify_model(m) == []
    res = check_result(synthesize(hd, m), 2)
    assert crossing_count(res.drawing) == 19
    assert (res.cert.k, res.cert.ell, res.kPrime) == (4, 3, 4)
    assert len(fallbacks) == 1


# Models whose drawing the construction's fan assignment could not certify
# in either bundle order: host rows, cols, k, pattern edges, branch sets.
# Host vertex i * cols + j sits at (j, i).
HARD_MODELS = [
    (5, 5, 2, [(0, 2), (0, 3), (1, 4), (2, 3)],
     {0: (20, 21), 1: (2, 7), 2: (15,), 3: (11, 15, 16, 20, 21), 4: (7, 8), 5: (18,)}),
    (4, 5, 3, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 5), (2, 6), (4, 5), (5, 6)],
     {0: (3,), 1: (8, 13), 2: (11, 12), 3: (10, 11, 15, 16), 4: (4, 7, 8, 9),
      5: (7, 8, 12, 17), 6: (6, 7, 11, 16, 17)}),
    (5, 5, 3, list(complete(4).edges),
     {0: (13, 18, 19, 22, 23), 1: (14, 18, 19, 23), 2: (8, 9, 12, 13, 14), 3: (18, 19)}),
    (4, 5, 3, [(0, 1), (0, 3), (0, 4), (2, 5), (3, 4)],
     {0: (4, 9, 14), 1: (19,), 2: (0,), 3: (2, 3, 4), 4: (3, 4, 8, 13), 5: (5, 10)}),
    (4, 5, 3, [(0, 3), (0, 4), (1, 2), (1, 5), (2, 5)],
     {0: (13, 14, 19), 1: (10,), 2: (0, 5), 3: (13, 17, 18, 19), 4: (16, 17, 18), 5: (1, 5, 6)}),
]


@pytest.mark.parametrize("rows,cols,k,edges,branch", HARD_MODELS)
def test_exact_covers_certify_hard_models(rows, cols, k, edges, branch, fallbacks):
    g, hd = grid_drawing(rows, cols)
    m = MinorModel(g, Graph.make(sorted(branch), edges), branch, k, k)
    assert verify_model(m) == []
    res = check_result(synthesize(hd, m), k)
    assert res.kPrime <= 2 * k
    assert len(fallbacks) == 1


GRID_HOSTS = [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)]


def random_model(rng):
    """A random valid model in a grid host, and the host's drawing.

    Each of 2-7 branch sets grows from a random root by 0-4 steps to a
    random neighbour of a random member; every touching pair of branch
    sets is a pattern edge with probability 0.7.  Draws are repeated
    until the model is valid.
    """
    while True:
        rows, cols = rng.choice(GRID_HOSTS)
        k = rng.randint(1, 3)
        g = grid2d(rows, cols)
        branch = {}
        for x in range(rng.randint(2, 7)):
            b = {rng.randrange(g.n)}
            for _ in range(rng.randint(0, 4)):
                b.add(rng.choice(sorted(g.neighbors(rng.choice(sorted(b))))))
            branch[x] = tuple(sorted(b))
        edges = [
            (x, y)
            for x, y in itertools.combinations(sorted(branch), 2)
            if _touch(g, branch[x], branch[y]) and rng.random() < 0.7
        ]
        m = MinorModel(g, Graph.make(sorted(branch), edges), branch, k, k)
        if verify_model(m) == []:
            return grid_drawing(rows, cols)[1], m


# sha256 over the corpus's 1,500 result documents, each written with
# ``json.dumps(..., sort_keys=True)`` and a newline; it pins every byte of
# synthesis output, including the 15 results the exact covers certify.
CORPUS_DIGEST = "42bcb870171b8e422a099833ce17b18909456d8970cafdabc9f7db5ed96b07c0"


def test_seeded_model_corpus_synthesizes(fallbacks):
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(1500):
        hd, m = random_model(rng)
        res = check_result(synthesize(hd, m), m.c)
        assert res.kPrime <= 2 * m.c
        digest.update(json.dumps(synthresult_to_json(res), sort_keys=True).encode() + b"\n")
    assert len(fallbacks) == 15
    assert digest.hexdigest() == CORPUS_DIGEST


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_random_models_synthesize(seed):
    hd, m = random_model(random.Random(seed))
    res = check_result(synthesize(hd, m), m.c)
    assert res.kPrime <= 2 * m.c
