"""Tests for core graph values, fan covers, and generators."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fancross.graphs import (
    ColorLabel,
    ColoredGraph,
    Fan,
    Graph,
    add_universal_vertex,
    bfs_dists,
    complete,
    cycle,
    fan_cover,
    grid2d,
    induced,
    path,
    radius_center,
)
from fancross.jsonio import colored_from_json, colored_to_json, graph_from_json, graph_to_json

from oracles import oracle_radius_center, oracle_vertex_cover


# ===== Construction =====


def test_make_normalizes_and_ids():
    g = Graph.make([3, 1, 2], [(3, 1), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))
    assert g.edge_id(3, 1) == 0
    assert g.has_edge(3, 2) and not g.has_edge(1, 2)
    assert g.neighbors(3) == (1, 2)
    assert g.degree(3) == 2


def test_make_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.make([1], [(1, 1)])
    with pytest.raises(ValueError):
        Graph.make([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph.make([1, 2], [(1, 3)])


@given(st.data())
def test_adjacency_is_sorted_from_shuffled_flipped_edges(data):
    vertices = data.draw(st.sets(st.integers(-5, 30), min_size=1, max_size=12))
    pairs = list(itertools.combinations(sorted(vertices), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = data.draw(st.permutations(edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    g = Graph.make(
        data.draw(st.permutations(sorted(vertices))),
        [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)],
    )
    for v in vertices:
        neighbours = {u for e in edges if v in e for u in e if u != v}
        assert g.adj[v] == tuple(sorted(neighbours))


def test_induced():
    g = complete(4)
    h = induced(g, [0, 2, 3])
    assert h.vertices == (0, 2, 3)
    assert h.m == 3


# ===== Traversal and radius =====


def test_bfs_and_components():
    g = Graph.make(range(6), [(0, 1), (1, 2), (4, 5)])
    assert bfs_dists(g, 0) == {0: 0, 1: 1, 2: 2}
    assert bfs_dists(g, 3) == {3: 0}
    assert bfs_dists(g, 5) == {5: 0, 4: 1}
    assert bfs_dists(path(4), 3) == {3: 0, 2: 1, 1: 2, 0: 3}


def test_radius_center_five_cycle():
    # Every vertex of a 5-cycle has eccentricity 2; ties break to smallest id.
    assert radius_center(cycle(5)) == (0, 2)


def test_radius_center_subset_and_errors():
    g = path(5)
    assert radius_center(g, [1, 2, 3]) == (2, 1)
    with pytest.raises(ValueError, match="not connected"):
        radius_center(g, [0, 4])
    with pytest.raises(ValueError, match="not connected"):
        radius_center(g, [])


def test_radius_center_matches_oracle_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 8)
        verts = list(range(n))
        all_pairs = list(itertools.combinations(verts, 2))
        edges = [e for e in all_pairs if rng.random() < 0.5]
        g = Graph.make(verts, edges)
        subset = [v for v in verts if rng.random() < 0.7] or [0]
        try:
            expect = oracle_radius_center(g, subset)
        except ValueError:
            with pytest.raises(ValueError, match="not connected"):
                radius_center(g, subset)
            continue
        assert radius_center(g, subset) == expect


# ===== Fans and fan covers =====


def test_fan_requires_incident_edges():
    Fan(2, ((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="not a fan"):
        Fan(2, ((1, 3),))


def test_fan_cover_five_cycle():
    g = cycle(5)
    # No 2 vertices cover all 5 edges; 3 do.
    assert fan_cover(g, g.edges, 2) is None
    fans = fan_cover(g, g.edges, 3)
    assert fans is not None and len(fans) <= 3
    covered = sorted(e for f in fans for e in f.edges)
    assert covered == sorted(g.edges)
    for f in fans:
        for e in f.edges:
            assert f.center in e


def test_fan_cover_matching_needs_one_center_each():
    # A perfect matching of 4 edges needs 4 centers.
    g = Graph.make(range(8), [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert fan_cover(g, g.edges, 3) is None
    assert fan_cover(g, g.edges, 4) is not None


def test_fan_cover_star_single_fan():
    g = Graph.make(range(6), [(0, i) for i in range(1, 6)])
    fans = fan_cover(g, g.edges, 1)
    assert fans is not None and len(fans) == 1 and fans[0].center == 0
    assert len(fans[0].edges) == 5


def test_fan_cover_subset_of_edges_only():
    g = cycle(6)
    fans = fan_cover(g, [(0, 1), (1, 2)], 1)
    assert fans is not None and len(fans) == 1 and fans[0].center == 1


def test_fan_cover_rejects_unknown_target():
    with pytest.raises(ValueError):
        fan_cover(cycle(4), [(0, 2)], 2)


def test_fan_cover_matches_oracle_random():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        all_pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in all_pairs if rng.random() < 0.5]
        g = Graph.make(range(n), edges)
        if not edges:
            continue
        target = [e for e in edges if rng.random() < 0.8] or [edges[0]]
        for ell in range(0, 4):
            cand = sorted(set(v for e in target for v in e))
            expect = oracle_vertex_cover(target, cand, ell)
            got = fan_cover(g, target, ell)
            assert (got is not None) == (expect is not None)
            if got is not None:
                assert len(got) <= ell
                covered = sorted(e for f in got for e in f.edges)
                assert covered == sorted(set(target))


# ===== Colored graphs =====


def test_color_label_round_trip():
    for text in ["c1", "cP3", "b0", "bP2"]:
        assert str(ColorLabel.parse(text)) == text
    with pytest.raises(ValueError):
        ColorLabel.parse("q1")
    with pytest.raises(ValueError):
        ColorLabel("c", 0)
    with pytest.raises(ValueError):
        ColorLabel("b", -1)


valid_labels = st.one_of(
    st.tuples(st.sampled_from(("c", "cP")), st.integers(1, 10**6)),
    st.tuples(st.sampled_from(("b", "bP")), st.integers(0, 10**6)),
)


@given(st.lists(valid_labels, max_size=12))
def test_color_labels_are_their_tuples(pairs):
    labels = [ColorLabel(kind, index) for kind, index in pairs]
    for label, pair in zip(labels, pairs):
        assert ColorLabel.parse(str(label)) == label
        assert label == pair and (label.kind, label.index) == pair
        assert hash(label) == hash((label.kind, label.index))
        assert repr(label) == f"ColorLabel(kind={pair[0]!r}, index={pair[1]!r})"
    assert sorted(labels) == sorted(labels, key=lambda label: (label.kind, label.index))
    assert [tuple(label) for label in sorted(labels)] == sorted(pairs)


@pytest.mark.parametrize(
    "kind, index, message",
    [
        ("q", 1, "unknown color kind 'q'"),
        ("", 0, "unknown color kind ''"),
        ("C", 1, "unknown color kind 'C'"),
        ("c", 0, "color index 0 out of range for c"),
        ("cP", -3, "color index -3 out of range for cP"),
        ("b", -1, "color index -1 out of range for b"),
        ("bP", -1, "color index -1 out of range for bP"),
    ],
)
def test_bad_color_labels_keep_their_messages(kind, index, message):
    with pytest.raises(ValueError) as info:
        ColorLabel(kind, index)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        ColorLabel(kind=kind, index=index)
    assert str(info.value) == message


def test_color_labels_hash_and_compare_as_tuples():
    """Labels fill every set and dict of the decode path; a Python-level
    ``__hash__`` or ``__eq__`` on them would be called there each time."""
    assert ColorLabel.__hash__ is tuple.__hash__
    assert ColorLabel.__eq__ is tuple.__eq__


def test_colored_graph_basics():
    g = path(3)
    c = ColoredGraph(g, {0: frozenset({ColorLabel("c", 1)}), 1: frozenset()})
    assert c.has(0, ColorLabel("c", 1))
    assert not c.has(2, ColorLabel("c", 1))
    assert 1 not in c.colors  # empty sets dropped
    with pytest.raises(ValueError):
        ColoredGraph(g, {9: frozenset({ColorLabel("b", 0)})})


# ===== Composition and generators =====


def test_add_universal_vertex():
    g, u = add_universal_vertex(cycle(4))
    assert u == 4
    assert g.degree(u) == 4
    assert all(g.degree(v) == 3 for v in range(4))
    g2, u2 = add_universal_vertex(Graph.make([], []))
    assert u2 == 0 and g2.n == 1 and g2.m == 0


def test_generators_shapes():
    g = grid2d(2, 3)
    assert g.n == 6 and g.m == 7
    assert cycle(3).edges == complete(3).edges
    assert complete(5).m == 10
    assert path(1).n == 1 and path(1).m == 0


def test_generators_reject_bad_dimensions():
    for bad in [lambda: grid2d(0, 3), lambda: cycle(2), lambda: complete(0), lambda: path(0)]:
        with pytest.raises(ValueError):
            bad()


# ===== JSON =====


def test_graph_json_round_trip():
    g = grid2d(2, 2)
    doc = graph_to_json(g)
    assert doc == {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}
    assert graph_from_json(doc) == g
    with pytest.raises(ValueError):
        graph_from_json({"vertices": [0]})


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [0, 1.9], "edges": [[0, 1.2]]},
        {"vertices": [0, 1], "edges": [[0, 1.0]]},
        {"vertices": [0, True], "edges": []},
        {"vertices": ["0", 1], "edges": []},
        {"vertices": [0, 1, 2], "edges": [[0, 1, 2]]},
    ],
)
def test_graph_json_refuses_non_integers(doc):
    with pytest.raises(ValueError, match="bad graph document"):
        graph_from_json(doc)


def test_colored_json_round_trip():
    g = path(2)
    c = ColoredGraph(g, {1: frozenset({ColorLabel.parse("b0"), ColorLabel.parse("bP2")})})
    doc = colored_to_json(c)
    assert doc["colors"] == {"1": ["b0", "bP2"]}
    back = colored_from_json(doc)
    assert back.graph == g and back.labels(1) == c.labels(1)
