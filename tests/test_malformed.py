"""Malformed input: every public entry point that reads a drawing either
answers or raises ``ValueError`` (the typed errors subclass it), and every
public int parameter refuses a value that is not an int."""

from __future__ import annotations

import dataclasses
import inspect
import random
import re
from collections import Counter
from typing import NamedTuple, get_type_hints

import pytest

import fancross
from fancross import (
    CapExceeded,
    Certificate,
    Drawing,
    MinorModel,
    SubdivisionPlan,
    TransductionFormula,
    TransductionOutput,
    add_universal_vertex,
    crossing_graph,
    eval_formula,
    find_model_bruteforce,
    is_k_planar,
    min_ell,
    pipeline_theorem2,
    planarize,
    radius_center,
    render_formula,
    roundtrip,
    search_certificate,
    strip_universal,
    subdivide_with_map,
    transduce_clustered,
    transduce_kplanar,
    validate,
    verify_certificate,
    verify_model,
)
from fancross.fixtures import fig1a, fig1a_certificate, fig1b, fig3, random_kplanar
from fancross.geometry import drawing_from_polylines, drawing_from_segments, pt
from fancross.graphs import ColorLabel, ColoredGraph, Fan, Graph, complete, cycle, grid2d, path
from fancross.jsonio import colored_from_json, colored_to_json
from fancross.synth import RegionTag, synthesize
from test_drawing import lens


class Case(NamedTuple):
    """What the calls take besides the mutated drawing: a plan with one cut,
    a certificate, and the cuts of a plan with one edge whose id, gap or gap
    tuple is not an int or a sequence of ints, all made on the drawing
    before it was mutated."""

    plan: SubdivisionPlan
    cert: Certificate
    spoiled: dict


# Every public function that takes a drawing, with the calls made on each
# mutated drawing.
READERS = {
    "validate": [lambda d, case: validate(d)],
    "is_k_planar": [lambda d, case: is_k_planar(d, 2)],
    "crossing_graph": [
        lambda d, case: crossing_graph(d),
        lambda d, case: crossing_graph(d, case.plan),
    ],
    "planarize": [lambda d, case: planarize(d)],
    "subdivide_with_map": [lambda d, case: subdivide_with_map(d, case.plan)],
    "search_certificate": [
        lambda d, case: search_certificate(d, 2, 2),
        lambda d, case: search_certificate(d, 2, 2, strong=True),
    ],
    "min_ell": [lambda d, case: min_ell(d, 2)],
    "verify_certificate": [lambda d, case: verify_certificate(d, case.cert, strong=True)],
    "transduce_kplanar": [lambda d, case: transduce_kplanar(d, {}, 2)],
    "transduce_clustered": [lambda d, case: transduce_clustered(d, case.cert, {}, 2)],
}

# The readers that take a subdivision plan, each called with a plan made
# from the spoiled cuts, which the plan or every one of them refuses.
PLAN_READERS = {
    "crossing_graph": lambda d, case: crossing_graph(d, SubdivisionPlan(case.spoiled)),
    "subdivide_with_map": lambda d, case: subdivide_with_map(d, SubdivisionPlan(case.spoiled)),
}

# Public functions that take a drawing but are not fuzzed here.
EXEMPT = {
    "synthesize": "it refuses a host that validate refuses before reading it",
    "pipeline_theorem2": "it hands its drawing to synthesize after checking the model",
    "roundtrip": "it hands its drawing to the two transducers, which are fuzzed",
}


def source(rng: random.Random) -> Drawing:
    """A seeded k-planar drawing or one of the paper's figures."""
    pick = rng.randrange(4)
    if pick == 0:
        return random_kplanar(rng.randint(5, 9), rng.randint(1, 3), rng.randrange(10**4))
    return (fig1a, lambda: fig1b(4), fig3)[pick - 1]()


def spoiled(d: Drawing, rng: random.Random) -> dict:
    """The cuts of a plan with one edge on ``d`` whose edge id or gap is
    not an int (the same value as a float, a str or a bool, or half a step
    above it), whose gaps mix an int with its str, or whose gap tuple is a
    bare int."""
    eid = rng.randrange(d.base.m)
    gap = rng.randint(0, len(d.edge_crossings[eid]))
    spoil = rng.choice([float, str, bool, lambda i: i + 0.5])
    how = rng.randrange(4)
    if how == 0:
        return {spoil(eid): (gap,)}
    if how == 1:
        return {eid: (spoil(gap),)}
    if how == 2:
        return {eid: (gap, str(gap))}
    return {eid: gap}


def mutated(d: Drawing, rng: random.Random) -> Drawing:
    """``d`` after one or two random mutations: a kind relabelled, a
    rotation shuffled or truncated, a rotation entry renamed to its edge id
    minus the plan's edge count (which indexes a list at the same edge), a
    trace entry dropped, inserted or swapped, two traces swapped, or the
    key of a kind, a rotation or a trace deleted."""
    kind, rotation, trace = dict(d.kind), dict(d.rotation), dict(d.trace)
    for _ in range(rng.randint(1, 2)):
        how = rng.choice(
            ["kind", "shuffle", "truncate", "alias", "drop", "append", "swap", "delete"]
        )
        if how == "delete":
            table = rng.choice([kind, rotation, trace])
            if table:
                del table[rng.choice(sorted(table))]
        elif how == "kind":
            p = rng.choice(sorted(kind))
            new = max(d.base.vertices) + 1
            kind[p] = rng.choice(
                ["crossing", "subdivision", f"real:{rng.choice(d.base.vertices)}", f"real:{new}"]
            )
        elif how in ("shuffle", "truncate", "alias"):
            p = rng.choice([v for v in sorted(rotation) if rotation[v]])
            r = list(rotation[p])
            if how == "shuffle":
                rng.shuffle(r)
            elif how == "truncate":
                del r[rng.randrange(len(r)) :]
            else:
                r[rng.randrange(len(r))] -= d.plan.m
            rotation[p] = tuple(r)
        elif trace:
            eid = rng.choice(sorted(trace))
            t = list(trace[eid])
            if how == "drop" and t:
                del t[rng.randrange(len(t))]
            elif how == "append":
                t.insert(rng.randint(0, len(t)), rng.randrange(d.plan.m))
            elif how == "swap" and len(t) > 1:
                i, j = rng.sample(range(len(t)), 2)
                t[i], t[j] = t[j], t[i]
            else:
                other = rng.choice(sorted(trace))
                t, trace[other] = list(trace[other]), tuple(t)
            trace[eid] = tuple(t)
    return Drawing(d.base, d.plan, rotation, kind, trace, d.outer, d.outers)


def test_mutated_drawings_raise_only_value_errors():
    refused: Counter = Counter()
    broken = 0
    for seed in range(2200):
        rng = random.Random(seed)
        d = source(rng)
        try:
            cert = search_certificate(d, 2, 2) or Certificate(2, 2)
        except CapExceeded:
            cert = Certificate(2, 2)
        eid = rng.randrange(d.base.m)
        plan = SubdivisionPlan({eid: (rng.randint(0, len(d.edge_crossings[eid])),)})
        case = Case(plan, cert, spoiled(d, random.Random(f"spoiled-{seed}")))
        md = mutated(d, rng)
        broken += validate(md) != []
        for name, calls in READERS.items():
            for call in calls:
                try:
                    call(md, case)
                except ValueError:
                    refused[name] += 1
                except Exception as exc:
                    pytest.fail(f"seed {seed}: {name} raised {exc!r}")
        for name, call in PLAN_READERS.items():
            with pytest.raises(ValueError):
                call(md, case)
    # Most mutations break the drawing, and every reader that needs a valid
    # one refuses some of them; validate never raises, and planarize refuses
    # only a kind map that misses a plan vertex.
    assert broken >= 1800
    assert min(refused[name] for name in READERS if name not in ("validate", "planarize")) >= 1300


@pytest.mark.parametrize(
    "cuts", [{0.5: (0,)}, {"0": (0,)}, {1: (0.5,)}, {2.0: (1,)}, {True: (0,)}, {1: (False,)}]
)
def test_plan_entries_that_are_not_ints_are_refused(cuts):
    """On ``fig3()``, whose edges 1 and 2 are crossed twice: a half or a str
    for an edge id once raised ``KeyError`` or ``TypeError``, a half gap a
    ``TypeError``, and ``2.0`` was taken as edge 2."""
    d = fig3()
    for call in (crossing_graph, subdivide_with_map):
        with pytest.raises(ValueError, match=r"in subdivision plan is not an int$"):
            call(d, SubdivisionPlan(cuts))


@pytest.mark.parametrize("cuts", [{0: (0, "1")}, {0: 1}])
def test_gaps_that_do_not_sort_as_ints_are_refused_with_their_edge(cuts):
    """A gap tuple that mixes an int and a str, or a bare int for one, once
    raised ``TypeError`` from the plan's sort or ``len``."""
    with pytest.raises(ValueError, match=r"^gaps .* on edge 0 in subdivision plan are not a sequence of ints$"):
        SubdivisionPlan(cuts)


def test_every_public_drawing_reader_is_fuzzed():
    readers = set()
    for name in fancross.__all__:
        fn = getattr(fancross, name)
        if inspect.isfunction(fn):
            hints = get_type_hints(fn)
            if any(hints.get(p) is Drawing for p in inspect.signature(fn).parameters):
                readers.add(name)
    assert set(EXEMPT) <= readers
    assert readers - set(EXEMPT) == set(READERS)


def test_an_end_without_a_real_copy_names_its_edge():
    d = fig3()
    kind = dict(d.kind)
    kind[4] = "subdivision"
    md = Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)
    cert = search_certificate(d, 2, 2)
    calls = [
        lambda: is_k_planar(md, 2),
        lambda: crossing_graph(md),
        lambda: search_certificate(md, 2, 2),
        lambda: min_ell(md, 2),
        lambda: verify_certificate(md, cert),
        lambda: subdivide_with_map(md, cert.plan),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^edge 3 has an end with no real plan vertex$"):
            call()


def test_a_crossing_passed_by_one_edge_is_refused_by_every_reader():
    d = lens()
    kind = dict(d.kind)
    kind[6] = "crossing"  # the bend on edge 1
    md = Drawing(d.base, d.plan, d.rotation, kind, d.trace, d.outer)
    calls = [
        lambda: crossing_graph(md),
        lambda: search_certificate(md, 2, 2),
        lambda: min_ell(md, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^crossing 6 is not shared by exactly two arcs$"):
            call()


def test_a_crossing_without_four_plan_edges_is_refused():
    d = random_kplanar(8, 2, 1429)
    rotation = dict(d.rotation)
    rotation[10] = (5, 20, 22)
    md = Drawing(d.base, d.plan, rotation, d.kind, d.trace, d.outer, d.outers)
    with pytest.raises(ValueError, match=r"^crossing 10 does not have four plan edges$"):
        search_certificate(md, 2, 2, strong=True)


@pytest.mark.parametrize(
    "table, key, message",
    [("trace", 0, r"^edge 0 has no trace$"), ("kind", 5, r"^plan vertex 5 has no kind$")],
)
def test_a_missing_key_is_refused_with_its_name(table, key, message):
    """``fig3()`` with a base edge's trace or a crossing's kind deleted."""
    d = fig3()
    maps = {"trace": dict(d.trace), "kind": dict(d.kind)}
    del maps[table][key]
    md = Drawing(d.base, d.plan, d.rotation, maps["kind"], maps["trace"], d.outer)
    assert validate(md) == [f"{table} domain: keys differ from " + (
        "base edge ids" if table == "trace" else "plan vertices"
    )]
    cert = search_certificate(d, 2, 2)
    calls = [
        lambda: is_k_planar(md, 2),
        lambda: search_certificate(md, 2, 2),
        lambda: search_certificate(md, 2, 2, strong=True),
        lambda: min_ell(md, 2),
        lambda: crossing_graph(md),
    ]
    if table == "kind":
        calls.append(lambda: planarize(md))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    for call in (
        lambda: transduce_kplanar(md, {}, 2),
        lambda: transduce_clustered(md, cert, {}, 2),
    ):
        with pytest.raises(ValueError, match=r"^invalid drawing: "):
            call()


def test_rotations_that_name_no_edge_are_refused():
    """Crossing 10 of ``random_kplanar(8, 2, 1429)`` with its rotation
    deleted, or with an entry renamed to its edge id minus the plan's edge
    count, which would index a list at the same edge, or to the same id as
    a float, which equals it in a set."""
    d = random_kplanar(8, 2, 1429)
    deleted = dict(d.rotation)
    del deleted[10]
    first, *rest = d.rotation[10]
    plan = SubdivisionPlan({0: (0,)})
    for rotation, verdict in (
        (deleted, "rotation domain: keys differ from plan vertices"),
        ({**d.rotation, 10: (first - d.plan.m, *rest)}, "rotation: vertex 10 does not list incident edges once"),
        ({**d.rotation, 10: (float(first), *rest)}, "rotation: vertex 10 does not list incident edges once"),
    ):
        md = Drawing(d.base, d.plan, rotation, d.kind, d.trace, d.outer, d.outers)
        assert validate(md) == [verdict]
        with pytest.raises(ValueError, match=r"^rotations do not list every plan edge once at both ends$"):
            subdivide_with_map(md, plan)
        with pytest.raises(ValueError):
            search_certificate(md, 2, 2, strong=True)


# ===== Int ids and sizes =====


def with_apex() -> Graph:
    """The graph of ``fig3()`` plus vertex 5 joined to vertex 0."""
    return Graph.make(range(6), [*fig3().base.edges, (0, 5)])


def fig1a_assigned(change) -> Certificate:
    """``fig1a_certificate()`` with every assignment ``(key, center)`` made
    ``change(key, center)``."""
    cert = fig1a_certificate()
    assignment = dict(change(key, c) for key, c in cert.assignment.items())
    return dataclasses.replace(cert, assignment=assignment)


def first_fan_at(center) -> Fan:
    """The first fan of ``fig1a_certificate()``, centered at 0, with its
    center made ``center``."""
    return Fan(center, fig1a_certificate().covers[0][0].edges)


def grid_model(branch0) -> MinorModel:
    """The 4-cycle in the 2 x 2 grid, with vertex 0's branch set ``branch0``."""
    return MinorModel(grid2d(2, 2), cycle(4), {0: branch0, 1: (1,), 2: (3,), 3: (2,)}, 1, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph.make([0.5, 1.7, "3"], [(0.5, 1.7)]), r"^vertex 0\.5 is not an int$"),
        (lambda: Graph.make([True, 2], []), r"^vertex True is not an int$"),
        (lambda: Graph.make([1, 2], [(1.0, 2)]), r"^vertex 1\.0 is not an int$"),
        (lambda: transduce_kplanar(fig3(), {5.9: [0, 1]}, 2), r"^X vertex 5\.9 is not an int$"),
        (lambda: transduce_kplanar(fig3(), {5: [0, 1.0]}, 2), r"^unknown neighbor 1\.0 of 5$"),
        (lambda: roundtrip(with_apex(), fig3(), [5.2], 2, "kplanar"), r"^X vertex 5\.2 is not an int$"),
        (lambda: roundtrip(with_apex(), fig3(), [5, "6"], 2, "kplanar"), r"^X vertex '6' is not an int$"),
        (lambda: RegionTag("vertexRegion", (1.5,)), r"^host vertex 1\.5 is not an int$"),
        (lambda: ColorLabel("c", 1.5), r"^color index 1\.5 is not an int$"),
        (lambda: ColorLabel("b", False), r"^color index False is not an int$"),
        (lambda: grid2d(2.0, 3), r"^dimension 2\.0 is not an int$"),
        (lambda: complete(None), r"^dimension None is not an int$"),
        (lambda: cycle(4.0), r"^n 4\.0 is not an int$"),
        (lambda: random_kplanar(5.0, 2, 1), r"^n 5\.0 is not an int$"),
        (lambda: random_kplanar(6, 2.0, 1), r"^k 2\.0 is not an int$"),
        (lambda: random_kplanar(6, 2, 1.5), r"^seed 1\.5 is not an int$"),
        (lambda: fig1b(2.0), r"^m 2\.0 is not an int$"),
        (lambda: first_fan_at(0.0), r"^fan center 0\.0 is not an int$"),
        (lambda: Fan(0, ((0.0, 4),)), r"^fan edge end 0\.0 is not an int$"),
        (
            lambda: verify_certificate(fig1a(), fig1a_assigned(lambda key, c: (key, c or 0.0))),
            r"^assignment center 0\.0 is not an int$",
        ),
        (
            lambda: verify_certificate(fig1a(), fig1a_assigned(lambda key, c: ((float(key[0]), key[1]), c))),
            r"^assignment edge \d+\.0 is not an int$",
        ),
        (
            lambda: verify_certificate(fig1a(), fig1a_assigned(lambda key, c: ((key[0], float(key[1])), c))),
            r"^assignment piece \d\.0 is not an int$",
        ),
        (lambda: verify_model(grid_model((0.0,))), r"^branch entry 0\.0 is not an int$"),
        (
            lambda: fig1a_verified(covers={float(c): f for c, f in fig1a_certificate().covers.items()}),
            r"^cover component 0\.0 is not an int$",
        ),
    ],
)
def test_ids_and_sizes_that_are_not_ints_are_refused(call, message):
    """Each was truncated, coerced or taken as the equal int, or raised
    ``TypeError``: ``Graph.make`` gave vertices ``(0, 1, 3)`` for the first
    and vertex 1 for ``True``, the transducer gave ``X = (5,)``, the round
    trip returned True, the region ref became ``(1,)``, the label printed
    ``c1.5``, which ``ColorLabel.parse`` refuses, ``random_kplanar`` took a
    ``k`` of ``2.0``, and the other sizes raised ``TypeError``.  A fan
    centered at ``0.0``, an assignment to ``0.0`` and a branch set
    ``(0.0,)`` passed their checks, which test membership, so fig1a's
    certificate verified strongly and ``verify_model`` returned ``[]``,
    though the JSON readers refuse what the writers make of them.  So
    did covers keyed ``0.0``, ``1.0`` and ``2.0``."""
    with pytest.raises(ValueError, match=message):
        call()


def test_float_ids_fail_the_checks_they_passed():
    """The unchanged certificate and model still pass, so the refusals
    above are the float ids' doing."""
    assert verify_certificate(fig1a(), fig1a_certificate(), strong=True).verdict
    assert first_fan_at(0) == fig1a_certificate().covers[0][0]
    assert verify_model(grid_model((0,))) == []


def fig1a_verified(**fields):
    """The strong verdict on fig1a with its certificate's ``fields`` replaced."""
    cert = dataclasses.replace(fig1a_certificate(), **fields)
    return verify_certificate(fig1a(), cert, strong=True)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph.make([0, 1, 2], [(0, 1, 2)]), r"^edge \(0, 1, 2\) is not a pair$"),
        (lambda: Graph.make([0, 1], [5]), r"^edge 5 is not a pair$"),
        (lambda: Graph.make([0, 1], [(0,)]), r"^edge \(0,\) is not a pair$"),
        (lambda: transduce_kplanar(fig3(), {5: 3}, 2), r"^neighbors 3 of 5 are not a list$"),
        (lambda: transduce_kplanar(fig3(), {5: None}, 2), r"^neighbors None of 5 are not a list$"),
        (
            lambda: transduce_clustered(fig1a(), fig1a_certificate(), {20: 0}, 2),
            r"^neighbors 0 of 20 are not a list$",
        ),
        (lambda: Fan(0, (5,)), r"^fan edge 5 is not a pair$"),
        (lambda: Fan(0, ((0, 1, 2),)), r"^fan edge \(0, 1, 2\) is not a pair$"),
        (lambda: Fan(0, 5), r"^fan edges 5 are not a list$"),
        (lambda: fig1a_verified(assignment={5: 0}), r"^assignment key 5 is not a pair$"),
        (
            lambda: fig1a_verified(assignment={(0, 0, 0): 1}),
            r"^assignment key \(0, 0, 0\) is not a pair$",
        ),
        (lambda: fig1a_verified(covers={0: 5}), r"^cover 0 is not a list of fans$"),
        (lambda: fig1a_verified(covers={0: (5,)}), r"^cover 0 is not a list of fans$"),
        (lambda: fig1a_verified(covers=[()]), r"^certificate covers \[\(\)\] is not a map$"),
        (lambda: fig1a_verified(assignment=[1]), r"^certificate assignment \[1\] is not a map$"),
        (
            lambda: fig1a_verified(plan=None),
            r"^certificate plan None is not a SubdivisionPlan$",
        ),
        (
            lambda: fig1a_verified(plan={0: (1,)}),
            r"^certificate plan \{0: \(1,\)\} is not a SubdivisionPlan$",
        ),
        (
            lambda: drawing_from_polylines(Graph.make([0, 1], [(0, 1)]), {0: (None, 0), 1: (1, 0)}),
            r"^position of vertex 0 \(None, 0\) has a coordinate None that is not a number$",
        ),
        (
            lambda: drawing_from_polylines(
                Graph.make([0, 1], [(0, 1)]), {0: (0, 0), 1: (2, 0)}, {0: [(1, "x")]}
            ),
            r"^bend of edge 0 \(1, 'x'\) has a coordinate 'x' that is not a number$",
        ),
        (
            lambda: drawing_from_polylines(
                Graph.make([0, 1], [(0, 1)]), {0: ("0", "1/2"), 1: (1, 0)}
            ),
            r"^position of vertex 0 \('0', '1/2'\) has a coordinate '0' that is not a number$",
        ),
        (
            lambda: drawing_from_polylines(Graph.make([0, 1], [(0, 1)]), {0: (0, 0), 1: (True, 0)}),
            r"^position of vertex 1 \(True, 0\) has a coordinate True that is not a number$",
        ),
        (
            lambda: drawing_from_polylines(
                Graph.make([0, 1], [(0, 1)]), {0: (0, 0), 1: (2, 0)}, {0: [(1, False)]}
            ),
            r"^bend of edge 0 \(1, False\) has a coordinate False that is not a number$",
        ),
        (
            lambda: drawing_from_polylines(
                Graph.make([0, 1], [(0, 1)]), {0: (0, 0), 1: (2, 0)}, {0: [("1", 1)]}
            ),
            r"^bend of edge 0 \('1', 1\) has a coordinate '1' that is not a number$",
        ),
        (lambda: transduce_kplanar(fig3(), None, 2), r"^x_edges None is not a map$"),
        (
            lambda: transduce_kplanar(fig3(), [(5, [0])], 2),
            r"^x_edges \[\(5, \[0\]\)\] is not a map$",
        ),
        (
            lambda: transduce_clustered(fig1a(), fig1a_certificate(), None, 2),
            r"^x_edges None is not a map$",
        ),
        (
            lambda: drawing_from_polylines(
                Graph.make([0, 1], [(0, 1)]), {0: (0, 0), 1: (2, 0)}, [[pt(1, 1)]]
            ),
            r"^bends \[\[\(Fraction\(1, 1\), Fraction\(1, 1\)\)\]\] are not a map from edge ids$",
        ),
    ],
)
def test_containers_that_are_not_pairs_or_lists_are_refused(call, message):
    """``Graph.make`` read an edge as ``e[0], e[1]``, so it silently took
    ``(0, 1, 2)`` as ``(0, 1)`` and raised ``TypeError`` on ``5``; the
    transducers iterated each X vertex's neighbours unchecked and raised
    ``TypeError`` on an int or ``None``.  ``Fan`` and the certificate check
    unpacked each edge, assignment key and cover unchecked, and raised
    ``TypeError``, ``AttributeError`` or a ``ValueError`` that named no
    entry; a certificate whose covers or assignment were lists, or whose
    plan was not a ``SubdivisionPlan``, raised ``AttributeError``.
    ``drawing_from_polylines`` raised ``TypeError`` from ``Fraction`` on a
    coordinate that is not a number and ``AttributeError`` on bends given
    as a list, and took a ``str`` or a ``bool`` coordinate, which
    ``Fraction`` reads, as a number.  The transducers raised ``TypeError``
    on deleted-vertex edges that are not a map."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: crossing_graph(fig3(), 2.0), r"^subdivision plan 2\.0 is not a SubdivisionPlan$"),
        (
            lambda: crossing_graph(fig3(), {0: (1,)}),
            r"^subdivision plan \{0: \(1,\)\} is not a SubdivisionPlan$",
        ),
        (
            lambda: subdivide_with_map(fig3(), {0: (1,)}),
            r"^subdivision plan \{0: \(1,\)\} is not a SubdivisionPlan$",
        ),
        (lambda: SubdivisionPlan(None), r"^subdivision plan cuts None are not a map$"),
        (lambda: SubdivisionPlan([1, 2]), r"^subdivision plan cuts \[1, 2\] are not a map$"),
    ],
)
def test_plans_that_are_not_subdivision_plans_are_refused(call, message):
    """``crossing_graph`` and ``subdivide_with_map`` read ``plan.cuts``
    unchecked, and ``SubdivisionPlan`` called ``.items()`` on its cuts, so
    each raised ``AttributeError``."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: search_certificate(bad, 2, 2),
        lambda bad: search_certificate(bad, 2, 2, strong=True),
        lambda bad: min_ell(bad, 1),
        lambda bad: verify_certificate(bad, fig1a_certificate()),
        lambda bad: verify_certificate(bad, fig1a_certificate(), strong=True),
        lambda bad: crossing_graph(bad),
        lambda bad: crossing_graph(bad, SubdivisionPlan({0: (1,)})),
        lambda bad: transduce_kplanar(bad, {}, 2),
        lambda bad: transduce_clustered(bad, fig1a_certificate(), {}, 2),
        lambda bad: synthesize(bad, apex_model()["m"]),
        lambda bad: validate(bad),
        lambda bad: is_k_planar(bad, 1),
        lambda bad: planarize(bad),
        lambda bad: subdivide_with_map(bad, SubdivisionPlan({0: (1,)})),
        lambda bad: roundtrip(fig3().base, bad, [], 2, "kplanar"),
    ],
)
@pytest.mark.parametrize("bad", [None, "x", 5, fig3().base])
def test_a_drawing_that_is_not_a_drawing_is_refused(call, bad):
    """The cluster entry points, ``crossing_graph``, the transducers,
    ``synthesize``, ``validate``, ``is_k_planar``, ``planarize``,
    ``subdivide_with_map`` and ``roundtrip`` share one check of their
    drawing; each raised ``AttributeError`` before it."""
    with pytest.raises(ValueError, match=f"^drawing {re.escape(repr(bad))} is not a Drawing$"):
        call(bad)


def path_model(**fields) -> MinorModel:
    """The path on three vertices in the 2 x 2 grid, at c = d = 1, with
    ``fields`` replaced."""
    m = MinorModel(grid2d(2, 2), path(3), {0: (0,), 1: (1,), 2: (3,)}, 1, 1)
    return dataclasses.replace(m, **fields)


def apex_path_model(**fields) -> MinorModel:
    """:func:`path_model` in the grid plus its universal apex."""
    return path_model(**{"host": apex_model()["host_plus"], **fields})


MODEL_SHAPES = [
    ({"host": None}, r"^host None is not a Graph$"),
    ({"pattern": None}, r"^pattern None is not a Graph$"),
    ({"pattern": [0, 1, 2]}, r"^pattern \[0, 1, 2\] is not a Graph$"),
    ({"branch": None}, r"^branch None is not a map$"),
    ({"branch": [(0,), (1,), (3,)]}, r"^branch \[\(0,\), \(1,\), \(3,\)\] is not a map$"),
    ({"branch": {0: 5, 1: (1,), 2: (3,)}}, r"^branch set 5 of vertex 0 is not a collection$"),
]


@pytest.mark.parametrize("fields, message", MODEL_SHAPES)
def test_models_of_the_wrong_shape_are_refused(fields, message):
    """``verify_model`` read the model's host, pattern and branch sets
    unchecked, so a ``None`` or a branch set ``5`` raised ``AttributeError``
    or ``TypeError``, a list of branch sets was refused as missing the
    branch of vertex 0, and so did ``synthesize`` and
    ``pipeline_theorem2``, which check their model with it.  Now the model
    refuses each when it is built, so no caller is reached."""
    with pytest.raises(ValueError, match=message):
        verify_model(path_model(**fields))
    with pytest.raises(ValueError, match=message):
        synthesize(apex_model()["drawing"], path_model(**fields))
    args = apex_model()
    with pytest.raises(ValueError, match=message):
        pipeline_theorem2(**{**args, "m": apex_path_model(**fields)})


def kplanar_output() -> TransductionOutput:
    return transduce_kplanar(fig3(), {}, 2)


def recolored(colors) -> TransductionOutput:
    """The k-planar output of fig3 with other colors."""
    out = kplanar_output()
    return dataclasses.replace(out, colored=ColoredGraph(out.colored.graph, colors))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_model(None), r"^model None is not a MinorModel$"),
        (lambda: synthesize(apex_model()["drawing"], None), r"^model None is not a MinorModel$"),
        (
            lambda: pipeline_theorem2(**{**apex_model(), "m": None}),
            r"^model None is not a MinorModel$",
        ),
        (lambda: find_model_bruteforce(None, path(3), 1, 1), r"^host None is not a Graph$"),
        (lambda: find_model_bruteforce(grid2d(2, 2), None, 1, 1), r"^pattern None is not a Graph$"),
        (lambda: find_model_bruteforce(fig3(), path(3), 1, 1), r"^host Drawing\(.*\) is not a Graph$"),
        (lambda: Graph.make(None, []), r"^vertices None are not iterable$"),
        (lambda: Graph.make([0, 1], None), r"^edges None are not iterable$"),
        (lambda: Graph.make(5, [(0, 1)]), r"^vertices 5 are not iterable$"),
        (lambda: verify_certificate(fig1a(), None), r"^certificate None is not a Certificate$"),
        (
            lambda: verify_certificate(fig1a(), fig1a_certificate().covers, strong=True),
            r"^certificate mappingproxy\(.*\) is not a Certificate$",
        ),
        (lambda: roundtrip(None, fig3(), [], 2, "kplanar"), r"^graph None is not a Graph$"),
        (lambda: roundtrip(fig3().base, fig3(), None, 2, "kplanar"), r"^X vertices None are not iterable$"),
        (lambda: eval_formula(None), r"^output None is not a TransductionOutput$"),
        (lambda: render_formula(None), r"^formula None is not a TransductionFormula$"),
        (lambda: radius_center(None), r"^graph None is not a Graph$"),
        (lambda: radius_center(cycle(4), [None]), r"^subset \[None\] is not a set of vertices of the graph$"),
        (lambda: radius_center(cycle(4), 5), r"^subset 5 is not a set of vertices of the graph$"),
        (lambda: strip_universal(None, 0), r"^model None is not a MinorModel$"),
        (lambda: add_universal_vertex(None), r"^graph None is not a Graph$"),
        (lambda: ColorLabel.parse(None), r"^bad color label None$"),
        (lambda: ColoredGraph(None, {}), r"^graph None is not a Graph$"),
        (lambda: ColoredGraph(cycle(4), None), r"^colors None are not a map$"),
        (lambda: ColoredGraph(cycle(4), {0: 5}), r"^colors \{0: 5\} are not a map to label sets$"),
        (
            lambda: TransductionOutput(None, {}, kplanar_output().formula, ()),
            r"^colored None is not a ColoredGraph$",
        ),
        (
            lambda: dataclasses.replace(kplanar_output(), formula=None),
            r"^formula None is not a TransductionFormula$",
        ),
        (lambda: dataclasses.replace(kplanar_output(), embed=[]), r"^embed \[\] is not a map$"),
        (lambda: dataclasses.replace(kplanar_output(), x=None), r"^X vertices None are not iterable$"),
        (lambda: dataclasses.replace(fig3(), rotation=None), r"^drawing rotation None is not a map$"),
        (
            lambda: dataclasses.replace(fig3(), trace=[1]),
            r"^drawing trace \[1\] is not a map$",
        ),
        (lambda: dataclasses.replace(fig3(), outers=5), r"^outers 5 are not iterable$"),
        (lambda: validate(dataclasses.replace(fig3(), base=None)), r"^drawing base None is not a Graph$"),
        (lambda: dataclasses.replace(fig3(), plan=fig3()), r"^drawing plan Drawing\(.*\) is not a Graph$"),
        (lambda: validate(dataclasses.replace(fig3(), outer="x")), r"^outer face 'x' is not an int$"),
        (lambda: dataclasses.replace(fig3(), outer=True), r"^outer face True is not an int$"),
        (lambda: dataclasses.replace(fig3(), outers=[1.0]), r"^outer faces entry 1\.0 is not an int$"),
        (lambda: fig3().with_outer("y"), r"^outer face 'y' is not an int$"),
        (lambda: fig3().with_outer(0, [None]), r"^outer faces entry None is not an int$"),
        (lambda: fig3().with_outer(0, 7), r"^outers 7 are not iterable$"),
        (lambda: eval_formula(recolored({0: ["x"]})), r"^color 'x' of vertex 0 is not a ColorLabel$"),
        (
            lambda: eval_formula(recolored({3: [ColorLabel("b", 0), None]})),
            r"^color None of vertex 3 is not a ColorLabel$",
        ),
        (
            lambda: eval_formula(recolored({1: frozenset({("b", 0)})})),
            r"^color \('b', 0\) of vertex 1 is not a ColorLabel$",
        ),
        (lambda: RegionTag("vertexRegion", None), r"^host vertices None are not iterable$"),
        (
            lambda: pipeline_theorem2(**{**apex_model(), "host_plus": None}),
            r"^host_plus None is not a Graph$",
        ),
    ],
)
def test_graphs_models_and_certificates_that_are_not_are_refused(call, message):
    """Each raised ``AttributeError`` or ``TypeError``: ``verify_model``,
    ``synthesize``, ``pipeline_theorem2`` and ``verify_certificate`` read
    fields of what they were given, the model search read ``host.n`` and
    ``pattern.vertices``, and ``Graph.make`` iterated its arguments
    unchecked.  So did the round trip, the formula readers, the graph
    helpers and ``strip_universal``; a label was sliced, and the
    containers iterated or copied a field of the wrong class.  ``validate``
    read a drawing's base ``None`` as a graph and compared an outer face
    ``"x"`` with ints, also after ``with_outer("x")``, which took any value,
    and ``eval_formula`` read the ``kind`` of a label ``"x"``.  A plain
    tuple equals the label with its fields, and is refused too."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "labels, message",
    [
        (["b1", "x1"], r"^bad color label 'x1'$"),
        (["b1", "b-1"], r"^bad color label 'b-1'$"),
        (["c0"], r"^color index 0 out of range for c$"),
        (["b1", 5], r"^bad color label 5$"),
        ([["b1"]], r"^bad color label \['b1'\]$"),
        (5, r"^bad colors document: 'int' object is not iterable$"),
    ],
)
def test_colored_documents_keep_their_label_messages(labels, message):
    doc = colored_to_json(kplanar_output().colored)
    doc["colors"]["0"] = labels
    with pytest.raises(ValueError, match=message):
        colored_from_json(doc)


def test_a_colored_document_parses_each_label_text_once(monkeypatch):
    parse = ColorLabel.parse
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(ColorLabel, "parse", staticmethod(counted))
    out = transduce_kplanar(random_kplanar(10, 3, 2), {}, 3)
    doc = colored_to_json(out.colored)
    named = [t for labels in doc["colors"].values() for t in labels]
    assert colored_from_json(doc) == out.colored
    assert sorted(texts) == sorted(set(named)) and len(named) > 2 * len(texts)


# ===== Int parameters =====


def apex_model() -> dict:
    """Valid arguments of ``pipeline_theorem2``: the 2 x 2 grid drawn
    without crossings, the grid plus a universal apex, and a model of the
    wheel on five vertices whose hub is the apex, at k = 1."""
    g = grid2d(2, 2)
    drawing = drawing_from_segments(g, {i * 2 + j: pt(j, i) for i in range(2) for j in range(2)})
    host_plus, apex = add_universal_vertex(g)
    wheel = Graph.make(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    branch = {0: (0,), 1: (1,), 2: (3,), 3: (2,), 4: (apex,)}
    m = MinorModel(host_plus, wheel, branch, 1, 1)
    return {"host_plus": host_plus, "u": apex, "drawing": drawing, "m": m, "k": 1}


# Every public function with an int parameter, with valid arguments that
# name every int parameter.
INT_CALLS = {
    "find_model_bruteforce": lambda: {
        "host": grid2d(2, 3), "pattern": complete(3), "c": 2, "d": 2, "cap": 10
    },
    "is_k_planar": lambda: {"d": fig3(), "k": 2},
    "min_ell": lambda: {"d": fig3(), "k": 2, "cap": 12},
    "pipeline_theorem2": apex_model,
    "roundtrip": lambda: {"h": fig3().base, "d": fig3(), "x": [], "k": 2, "mode": "kplanar"},
    "search_certificate": lambda: {"d": fig3(), "k": 2, "ell": 2, "cap": 12},
    "strip_universal": lambda: {"m": apex_model()["m"], "u": 4},
    "transduce_clustered": lambda: {
        "d": fig1a(), "cert": fig1a_certificate(), "x_edges": {}, "k": 2
    },
    "transduce_kplanar": lambda: {"d": fig3(), "x_edges": {}, "k": 2},
}


def int_parameters(fn) -> list[str]:
    hints = get_type_hints(fn)
    return [p for p in inspect.signature(fn).parameters if hints.get(p) is int]


def test_every_public_int_parameter_is_in_the_table():
    takers = set()
    for name in fancross.__all__:
        fn = getattr(fancross, name)
        if inspect.isfunction(fn) and int_parameters(fn):
            takers.add(name)
    assert takers == set(INT_CALLS)


@pytest.mark.parametrize("name", sorted(INT_CALLS))
def test_int_parameters_refuse_what_is_not_an_int(name):
    """``2.0``, ``True`` or ``None`` in any public int parameter, with valid
    other arguments, raises ``ValueError``; the valid call answers."""
    fn, args = getattr(fancross, name), INT_CALLS[name]()
    fn(**args)
    params = int_parameters(fn)
    assert params and set(params) <= set(args)
    for param in params:
        for bad in (2.0, True, None):
            with pytest.raises(ValueError, match=f"^{param} {bad!r} is not an int$"):
                fn(**{**args, param: bad})


# ===== Every public callable =====

# The values the fuzz puts into each argument of a valid call in turn.
ODD_VALUES = [
    None, 2.0, True, "x", -1, 10**6, [], {}, (), [1], {0: 5}, [[1, 2]], (0, 1, 2),
    {"a": 1}, 0.5, [None], {None: None},
]


def public_callables() -> set[str]:
    return {name for name in fancross.__all__ if callable(getattr(fancross, name))}


def valid_calls(seed: int) -> dict[str, tuple]:
    """Valid positional arguments, one for each parameter, of every callable
    in ``fancross.__all__``.  The drawing readers read a seeded k-planar
    drawing ``d``, cut once on an edge it crosses."""
    d = random_kplanar(7, 2, seed)
    crossed = min(e for e, xs in d.edge_crossings.items() if xs)
    plan = SubdivisionPlan({crossed: (1,)})
    cd, cert = fig1a(), fig1a_certificate()
    out = transduce_kplanar(d, {}, 2)
    pipeline = apex_model()
    m = pipeline["m"]

    def fields(value) -> list:
        return [getattr(value, f.name) for f in dataclasses.fields(value)]

    return {
        "ArcRef": (0, 0, 1),
        "CapExceeded": ("search cap exceeded",),
        "Certificate": tuple(fields(cert)),
        "ClusterReport": (True, (), {}),
        "ColorLabel": ("c", 1),
        "ColoredGraph": tuple(fields(out.colored)),
        "CrossingGraph": tuple(fields(crossing_graph(d))),
        "Drawing": tuple(fields(d)),
        "Fan": (0, ((0, 1),)),
        "Graph": ((0, 1), ((0, 1),)),
        "Infeasible": ("certificate invalid",),
        "InvariantBroken": ("construction invariant broken",),
        "MinorModel": tuple(fields(m)),
        "RegionTag": ("vertexRegion", (1,)),
        "SubdivisionPlan": (plan.cuts,),
        "SynthResult": (d, cert, 2, {}, {}),
        "TransductionFormula": tuple(fields(out.formula)),
        "TransductionOutput": tuple(fields(out)),
        "add_universal_vertex": (cycle(4),),
        "crossing_graph": (d, plan),
        "eval_formula": (out,),
        "find_model_bruteforce": (grid2d(2, 3), complete(3), 2, 2, 10),
        "is_k_planar": (d, 2),
        "min_ell": (d, 2, 12),
        "pipeline_theorem2": (pipeline["host_plus"], pipeline["u"], pipeline["drawing"], m, 1),
        "planarize": (d,),
        "radius_center": (cycle(5), (0, 1, 2)),
        "render_formula": (TransductionFormula.for_mode(1, "kplanar"),),
        "roundtrip": (d.base, d, [], 2, "kplanar", None),
        "search_certificate": (d, 2, 2, True, 12),
        "strip_universal": (m, pipeline["u"]),
        "subdivide_with_map": (d, plan),
        "synthesize": (pipeline["drawing"], path_model()),
        "transduce_clustered": (cd, cert, {}, 2),
        "transduce_kplanar": (d, {}, 2),
        "validate": (d,),
        "verify_certificate": (cd, cert, True),
        "verify_model": (m,),
    }


def test_every_public_callable_is_in_the_fuzz_table():
    """The table names every callable of ``__all__``, and a value for each
    of its parameters; the exceptions take their message."""
    table = valid_calls(0)
    assert set(table) == public_callables()
    for name, args in table.items():
        fn = getattr(fancross, name)
        if not (isinstance(fn, type) and issubclass(fn, Exception)):
            assert len(args) == len(inspect.signature(fn).parameters), name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(public_callables()))
def test_odd_values_in_any_argument_raise_only_value_errors(name, seed):
    """Each value of ``ODD_VALUES`` in each argument of a valid call, the
    others kept, is answered or refused with ``ValueError`` (the typed
    errors included); the valid call answers."""
    fn, args = getattr(fancross, name), valid_calls(seed)[name]
    fn(*args)
    for i in range(len(args)):
        for bad in ODD_VALUES:
            try:
                fn(*args[:i], bad, *args[i + 1 :])
            except ValueError:
                pass
            except Exception as exc:
                pytest.fail(f"{name} with argument {i} = {bad!r} raised {exc!r}")
