"""Clustered fan-crossing certificates: verification and exact search.

A certificate for a drawing consists of subdivision cuts (at most ``k-1``
distinct positions per edge, so each edge falls into at most ``k`` arcs)
plus, for every nontrivial component of the resulting crossing graph, a
cover by at most ``ell`` fans and an assignment of each arc to the fan
containing its edge.
Strong verification additionally checks, for every fan and every crossed
arc, the one-sided non-enclosing fan-crossing property.  It runs on the
uncut drawing wherever it is used (verification and the search): an arc
is a stretch ``(edge, lo, hi)`` of its edge's path, which a crossing-graph
:class:`ArcRef` equals, and a cut adds only a degree-2 vertex inside one
plan edge, leaving every face as it is (see :func:`drawing._fan_core`), so
no strong check cuts anything.

The checks read what the drawing keeps instead of deriving it again.  The
search, verification, :func:`_certificate` and the clustered compile read
the crossing graphs the drawing keeps, the uncut one and that of the last
plan with cuts asked for, and each graph finds its components once.  For
the search the drawing also keeps its crossing count, the position of each
crossing along each edge, and the cut options of every effective fold
asked for (see :func:`_kept_options`), so many (k, ell) queries on one
drawing build each of these once.  The drawing also keeps the side from
which each edge passes each crossing once a strong check has asked for
it.  A strong check builds each arc's crossing set once per component,
intersects each fan edge with each arc once, and hands those hits to
:func:`drawing._fan_core`.  The search tests each candidate center set on
plain edge groups and builds :class:`Fan` objects only for the cover it
returns.

Each certificate rule has one owner: a :class:`Certificate` checks its
shape when it is built, and :func:`_verified` alone checks its ids against
a drawing and what it means.  A certificate is frozen like a drawing, so a
drawing keeps the verdict on the last certificate verified on it and
answers that object again without checking it: the strong check that
:func:`search_certificate` and :func:`synth.synthesize` run on their own
output is not repeated by a caller's strong verification nor by the
clustered compile's weak one.

The exact search returns the first certificate in a fixed order: the product
order of every edge's interior cut options (edge 0 varying slowest), with the
first (strong) cover of each component.  It never walks that product.  Cuts
only split components, so each component of the uncut crossing graph is
searched on its own and the search spaces add up instead of multiplying.
Inside one, edges are decided in id order by backtracking, and a partial
choice is dropped as soon as a component of the decided arcs has no cover:
its edges plus the undecided edges it crosses must share one final
component, so they need at most ``ell`` fans, and a component that crosses
no undecided edge is final and gets the full check.  Dropping a prefix that
no completion can satisfy, and joining the per-component first choices,
gives exactly the first choice of the whole product.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

from .drawing import (
    CrossingGraph,
    Drawing,
    SubdivisionPlan,
    _checked_drawing,
    _fan_core,
    crossing_graph,
)
from .errors import CapExceeded, InvariantBroken
from .graphs import (
    Fan,
    _canonical_groups,
    _checked_int,
    _checked_pair,
    fan_cover,
    vertex_cover,
)


# ===== Certificates =====


@dataclass(frozen=True)
class Certificate:
    """A k-fold, ell-clustered fan-crossing certificate.

    ``covers`` maps nontrivial crossing-graph component ids to their fan
    lists; ``assignment`` maps arcs, keyed ``(edge id, piece index)``, to the
    center of their assigned fan.

    Every rule that needs no drawing is checked once, when it is built,
    with ``ValueError``.  Then, like a :class:`Drawing`, it never changes:
    both maps become read-only views of private copies, and a fan list
    becomes a tuple, so a caller's dicts changed later do not reach it, and
    a drawing can keep the verdict on it (see :func:`verify_certificate`).
    """

    k: int
    ell: int
    plan: SubdivisionPlan = field(default_factory=SubdivisionPlan)
    covers: Mapping[int, tuple[Fan, ...]] = field(default_factory=dict)
    assignment: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _checked_bounds(self.k, self.ell, "certificate")
        if not isinstance(self.plan, SubdivisionPlan):
            raise ValueError(f"certificate plan {self.plan!r} is not a SubdivisionPlan")
        # ``dict`` is tested first, so the usual maps skip the slower
        # abstract-class check.
        for name in ("covers", "assignment"):
            if not isinstance(getattr(self, name), (dict, Mapping)):
                raise ValueError(f"certificate {name} {getattr(self, name)!r} is not a map")
        for gaps in self.plan.cuts.values():
            if len(gaps) > self.k - 1:
                raise ValueError("too many cuts")
            if len(set(gaps)) != len(gaps):
                raise ValueError("repeated cut")
        covers: dict[int, tuple[Fan, ...]] = {}
        for cid, fans in self.covers.items():
            _checked_int("cover component", cid)
            if not isinstance(fans, (tuple, list)) or not all(isinstance(f, Fan) for f in fans):
                raise ValueError(f"cover {cid!r} is not a list of fans")
            if len({f.center for f in fans}) != len(fans):
                raise ValueError("duplicate fan center")
            covers[cid] = tuple(fans)
        for key, center in self.assignment.items():
            eid, piece = _checked_pair("assignment key", key)
            _checked_int("assignment edge", eid)
            _checked_int("assignment piece", piece)
            _checked_int("assignment center", center)
        object.__setattr__(self, "covers", MappingProxyType(covers))
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of certificate verification."""

    verdict: bool
    failures: tuple[tuple[int, str], ...]
    stats: dict[str, int]


def _checked_bounds(k: int, ell: int, what: str) -> None:
    """Refuses a fold bound ``k`` or a fan bound ``ell`` that is not a
    positive int (``bool`` included); ``what`` names the caller's input."""
    if _checked_int("k", k) < 1 or _checked_int("ell", ell) < 1:
        raise ValueError(f"bad {what}: k and ell must be positive")


def _structural_check(d: Drawing, cert: Certificate) -> None:
    """Refuses anything but a certificate whose ids all lie in ``d``'s base;
    it checked the rest of its shape when it was built."""
    if not isinstance(cert, Certificate):
        raise ValueError(f"certificate {cert!r} is not a Certificate")
    vertices, edge_index = d.base._vertex_set, d.base._edge_index
    for fans in cert.covers.values():
        for f in fans:
            # A fan's center and edge ends are ints, and its edges are
            # (min, max) like the base's, so plain lookups decide both.
            if f.center not in vertices:
                raise ValueError("not a fan")
            for u, v in f.edges:
                if (u, v) not in edge_index:
                    raise ValueError(f"unknown fan edge ({u}, {v})")
    m, cuts = d.base.m, cert.plan.cuts
    for (eid, piece), center in cert.assignment.items():
        if not (0 <= eid < m) or not (0 <= piece <= len(cuts.get(eid, ()))):
            raise ValueError("unknown arc in assignment")
        if center not in vertices:
            raise ValueError("unknown center in assignment")


def _weak_failures(
    d: Drawing,
    keys: Sequence[tuple[int, int]],
    cid: int,
    comp: Sequence[int],
    fans: Sequence[Fan],
    ell: int,
    assignment: Mapping[tuple[int, int], int],
) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    if len(fans) > ell:
        out.append((cid, "too many fans"))
    by_center = {f.center: f for f in fans}
    for n in comp:
        key = keys[n]
        if key not in assignment:
            out.append((cid, f"arc unassigned: {key}"))
            continue
        fan = by_center.get(assignment[key])
        if fan is None:
            out.append((cid, f"assigned fan not in cover: {key}"))
            continue
        if d.base.edges[key[0]] not in fan.edges:
            out.append((cid, f"arc not covered by its fan: {key}"))
    return out


def _crossed_arcs(
    d: Drawing, arcs: Sequence[tuple[int, int, int]]
) -> list[tuple[int, int, int, set[int]]]:
    """Each arc ``(edge, lo, hi)`` (see :class:`ArcRef`) with the set of its
    crossings, built once per component for :func:`_strong_failures`."""
    return [(e, lo, hi, set(d.edge_crossings[e][lo:hi])) for e, lo, hi in arcs]


def _strong_failures(
    d: Drawing,
    cuts: Mapping[int, tuple[int, ...]],
    cid: int,
    crossed: Sequence[tuple[int, int, int, set[int]]],
    fans: Sequence[Fan],
) -> Iterator[tuple[int, str]]:
    """The strong failures of component ``cid``, whose arcs under ``cuts``
    are ``crossed`` (see :func:`_crossed_arcs`), checked on the uncut
    drawing by :func:`_fan_core`: one per fan and crossed arc whose edge is
    not in the fan, in fan order and then arc order.  Each fan edge is
    intersected with each arc once, here, and the hits are handed over.
    Only each fan's ``center`` and ``edges`` are read, so the search hands
    over plain groups (see :func:`_strong_cover`)."""
    comp_x_of_edge: dict[int, set[int]] = {}
    for e, _, _, xs in crossed:
        comp_x_of_edge.setdefault(e, set()).update(xs)
    for f in fans:
        fan_eids: set[int] = set()
        # Per fan edge crossing the component: its crossings there, its id
        # and whether the center is the start of its path.
        spokes: list[tuple[set[int], int, bool]] = []
        for edge in f.edges:
            eid = d.base.edge_id(*edge)
            fan_eids.add(eid)
            if eid in comp_x_of_edge:
                spokes.append((comp_x_of_edge[eid], eid, f.center == d.base.edges[eid][0]))
        for e, lo, hi, alpha_x in crossed:
            if e in fan_eids:
                continue
            hits = [
                (common, eid, forward) for xs, eid, forward in spokes if (common := xs & alpha_x)
            ]
            if hits and not _fan_core(d, e, lo, hi, cuts, hits):
                key = (e, bisect.bisect_right(cuts.get(e, ()), lo))
                yield (cid, f"fan property: center {f.center} arc {key}")


def verify_certificate(d: Drawing, cert: Certificate, strong: bool = False) -> ClusterReport:
    """Checks a certificate; malformed certificates raise, semantic failures
    are reported per component with a stable reason phrase.

    ``d`` keeps the outcome of the last certificate verified on it, and
    answers the same certificate object again from it, in the same mode or
    weak after a strong pass (see :func:`_verified`).  Every call returns a
    report of its own, whose ``stats`` a caller may change."""
    return _verified(d, cert, strong)[0]


def _verified(
    d: Drawing, cert: Certificate, strong: bool
) -> tuple[ClusterReport, CrossingGraph, list[list[int]], tuple[tuple[int, int], ...]]:
    """:func:`verify_certificate`'s report, with the crossing graph of the
    certificate's plan, its nontrivial components and its arc keys (see
    :attr:`CrossingGraph._arc_keys`).

    ``d``'s verdict slot holds ``(cert, strong, failures, stats, graph)``
    for the last certificate checked on it.  A certificate never
    changes, so when ``cert`` is that very object, and the slot's mode is
    ``strong`` or the slot passed a strong check (a strong pass is a weak
    pass with the same stats), the slot answers and nothing is checked
    again; a weak verdict never answers a strong query, nor a failed strong
    verdict a weak one, whose failures differ.  Otherwise the certificate
    is checked in full and takes the slot.  Each answer is a new report
    with its own ``stats`` and new component lists."""
    _checked_drawing(d)
    slot = d.__dict__.get("_verdict_slot")
    if slot is not None and slot[0] is cert and (slot[1] == strong or (slot[1] and not slot[2])):
        _, _, failures, stats, cg = slot
        comps = cg.components()
    else:
        _structural_check(d, cert)
        cg = crossing_graph(d, cert.plan)
        comps = cg.components()
        failures, stats = _failures(d, cert, strong, cg, comps)
        d.__dict__["_verdict_slot"] = (cert, strong, failures, stats, cg)
    return ClusterReport(not failures, failures, dict(stats)), cg, comps, cg._arc_keys


def _failures(
    d: Drawing,
    cert: Certificate,
    strong: bool,
    cg: CrossingGraph,
    comps: list[list[int]],
) -> tuple[tuple[tuple[int, str], ...], dict[str, int]]:
    """The sorted failures and the stats of a structurally sound ``cert``
    whose plan's crossing graph ``cg`` has nontrivial components
    ``comps``."""
    failures: list[tuple[int, str]] = []
    for cid in sorted(cert.covers):
        if not (0 <= cid < len(comps)):
            failures.append((cid, "unknown component"))
    for cid, comp in enumerate(comps):
        fans = cert.covers.get(cid)
        if fans is None:
            failures.append((cid, "no cover"))
            continue
        failures += _weak_failures(d, cg._arc_keys, cid, comp, fans, cert.ell, cert.assignment)
        if strong:
            crossed = _crossed_arcs(d, [cg.nodes[n] for n in comp])
            failures += _strong_failures(d, cert.plan.cuts, cid, crossed, fans)
    failures.sort()
    stats = {
        "components": len(comps),
        "arcs": sum(len(c) for c in comps),
        "maxFans": max((len(f) for f in cert.covers.values()), default=0),
    }
    return tuple(failures), stats


# ===== Search =====


def _cut_options(d: Drawing, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per edge: candidate interior cut sets, ordered by (size, lexicographic).

    Cuts at the outermost gaps only split off crossing-free arcs, which never
    change any component, so only interior gaps are enumerated.
    """
    opts: list[tuple[tuple[int, ...], ...]] = []
    for eid in range(d.base.m):
        c = len(d.edge_crossings[eid])
        interior = range(1, c)
        per: list[tuple[int, ...]] = [()]
        for size in range(1, min(k - 1, len(interior)) + 1):
            per.extend(itertools.combinations(interior, size))
        opts.append(tuple(per))
    return tuple(opts)


def _kept_options(d: Drawing, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """:func:`_cut_options` at fold ``k``, kept on ``d``.

    An edge with ``c >= 1`` crossings has ``c - 1`` interior gaps, and an
    uncrossed edge has none, so no edge takes more than ``c_max - 1`` cuts,
    with ``c_max`` the most crossings on one edge.  The options at ``k``
    therefore equal those at the effective fold ``min(k, c_max)``, and they
    are kept under that fold, so every ``k >= c_max`` shares one entry.
    """
    fold = min(k, max(map(len, d.edge_crossings.values()), default=0))
    opts = d._fold_options.get(fold)
    if opts is None:
        opts = d._fold_options[fold] = _cut_options(d, fold)
    return opts


def _strong_cover(
    d: Drawing,
    cuts: Mapping[int, tuple[int, ...]],
    arcs: Sequence[tuple[int, int, int]],
    part: Sequence[tuple[int, int]],
    ell: int,
) -> Optional[list[Fan]]:
    """The canonical fans of the participating edges on the first center
    set (by size, then lexicographically) that passes the strong conditions
    on the component's arcs.  Each candidate is checked on its plain groups
    (:func:`graphs._canonical_groups`), which :func:`_strong_failures`
    reads like fans, and only the set returned is built as fans."""
    cands = sorted({u for e in part for u in e})
    crossed = _crossed_arcs(d, arcs)
    for size in range(1, min(ell, len(cands)) + 1):
        for chosen in itertools.combinations(cands, size):
            groups = _canonical_groups(part, chosen)
            if groups is not None and next(_strong_failures(d, cuts, 0, crossed, groups), None) is None:
                return [Fan(c, es) for c, es in groups]
    return None


def search_certificate(
    d: Drawing, k: int, ell: int, strong: bool = False, cap: int = 12
) -> Optional[Certificate]:
    """Exact search for a certificate with the given ``k`` and ``ell``.

    Returns the first certificate in product order of the edges'
    :func:`_cut_options` (edge 0 slowest), or None.  Each component of the
    uncut crossing graph constrains only its own edges, so the first plan
    overall is the union of every component's first plan; each is found by
    :class:`_GroupSearch`.  In the uncut graph node ``i`` is edge ``i``, so
    its components are the searched edge groups, each sorted.  The
    certificate is then built on that plan by :func:`_certificate`.  A
    strong one is checked by :func:`_verified`, whose verdict ``d`` keeps
    for the caller's verification and compile, and ``InvariantBroken`` is
    raised if it fails; a weak one is not checked.  Drawings with more than
    ``cap`` crossings are refused with ``CapExceeded``, and a crossing not
    passed by exactly two edges with ``ValueError``.  The crossing count,
    the uncut crossing graph, the crossing index and the cut options are
    read from what ``d`` keeps, so a later query on the same drawing builds
    none of them again.
    """
    _checked_drawing(d)
    _checked_bounds(k, ell, "search parameters")
    _checked_int("cap", cap)
    if d._crossing_count > cap:
        raise CapExceeded("search cap exceeded")
    groups = crossing_graph(d).components()
    pairs = d.crossing_edges.values()
    if ell == 1 and any(not (set(d.base.edges[e1]) & set(d.base.edges[e2])) for e1, e2 in pairs):
        return None
    search = _GroupSearch(d, _kept_options(d, k), ell, strong)
    cuts: dict[int, tuple[int, ...]] = {}
    for group in groups:
        found = search.first_plan(group)
        if found is None:
            return None
        cuts.update(found)
    memo = search.strong_memo if strong else None
    cert = _certificate(d, k, ell, strong, SubdivisionPlan(cuts), memo)
    if cert is None or (strong and not _verified(d, cert, True)[0].verdict):
        raise InvariantBroken("certificate search invariant broken")
    return cert


def _certificate(
    d: Drawing,
    k: int,
    ell: int,
    strong: bool,
    plan: SubdivisionPlan,
    memo: Optional[dict[frozenset[tuple[int, int, int]], Optional[list[Fan]]]] = None,
) -> Optional[Certificate]:
    """The certificate on ``plan``: per component the first (strong) cover,
    each arc assigned to its edge's fan; None if some component has none.

    A strong search hands over its ``memo`` of covers by arc set.  The
    search keys it by ``(edge, lo, hi)`` tuples, which equal the
    :class:`ArcRef` nodes of the crossing graph, so each component's cover
    is only looked up by its nodes, and a missing one gives None.
    """
    cg = crossing_graph(d, plan)
    comps = cg.components()
    keys = cg._arc_keys
    covers: dict[int, tuple[Fan, ...]] = {}
    assignment: dict[tuple[int, int], int] = {}
    for cid, comp in enumerate(comps):
        arcs = [cg.nodes[n] for n in comp]
        if memo is not None:
            fans = memo.get(frozenset(arcs))
        else:
            part_edges = [d.base.edges[e] for e in sorted({a.edge for a in arcs})]
            if strong:
                fans = _strong_cover(d, plan.cuts, arcs, part_edges, ell)
            else:
                fans = fan_cover(d.base, part_edges, ell)
        if fans is None:
            return None
        covers[cid] = tuple(fans)
        center_of = {e: f.center for f in fans for e in f.edges}
        for n in comp:
            assignment[keys[n]] = center_of[d.base.edges[cg.nodes[n].edge]]
    return Certificate(k, ell, plan, covers, assignment)


class _GroupSearch:
    """Backtracking over the cut options of one uncut crossing-graph component.

    Edges are decided in id order, options in :func:`_cut_options` order.
    After each choice, every component of the decided arcs that holds an arc
    of the new edge is checked:

    * If it still crosses undecided edges, all of those edges and its own
      base edges end up in one final component, so they need a vertex cover
      of size at most ``ell``, i.e. a cover by at most ``ell`` fans.  Covers
      only grow with more edges, and a strong certificate is also a weak
      one, so this prune is safe in both modes.
    * Otherwise it is final and gets the mode's full check: the same cover
      test (weak) or ``_strong_cover`` (strong).

    The edge across each crossing is read from
    :attr:`Drawing.crossing_edges`.  Weak checks are memoized by edge set,
    strong ones by arc set, each arc an ``(edge, lo, hi)`` tuple; both hold
    for the whole search call, across components.  The strong memo keeps
    the cover ``_strong_cover`` found, or None, so the certificate reuses
    the covers of the final plan's components.
    """

    def __init__(self, d: Drawing, options, ell: int, strong: bool) -> None:
        self.d, self.options, self.ell, self.strong = d, options, ell, strong
        self.index = d._crossing_index  # (edge, crossing) -> 1-based position
        self.weak_memo: dict[frozenset[int], bool] = {}
        self.strong_memo: dict[frozenset[tuple[int, int, int]], Optional[list[Fan]]] = {}

    def first_plan(self, edges: Sequence[int]) -> Optional[dict[int, tuple[int, ...]]]:
        """The first cut choice for ``edges`` under which every component
        of their arcs passes its check, or None."""
        position = {e: i for i, e in enumerate(edges)}
        bounds: dict[int, list[int]] = {}  # edge -> [0, *cuts, c] of its current option

        def place(i: int) -> bool:
            if i == len(edges):
                return True
            e = edges[i]
            c = len(self.d.edge_crossings[e])
            for gaps in self.options[e]:
                bounds[e] = [0, *gaps, c]
                if self._admissible(e, position, bounds) and place(i + 1):
                    return True
            return False

        if not place(0):
            return None
        return {e: tuple(b[1:-1]) for e, b in bounds.items() if len(b) > 2}

    def _admissible(
        self, e: int, position: dict[int, int], bounds: dict[int, list[int]]
    ) -> bool:
        """Whether every component of the decided arcs through ``e`` passes;
        the decided edges are ``e`` and those before it in ``position``."""
        b = bounds[e]
        across = self.d.crossing_edges
        seen: set[tuple[int, int, int]] = set()
        for lo, hi in zip(b, b[1:]):
            start = (e, lo, hi)
            if start in seen:
                continue
            seen.add(start)
            arcs, open_edges, stack = [start], set(), [start]
            while stack:
                f, alo, ahi = stack.pop()
                for x in self.d.edge_crossings[f][alo:ahi]:
                    pair = across[x]
                    g = pair[pair[0] == f]
                    if position[g] > position[e]:
                        open_edges.add(g)
                        continue
                    arc = self._arc(bounds[g], g, x)
                    if arc not in seen:
                        seen.add(arc)
                        arcs.append(arc)
                        stack.append(arc)
            if not self._passes(arcs, open_edges, bounds):
                return False
        return True

    def _arc(self, b: list[int], e: int, x: int) -> tuple[int, int, int]:
        """The arc of edge ``e`` through crossing ``x`` when cut at ``b[1:-1]``."""
        i = bisect.bisect_left(b, self.index[(e, x)]) - 1
        return (e, b[i], b[i + 1])

    def _passes(self, arcs, open_edges: set[int], bounds: dict[int, list[int]]) -> bool:
        """The lower bound while ``open_edges`` remain, else the full check."""
        edges = {a[0] for a in arcs}
        if open_edges or not self.strong:
            key = frozenset(edges | open_edges)
            if key not in self.weak_memo:
                target = [self.d.base.edges[f] for f in key]
                self.weak_memo[key] = vertex_cover(target, self.ell) is not None
            return self.weak_memo[key]
        key = frozenset(arcs)
        if key not in self.strong_memo:
            self.strong_memo[key] = self._component_cover(key, edges, bounds)
        return self.strong_memo[key] is not None

    def _component_cover(
        self, arcs, edges: set[int], bounds: dict[int, list[int]]
    ) -> Optional[list[Fan]]:
        """``_strong_cover`` on the component's arcs, under the cuts on the
        component's edges.

        The arcs and their bounds are the search's own, and the check runs
        on the uncut drawing, so no candidate builds a drawing or a crossing
        graph.  Cuts on other edges lie away from the component's paths.
        """
        cuts = {f: tuple(bounds[f][1:-1]) for f in edges if len(bounds[f]) > 2}
        part_edges = [self.d.base.edges[f] for f in sorted(edges)]
        return _strong_cover(self.d, cuts, sorted(arcs), part_edges, self.ell)


def min_ell(d: Drawing, k: int, cap: int = 12) -> int:
    """The least ``ell`` admitting a (weak) certificate at fold ``k``.

    Each ``ell`` is one :func:`search_certificate` call; all of them read
    the tables the drawing keeps, which the first call builds."""
    for ell in range(1, max(_checked_drawing(d).base.m, 1) + 1):
        if search_certificate(d, k, ell, strong=False, cap=cap) is not None:
            return ell
    raise ValueError("no certificate at any ell")  # unreachable: singletons cover
