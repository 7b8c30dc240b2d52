"""Clustered fan-crossing certificates: verification and exact search.

A certificate for a drawing consists of subdivision cuts (at most ``k-1``
per edge, so each edge falls into at most ``k`` arcs) plus, for every
nontrivial component of the resulting crossing graph, a cover by at most
``ell`` fans and an assignment of each arc to the fan containing its edge.
Strong verification additionally checks, for every fan and every crossed
arc, the one-sided non-enclosing fan-crossing property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .drawing import (
    ArcRef,
    CrossingGraph,
    Drawing,
    SubdivisionPlan,
    _fan_core,
    crossing_graph,
    stitched_path,
    subdivide_with_map,
)
from .errors import CapExceeded
from .graphs import Fan, Graph, fan_cover


# ===== Certificates =====


@dataclass(frozen=True)
class Certificate:
    """A k-fold, ell-clustered fan-crossing certificate.

    ``covers`` maps nontrivial crossing-graph component ids to their fan
    lists; ``assignment`` maps arcs, keyed ``(edge id, piece index)``, to the
    center of their assigned fan.
    """

    k: int
    ell: int
    plan: SubdivisionPlan = field(default_factory=SubdivisionPlan)
    covers: dict[int, tuple[Fan, ...]] = field(default_factory=dict)
    assignment: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of certificate verification."""

    verdict: bool
    failures: tuple[tuple[int, str], ...]
    stats: dict[str, int]


def _arc_keys(cg: CrossingGraph) -> dict[int, tuple[int, int]]:
    """Node index -> (edge id, piece index)."""
    keys: dict[int, tuple[int, int]] = {}
    counts: dict[int, int] = {}
    for n, node in enumerate(cg.nodes):
        piece = counts.get(node.edge, 0)
        counts[node.edge] = piece + 1
        keys[n] = (node.edge, piece)
    return keys


def _structural_check(d: Drawing, cert: Certificate) -> None:
    if cert.k < 1 or cert.ell < 1:
        raise ValueError("bad certificate: k and ell must be positive")
    for eid, gaps in cert.plan.cuts.items():
        if len(gaps) > cert.k - 1:
            raise ValueError("too many cuts")
    for fans in cert.covers.values():
        centers = [f.center for f in fans]
        if len(set(centers)) != len(centers):
            raise ValueError("duplicate fan center")
        for f in fans:
            if not d.base.has_vertex(f.center):
                raise ValueError("not a fan")
            for u, v in f.edges:
                if not d.base.has_edge(u, v):
                    raise ValueError(f"unknown fan edge ({u}, {v})")
    for (eid, piece), center in cert.assignment.items():
        if not (0 <= eid < d.base.m) or not (
            0 <= piece <= len(cert.plan.cuts.get(eid, ()))
        ):
            raise ValueError("unknown arc in assignment")
        if not d.base.has_vertex(center):
            raise ValueError("unknown center in assignment")


def _weak_failures(
    d: Drawing,
    cg: CrossingGraph,
    keys: dict[int, tuple[int, int]],
    cid: int,
    comp: Sequence[int],
    fans: Sequence[Fan],
    ell: int,
    assignment: dict[tuple[int, int], int],
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


def _fan_paths_from_center(
    d2: Drawing,
    pieces_of: dict[int, list[int]],
    eid: int,
    edge: tuple[int, int],
    center: int,
) -> tuple[int, ...]:
    """The full plan path of a (possibly cut) edge, walked from the center."""
    pieces = pieces_of[eid]
    if center == edge[0]:
        ordered = pieces
    else:
        ordered = list(reversed(pieces))
    return stitched_path(d2, ordered, d2.real_pvid[center])


def _strong_failures(
    d: Drawing,
    d2: Drawing,
    pieces_of: dict[int, list[int]],
    arc_to_new: dict[tuple[int, int], int],
    cg: CrossingGraph,
    keys: dict[int, tuple[int, int]],
    cid: int,
    comp: Sequence[int],
    fans: Sequence[Fan],
) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    comp_x_of_edge: dict[int, set[int]] = {}
    for n in comp:
        comp_x_of_edge.setdefault(cg.nodes[n].edge, set()).update(cg.crossings[n])
    for f in fans:
        for n in comp:
            arc_edge = cg.nodes[n].edge
            if d.base.edges[arc_edge] in f.edges:
                continue
            alpha_x = set(cg.crossings[n])
            hitting = [
                (u, v)
                for u, v in f.edges
                if comp_x_of_edge.get(d.base.edge_id(u, v), set()) & alpha_x
            ]
            if not hitting:
                continue
            alpha_path = d2.paths[arc_to_new[keys[n]]]
            fan_paths = [
                _fan_paths_from_center(d2, pieces_of, d.base.edge_id(u, v), (u, v), f.center)
                for u, v in hitting
            ]
            if not _fan_core(d2, alpha_path, d2.real_pvid[f.center], fan_paths, True):
                out.append((cid, f"fan property: center {f.center} arc {keys[n]}"))
    return out


def _subdivided(d: Drawing, plan: SubdivisionPlan):
    d2, arc_to_new, _ = subdivide_with_map(d, plan)
    pieces_of: dict[int, list[int]] = {}
    for (eid, piece), neid in sorted(arc_to_new.items()):
        pieces_of.setdefault(eid, []).append(neid)
    return d2, arc_to_new, pieces_of


def verify_certificate(d: Drawing, cert: Certificate, strong: bool = False) -> ClusterReport:
    """Checks a certificate; malformed certificates raise, semantic failures
    are reported per component with a stable reason phrase."""
    _structural_check(d, cert)
    cg = crossing_graph(d, cert.plan)
    comps = cg.components()
    keys = _arc_keys(cg)
    failures: list[tuple[int, str]] = []
    for cid in sorted(cert.covers):
        if not (0 <= cid < len(comps)):
            failures.append((cid, "unknown component"))
    d2 = arc_to_new = pieces_of = None
    if strong and comps:
        d2, arc_to_new, pieces_of = _subdivided(d, cert.plan)
    for cid, comp in enumerate(comps):
        fans = cert.covers.get(cid)
        if fans is None:
            failures.append((cid, "no cover"))
            continue
        failures += _weak_failures(d, cg, keys, cid, comp, fans, cert.ell, cert.assignment)
        if strong:
            failures += _strong_failures(
                d, d2, pieces_of, arc_to_new, cg, keys, cid, comp, fans
            )
    failures.sort()
    stats = {
        "components": len(comps),
        "arcs": sum(len(c) for c in comps),
        "maxFans": max((len(f) for f in cert.covers.values()), default=0),
    }
    return ClusterReport(not failures, tuple(failures), stats)


# ===== Search =====


def _cut_options(d: Drawing, k: int) -> list[list[tuple[int, ...]]]:
    """Per edge: candidate interior cut sets, ordered by (size, lexicographic).

    Cuts at the outermost gaps only split off crossing-free arcs, which never
    change any component, so only interior gaps are enumerated.
    """
    opts: list[list[tuple[int, ...]]] = []
    for eid in range(d.base.m):
        c = len(d.edge_crossings[eid])
        interior = range(1, c)
        per: list[tuple[int, ...]] = [()]
        for size in range(1, min(k - 1, len(interior)) + 1):
            per.extend(itertools.combinations(interior, size))
        opts.append(per)
    return opts


def _crossing_pairs(d: Drawing) -> list[tuple[int, int]]:
    """Base edge id pairs for every crossing point."""
    by_point: dict[int, list[int]] = {}
    for eid, xs in d.edge_crossings.items():
        for x in xs:
            by_point.setdefault(x, []).append(eid)
    return [tuple(sorted(es)) for x, es in sorted(by_point.items())]


def _strong_cover(
    d: Drawing,
    d2: Drawing,
    pieces_of: dict[int, list[int]],
    arc_to_new: dict[tuple[int, int], int],
    cg: CrossingGraph,
    keys: dict[int, tuple[int, int]],
    comp: Sequence[int],
    part: Sequence[tuple[int, int]],
    ell: int,
) -> Optional[list[Fan]]:
    """The first center set (by size, then lexicographically) whose canonical
    fan cover of the participating edges passes the strong conditions."""
    cands = sorted({u for e in part for u in e})
    for size in range(1, min(ell, len(cands)) + 1):
        for chosen in itertools.combinations(cands, size):
            groups: dict[int, list[tuple[int, int]]] = {}
            ok = True
            for e in part:
                incident = [c for c in chosen if c in e]
                if not incident:
                    ok = False
                    break
                groups.setdefault(min(incident), []).append(e)
            if not ok:
                continue
            fans = [Fan(c, tuple(groups[c])) for c in sorted(groups)]
            if not _strong_failures(
                d, d2, pieces_of, arc_to_new, cg, keys, 0, comp, fans
            ):
                return fans
    return None


def search_certificate(
    d: Drawing, k: int, ell: int, strong: bool = False, cap: int = 12
) -> Optional[Certificate]:
    """Exhaustive search for a certificate with the given ``k`` and ``ell``.

    Enumerates interior cut positions per edge and, per component, minimal
    canonical fan covers; returns the first certificate found in that
    deterministic order, or None.  Drawings with more than ``cap`` crossings
    are refused.
    """
    if k < 1 or ell < 1:
        raise ValueError("bad search parameters: k and ell must be positive")
    total = sum(1 for p in d.plan.vertices if d.kind_of(p) == "crossing")
    if total > cap:
        raise CapExceeded("search cap exceeded")
    if ell == 1 and any(
        not (set(d.base.edges[e1]) & set(d.base.edges[e2]))
        for e1, e2 in _crossing_pairs(d)
    ):
        return None
    for choice in itertools.product(*_cut_options(d, k)):
        cuts = {eid: gaps for eid, gaps in enumerate(choice) if gaps}
        plan = SubdivisionPlan(cuts)
        cg = crossing_graph(d, plan)
        comps = cg.components()
        keys = _arc_keys(cg)
        d2 = arc_to_new = pieces_of = None
        if strong and comps:
            d2, arc_to_new, pieces_of = _subdivided(d, plan)
        covers: dict[int, tuple[Fan, ...]] = {}
        assignment: dict[tuple[int, int], int] = {}
        ok = True
        for cid, comp in enumerate(comps):
            part = sorted({cg.nodes[n].edge for n in comp})
            part_edges = [d.base.edges[e] for e in part]
            if strong:
                fans = _strong_cover(
                    d, d2, pieces_of, arc_to_new, cg, keys, comp, part_edges, ell
                )
            else:
                fans = fan_cover(d.base, part_edges, ell)
            if fans is None:
                ok = False
                break
            covers[cid] = tuple(fans)
            center_of: dict[tuple[int, int], int] = {}
            for f in fans:
                for e in f.edges:
                    center_of[e] = f.center
            for n in comp:
                assignment[keys[n]] = center_of[d.base.edges[cg.nodes[n].edge]]
        if ok:
            return Certificate(k, ell, plan, covers, assignment)
    return None


def min_ell(d: Drawing, k: int, cap: int = 12) -> int:
    """The least ``ell`` admitting a (weak) certificate at fold ``k``."""
    for ell in range(1, max(d.base.m, 1) + 1):
        if search_certificate(d, k, ell, strong=False, cap=cap) is not None:
            return ell
    raise ValueError("no certificate at any ell")  # unreachable: singletons cover
