"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own algorithms: radii come from
Floyd-Warshall, covers from subset enumeration, cluster feasibility from
enumerating every subdivision plan and every fan cover, the first
certificate from trying every cut choice in product order, the first minor
model from trying every admissible branch set of the free host vertices,
components from one BFS per unvisited vertex, faces from
stepping ``(u, v)`` dart tuples through rotation positions, non-plane
components from V - E + F over those components and faces, the
transducer's surgery check from rebuilding the surgered drawing, running
``validate`` on it but for its Euler check and counting V - E + F instead,
and the decoded graph of a transduction from one path
search per vertex pair, or from the rendered text of its formula, the
one-source path search from hashed tables on vertex ids, and
the strong fan property from a face union-find over the whole plan,
crossing graphs from a map of every (edge, crossing index) to its arc, the
search's edge groups from a component search over the crossing pairs,
strong certificates from the earlier path checks on the cut drawing,
cut drawings from rewriting every rotation entry by position through dart
and edge-id maps, the k-planar transducer from smoothing and subdividing
one edge at a time on a mutable rotation system, the clustered transducer from two cuts (a whole cut
drawing, then stubs on that system) joined by walking each fan edge's
pieces from its center, with each cluster contracted there one edge at a
time, the synthesizer's region arenas and polyline drawings from a
pair loop and rotation code of their own each, the plan builder from one
``edge_id`` lookup per rotation slot and trace step, and the segment arrangement
from ``Fraction`` crossing points sorted as pairs and each segment's
crossings sorted by their ``Fraction`` parameter along it.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter, deque
from functools import lru_cache
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from fancross.cluster import (
    Certificate,
    _cut_options,
    _verified,
    verify_certificate,
)
from fancross.drawing import (
    ArcRef,
    CrossingGraph,
    Dart,
    Drawing,
    SubdivisionPlan,
    _checked_cuts,
    _crossing_graph,
    _cut,
    _cut_step,
    _plane_simple,
    _require_valid,
    _steps,
    is_k_planar,
    subdivide_with_map,
    validate,
)
from fancross.errors import CapExceeded, Infeasible, InvariantBroken
from fancross.geometry import (
    Point,
    Vec,
    dir_cmp,
    drawing_from_segments,
    orientation,
    properly_cross,
    pt,
    sort_ccw,
)
from fancross.graphs import ColoredGraph, ColorLabel, Fan, Graph, fan_cover
from fancross.minors import MinorModel, _admissible, _touch
from fancross.transduce import (
    TransductionFormula,
    TransductionOutput,
    _bends,
    _checked_k,
    _checked_x,
    _mode,
    _output,
    render_formula,
)


# ===== Metric oracles (Floyd-Warshall based) =====


def apsp(g: Graph, verts: Optional[Iterable[int]] = None) -> dict[tuple[int, int], float]:
    """All-pairs shortest paths on the induced subgraph, by Floyd-Warshall."""
    vs = sorted(set(g.vertices if verts is None else verts))
    inf = float("inf")
    dist = {(a, b): (0 if a == b else inf) for a in vs for b in vs}
    vset = set(vs)
    for u, v in g.edges:
        if u in vset and v in vset:
            dist[(u, v)] = dist[(v, u)] = 1
    for k in vs:
        for i in vs:
            dik = dist[(i, k)]
            if dik == inf:
                continue
            for j in vs:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def oracle_radius_center(g: Graph, subset: Optional[Iterable[int]] = None) -> tuple[int, int]:
    """Smallest-id center of minimum eccentricity; raises on disconnection."""
    vs = sorted(set(g.vertices if subset is None else subset))
    if not vs:
        raise ValueError("empty")
    dist = apsp(g, vs)
    eccs = {}
    for v in vs:
        ecc = max(dist[(v, w)] for w in vs)
        if ecc == float("inf"):
            raise ValueError("disconnected")
        eccs[v] = int(ecc)
    best = min(eccs.values())
    center = min(v for v in vs if eccs[v] == best)
    return center, best


# ===== Cover oracles (subset enumeration) =====


def oracle_vertex_cover(edges: Sequence[Sequence[int]], candidates: Iterable[int], ell: int) -> Optional[tuple[int, ...]]:
    """First (by size, then lex) vertex subset of size <= ell covering all edges."""
    cand = sorted(set(candidates))
    es = [tuple(e) for e in edges]
    for size in range(0, ell + 1):
        for pick in itertools.combinations(cand, size):
            ps = set(pick)
            if all(e[0] in ps or e[1] in ps for e in es):
                return pick
    return None


# ===== Cluster feasibility oracle (plan + cover enumeration) =====


def _oracle_comp_feasible(d, plan, k, ell, strong, cg, comps, cid, memo) -> bool:
    """Whether some admissible fan cover exists for one component."""
    comp = comps[cid]
    sig = (
        strong,
        ell,
        frozenset((cg.nodes[n].edge, cg.nodes[n].lo, cg.nodes[n].hi) for n in comp),
    )
    if sig in memo:
        return memo[sig]
    part = sorted({cg.nodes[n].edge for n in comp})
    part_edges = [d.base.edges[e] for e in part]
    cands = sorted({u for e in part_edges for u in e})
    if not strong:
        ok = oracle_vertex_cover(part_edges, cands, ell) is not None
        memo[sig] = ok
        return ok
    keys = cg._arc_keys
    ok = False
    for size in range(1, min(ell, len(cands)) + 1):
        for chosen in itertools.combinations(cands, size):
            groups: dict[int, list[tuple[int, int]]] = {}
            coverable = True
            for e in part_edges:
                incident = [c for c in chosen if c in e]
                if not incident:
                    coverable = False
                    break
                groups.setdefault(min(incident), []).append(e)
            if not coverable:
                continue
            fans = tuple(Fan(c, tuple(g)) for c, g in sorted(groups.items()))
            center_of = {e: f.center for f in fans for e in f.edges}
            assignment = {
                keys[n]: center_of[d.base.edges[cg.nodes[n].edge]] for n in comp
            }
            rep = verify_certificate(
                d, Certificate(k, ell, plan, {cid: fans}, assignment), strong=True
            )
            if not any(c == cid for c, _ in rep.failures):
                ok = True
                break
        if ok:
            break
    memo[sig] = ok
    return ok


def oracle_cluster_feasible(d, k: int, ell: int, strong: bool = False, gaps: str = "interior") -> bool:
    """Whether any (k, ell) certificate verifies, by exhaustive enumeration.

    Every subdivision plan with at most k-1 cuts per edge is tried; with
    ``gaps="all"`` that includes cuts at the outermost gaps, which split off
    crossing-free arcs (they should never change feasibility, and comparing
    against the interior-only search exercises exactly that claim).  Per
    component, weak feasibility is an independent covering-subset check;
    strong feasibility builds the canonical fan cover from every candidate
    center set and judges it with the verifier.
    """
    opts = []
    for eid in range(d.base.m):
        c = len(d.edge_crossings[eid])
        positions = list(range(0, c + 1) if gaps == "all" else range(1, c))
        per = [()]
        for size in range(1, min(k - 1, len(positions)) + 1):
            per.extend(itertools.combinations(positions, size))
        opts.append(per)
    memo: dict = {}
    for choice in itertools.product(*opts):
        plan = SubdivisionPlan({e: g for e, g in enumerate(choice) if g})
        cg = _crossing_graph(d, _checked_cuts(d, plan))
        comps = cg.components()
        if all(
            _oracle_comp_feasible(d, plan, k, ell, strong, cg, comps, cid, memo)
            for cid in range(len(comps))
        ):
            return True
    return False


def oracle_search_certificate(d, k: int, ell: int, strong: bool = False, cap: int = 12):
    """The first certificate in the product order of every edge's cut
    options, found by trying every choice and rebuilding the crossing graph
    for each, with strong covers judged by the path checks on the cut
    drawing; the library's backtracking search must return the same."""
    if k < 1 or ell < 1:
        raise ValueError("bad search parameters: k and ell must be positive")
    total = sum(1 for p in d.plan.vertices if d.kind_of(p) == "crossing")
    if total > cap:
        raise CapExceeded("search cap exceeded")
    at: dict[int, list[int]] = {}
    for eid, xs in d.edge_crossings.items():
        for x in xs:
            at.setdefault(x, []).append(eid)
    if ell == 1 and any(
        not (set(d.base.edges[e1]) & set(d.base.edges[e2])) for e1, e2 in at.values()
    ):
        return None
    for choice in itertools.product(*_cut_options(d, k)):
        cuts = {eid: gaps for eid, gaps in enumerate(choice) if gaps}
        plan = SubdivisionPlan(cuts)
        # The uncached builders: the oracle reads nothing the library kept.
        checked = _checked_cuts(d, plan)
        cg = _crossing_graph(d, checked)
        comps = cg.components()
        keys = cg._arc_keys
        d2 = pieces_of = None
        if strong and comps:
            d2, pieces_of = _cut(d, checked)
        covers = {}
        assignment: dict[tuple[int, int], int] = {}
        ok = True
        for cid, comp in enumerate(comps):
            part = sorted({cg.nodes[n].edge for n in comp})
            part_edges = [d.base.edges[e] for e in part]
            if strong:
                fans = _strong_cover(d, d2, pieces_of, cg, keys, comp, part_edges, ell)
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


# ===== Crossing-graph oracles (arc owners by crossing index) =====
#
# The crossing graph and the search's edge groups as they were built before
# the crossing graph became the one reader of a drawing's crossings: arcs
# are paired through a map from every (edge, crossing index) to its arc,
# and the groups come from a component search of their own over the edge
# pairs at each crossing.


def oracle_crossing_graph(d: Drawing, cuts: Mapping[int, tuple[int, ...]]) -> CrossingGraph:
    """The crossing graph of ``d`` under checked ``cuts``."""
    nodes: list[ArcRef] = []
    crossings: list[tuple[int, ...]] = []
    owner: dict[tuple[int, int], int] = {}  # (edge, 1-based crossing idx) -> node
    for eid in range(d.base.m):
        xs = d.edge_crossings[eid]
        bounds = [0, *cuts.get(eid, ()), len(xs)]
        for lo, hi in zip(bounds, bounds[1:]):
            node = len(nodes)
            nodes.append(ArcRef(eid, lo, hi))
            crossings.append(xs[lo:hi])
            for j in range(lo + 1, hi + 1):
                owner[(eid, j)] = node
    by_point: dict[int, list[int]] = {}
    for (eid, j), node in owner.items():
        x = d.edge_crossings[eid][j - 1]
        by_point.setdefault(x, []).append(node)
    edges: set[tuple[int, int]] = set()
    for x, ns in by_point.items():
        if len(ns) != 2:
            raise ValueError(f"crossing {x} is not shared by exactly two arcs")
        a, b = sorted(ns)
        edges.add((a, b))
    return CrossingGraph(tuple(nodes), tuple(sorted(edges)), tuple(crossings))


def oracle_edge_groups(d: Drawing) -> list[list[int]]:
    """The edge sets of the uncut crossing graph's components, each sorted,
    in the order of their least edges."""
    at: dict[int, list[int]] = {}
    for eid, xs in d.edge_crossings.items():
        for x in xs:
            at.setdefault(x, []).append(eid)
    adj: dict[int, set[int]] = {}
    for e1, e2 in at.values():
        adj.setdefault(e1, set()).add(e2)
        adj.setdefault(e2, set()).add(e1)
    groups: list[list[int]] = []
    seen: set[int] = set()
    for e in sorted(adj):
        if e in seen:
            continue
        seen.add(e)
        stack, group = [e], []
        while stack:
            f = stack.pop()
            group.append(f)
            for g in adj[f] - seen:
                seen.add(g)
                stack.append(g)
        groups.append(sorted(group))
    return groups


# ===== Strong certificates on the cut drawing (the path checks) =====
#
# The strong fan check as it ran before it moved onto the uncut drawing,
# kept verbatim: it cuts the drawing, stitches every fan edge's pieces into
# one plan path and traces faces of the cut drawing.  The library's check
# must give the same failures on the same plan.


def stitched_path(d2: Drawing, piece_eids: Sequence[int], start_pvid: int) -> tuple[int, ...]:
    """Concatenates piece paths of one original edge, oriented from ``start_pvid``."""
    cur = start_pvid
    out = [cur]
    for neid in piece_eids:
        p = d2.paths[neid]
        if p[-1] == cur:
            p = tuple(reversed(p))
        if p[0] != cur:
            raise ValueError("pieces do not chain")
        out.extend(p[1:])
        cur = out[-1]
    return tuple(out)


def _passage_side(d: Drawing, alpha_path: Sequence[int], x: int, other_in: Dart) -> str:
    """Which side the dart ``other_in`` arrives from at crossing ``x``,
    relative to the orientation of ``alpha_path``."""
    i = alpha_path.index(x)
    a_in = d.plan.edge_id(alpha_path[i - 1], x)
    a_out = d.plan.edge_id(x, alpha_path[i + 1])
    o_in = d.plan.edge_id(other_in[0], other_in[1])
    rot = d.rotation[x]
    pos = rot.index(a_in)
    for step in range(1, 4):
        e = rot[(pos + step) % 4]
        if e == o_in:
            return "left"
        if e == a_out:
            return "right"
    raise ValueError("darts do not meet at the crossing")


def _fan_core(
    d: Drawing,
    alpha_path: Sequence[int],
    fan_paths: Sequence[Sequence[int]],
    kept: set[int],
) -> bool:
    """The strong fan-property conditions over explicit plan paths.

    ``alpha_path`` is the arc's plan path; every entry of ``fan_paths`` is a
    full edge path oriented away from the fan center; ``kept`` holds the
    plan edge ids of all these paths.  Checks: (1) each fan path meets the
    arc in exactly one crossing; (2) all approaches come from the same side;
    (3) deleting everything else never encloses an end of the arc.

    Condition (3) is traced on the kept subgraph H.  After (1) every fan
    path meets the arc, and all of them share the center, so H is connected.
    The faces of a connected H are then exactly the faces of the arc's plan
    component merged across every edge outside H, and the face of H that
    holds the component's root (see :attr:`Drawing._dual_tree`) meets an
    end of the arc iff its boundary passes through it.  The walk from a dart
    of H up the dual tree locates that face: the last kept edge crossed
    gives a dart of H with the root's side on its left, or, if none is
    crossed, the start dart has it.  The face is then traced with the
    rotation restricted to H (skip every edge outside H, backwards round the
    vertex) until both ends of the arc have been seen.  The cost is the
    depth of the dual tree plus the plan degrees along the traced face of
    H, not the size of the drawing.
    """
    alpha_x = {q for q in alpha_path[1:-1] if d.kind_of(q) == "crossing"}
    hits: list[tuple[int, Dart]] = []
    for fp in fan_paths:
        common = [q for q in fp if q in alpha_x]
        if len(common) != 1:
            return False
        x = common[0]
        j = fp.index(x)
        hits.append((x, (fp[j - 1], x)))
    sides = {_passage_side(d, alpha_path, x, din) for x, din in hits}
    if len(sides) > 1:
        return False

    _, face_of, nxt = d._face_table
    enter = d._dual_tree
    start = 2 * next(iter(kept))
    f = face_of[start]
    while enter[f] >= 0:
        x = enter[f] ^ 1
        if x >> 1 in kept:
            start = x
        f = face_of[x]
    ends = {alpha_path[0], alpha_path[-1]}
    edges = d.plan.edges
    x = start
    while True:
        ends.discard(edges[x >> 1][x & 1])
        if not ends:
            return True
        x = nxt[x]
        while x >> 1 not in kept:
            x = nxt[x ^ 1]
        if x == start:
            return False


def _strong_failures(
    d: Drawing,
    d2: Drawing,
    pieces_of: dict[int, list[int]],
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
        fan_eids: set[int] = set()
        # Per fan edge crossing the component: its crossings there, its
        # full plan path walked from the center, and its plan edge ids.
        spokes: list[tuple[set[int], tuple[int, ...], list[int]]] = []
        for edge in f.edges:
            eid = d.base.edge_id(*edge)
            fan_eids.add(eid)
            if eid in comp_x_of_edge:
                pieces = pieces_of[eid]
                path = stitched_path(
                    d2, pieces if f.center == edge[0] else pieces[::-1], d2.real_pvid[f.center]
                )
                trace = [pe for piece in pieces for pe in d2.trace[piece]]
                spokes.append((comp_x_of_edge[eid], path, trace))
        for n in comp:
            if cg.nodes[n].edge in fan_eids:
                continue
            alpha_x = set(cg.crossings[n])
            hitting = [s for s in spokes if s[0] & alpha_x]
            if not hitting:
                continue
            eid, piece = keys[n]
            neid = pieces_of[eid][piece]
            kept = set(d2.trace[neid])
            for _, _, trace in hitting:
                kept.update(trace)
            if not _fan_core(d2, d2.paths[neid], [p for _, p, _ in hitting], kept):
                out.append((cid, f"fan property: center {f.center} arc {keys[n]}"))
    return out


def _strong_cover(
    d: Drawing,
    d2: Drawing,
    pieces_of: dict[int, list[int]],
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
            if not _strong_failures(d, d2, pieces_of, cg, keys, 0, comp, fans):
                return fans
    return None


# ===== Cutting oracle (positional rotation rewrite) =====


def oracle_subdivide_with_map(
    d: Drawing, plan: SubdivisionPlan
) -> tuple["Drawing", dict[tuple[int, int], int], dict[int, tuple[int, int]]]:
    """Like :func:`subdivide_with_map`, with the arc correspondence both ways.

    Returns ``(d2, arc_to_new, new_to_arc)`` where arcs are keyed by
    ``(original edge id, piece index)`` and map to base edge ids of ``d2``.
    Uncut edges count as their own single piece.
    """
    cuts = _checked_cuts(d, plan)
    fresh = max((*d.plan.vertices, *d.base.vertices), default=-1) + 1

    # Where each cut lands: the first plan edge of its gap, as a directed
    # path-edge index along the trace.
    split_at: dict[int, dict[int, list[int]]] = {}  # eid -> path edge idx -> new vids
    chains: dict[int, list[int]] = {}  # eid -> cut vertices in trace order
    for eid in sorted(cuts):
        path = d.paths[eid]
        xs_pos = [i for i, q in enumerate(path) if d.kind_of(q) == "crossing"]
        per_edge = split_at.setdefault(eid, {})
        chain = chains.setdefault(eid, [])
        for g in cuts[eid]:
            idx = 0 if g == 0 else xs_pos[g - 1]
            per_edge.setdefault(idx, []).append(fresh)
            chain.append(fresh)
            fresh += 1

    # New plan: replace each split plan edge by its chain.
    new_pedges: list[tuple[int, int]] = []
    dart_map: dict[Dart, Dart] = {}  # old directed plan edge -> new first dart
    vkind = dict(d.kind)
    sub_rot: dict[int, list[tuple[int, int]]] = {}
    replaced: set[int] = set()
    for eid, per_edge in split_at.items():
        path = d.paths[eid]
        for idx, new_vids in per_edge.items():
            a, b = path[idx], path[idx + 1]
            replaced.add(d.plan.edge_id(a, b))
            seq = [a, *new_vids, b]
            for x, y in zip(seq, seq[1:]):
                new_pedges.append((x, y))
            dart_map[(a, b)] = (a, seq[1])
            dart_map[(b, a)] = (b, seq[-2])
            for i, s in enumerate(new_vids):
                vkind[s] = f"real:{s}"
                sub_rot[s] = [(seq[i], s), (s, seq[i + 2])]
    for peid, (a, b) in enumerate(d.plan.edges):
        if peid not in replaced:
            new_pedges.append((a, b))
            dart_map[(a, b)] = (a, b)
            dart_map[(b, a)] = (b, a)
    new_plan = Graph.make(
        tuple(d.plan.vertices) + tuple(v for vs in chains.values() for v in vs),
        new_pedges,
    )

    # Rotations: positional replacement at old vertices, two-entry lists at
    # the new subdivision vertices.
    new_rotation: dict[int, tuple[int, ...]] = {}
    for v, rot in d.rotation.items():
        ids = []
        for old_eid in rot:
            a, b = d.plan.edges[old_eid]
            other = b if a == v else a
            na, nb = dart_map[(v, other)]
            ids.append(new_plan.edge_id(na, nb))
        new_rotation[v] = tuple(ids)
    for s, darts in sub_rot.items():
        new_rotation[s] = tuple(new_plan.edge_id(a, b) for a, b in darts)

    # New base and traces: each original edge splits at its cut vertices.
    # Piece endpoints are base vertex ids (real copies map back through kind).
    new_bverts = tuple(d.base.vertices) + tuple(v for vs in chains.values() for v in vs)
    piece_edges: dict[tuple[int, int], tuple[int, int]] = {}
    piece_paths: dict[tuple[int, int], list[int]] = {}
    for eid in range(d.base.m):
        path = d.paths[eid]
        per_edge = split_at.get(eid, {})
        full: list[int] = []
        for i, q in enumerate(path):
            full.append(q)
            if i in per_edge:
                full.extend(per_edge[i])
        chain = chains.get(eid, [])
        marks = [0] + [full.index(s) for s in chain] + [len(full) - 1]
        for j, (a, b) in enumerate(zip(marks, marks[1:])):
            piece_edges[(eid, j)] = (int(vkind[full[a]][5:]), int(vkind[full[b]][5:]))
            piece_paths[(eid, j)] = full[a : b + 1]
    new_base = Graph.make(new_bverts, piece_edges.values())
    new_trace: dict[int, tuple[int, ...]] = {}
    arc_to_new: dict[tuple[int, int], int] = {}
    for key, (x, y) in piece_edges.items():
        neid = new_base.edge_id(x, y)
        arc_to_new[key] = neid
        pp = piece_paths[key]
        new_trace[neid] = tuple(new_plan.edge_id(a, b) for a, b in zip(pp, pp[1:]))

    # Track the outer face of every plan component through the refinement.
    d2 = Drawing(new_base, new_plan, new_rotation, vkind, new_trace, d.outer)
    if d.plan.m:
        outer, *outers = [
            d2.face_of_dart(dart_map[d.faces[f][0]])
            for f in sorted(_oracle_roots(d).values(), key=lambda f: f != d.outer)
        ]
        d2 = d2.with_outer(outer, sorted(outers))
    new_to_arc = {neid: key for key, neid in arc_to_new.items()}
    return d2, arc_to_new, new_to_arc


# ===== Minor-model oracles (APSP / partition enumeration based) =====


def oracle_model_violations(m) -> list[str]:
    """Independent recomputation of the three model conditions via APSP."""
    inf = float("inf")
    out = []
    for v in m.pattern.vertices:
        sub = sorted(set(m.branch[v]))
        dist = apsp(m.host, sub)
        if any(dist[(a, b)] == inf for a in sub for b in sub):
            out.append(f"(i) branch {v} not connected")
            continue
        r = int(min(max(dist[(a, b)] for b in sub) for a in sub))
        if r > m.d:
            out.append(f"(i) branch {v} radius {r} > {m.d}")
    counts: dict[int, int] = {}
    for v in m.pattern.vertices:
        for u in set(m.branch[v]):
            counts[u] = counts.get(u, 0) + 1
    for u in sorted(counts):
        if counts[u] > m.c:
            out.append(f"(ii) vertex {u} in {counts[u]} sets")
    eset = set(m.host.edges)
    for v, w in m.pattern.edges:
        a, b = set(m.branch[v]), set(m.branch[w])
        touches = bool(a & b) or any(
            (min(x, y), max(x, y)) in eset for x in a for y in b
        )
        if not touches:
            out.append(f"(iii) edge ({v}, {w}) does not touch")
    return sorted(out)


def oracle_contains_minor_c1(host, pattern, d: int) -> bool:
    """Disjoint-branch containment by enumerating host-vertex partitions."""
    inf = float("inf")
    pv = list(pattern.vertices)
    eset = set(host.edges)
    for assign in itertools.product(range(len(pv) + 1), repeat=host.n):
        branch: dict[int, list[int]] = {v: [] for v in pv}
        for hv, a in zip(host.vertices, assign):
            if a:
                branch[pv[a - 1]].append(hv)
        if any(not vs for vs in branch.values()):
            continue
        ok = True
        for v in pv:
            sub = branch[v]
            dist = apsp(host, sub)
            if any(dist[(x, y)] == inf for x in sub for y in sub):
                ok = False
                break
            if min(max(dist[(x, y)] for y in sub) for x in sub) > d:
                ok = False
                break
        if not ok:
            continue
        for v, w in pattern.edges:
            a, b = set(branch[v]), set(branch[w])
            if not any((min(x, y), max(x, y)) in eset for x in a for y in b):
                ok = False
                break
        if ok:
            return True
    return False


def _zones_nonempty(
    host: Graph,
    pattern: Graph,
    branch: dict[int, tuple[int, ...]],
    load: dict[int, int],
    c: int,
    remaining: Iterable[int],
) -> bool:
    """Sound prune: every unassigned pattern vertex adjacent to an assigned
    one still has a free host vertex in or next to each such branch set."""
    for w in remaining:
        for wp in pattern.neighbors(w):
            if wp not in branch:
                continue
            zone = set(branch[wp])
            for u in branch[wp]:
                zone.update(host.neighbors(u))
            if not any(load[u] < c for u in zone):
                return False
    return True


def oracle_find_model(
    host: Graph, pattern: Graph, c: int, d: int, cap: int = 10
) -> Optional[MinorModel]:
    """Finds the first congestion-``c`` depth-``d`` model in deterministic
    order (branch sets by size, then lexicographically), or None.

    Hosts with more than ``cap`` vertices are refused; raise the cap
    explicitly for larger exhaustive runs.
    """
    if c < 1 or d < 0:
        raise ValueError("bad model: c must be positive and d nonnegative")
    if host.n > cap:
        raise CapExceeded("search cap exceeded")
    pverts = list(pattern.vertices)
    load = {u: 0 for u in host.vertices}
    branch: dict[int, tuple[int, ...]] = {}

    def candidates(v: int):
        assigned = [w for w in pattern.neighbors(v) if w in branch]
        allowed = [u for u in host.vertices if load[u] < c]
        for size in range(1, len(allowed) + 1):
            for subset in itertools.combinations(allowed, size):
                if not _admissible(host, subset, d):
                    continue
                if all(_touch(host, subset, branch[w]) for w in assigned):
                    yield subset

    def rec(i: int) -> bool:
        if i == len(pverts):
            return True
        if sum(c - load[u] for u in host.vertices) < len(pverts) - i:
            return False
        if not _zones_nonempty(host, pattern, branch, load, c, pverts[i:]):
            return False
        v = pverts[i]
        for subset in candidates(v):
            branch[v] = subset
            for u in subset:
                load[u] += 1
            if rec(i + 1):
                return True
            for u in subset:
                load[u] -= 1
            del branch[v]
        return False

    if rec(0):
        return MinorModel(host, pattern, dict(branch), c, d)
    return None


# ===== Arrangement oracles =====
#
# The ``Fraction`` primitives the kernel no longer calls (the on-segment
# test, crossing points and parameters along a segment), the shared
# arrangement as it was before it ordered crossings by integer triples and
# read each segment's order from the crossing ids (``Fraction`` points,
# sorted parameters along each segment), and the synthesizer's
# region arena and the polyline drawing builder as they were before both
# drew through the shared arrangement in ``geometry`` (one pair loop per
# caller).


def strictly_inside(a: Point, b: Point, x: Point) -> bool:
    """Whether ``x`` lies on segment ``ab`` strictly between its endpoints."""
    if orientation(a, b, x) != 0:
        return False
    dot = (x[0] - a[0]) * (b[0] - a[0]) + (x[1] - a[1]) * (b[1] - a[1])
    length2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < length2


def cross_point(a: Point, b: Point, c: Point, d: Point) -> tuple[Fraction, Fraction]:
    """The intersection point of the lines ``ab`` and ``cd`` (must not be
    parallel), as ``Fraction`` coordinates."""
    r: Vec = (b[0] - a[0], b[1] - a[1])
    s: Vec = (d[0] - c[0], d[1] - c[1])
    den = r[0] * s[1] - r[1] * s[0]
    if den == 0:
        raise ValueError("parallel lines have no crossing point")
    num = (c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]
    return (
        Fraction(a[0] * den + num * r[0], den),
        Fraction(a[1] * den + num * r[1], den),
    )


def param_along(a: Point, b: Point, x: Point) -> Fraction:
    """The parameter ``t`` with ``x = a + t*(b-a)`` for a point on line ``ab``."""
    if b[0] != a[0]:
        return Fraction(x[0] - a[0], b[0] - a[0])
    if b[1] != a[1]:
        return Fraction(x[1] - a[1], b[1] - a[1])
    raise ValueError("degenerate segment")


def oracle_arrangement(
    segs: Sequence[tuple[object, Point, Point]],
) -> Optional[tuple[list[Point], list[list[int]]]]:
    """The crossings of the integer segments ``(tag, a, b)``.

    Segments that share an endpoint are never tested.  Two crossing segments
    with one tag raise ``ValueError("edge crosses itself")``, and the answer
    is None as soon as a crossing point repeats under another set of tags.
    Otherwise returns the crossing points in coordinate order and, for each
    segment, the numbers of its crossings in order from ``a``.
    """
    tags_at: dict[Point, set[object]] = {}
    recs: list[tuple[Point, int, int]] = []
    for s1, (t1, a, b) in enumerate(segs):
        for s2 in range(s1 + 1, len(segs)):
            t2, c, d = segs[s2]
            if a == c or a == d or b == c or b == d or not properly_cross(a, b, c, d):
                continue
            if t1 == t2:
                raise ValueError("edge crosses itself")
            x = cross_point(a, b, c, d)
            tags = {t1, t2}
            if tags_at.setdefault(x, tags) != tags:
                return None
            recs.append((x, s1, s2))
    recs.sort()
    along: list[list[tuple[Fraction, int]]] = [[] for _ in segs]
    for i, (x, s1, s2) in enumerate(recs):
        for s in (s1, s2):
            _, a, b = segs[s]
            along[s].append((param_along(a, b, x), i))
    return [x for x, _, _ in recs], [[i for _, i in sorted(on)] for on in along]


def oracle_arena(
    vids: list[int],
    chords: list[tuple[tuple[int, int], int, int]],
    fresh: Iterator[int],
) -> tuple[
    dict[tuple[int, int], list[int]],
    list[tuple[int, int]],
    dict[int, tuple[int, ...]],
    list[int],
]:
    """Realize one region as straight chords between convex positions.

    Positions sit on a parabola at slightly jittered abscissae ``t = N/D``,
    scaled by ``D**2`` to the integer points ``(N*D, N*N)``; the jitter is
    retried until no three chords pass through a common point.  Returns the
    plan-vertex chain of every chord, the chord fragment edges, the circular
    neighbor order at crossings and at positions of degree two or more, and
    the new crossing vertex ids.
    """
    n = len(vids)
    denom = 999983 * 2000
    pts: list[tuple[int, int]] = []
    recs: list[tuple[Point, int, int]] = []
    for attempt in range(1000):
        pts = []
        for j in range(n):
            num = j * denom + attempt * ((j * j * 7919 + j * 104729 + 12345) % 999983)
            pts.append((num * denom, num * num))
        seen: set[Point] = set()
        recs = []
        ok = True
        for i, (_, a1, b1) in enumerate(chords):
            for j in range(i + 1, len(chords)):
                _, a2, b2 = chords[j]
                if {a1, b1} & {a2, b2}:
                    continue
                if not properly_cross(pts[a1], pts[b1], pts[a2], pts[b2]):
                    continue
                x = cross_point(pts[a1], pts[b1], pts[a2], pts[b2])
                if x in seen:
                    ok = False
                    break
                seen.add(x)
                recs.append((x, i, j))
            if not ok:
                break
        if ok:
            break
    else:
        raise InvariantBroken("construction invariant broken")

    recs.sort(key=lambda r: r[0])
    xids = [next(fresh) for _ in recs]

    # (parameter along the chord, plan vertex); every fragment of a chord
    # points along the chord's own integer direction.
    events: dict[int, list[tuple[Fraction, int]]] = {}
    for idx, (_, a, b) in enumerate(chords):
        events[idx] = [(Fraction(0), vids[a]), (Fraction(1), vids[b])]
    for (x, i, j), xv in zip(recs, xids):
        for c in (i, j):
            _, a, b = chords[c]
            events[c].append((param_along(pts[a], pts[b], x), xv))

    chains: dict[tuple[int, int], list[int]] = {}
    edges: list[tuple[int, int]] = []
    around: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    endpoint_rays: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for idx, (ref, a, b) in enumerate(chords):
        evs = sorted(events[idx], key=lambda e: e[0])
        chain = [vid for _, vid in evs]
        chains[ref] = chain
        edges.extend(zip(chain, chain[1:]))
        fwd = (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1])
        back = (-fwd[0], -fwd[1])
        for t in range(1, len(chain) - 1):
            around.setdefault(chain[t], []).extend(
                [(chain[t - 1], back), (chain[t + 1], fwd)]
            )
        endpoint_rays.setdefault(a, []).append((chain[1], fwd))
        endpoint_rays.setdefault(b, []).append((chain[-2], back))

    rots: dict[int, tuple[int, ...]] = {}
    for xv, items in around.items():
        rots[xv] = tuple(sort_ccw(items))
    for pos, items in endpoint_rays.items():
        if len(items) >= 2:
            rots[vids[pos]] = tuple(sort_ccw(items))
    return chains, edges, rots, xids


def oracle_drawing_along(
    base: Graph,
    kind: Mapping[int, str],
    paths: Mapping[int, Sequence[int]],
    around: Mapping[int, Sequence[int]],
) -> Drawing:
    """The plan builder that looked every plan edge up by its vertex pair,
    and listed a vertex without an ``around`` entry by its sorted
    neighbours."""
    plan = Graph.make(kind, (e for path in paths.values() for e in zip(path, path[1:])))
    eid = plan.edge_id
    rotation = {
        v: tuple(eid(v, w) for w in around.get(v, plan.adj[v])) for v in plan.vertices
    }
    trace = {e: tuple(eid(p, q) for p, q in zip(path, path[1:])) for e, path in paths.items()}
    return Drawing(base, plan, rotation, kind, trace, 0)


def oracle_drawing_from_polylines(
    g: Graph,
    pos: Mapping[int, Point],
    bends: Optional[Mapping[int, Sequence[Point]]] = None,
) -> Drawing:
    """Builds the drawing of ``g`` where each edge follows a polyline.

    ``bends[eid]`` lists an edge's interior corner points in order from its
    smaller endpoint; corners become subdivision vertices of the plan.
    Degenerate inputs raise ValueError: coincident points, a vertex or bend
    in the interior of any segment, overlapping collinear pieces,
    self-crossing edges, or three edges through one point.  Crossing vertices
    get fresh ids in coordinate order; the outer face is recovered from the
    geometry.
    """
    for v in g.vertices:
        if v not in pos:
            raise ValueError(f"vertex {v} has no position")
    bends = bends or {}
    for eid in bends:
        if not (0 <= eid < g.m):
            raise ValueError(f"unknown edge {eid} in bends")

    # One common integer scale for every vertex and bend point.
    given = [pos[v] for v in g.vertices] + [p for chain in bends.values() for p in chain]
    scale = lcm(*(Fraction(c).denominator for p in given for c in p))

    def grid(p: Point) -> tuple[int, int]:
        return (int(Fraction(p[0]) * scale), int(Fraction(p[1]) * scale))

    pts = {v: grid(pos[v]) for v in g.vertices}
    chains = {
        eid: [pts[u], *map(grid, bends.get(eid, ())), pts[v]]
        for eid, (u, v) in enumerate(g.edges)
    }

    # Every vertex and bend point is a node; nodes are pairwise distinct.
    node_pts: set[tuple[int, int]] = set()
    for p in [*pts.values(), *(p for eid in sorted(bends) for p in chains[eid][1:-1])]:
        if p in node_pts:
            raise ValueError("coincident vertices")
        node_pts.add(p)

    # Segments: (edge, index along chain, endpoints).
    segs: list[tuple[int, int, tuple[int, int], tuple[int, int]]] = []
    for eid, chain in chains.items():
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            if a == b:
                raise ValueError("degenerate segment")
            segs.append((eid, i, a, b))

    for p in node_pts:
        for _, _, a, b in segs:
            if strictly_inside(a, b, p):
                raise ValueError("vertex on edge")

    # Any collinear overlap between segments puts some chain point strictly
    # inside another segment, so the check above already rejected it.
    hits: dict[Point, set[int]] = {}  # crossing point -> the two edges
    along: dict[tuple[int, int], list[tuple[Fraction, Point]]] = {}
    for s1 in range(len(segs)):
        for s2 in range(s1 + 1, len(segs)):
            e1, i1, a, b = segs[s1]
            e2, i2, c, d = segs[s2]
            if e1 == e2:
                if abs(i1 - i2) > 1 and properly_cross(a, b, c, d):
                    raise ValueError("edge crosses itself")
                continue
            if properly_cross(a, b, c, d):
                x = cross_point(a, b, c, d)
                entry = hits.setdefault(x, set())
                entry |= {e1, e2}
                if len(entry) > 2:
                    raise ValueError("concurrent crossings")
                along.setdefault((e1, i1), []).append((param_along(a, b, x), x))
                along.setdefault((e2, i2), []).append((param_along(c, d, x), x))

    fresh = max(g.vertices, default=-1) + 1
    kind = {v: f"real:{v}" for v in g.vertices}
    ppos: dict[int, Point] = dict(pts)
    bend_id: dict[tuple[int, int], int] = {}
    for eid in sorted(bends):
        for i, p in enumerate(chains[eid][1:-1]):
            bend_id[(eid, i)] = fresh
            kind[fresh] = "subdivision"
            ppos[fresh] = p
            fresh += 1
    xid: dict[Point, int] = {}
    for x in sorted(hits):
        xid[x] = fresh
        kind[fresh] = "crossing"
        ppos[fresh] = x
        fresh += 1

    # Plan paths: walk each chain, inserting crossings in parameter order and
    # bend vertices at the chain corners.  Every plan edge lies on one
    # segment, so its direction is that segment's integer direction.
    paths: dict[int, list[int]] = {}
    dart_dir: dict[tuple[int, int], Vec] = {}
    for eid, (u, v) in enumerate(g.edges):
        chain = chains[eid]
        path = [u]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            r = (b[0] - a[0], b[1] - a[1])
            stops = [xid[x] for _, x in sorted(along.get((eid, i), ()))]
            stops.append(bend_id[(eid, i)] if i < len(chain) - 2 else v)
            for q in stops:
                dart_dir[(path[-1], q)] = r
                dart_dir[(q, path[-1])] = (-r[0], -r[1])
                path.append(q)
        paths[eid] = path
    plan_edges = [(p, q) for path in paths.values() for p, q in zip(path, path[1:])]
    plan = Graph.make(sorted(ppos), plan_edges)

    rotation: dict[int, tuple[int, ...]] = {}
    adj_eids: dict[int, list[int]] = {p: [] for p in plan.vertices}
    for peid, (p, q) in enumerate(plan.edges):
        adj_eids[p].append(peid)
        adj_eids[q].append(peid)
    for p in plan.vertices:
        items = []
        for peid in adj_eids[p]:
            a, b = plan.edges[peid]
            items.append((peid, dart_dir[(p, b if a == p else a)]))
        rotation[p] = tuple(sort_ccw(items))

    trace = {
        eid: tuple(plan.edge_id(a, b) for a, b in zip(path, path[1:]))
        for eid, path in paths.items()
    }
    d = Drawing(g, plan, rotation, kind, trace, 0)
    if plan.m:
        # Each plan component's lowest vertex, the lowest of all first.
        comps = oracle_component_index(plan.vertices, plan.edges)
        lowest: dict[int, int] = {}
        for p in sorted(plan.vertices, key=lambda p: (ppos[p][1], ppos[p][0])):
            if plan.degree(p):
                lowest.setdefault(comps[p], p)
        outer, *outers = [_oracle_outer_face_index(d, p, dart_dir) for p in lowest.values()]
        d = d.with_outer(outer, sorted(outers))
    return d


def _oracle_outer_face_index(
    d: Drawing, p0: int, dart_dir: Mapping[tuple[int, int], Vec]
) -> int:
    """The face on the unbounded side of the plan component whose lowest
    vertex is ``p0``: walk from ``p0`` along its highest-angle edge; the
    face left of that dart is outer."""
    best = None
    for q in d.plan.neighbors(p0):
        v = dart_dir[(p0, q)]
        if best is None or dir_cmp(v, best[1]) > 0:
            best = (q, v)
    assert best is not None
    return d.face_of_dart((p0, best[0]))


# ===== Fixture oracle (rebuild per candidate) =====


def oracle_random_kplanar(n: int, k: int, seed: int):
    """``fixtures.random_kplanar`` the slow way: every candidate chord is
    tried by building the whole drawing with it and checking k-planarity.

    Draws from the random generator in the same order as the library.  It
    shares the library's drawing builder, so what it checks is the
    generator's incremental bookkeeping, not the geometry.
    """
    rng = random.Random(seed)
    pos = {i: pt(i, rng.randrange(0, 2 * n + 1)) for i in range(n)}
    edges = [(i, i + 1) for i in range(n - 1)]
    d = drawing_from_segments(Graph.make(range(n), edges), pos)
    for _ in range(3 * n):
        u, w = rng.randrange(n), rng.randrange(n)
        u, w = min(u, w), max(u, w)
        if w - u < 2 or (u, w) in edges:
            continue
        try:
            cand = drawing_from_segments(Graph.make(range(n), edges + [(u, w)]), pos)
        except ValueError:
            continue
        if is_k_planar(cand, k):
            edges.append((u, w))
            d = cand
    return d


# ===== Face oracles (dart tuples; a rebuilt and validated drawing) =====


def oracle_component_index(vertices, edges) -> dict[int, int]:
    """Vertex -> component number by BFS, numbered in order of least vertex."""
    comp: dict[int, int] = {}
    for s in sorted(vertices):
        if s in comp:
            continue
        label = len(set(comp.values()))
        comp[s] = label
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a, b in edges:
                if u in (a, b):
                    w = b if u == a else a
                    if w not in comp:
                        comp[w] = label
                        queue.append(w)
    return comp


def oracle_faces(d: Drawing) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``Drawing.faces`` the slow way: darts are ``(u, v)`` tuples, stepped
    through the plan's edge ids and a ``(vertex, edge)`` -> rotation
    position table, with an orbit started at every unseen dart in sorted
    order."""
    rotpos = {(v, e): i for v, eids in d.rotation.items() for i, e in enumerate(eids)}

    def next_dart(dart: tuple[int, int]) -> tuple[int, int]:
        u, v = dart
        rot = d.rotation[v]
        a, b = d.plan.edges[rot[(rotpos[(v, d.plan.edge_id(u, v))] - 1) % len(rot)]]
        return (v, b if a == v else a)

    darts = [(u, v) for u, v in d.plan.edges] + [(v, u) for u, v in d.plan.edges]
    seen: set[tuple[int, int]] = set()
    out = []
    for d0 in sorted(darts):
        if d0 in seen:
            continue
        orbit = [d0]
        seen.add(d0)
        cur = next_dart(d0)
        while cur != d0:
            orbit.append(cur)
            seen.add(cur)
            cur = next_dart(cur)
        k = orbit.index(min(orbit))
        out.append(tuple(orbit[k:] + orbit[:k]))
    out.sort(key=lambda f: f[0])
    return tuple(out)


def oracle_nonplane_components(d: Drawing) -> list[int]:
    """The plan components, numbered as by ``oracle_component_index``,
    whose V - E + F is not 2 over the faces of ``oracle_faces``; an isolated
    vertex has one face."""
    comp = oracle_component_index(d.plan.vertices, d.plan.edges)
    euler = Counter(comp.values())
    for a, _ in d.plan.edges:
        euler[comp[a]] -= 1
    for f in oracle_faces(d):
        euler[comp[f[0][0]]] += 1
    for v in d.plan.vertices:
        if not d.plan.degree(v):
            euler[comp[v]] += 1
    return sorted(c for c, x in euler.items() if x != 2)


# ===== Strong fan-property oracle (a face union-find over the whole plan) =====


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _oracle_roots(d: Drawing) -> dict[int, int]:
    """Plan component -> the face representing its unbounded side: the
    drawing's outer face if it borders that component, else the component's
    entry in ``d.outers``, else its canonically first face."""
    comps = oracle_component_index(d.plan.vertices, d.plan.edges)
    roots: dict[int, int] = {}
    for f in (d.outer, *d.outers, *range(len(d.faces))) if d.faces else ():
        roots.setdefault(comps[d.faces[f][0][0]], f)
    return roots


def _outer_class_face(d: Drawing, pvid: int) -> int:
    """The face representing the unbounded side for ``pvid``'s plan component."""
    comp = oracle_component_index(d.plan.vertices, d.plan.edges)[pvid]
    return _oracle_roots(d)[comp]


def oracle_fan_core(
    d: Drawing, alpha_path: Sequence[int], fan_paths: Sequence[Sequence[int]]
) -> bool:
    """``drawing._fan_core`` the slow way: condition (3) merges faces across
    every plan edge off the paths in a union-find, and the kept edges are
    found through ``Graph.edge_id``.

    The strong fan-property conditions over explicit plan paths.

    ``alpha_path`` is the arc's plan path; every entry of ``fan_paths`` is a
    full edge path oriented away from the fan center.  Checks: (1) each fan
    path meets the arc in exactly one crossing; (2) all approaches come from
    the same side; (3) deleting everything else never encloses an end of the
    arc.
    """
    alpha_x = {q for q in alpha_path[1:-1] if d.kind_of(q) == "crossing"}
    hits: list[tuple[int, Dart]] = []
    for fp in fan_paths:
        common = [q for q in fp if q in alpha_x]
        if len(common) != 1:
            return False
        x = common[0]
        j = fp.index(x)
        hits.append((x, (fp[j - 1], x)))
    sides = {_passage_side(d, alpha_path, x, din) for x, din in hits}
    if len(sides) > 1:
        return False

    kept: set[int] = set()
    for seq in [alpha_path, *fan_paths]:
        for a, b in zip(seq, seq[1:]):
            kept.add(d.plan.edge_id(a, b))
    uf = _UnionFind(len(d.faces))
    face_of = d._face_table[1]
    for peid in range(d.plan.m):
        if peid not in kept:
            uf.union(face_of[2 * peid], face_of[2 * peid + 1])
    outer = uf.find(_outer_class_face(d, alpha_path[0]))
    for p in (alpha_path[0], alpha_path[-1]):
        touching = set()
        for q in d.plan.neighbors(p):
            touching.add(d.face_of_dart((p, q)))
            touching.add(d.face_of_dart((q, p)))
        if not any(uf.find(f) == outer for f in touching):
            return False
    return True


def oracle_materialize(rs: _RotSys) -> Drawing:
    """The crossing-free drawing of a finished rotation system.

    Raises ``InvariantBroken`` on parallel edges, ``ValueError`` on loops or
    unknown endpoints, and ``KeyError`` when a rotation lists an unknown
    edge.
    """
    verts = sorted(rs.rot)
    pairs = {e: (min(ab), max(ab)) for e, ab in rs.ends.items()}
    if len(set(pairs.values())) != len(pairs):
        raise InvariantBroken("construction invariant broken")
    base = Graph.make(verts, pairs.values())
    emap = {e: base.edge_id(*ab) for e, ab in pairs.items()}
    rotation = {v: tuple(emap[e] for e in rs.rot[v]) for v in verts}
    kind = {v: f"real:{v}" for v in verts}
    trace = {i: (i,) for i in range(base.m)}
    return Drawing(base, base, rotation, kind, trace, 0)


def oracle_surgery_nonplane(rs: _RotSys) -> Optional[list[int]]:
    """The non-plane components of the system's materialized drawing, by
    ``oracle_nonplane_components``, or None if it fails to materialize or
    fails a check of ``validate`` other than the Euler one."""
    try:
        d = oracle_materialize(rs)
        errs = validate(d)
    except (InvariantBroken, KeyError, ValueError):
        return None
    if any(not e.startswith("euler:") for e in errs):
        return None
    return oracle_nonplane_components(d)


def oracle_surgery_ok(rs: _RotSys) -> bool:
    """Whether the system materializes into a drawing that passes every
    check of ``validate`` but the Euler one, with every component plane by
    the oracle's own count."""
    return oracle_surgery_nonplane(rs) == []


# ===== Surgery oracle (a mutable rotation system) =====
#
# The rotation-system surgery the library used before it built its cuts and
# its clustered output on dense edge lists: a mutable system with its own
# edge ids, the cuts made on it, cluster contraction one edge at a time, and
# the check and renaming of a finished surgery.


class _RotSys:
    """A mutable rotation system for cutting base edges (:func:`_split`)
    and for the clustered transducer's surgery, which contracts crossing
    clusters into hubs.  It is an edge list with counterclockwise
    rotations, as in a doubly-connected edge list, and tolerates parallel
    edges mid-surgery.  The k-planar transducer needs none of this: its
    output is the plan with every bend smoothed and every edge subdivided
    twice, which it writes in one pass.

    Edge ids are local: the plan's ids to start with, fresh ones above them
    for every new edge.  New vertex ids start above both the plan's and the
    base's ids, so a cut vertex can also be a base vertex.  Every operation
    below preserves realizability in the plane; :meth:`is_plane_simple`
    checks that a finished surgery is a plane simple graph.
    """

    def __init__(self, d: Drawing) -> None:
        d._embedding  # raises ValueError unless each plan edge is listed once at both ends
        self.rot: dict[int, list[int]] = {v: list(r) for v, r in d.rotation.items()}
        self.ends: dict[int, tuple[int, int]] = dict(enumerate(d.plan.edges))
        self._fresh_e = d.plan.m
        self._fresh_v = max((*d.plan.vertices, *d.base.vertices), default=-1) + 1

    def other(self, eid: int, v: int) -> int:
        a, b = self.ends[eid]
        return b if a == v else a

    def new_edge_id(self) -> int:
        self._fresh_e += 1
        return self._fresh_e - 1

    def new_vertex_id(self) -> int:
        self._fresh_v += 1
        return self._fresh_v - 1

    def smooth(self, v: int) -> int:
        """Removes a degree-2 vertex, fusing its two edges into one."""
        e1, e2 = self.rot[v]
        p, q = self.other(e1, v), self.other(e2, v)
        ne = self.new_edge_id()
        self.ends[ne] = (p, q)
        self.rot[p][self.rot[p].index(e1)] = ne
        self.rot[q][self.rot[q].index(e2)] = ne
        del self.rot[v], self.ends[e1], self.ends[e2]
        return ne

    def contract(self, eid: int, keep: int) -> None:
        """Contracts an edge, merging its other endpoint into ``keep``.

        The absorbed rotation is spliced in at the edge's slot; edges that
        become loops are dropped (each drop merges two faces, keeping the
        system planar).
        """
        gone = self.other(eid, keep)
        ra, rb = self.rot[keep], self.rot[gone]
        ia, ib = ra.index(eid), rb.index(eid)
        spliced = ra[:ia] + rb[ib + 1 :] + rb[:ib] + ra[ia + 1 :]
        del self.rot[gone], self.ends[eid]
        for f in rb:
            if f == eid:
                continue
            a, b = self.ends[f]
            self.ends[f] = (keep if a == gone else a, keep if b == gone else b)
        kept = [f for f in spliced if self.ends[f][0] != self.ends[f][1]]
        for f in set(spliced) - set(kept):
            del self.ends[f]
        self.rot[keep] = kept

    def remove_edge(self, eid: int) -> None:
        a, b = self.ends.pop(eid)
        self.rot[a].remove(eid)
        self.rot[b].remove(eid)

    def subdivide_edge(self, eid: int, start: int) -> tuple[int, int, int]:
        """Splits an edge once at a new vertex ``s``.

        Returns ``s``, the new edge from ``start`` to ``s`` and the new edge
        from ``s`` to the other end.  Each end keeps the edge's rotation
        slot, and ``s`` lists the two edges in that order.
        """
        end = self.other(eid, start)
        del self.ends[eid]
        s = self.new_vertex_id()
        e1, e2 = self.new_edge_id(), self.new_edge_id()
        self.ends[e1] = (start, s)
        self.ends[e2] = (s, end)
        self.rot[start][self.rot[start].index(eid)] = e1
        self.rot[end][self.rot[end].index(eid)] = e2
        self.rot[s] = [e1, e2]
        return s, e1, e2

    def is_plane_simple(self) -> bool:
        """Whether the finished system is a simple graph embedded in the
        plane (see :func:`_plane_simple`), read with its edge ids made
        dense; an id listed in a rotation but not in ``ends`` becomes -1,
        which the dart kernel refuses."""
        ids = {e: i for i, e in enumerate(self.ends)}
        rot = {v: [ids.get(e, -1) for e in r] for v, r in self.rot.items()}
        return _plane_simple(list(self.ends.values()), rot)


def _split(
    d: Drawing, cuts: Mapping[int, tuple[int, ...]]
) -> tuple[_RotSys, list[tuple[int, tuple[int, int], list[int]]]]:
    """The cuts made on a :class:`_RotSys`, with no drawing built.

    Every edge's trace is walked from its smaller endpoint and split at each
    of its cuts in turn (see :func:`_cut_step`), so cut vertices are
    numbered by edge, then along the trace.  Returns the system and every
    piece in that order as (edge of ``d``, its two end vertices, its plan
    edges in the system's edge ids, in path order).  An end is a base
    vertex of ``d`` or a cut vertex, which is its own real vertex.
    """
    rs = _RotSys(d)
    made: list[tuple[int, tuple[int, int], list[int]]] = []
    for eid, (u, v) in enumerate(d.base.edges):
        path, steps = d.paths[eid], _steps(d, eid)
        at = [_cut_step(d, eid, g) for g in cuts.get(eid, ())]
        tail, piece = u, []
        for i, pe in enumerate(steps):
            a = path[i]
            for _ in range(at.count(i)):
                s, e1, pe = rs.subdivide_edge(pe, a)
                made.append((eid, (tail, s), piece + [e1]))
                tail, piece, a = s, [], s
            piece.append(pe)
        made.append((eid, (tail, v), piece))
    return rs, made


def _contract_into(rs: _RotSys, keep: int, interior: set[int]) -> None:
    """Contracts a connected vertex set (plus its inner edges) into one."""
    left = interior - {keep}
    while left:
        eid = next(
            (e for e in rs.rot[keep] if rs.other(e, keep) in left), None
        )
        if eid is None:
            raise InvariantBroken("construction invariant broken")
        gone = rs.other(eid, keep)
        rs.contract(eid, keep)
        left.discard(gone)


def _assemble(
    d: Drawing,
    rs: _RotSys,
    real_of: dict[int, int],
    colors_s: dict[int, set[ColorLabel]],
    x_edges: dict[int, tuple[int, ...]],
    k: int,
    mode: str,
) -> TransductionOutput:
    """Checks the surgered system and relabels it into the output graph.

    ``is_plane_simple`` rules out loops, parallel pairs and edge ends
    missing from the rotations, and the renaming is injective, so
    :func:`_output` can build the graph directly.
    """
    if not rs.is_plane_simple():
        raise InvariantBroken("construction invariant broken")
    hverts = sorted(set(d.base.vertices) | set(x_edges))
    fresh = max(hverts, default=-1) + 1
    ren: dict[int, int] = {}
    for p in sorted(rs.rot):
        if p in real_of:
            ren[p] = real_of[p]
        else:
            ren[p] = fresh
            fresh += 1
    gedges = []
    for p, q in rs.ends.values():
        a, b = ren[p], ren[q]
        gedges.append((a, b) if a < b else (b, a))
    colors = {ren[p]: frozenset(ls) for p, ls in colors_s.items()}
    verts = sorted([*ren.values(), *x_edges])
    return _output(hverts, verts, gedges, colors, x_edges, k, mode)


# ===== k-planar transducer oracle (rotation-system surgery) =====


def oracle_transduce_kplanar(
    d: Drawing, x_edges: Mapping[int, Iterable[int]], k: int
) -> TransductionOutput:
    """``transduce.transduce_kplanar`` by surgery on a ``_RotSys``: every
    bend smoothed in increasing id order, then every remaining edge, in
    increasing local id, subdivided twice from its first end, and the
    surgered system checked, renamed and sorted by ``_assemble``.
    """
    _checked_k(k)
    _require_valid(d)
    if not is_k_planar(d, k):
        raise Infeasible("not k-planar")
    xn = _checked_x(d, x_edges, k)

    rs = _RotSys(d)
    # Smooth the bends away; owner maps local edge ids to base edge ids.
    owner = {pe: eid for eid, t in d.trace.items() for pe in t}
    for bend in _bends(d):
        e1, _e2 = rs.rot[bend]
        owner[rs.smooth(bend)] = owner[e1]
    b0, b1, b2 = ColorLabel("b", 0), ColorLabel("b", 1), ColorLabel("b", 2)
    crossing_edges = d.crossing_edges
    rank: dict[tuple[int, int], ColorLabel] = {}
    for x, (e1, e2) in crossing_edges.items():
        rank[(x, e1)] = b1
        rank[(x, e2)] = b2
    colors_s: dict[int, set[ColorLabel]] = {x: {b0} for x in crossing_edges}
    for e in sorted(rs.ends):
        a, b = rs.ends[e]
        own = owner[e]
        s1, _, tail = rs.subdivide_edge(e, a)
        s2, _, _ = rs.subdivide_edge(tail, s1)
        if a in crossing_edges:
            colors_s.setdefault(s1, set()).add(rank[(a, own)])
        if b in crossing_edges:
            colors_s.setdefault(s2, set()).add(rank[(b, own)])

    real_of = {d.real_pvid[v]: v for v in d.base.vertices}
    return _assemble(d, rs, real_of, colors_s, xn, k, "kplanar")


# ===== Clustered transducer oracle (two cuts) =====


def oracle_transduce_clustered(
    d: Drawing, cert: Certificate, x_edges: Mapping[int, Iterable[int]], k: int
) -> TransductionOutput:
    """``transduce.transduce_clustered`` by cutting twice: the certificate's
    cuts into a whole cut drawing (``subdivide_with_map``), then stubs cut
    on that drawing's rotation system, with the two piece maps joined and
    each fan edge's pieces ordered by walking them from the fan center.
    """
    _checked_k(k)
    _require_valid(d)
    report, cg, comps, keys = _verified(d, cert, strong=False)
    if not report.verdict or cert.k > k or cert.ell > k:
        raise Infeasible("certificate invalid")
    xn = _checked_x(d, x_edges, k)

    d2, pieces_d2 = subdivide_with_map(d, cert.plan)
    orig = set(d.base.vertices)
    stub_cuts: dict[int, tuple[int, ...]] = {}
    for e2, (u, v) in enumerate(d2.base.edges):
        c2 = len(d2.edge_crossings[e2])
        gaps = (0,) * (u in orig) + (c2,) * (v in orig)
        if gaps:
            stub_cuts[e2] = gaps
    rs, made = _split(d2, stub_cuts)
    kind = {**d2.kind, **{v: f"real:{v}" for v in rs.rot if v not in d2.rotation}}
    ends = [pair for _, pair, _ in made]
    pieces_d1: dict[int, list[int]] = {}
    for ne, (e2, _, _) in enumerate(made):
        pieces_d1.setdefault(e2, []).append(ne)

    def strands(eid: int) -> list[int]:
        return [ne for e2 in pieces_d2[eid] for ne in pieces_d1[e2]]

    def crossed(e2: int) -> int:
        if not d2.edge_crossings[e2]:
            raise InvariantBroken("construction invariant broken")
        return pieces_d1[e2][d2.base.edges[e2][0] in orig]

    for bend in _bends(d2):
        rs.smooth(bend)
    colors_s: dict[int, set[ColorLabel]] = {}
    for v in sorted({v for pair in ends for v in pair} - orig):
        colors_s[v] = {ColorLabel("bP", 0)}

    for ci, comp in enumerate(comps):
        cluster = {crossed(pieces_d2[eid][piece]) for eid, piece in (keys[n] for n in comp)}
        fan_sides: list[tuple[set[int], set[int]]] = []
        for fan in cert.covers[ci]:
            incident: set[int] = set()
            near: set[int] = set()
            for u, v in fan.edges:
                eid = d.base.edge_id(u, v)
                cur = fan.center
                reachable = True
                for ne in _chain_from(ends, strands(eid), fan.center):
                    a, b = ends[ne]
                    far = b if a == cur else a
                    if ne in cluster:
                        incident.update((cur, far))
                        if reachable:
                            near.add(cur)
                            reachable = False
                    cur = far
            fan_sides.append((near, incident - near))

        interior = sorted({x for n in comp for x in cg.crossings[n]})
        hub = interior[0]
        leaves = sorted({d2.real_pvid.get(w, w) for ne in cluster for w in ends[ne]})
        _contract_into(rs, hub, set(interior))
        colors_s[hub] = {ColorLabel("b", 0)}
        for leaf in leaves:
            spokes = [e for e in rs.rot[leaf] if rs.other(e, leaf) == hub]
            for e in spokes[1:]:
                rs.remove_edge(e)
            s, _, _ = rs.subdivide_edge(spokes[0], leaf)
            lb = int(kind[leaf][5:])
            marks = set()
            for j, (near, far) in enumerate(fan_sides, start=1):
                if lb in near:
                    marks.add(ColorLabel("b", j))
                if lb in far:
                    marks.add(ColorLabel("bP", j))
            colors_s[s] = marks

    real_of = {d2.real_pvid[v]: v for v in d.base.vertices}
    return _assemble(d, rs, real_of, colors_s, xn, k, "clustered")


def _chain_from(ends: Sequence[tuple[int, int]], eids: list[int], start: int) -> list[int]:
    """Orders path-forming edges by walking from the endpoint ``start``."""
    inc: dict[int, list[int]] = {}
    for e in eids:
        u, v = ends[e]
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    out: list[int] = []
    used: set[int] = set()
    cur = start
    while len(out) < len(eids):
        step = [e for e in inc[cur] if e not in used]
        if len(step) != 1:
            raise InvariantBroken("construction invariant broken")
        e = step[0]
        used.add(e)
        out.append(e)
        u, v = ends[e]
        cur = v if u == cur else u
    return out


# ===== Formula oracle (one search per vertex pair) =====


def oracle_eval_formula(out: TransductionOutput) -> Graph:
    """``transduce.eval_formula`` the slow way: one handshake test and one
    bounded simple-path search for every pair of original vertices.
    """
    hverts = sorted(out.embed)
    edges = []
    for a, b in itertools.combinations(hverts, 2):
        ga, gb = out.embed[a], out.embed[b]
        if _oracle_handshake(out.colored, ga, gb, out.formula.k) or _oracle_witness_path(
            out.colored, ga, gb, out.formula
        ):
            edges.append((a, b))
    return Graph.make(hverts, edges)


def _oracle_handshake(cg: ColoredGraph, ga: int, gb: int, k: int) -> bool:
    la, lb = cg.labels(ga), cg.labels(gb)
    for i in range(1, k + 1):
        ci, cpi = ColorLabel("c", i), ColorLabel("cP", i)
        if (ci in la and cpi in lb) or (ci in lb and cpi in la):
            return True
    return False


def _oracle_witness_path(cg: ColoredGraph, gx: int, gy: int, f: TransductionFormula) -> bool:
    """Exact bounded-depth simple-path search for the path clause."""
    g = cg.graph
    labels = cg.labels
    b0 = ColorLabel("b", 0)
    if f.mode == "kplanar":
        body = (ColorLabel("b", 1), ColorLabel("b", 2))
        allowed = frozenset()
    else:
        body = ()
        allowed = frozenset(
            {ColorLabel("bP", 0)}
            | {ColorLabel(kd, j) for kd in ("b", "bP") for j in range(1, f.k + 1)}
        )

    def mid_ok(prev: int, z: int, nxt: int) -> bool:
        lz = labels(z)
        if f.mode == "kplanar":
            if body[0] in lz or body[1] in lz:
                return True
            if b0 not in lz:
                return False
            lp, ln = labels(prev), labels(nxt)
            return any(c in lp and c in ln for c in body)
        if allowed & lz:
            return True
        if b0 not in lz:
            return False
        lp, ln = labels(prev), labels(nxt)
        for j in range(1, f.k + 1):
            bj, bpj = ColorLabel("b", j), ColorLabel("bP", j)
            if (bj in lp and bpj in ln) or (bpj in lp and bj in ln):
                return True
        return False

    def may_enter(v: int, position: int) -> bool:
        if f.mode == "kplanar":
            return True
        lv = labels(v)
        if allowed & lv:
            return True
        return b0 in lv and position >= 2

    def may_close(z: int, internals: int) -> bool:
        if internals == 0 or f.mode == "kplanar":
            return True
        return bool(allowed & labels(z))

    path = [gx]
    onpath = {gx}

    def dfs() -> bool:
        cur = path[-1]
        used = len(path) - 1
        for w in g.neighbors(cur):
            if w == gy:
                if used + 1 <= f.max_path_len and may_close(cur, used):
                    return True
                continue
            if w in onpath or used + 1 > f.max_path_len - 1:
                continue
            if not may_enter(w, used + 1):
                continue
            if used >= 2 and not mid_ok(path[-2], cur, w):
                continue
            path.append(w)
            onpath.add(w)
            if dfs():
                return True
            path.pop()
            onpath.remove(w)
        return False

    if gx == gy:
        return False
    return dfs()


# ===== Path-search oracle (hashed tables on vertex ids) =====


def oracle_path_search(
    cg: ColoredGraph, f: TransductionFormula
) -> Callable[[int, set[int]], list[int]]:
    """``transduce._path_search`` on ids, with hashed tables: the same
    frame machine, reading neighbours from ``Graph.adj`` and the labels
    into sets of plain vertices and hubs and dicts of the pair masks, one
    table entry per vertex.
    """
    adj = cg.graph.adj
    budget = f.max_path_len
    entry = _mode(f.mode)
    ends_plain = entry.ends_plain
    # Labels above the largest index in ``cg`` match nothing, so a large k
    # in a document costs nothing.
    top = min(f.k, max((label.index for ls in cg.colors.values() for label in ls), default=0))
    plain_labels = frozenset(entry.plain(top))
    opens: dict[ColorLabel, int] = {}
    closes: dict[ColorLabel, int] = {}
    for i, (a, b) in enumerate(entry.hub_pairs(top)):
        opens[a] = opens.get(a, 0) | 1 << i
        closes[b] = closes.get(b, 0) | 1 << i
    b0 = ColorLabel("b", 0)
    plain: set[int] = set()
    hubs: set[int] = set()  # b0 and no plain label
    before: dict[int, int] = {}
    after: dict[int, int] = {}
    for v, ls in cg.colors.items():
        if not plain_labels.isdisjoint(ls):
            plain.add(v)
        elif b0 in ls:
            hubs.add(v)
        bits_in = bits_out = 0
        for label in ls:
            bits_in |= opens.get(label, 0)
            bits_out |= closes.get(label, 0)
        if bits_in:
            before[v] = bits_in
        if bits_out:
            after[v] = bits_out

    def witnessed(src: int, targets: set[int]) -> list[int]:
        left = set(targets)
        found: list[int] = []
        onpath = {src}
        # One frame per path vertex, made when the vertex is entered and
        # popped on backtrack: the vertex, its neighbour iterator, the
        # number of edges used to reach it, whether the path may end after
        # it, whether it may go deeper (used + 2 edges fit the budget,
        # leaving room for the closing edge), whether it is a non-plain
        # vertex in the middle, and, for a hub there, the pairs its
        # predecessor opens.  A non-plain vertex in the middle lets only a
        # successor through that closes one of those pairs.
        stack = [(src, iter(adj[src]), 0, True, 2 <= budget, False, 0)]
        while stack:
            cur, nbrs, used, may_end, deeper, mid, opened = stack[-1]
            for w in nbrs:
                if w in onpath:
                    continue
                if w in left and may_end:
                    left.remove(w)
                    found.append(w)
                    if not left:
                        return found
                if not deeper or (ends_plain and w not in plain and not (used and w in hubs)):
                    continue
                if mid and not opened & after.get(w, 0):
                    continue
                onpath.add(w)
                w_plain = w in plain
                w_mid = used >= 1 and not w_plain
                stack.append((
                    w,
                    iter(adj[w]),
                    used + 1,
                    not ends_plain or w_plain,
                    used + 3 <= budget,
                    w_mid,
                    before.get(cur, 0) if w_mid and w in hubs else 0,
                ))
                break
            else:
                stack.pop()
                onpath.remove(cur)
        return found

    return witnessed


# ===== Rendered-formula oracle (parse the text, try every vertex) =====

_TOKEN = re.compile(r"\s*(~=|:=|[(),:&|]|[A-Za-z]\w*)")


def oracle_eval_rendered(out: TransductionOutput) -> Graph:
    """``transduce.eval_formula`` read off the text of ``render_formula``.

    The text is parsed into a tree and evaluated on every pair of original
    vertices.  Each quantified variable ranges over every vertex of the
    colored graph; a conjunct is checked as soon as its variables are bound.
    """
    tree = _rendered_tree(out.formula)
    hverts = sorted(out.embed)
    edges = [
        (a, b)
        for a, b in itertools.combinations(hverts, 2)
        if _holds(tree, {"x": out.embed[a], "y": out.embed[b]}, out.colored)
    ]
    return Graph.make(hverts, edges)


@lru_cache(maxsize=None)
def _rendered_tree(f: TransductionFormula):
    return _plan(_parse(render_formula(f)), frozenset({"x", "y"}))


def _parse(text: str):
    """Tree of ``xi(x, y) := ...``: ``("or", parts)``, ``("and", parts)``,
    ``("exists", var, body)``, ``("adj", a, b)``, ``("neq", a, b)`` and
    ``("label", ColorLabel, var)``."""
    text = text.strip()
    toks: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}")
        toks.append(m.group(1))
        pos = m.end()
    toks.reverse()

    def take(expected: Optional[str] = None) -> str:
        tok = toks.pop()
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        return tok

    def peek() -> Optional[str]:
        return toks[-1] if toks else None

    def disj():
        parts = [conj()]
        while peek() == "|":
            take()
            parts.append(conj())
        return ("or", parts) if len(parts) > 1 else parts[0]

    def conj():
        parts = [unit()]
        while peek() == "&":
            take()
            parts.append(unit())
        return ("and", parts) if len(parts) > 1 else parts[0]

    def unit():
        if peek() == "(":
            take()
            tree = body()
            take(")")
            return tree
        name = take()
        if peek() == "~=":
            take()
            return ("neq", name, take())
        take("(")
        args = [take()]
        while peek() == ",":
            take()
            args.append(take())
        take(")")
        if name == "adj":
            return ("adj", *args)
        (var,) = args
        return ("label", ColorLabel.parse(name), var)

    def body():
        if peek() == "exists":
            take()
            var = take()
            take(":")
            return ("exists", var, body())
        return disj()

    for tok in ("xi", "(", "x", ",", "y", ")", ":="):
        take(tok)
    tree = disj()
    if toks:
        raise ValueError(f"trailing text {toks[-1]!r}")
    return tree


def _free(tree) -> set[str]:
    kind = tree[0]
    if kind in ("or", "and"):
        return set().union(*(_free(t) for t in tree[1]))
    if kind == "exists":
        return _free(tree[2]) - {tree[1]}
    if kind == "label":
        return {tree[2]}
    return {tree[1], tree[2]}


def _plan(tree, bound: frozenset[str]):
    """``tree`` with every chain of quantifiers over a conjunction turned
    into ``("search", names, due)``: ``due[i]`` holds the conjuncts whose
    variables are all bound once ``names[:i]`` are."""
    kind = tree[0]
    if kind in ("or", "and"):
        return (kind, [_plan(t, bound) for t in tree[1]])
    if kind != "exists":
        return tree
    names = []
    while tree[0] == "exists":
        names.append(tree[1])
        tree = tree[2]
    parts = tree[1] if tree[0] == "and" else [tree]
    inner = bound | set(names)
    due: list[list] = [[] for _ in range(len(names) + 1)]
    for part in parts:
        stage = max((names.index(v) + 1 for v in _free(part) - bound), default=0)
        due[stage].append(_plan(part, inner))
    return ("search", names, due)


def _holds(tree, env: dict[str, int], cg: ColoredGraph) -> bool:
    kind = tree[0]
    if kind == "or":
        return any(_holds(t, env, cg) for t in tree[1])
    if kind == "and":
        return all(_holds(t, env, cg) for t in tree[1])
    if kind == "adj":
        return cg.graph.has_edge(env[tree[1]], env[tree[2]])
    if kind == "neq":
        return env[tree[1]] != env[tree[2]]
    if kind == "label":
        return tree[1] in cg.labels(env[tree[2]])
    _, names, due = tree

    def assign(i: int, env: dict[str, int]) -> bool:
        if not all(_holds(part, env, cg) for part in due[i]):
            return False
        if i == len(names):
            return True
        return any(assign(i + 1, {**env, names[i]: v}) for v in cg.graph.vertices)

    return assign(0, env)
