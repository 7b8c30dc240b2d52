"""Synthesis of clustered fan-crossing drawings from shallow minor models.

Given a crossing-free drawing of a host graph and a minor model of a pattern
graph whose branch sets have congestion and radius at most ``k``,
:func:`synthesize` draws the pattern itself: every pattern vertex sits at the
radius center of its branch set, every pattern edge follows a short route
through the two branch trees, and all crossings are confined to small disk
regions, one around each host vertex and one at the midpoint of each host
edge that connects two disjoint branch sets.  The construction then emits
subdivision cuts, fan covers, and an arc assignment certifying the drawing
as clustered strongly fan-crossing, and checks its own output with the
independent verifier before returning it.  Where its fixed fan assignment
fails that check, the exact per-component strong covers of
:mod:`fancross.cluster` certify the same drawing on the same cuts; if those
fail too it refuses to answer rather than return an unverified drawing.

Region interiors are realized as straight chords between exact integer
points on a convex arc: two chords cross exactly when their boundary
positions interleave, and lane orderings chosen per region make same-owner
chords nested rather than crossing.  Each region's chords go through the
segment arrangement of :mod:`fancross.geometry` that the fixture drawings
use, and the whole pattern is assembled by its plan builder, with the
corridor between two regions as one plan edge per lane.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import gcd
from typing import Iterator, Optional

from .cluster import Certificate, _certificate, verify_certificate
from .drawing import Drawing, SubdivisionPlan, _require_valid, crossing_graph, validate
from .errors import InvariantBroken
from .geometry import Vec, _arrangement, _drawing_along, _rotations
from .graphs import Fan, Graph, _checked_graph, _checked_int, _checked_iter, radius_center
from .minors import MinorModel, _checked_is_model, strip_universal, verify_model

__all__ = ["RegionTag", "SynthResult", "synthesize", "pipeline_theorem2"]


# ===== Result types =====


@dataclass(frozen=True)
class RegionTag:
    """Which disk region one crossing lives in: a host vertex or host edge."""

    kind: str
    ref: tuple[int, ...]

    def __post_init__(self) -> None:
        refs = _checked_iter("host vertices", self.ref)
        ref = tuple(_checked_int("host vertex", v) for v in refs)
        object.__setattr__(self, "ref", ref)
        if self.kind == "vertexRegion":
            if len(self.ref) != 1:
                raise ValueError("vertexRegion needs one host vertex")
        elif self.kind == "edgeRegion":
            if len(self.ref) != 2:
                raise ValueError("edgeRegion needs two host vertices")
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")


@dataclass(frozen=True)
class SynthResult:
    """A drawn pattern together with its certificate and provenance maps.

    ``tags`` names the host region holding each crossing vertex of the plan,
    and ``routes`` gives the host-vertex walk realizing each pattern edge.
    """

    drawing: Drawing
    cert: Certificate
    kPrime: int
    tags: dict[int, RegionTag]
    routes: dict[int, tuple[int, ...]]


# ===== Input checking =====


def _checked_inputs(host: Drawing, m: MinorModel) -> int:
    _require_valid(host)
    if any(host.kind[pv] == "crossing" for pv in host.plan.vertices):
        raise ValueError("host drawing has crossings")
    if host.base != _checked_is_model(m).host:
        raise ValueError("drawing does not match the host")
    _checked_model(m, m.c)
    return m.c


def _checked_model(m: MinorModel, k: int) -> None:
    """Refuses a model unless ``c = d = k`` and :func:`verify_model` passes
    it, which refuses a ``c`` or ``d`` that is not an int."""
    if m.c != k or m.d != k:
        raise ValueError("model must have c = d")
    bad = verify_model(m)
    if bad:
        raise ValueError(f"invalid model: {bad[0]}")


# ===== Branch trees, connectors, and routes =====


def _branch_tree(g: Graph, branch: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """Root and parent map of a breadth-first spanning tree of a branch set."""
    root, _ = radius_center(g, branch)
    inside = set(branch)
    parent = {root: root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(g.neighbors(u)):
                if w in inside and w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = sorted(nxt)
    return root, parent


def _tree_path(parent: dict[int, int], root: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != root:
        path.append(parent[path[-1]])
    path.reverse()
    return path


@dataclass(frozen=True)
class _Route:
    """One pattern edge routed through the virtual host.

    ``regions`` walks from the smaller endpoint's root to the larger's,
    visits no region twice and may pass synthetic edge-midpoint regions;
    ``jidx`` indexes the meeting region, and ``segments`` lists
    ``(host edge id, corridor boundaries)`` per host edge along the walk.
    """

    eid: int
    v: int
    w: int
    regions: tuple[int, ...]
    jidx: int
    segments: tuple[tuple[int, tuple[int, ...]], ...]
    real_path: tuple[int, ...]


def _expand(path: list[int], g: Graph, mid_of: dict[int, int]) -> list[int]:
    """Insert synthetic midpoint regions on every traversal of a split edge."""
    out = [path[0]]
    for a, b in zip(path, path[1:]):
        heid = g.edge_id(a, b)
        if heid in mid_of:
            out.append(mid_of[heid])
        out.append(b)
    return out


def _make_routes(
    m: MinorModel,
    roots: dict[int, int],
    parents: dict[int, dict[int, int]],
) -> tuple[list[_Route], dict[int, int], dict[int, int]]:
    """Route every pattern edge; returns routes and the midpoint id maps."""
    branch_sets = {x: set(m.branch[x]) for x in m.pattern.vertices}
    # Per pattern edge: the host edge joining its branch sets (None when they
    # share a host vertex) and the host vertices where the v and w ends stop.
    conns: list[tuple[Optional[int], int, int]] = []
    for v, w in m.pattern.edges:
        shared = branch_sets[v] & branch_sets[w]
        if shared:
            conns.append((None, min(shared), min(shared)))
            continue
        for heid, (a, b) in enumerate(m.host.edges):
            if a in branch_sets[v] and b in branch_sets[w]:
                conns.append((heid, a, b))
                break
            if a in branch_sets[w] and b in branch_sets[v]:
                conns.append((heid, b, a))
                break
        else:
            raise InvariantBroken("construction invariant broken")

    split = sorted({heid for heid, _, _ in conns if heid is not None})
    base = max(m.host.vertices, default=-1) + 1
    mid_of = {heid: base + i for i, heid in enumerate(split)}
    eid_of_mid = {mid: heid for heid, mid in mid_of.items()}

    routes = []
    for eid, ((v, w), (conn_eid, tv, tw)) in enumerate(zip(m.pattern.edges, conns)):
        vpath = _expand(_tree_path(parents[v], roots[v], tv), m.host, mid_of)
        wpath = _expand(_tree_path(parents[w], roots[w], tw), m.host, mid_of)
        if conn_eid is not None:
            vpath.append(mid_of[conn_eid])
            wpath.append(mid_of[conn_eid])
        wpos = {u: i for i, u in enumerate(wpath)}
        jidx = next(i for i, u in enumerate(vpath) if u in wpos)
        regions = vpath[: jidx + 1] + wpath[: wpos[vpath[jidx]]][::-1]

        segs = []
        i = 1
        while i < len(regions):
            a, b = regions[i - 1], regions[i]
            if b in eid_of_mid:
                segs.append((eid_of_mid[b], (i, i + 1)))
                i += 2
            else:
                segs.append((m.host.edge_id(a, b), (i,)))
                i += 1
        real_path = tuple(r for r in regions if r not in eid_of_mid)
        routes.append(
            _Route(eid, v, w, tuple(regions), jidx, tuple(segs), real_path)
        )
    return routes, mid_of, eid_of_mid


# ===== Outer-face anchoring =====


def _host_outer_anchor(
    host: Drawing, used: set[int]
) -> Optional[tuple[int, bool]]:
    """A used host edge bordering the outer area, and its outward side.

    Host faces merge across every unused host edge, and a breadth-first
    search from the outer face collects the merged outer class; the anchor
    is the first used edge with that class on one side, reported together
    with the direction whose left side is outer.
    """
    pe, face = host.plan.edges, host._dart_face

    def leaving(heid: int, end: int) -> int:
        """The dart by which the trace of host edge ``heid`` leaves its
        smaller end (``end`` 0) or its larger end (``end`` -1)."""
        v, t = host.paths[heid][end], host.trace[heid]
        e = t[end] if v in pe[t[end]] else t[~end]
        return 2 * e + (pe[e][0] != v)

    across: list[list[int]] = [[] for _ in host.faces]
    for heid in range(host.base.m):
        if heid not in used:
            x = leaving(heid, 0)
            f, g = face(x), face(x ^ 1)
            across[f].append(g)
            across[g].append(f)
    outer, queue = {host.outer}, [host.outer]
    for f in queue:
        for g in across[f]:
            if g not in outer:
                outer.add(g)
                queue.append(g)
    for heid in sorted(used):
        if face(leaving(heid, 0)) in outer:
            return heid, True
        if face(leaving(heid, -1)) in outer:
            return heid, False
    return None


# ===== Region arenas =====


def _arena(
    vids: list[int],
    chords: list[tuple[tuple[int, int], int, int]],
    fresh: Iterator[int],
) -> tuple[dict[tuple[int, int], tuple[list[int], Vec]], list[int]]:
    """Realize one region as straight chords between convex positions.

    Positions sit on a parabola at slightly jittered abscissae ``t = N/D``,
    scaled by ``D**2`` to the integer points ``(N*D, N*N)`` and divided by
    the common factor of all their coordinates; the jitter is retried until
    the arrangement has no three chords through one point.  A positive
    common scale keeps every orientation sign, crossing order and direction
    order, and without jitter the points are just ``(j, j*j)``.  Returns
    every chord's plan-vertex chain with its integer direction, and the new
    crossing vertex ids in coordinate order.
    """
    n = len(vids)
    denom = 999983 * 2000
    for attempt in range(1000):
        pts: list[tuple[int, int]] = []
        for j in range(n):
            num = j * denom + attempt * ((j * j * 7919 + j * 104729 + 12345) % 999983)
            pts.append((num * denom, num * num))
        g = gcd(*itertools.chain.from_iterable(pts)) or 1
        pts = [(x // g, y // g) for x, y in pts]
        arr = _arrangement([(ref, pts[a], pts[b]) for ref, a, b in chords])
        if arr is not None:
            break
    else:
        raise InvariantBroken("construction invariant broken")

    xs, along = arr
    xids = [next(fresh) for _ in xs]
    runs = {
        ref: (
            [vids[a], *(xids[c] for c in on), vids[b]],
            (pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]),
        )
        for (ref, a, b), on in zip(chords, along)
    }
    return runs, xids


# ===== The builder =====


def _corr(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class _Builder:
    """One synthesis: the drawing, its cut plan and its certificate."""

    def __init__(
        self,
        host: Drawing,
        m: MinorModel,
        routes: list[_Route],
        roots: dict[int, int],
        mid_of: dict[int, int],
        eid_of_mid: dict[int, int],
        anchor: Optional[tuple[int, bool]],
    ) -> None:
        self.host = host
        self.m = m
        self.routes = routes
        self.roots = roots
        self.mid_of = mid_of
        self.eid_of_mid = eid_of_mid
        self.anchor = anchor

    # -- lanes and groups --

    def _collect_lanes(self) -> None:
        self.lanes: dict[tuple[int, int], dict[int, list[int]]] = {}
        self.source_of: dict[tuple[tuple[int, int], int], int] = {}
        self.passing: dict[tuple[tuple[int, int], int], bool] = {}
        regions: set[int] = set(self.roots.values())
        for r in self.routes:
            regions.update(r.regions)
            for i in range(1, len(r.regions)):
                a, b = r.regions[i - 1], r.regions[i]
                c = _corr(a, b)
                if i <= r.jidx:
                    owner, src, goes_on = r.v, a, i < r.jidx
                else:
                    owner, src, goes_on = r.w, b, i > r.jidx + 1
                self.lanes.setdefault(c, {}).setdefault(owner, []).append(r.eid)
                self.source_of[(c, owner)] = src
                key = (c, owner)
                self.passing[key] = self.passing.get(key, False) or goes_on
        self.regions = sorted(regions)

    def _group_lists(self) -> None:
        """Per corridor and end: the circular order of owner groups."""
        self.glist: dict[tuple[int, int], dict[int, list[int]]] = {}
        for c in self.lanes:
            owners = sorted(self.lanes[c])
            r1, r2 = c
            if r2 in self.eid_of_mid:
                a, _b = self.host.base.edges[self.eid_of_mid[r2]]
                goes = [x for x in owners if self.passing[(c, x)]]
                ends = [x for x in owners if not self.passing[(c, x)]]
                at_far = goes + ends if r1 == a else ends[::-1] + goes[::-1]
                self.glist[c] = {r2: at_far, r1: at_far[::-1]}
            else:
                self.glist[c] = {r1: owners, r2: owners[::-1]}

    def _leaving(self, u: int, heid: int) -> tuple[int, int]:
        """The corridor by which host edge ``heid`` leaves region ``u``."""
        if heid in self.mid_of:
            return _corr(u, self.mid_of[heid])
        return self.host.base.edges[heid]

    def _region_objects(self) -> None:
        """Per region: its corridors' owner groups, corridor by corridor in
        the host's circular order, then the pattern vertices rooted there."""
        owner_of = {
            pe: beid for beid, pes in self.host.trace.items() for pe in pes
        }
        roots_at: dict[int, list[tuple]] = {}
        for x in sorted(self.roots):
            roots_at.setdefault(self.roots[x], []).append(("root", x))
        self.objects: dict[int, list[tuple]] = {}
        for u in self.regions:
            if u in self.eid_of_mid:
                a, b = self.host.base.edges[self.eid_of_mid[u]]
                around = [_corr(a, u), _corr(b, u)]
            else:
                pv = self.host.real_pvid[u]
                around = [self._leaving(u, owner_of[pe]) for pe in self.host.rotation[pv]]
            self.objects[u] = [
                (c, x) for c in around if c in self.lanes for x in self.glist[c][u]
            ] + roots_at.get(u, [])

    # -- lane keys and port orders --

    def _lane_keys(self) -> None:
        self.key_of: dict[tuple[int, int], tuple[int, ...]] = {}
        for r in self.routes:
            last = len(r.regions) - 1
            # The w end walks the reversed route, which meets at last - jidx.
            for x, partner, walk, j in (
                (r.v, r.w, r.regions, r.jidx),
                (r.w, r.v, r.regions[::-1], last - r.jidx),
            ):
                slots = []
                for t, u in enumerate(walk[: j + 1]):
                    gl = self.objects[u]
                    anchor = ("root", x) if t == 0 else (_corr(walk[t - 1], u), x)
                    if t == last:
                        target = ("root", partner)
                    else:
                        target = (_corr(u, walk[t + 1]), x if t < j else partner)
                    slots.append((gl.index(target) - gl.index(anchor)) % len(gl))
                self.key_of[(x, r.eid)] = tuple(slots) + (r.eid,)

    def _group_lanes_at(self, c: tuple[int, int], x: int, end: int) -> list[int]:
        return sorted(
            self.lanes[c][x],
            key=lambda f: self.key_of[(x, f)],
            reverse=self.source_of[(c, x)] != end,
        )

    def _assign_ports(self, fresh: Iterator[int]) -> None:
        self.port_id: dict[tuple[int, tuple[int, int], int], int] = {}
        for c in sorted(self.lanes):
            for end in c:
                for x in self.glist[c][end]:
                    for f in self._group_lanes_at(c, x, end):
                        self.port_id[(f, c, end)] = next(fresh)

    # -- positions and chords --

    def _place_regions(self) -> None:
        self.pos_vid: dict[int, list[int]] = {}
        self.pos_idx: dict[int, dict[tuple, int]] = {}
        for u in self.regions:
            vids: list[int] = []
            idx: dict[tuple, int] = {}
            for obj in self.objects[u]:
                if obj[0] == "root":
                    idx[obj] = len(vids)
                    vids.append(obj[1])
                else:
                    c, x = obj
                    for f in self._group_lanes_at(c, x, u):
                        idx[("port", f, c)] = len(vids)
                        vids.append(self.port_id[(f, c, u)])
            self.pos_vid[u] = vids
            self.pos_idx[u] = idx

        self.chords: dict[int, list[tuple[tuple[int, int], int, int]]] = {
            u: [] for u in self.regions
        }
        for r in self.routes:
            last = len(r.regions) - 1
            for i, u in enumerate(r.regions):
                if i == 0:
                    a = self.pos_idx[u][("root", r.v)]
                else:
                    a = self.pos_idx[u][("port", r.eid, _corr(r.regions[i - 1], u))]
                if i == last:
                    b = self.pos_idx[u][("root", r.w)]
                else:
                    b = self.pos_idx[u][("port", r.eid, _corr(u, r.regions[i + 1]))]
                self.chords[u].append(((r.eid, i), a, b))

    # -- assembly --

    def _build_drawing(self, fresh: Iterator[int]) -> Drawing:
        runs: dict[tuple[int, int], tuple[list[int], Vec]] = {}
        self.xregion: dict[int, int] = {}
        for u in self.regions:
            if self.chords[u]:
                rs, xids = _arena(self.pos_vid[u], self.chords[u], fresh)
                runs.update(rs)
                self.xregion.update(dict.fromkeys(xids, u))
        self.chains = {ref: chain for ref, (chain, _) in runs.items()}

        kind = {v: f"real:{v}" for v in self.m.pattern.vertices}
        kind.update({pv: "subdivision" for pv in self.port_id.values()})
        kind.update({pv: "crossing" for pv in self.xregion})
        # The arenas fix the circular order at crossings and at positions
        # where two or more chords end; a port's other edge is its corridor.
        around = {v: nb for v, nb in _rotations(runs.values()).items() if len(nb) > 1}
        paths = {
            r.eid: [p for i in range(len(r.regions)) for p in self.chains[(r.eid, i)]]
            for r in self.routes
        }
        probe = _drawing_along(self.m.pattern, kind, paths, around)
        outer = 0
        if self.anchor is not None:
            heid, forward = self.anchor
            u0 = self.host.base.edges[heid][0 if forward else 1]
            c = self._leaving(u0, heid)
            block = [
                f
                for x in self.glist[c][u0]
                for f in self._group_lanes_at(c, x, u0)
            ]
            f = block[-1]
            other = c[1] if c[0] == u0 else c[0]
            dart = (self.port_id[(f, c, u0)], self.port_id[(f, c, other)])
            outer = probe.face_of_dart(dart)
        return probe.with_outer(outer)

    # -- certificate --

    def _plan(self) -> SubdivisionPlan:
        """Per route, a cut wherever it crosses a host edge's corridor with
        crossings on both sides of that point."""
        counts = {ref: len(chain) - 2 for ref, chain in self.chains.items()}
        cuts: dict[int, tuple[int, ...]] = {}
        for r in self.routes:
            pref = [0]
            for i in range(len(r.regions)):
                pref.append(pref[-1] + counts.get((r.eid, i), 0))
            gaps = {pref[b] for _, bs in r.segments for b in bs}
            keep = sorted(gaps - {0, pref[-1]})
            if keep:
                cuts[r.eid] = tuple(keep)
        return SubdivisionPlan(cuts)

    def _fan_certificate(
        self, d: Drawing, k: int, plan: SubdivisionPlan
    ) -> Optional[Certificate]:
        """Every arc in the fan of the route end owning its region; None if
        a component spans two regions."""
        cg = crossing_graph(d, plan)
        comps = cg.components(nontrivial=True)
        piece_key = cg._arc_keys
        covers: dict[int, tuple[Fan, ...]] = {}
        assignment: dict[tuple[int, int], int] = {}
        for cid, comp in enumerate(comps):
            fans: dict[int, set[tuple[int, int]]] = {}
            for n in comp:
                eid, piece = piece_key[n]
                regs = {self.xregion[xv] for xv in cg.crossings[n]}
                if len(regs) != 1:
                    return None
                u = regs.pop()
                r = self.routes[eid]
                x = r.v if r.regions.index(u) <= r.jidx else r.w
                fans.setdefault(x, set()).add(self.m.pattern.edges[eid])
                assignment[(eid, piece)] = x
            covers[cid] = tuple(
                Fan(x, tuple(sorted(es))) for x, es in sorted(fans.items())
            )

        return Certificate(k, _least_ell(covers), plan, covers, assignment)

    def run(self) -> SynthResult:
        self._collect_lanes()
        self._group_lists()
        self._region_objects()
        self._lane_keys()
        fresh = itertools.count(max(self.m.pattern.vertices, default=-1) + 1)
        self._assign_ports(fresh)
        self._place_regions()
        d = self._build_drawing(fresh)
        if validate(d):
            raise InvariantBroken("construction invariant broken")
        plan = self._plan()
        k = 1 + max((len(g) for g in plan.cuts.values()), default=0)
        cert = self._fan_certificate(d, k, plan)
        if cert is None or not verify_certificate(d, cert, strong=True).verdict:
            # Each component's first least cover; pattern.n centers always suffice.
            exact = _certificate(d, k, self.m.pattern.n, True, plan)
            cert = exact and replace(exact, ell=_least_ell(exact.covers))
            if cert is None or not verify_certificate(d, cert, strong=True).verdict:
                raise InvariantBroken("no strong certificate on the synthesized cuts")

        tags = {}
        for xv, u in self.xregion.items():
            if u in self.eid_of_mid:
                tags[xv] = RegionTag("edgeRegion", self.host.base.edges[self.eid_of_mid[u]])
            else:
                tags[xv] = RegionTag("vertexRegion", (u,))
        routes_out = {r.eid: r.real_path for r in self.routes}
        return SynthResult(d, cert, max(cert.k, cert.ell), tags, routes_out)


def _least_ell(covers: dict[int, tuple[Fan, ...]]) -> int:
    return max(1, max((len(fs) for fs in covers.values()), default=0))


# ===== Entry points =====


def synthesize(host: Drawing, m: MinorModel) -> SynthResult:
    """Draw the pattern of a shallow minor model living in a planar host.

    ``host`` must be a valid crossing-free drawing of the model's host graph
    and the model must satisfy congestion = depth = ``k``.  The result's
    drawing is validated and its certificate passes the strong verifier
    before being returned; every route uses at most ``2k + 1`` host edges
    and the reported fold count ``kPrime`` stays within a constant factor
    of ``k``.

    The certificate is the construction's own fan assignment if that passes
    the strong verifier, else the exact strong covers on the same cuts, with
    ``ell`` the largest cover used.  Raises ``ValueError`` on invalid
    inputs, and ``InvariantBroken`` if no strong certificate verifies.
    """
    k = _checked_inputs(host, m)
    roots: dict[int, int] = {}
    parents: dict[int, dict[int, int]] = {}
    for x in m.pattern.vertices:
        roots[x], parents[x] = _branch_tree(m.host, m.branch[x])
    routes, mid_of, eid_of_mid = _make_routes(m, roots, parents)
    if any(len(r.segments) > 2 * k + 1 for r in routes):
        raise InvariantBroken("a route uses more than 2k + 1 host edges")
    used = {heid for r in routes for heid, _ in r.segments}
    anchor = _host_outer_anchor(host, used) if used else None
    return _Builder(host, m, routes, roots, mid_of, eid_of_mid, anchor).run()


def pipeline_theorem2(
    host_plus: Graph, u: int, drawing: Drawing, m: MinorModel, k: int
) -> tuple[tuple[int, ...], SynthResult]:
    """Split a universal apex off a model and synthesize the remainder.

    ``host_plus`` is the host including the universal vertex ``u``;
    ``drawing`` draws the host without ``u``.  Returns the pattern vertices
    whose branch sets used ``u`` (at most ``k`` of them) together with the
    synthesis result for the rest of the pattern.
    """
    if not _checked_graph("host_plus", host_plus).has_vertex(_checked_int("u", u)):
        raise ValueError(f"unknown host vertex {u}")
    if host_plus.degree(u) != host_plus.n - 1:
        raise ValueError("not universal")
    if _checked_is_model(m).host != host_plus:
        raise ValueError("model does not match the host")
    _checked_model(m, _checked_int("k", k))
    dropped, m2 = strip_universal(m, u)
    if len(dropped) > k:
        raise InvariantBroken("more than k pattern vertices use the apex")
    return dropped, synthesize(drawing, m2)
