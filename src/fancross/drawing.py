"""Combinatorial drawings of graphs with crossings.

A :class:`Drawing` records a drawn graph (the *base*) together with its
*plan*: the planarized arrangement whose vertices are real copies of base
vertices, crossing points, and inert degree-2 subdivision points (bends).
Each base edge owns a *trace*, the plan path it is drawn along.  Faces are
derived from the counterclockwise rotation system; the drawing designates
one face as outer.

Parallel plan edges are never allowed: two curves that would otherwise share
consecutive plan vertices are kept apart by bend vertices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .graphs import Graph

Dart = tuple[int, int]


# ===== Drawing =====


@dataclass(frozen=True)
class Drawing:
    """A drawn graph: base, plan, rotations, vertex kinds, traces, outer face.

    Fields:
        base: the drawn graph.
        plan: the planarization (always a simple graph).
        rotation: plan vertex -> plan edge ids in counterclockwise order.
        kind: plan vertex -> ``"real:<vid>"`` | ``"crossing"`` | ``"subdivision"``.
        trace: base edge id -> plan edge ids forming the drawn path.
        outer: index of the outer face in canonical face order.

    The three maps are read-only views of private copies, so a drawing never
    changes and every fact derived from it is computed once: the lookups
    below, the :func:`validate` verdict, and the crossing graph and cut of
    the last plan with cuts (see :meth:`_planned`).
    """

    base: Graph
    plan: Graph
    rotation: Mapping[int, tuple[int, ...]]
    kind: Mapping[int, str]
    trace: Mapping[int, tuple[int, ...]]
    outer: int

    def __post_init__(self) -> None:
        for name in ("rotation", "kind", "trace"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    # ----- derived lookups (assume a valid drawing) -----

    @cached_property
    def real_pvid(self) -> dict[int, int]:
        """Base vertex -> its real plan copy."""
        out: dict[int, int] = {}
        for p, k in self.kind.items():
            v = _real_vertex(k)
            if v is not None:
                out[v] = p
        return out

    def kind_of(self, pvid: int) -> str:
        """``"real"``, ``"crossing"`` or ``"subdivision"``."""
        return self.kind[pvid].split(":", 1)[0]

    def with_outer(self, outer: int) -> "Drawing":
        """This drawing with another outer face.

        The new drawing shares the read-only maps and keeps every cached
        lookup already computed here, the traced faces among them, except
        those that depend on the outer face: :attr:`_dual_tree` is rooted at
        it, the verdict checks its index and the cut drawing inherits it.
        """
        out = object.__new__(Drawing)
        out.__dict__.update(
            (k, v) for k, v in self.__dict__.items() if k not in _OUTER_DEPENDENT
        )
        object.__setattr__(out, "outer", outer)
        return out

    def _planned(self, cuts: Mapping[int, tuple[int, ...]], i: int, build: Callable):
        """``build(self, cuts)``, kept in entry ``i`` of the slot of the last
        plan with cuts, ``[cuts, crossing graph, (d2, pieces)]``.  A plan
        with other cuts replaces the slot, so a drawing holds at most one
        cut drawing."""
        slot = self.__dict__.get("_plan_slot")
        if slot is None or slot[0] != cuts:
            slot = self.__dict__["_plan_slot"] = [cuts, None, None]
        if slot[i] is None:
            slot[i] = build(self, cuts)
        return slot[i]

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """The verdict of :func:`validate`."""
        return tuple(_validate(self))

    @cached_property
    def _embedding(self) -> _Embedding:
        """The plan's faces, components and genera; darts ``2e`` and
        ``2e + 1`` run along plan edge ``e`` (see :func:`_embed`)."""
        emb = _embed(dict(enumerate(self.plan.edges)), self.rotation)
        if emb is None:
            raise ValueError("rotations do not list every plan edge once at both ends")
        return emb

    @cached_property
    def _face_table(self) -> tuple[tuple[tuple[Dart, ...], ...], list[int], list[int]]:
        """The canonical faces, the face index of every integer dart, and
        every dart's face successor."""
        nxt = self._embedding.nxt
        darts = [t for a, b in self.plan.edges for t in ((a, b), (b, a))]
        traced = []
        for start in self._embedding.faces:
            orbit, d = [start], nxt[start]
            while d != start:
                orbit.append(d)
                d = nxt[d]
            f = [darts[d] for d in orbit]
            k = f.index(min(f))
            traced.append((tuple(f[k:] + f[:k]), orbit))
        # Faces share no dart, so this orders them by their first darts.
        traced.sort()
        face_of = [0] * len(darts)
        for i, (_, orbit) in enumerate(traced):
            for d in orbit:
                face_of[d] = i
        return tuple(f for f, _ in traced), face_of, nxt

    @cached_property
    def _dual_tree(self) -> list[int]:
        """Per face, the dart crossed to enter it in a breadth-first search
        of the dual, or -1 at a root; the entered face lies on the dart's
        left.  Each plan component is rooted at the outer face if that face
        lies in it, else at the component's canonically first face."""
        faces, face_of, nxt = self._face_table
        some_dart = [0] * len(faces)
        for x, f in enumerate(face_of):
            some_dart[f] = x
        enter = [None] * len(faces)
        for root in (self.outer, *range(len(faces))):
            if enter[root] is not None:
                continue
            enter[root] = -1
            queue = [some_dart[root]]
            for start in queue:
                x = start
                while True:
                    g = face_of[x ^ 1]
                    if enter[g] is None:
                        enter[g] = x ^ 1
                        queue.append(x ^ 1)
                    x = nxt[x]
                    if x == start:
                        break
        return enter

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """All faces as dart cycles, canonically rotated and ordered."""
        return self._face_table[0]

    def face_of_dart(self, dart: Dart) -> int:
        u, v = dart
        return self._face_table[1][2 * self.plan.edge_id(u, v) + (u > v)]

    @cached_property
    def paths(self) -> dict[int, tuple[int, ...]]:
        """Base edge id -> plan vertex path, oriented from the smaller endpoint."""
        out: dict[int, tuple[int, ...]] = {}
        for eid, (u, v) in enumerate(self.base.edges):
            p = _vertex_path(self.plan, self.trace[eid])
            ru, rv = self.real_pvid[u], self.real_pvid[v]
            if p[0] == ru and p[-1] == rv:
                pass
            elif p[0] == rv and p[-1] == ru:
                p = tuple(reversed(p))
            else:
                raise ValueError(f"trace of edge {eid} does not join its endpoints")
            out[eid] = p
        return out

    @cached_property
    def edge_crossings(self) -> dict[int, tuple[int, ...]]:
        """Base edge id -> crossing plan vertices in trace order."""
        return {
            eid: tuple(p for p in path[1:-1] if self.kind_of(p) == "crossing")
            for eid, path in self.paths.items()
        }

    @cached_property
    def crossing_edges(self) -> dict[int, tuple[int, int]]:
        """Crossing plan vertex -> the two base edge ids crossing there, sorted."""
        at: dict[int, list[int]] = {}
        for eid, xs in self.edge_crossings.items():
            for x in xs:
                at.setdefault(x, []).append(eid)
        return {x: (es[0], es[1]) for x, es in sorted(at.items())}

    @cached_property
    def plan_components(self) -> dict[int, int]:
        """Plan vertex -> component index (components ordered by least vertex).

        Found by the dart search that traces the faces, so like :attr:`faces`
        it raises ValueError unless the rotations are valid.
        """
        label: dict[int, int] = {}
        return {
            v: label.setdefault(c, len(label))
            for v, c in sorted(zip(self.rotation, self._embedding.comp))
        }


_OUTER_DEPENDENT = ("_dual_tree", "_violations", "_plan_slot")

_REAL = re.compile(r"real:(-?[0-9]+)")


def _real_vertex(kind: str) -> Optional[int]:
    """The base vertex named by a ``"real:<vid>"`` kind, else None."""
    m = _REAL.fullmatch(kind)
    return int(m.group(1)) if m else None


# ===== The dart kernel: faces, components and genus =====


class _Embedding(NamedTuple):
    """The surface embedding a rotation system defines (see :func:`_embed`)."""

    nxt: list[int]  # integer dart -> its face successor
    faces: list[int]  # one dart on each face; the face is its orbit in nxt
    comp: list[int]  # the component of each vertex, in rotation order
    genus: list[int]  # component -> genus of its surface


def _embed(
    ends: Mapping[int, tuple[int, int]], rot: Mapping[int, Sequence[int]]
) -> Optional[_Embedding]:
    """The faces, components and genera of a rotation system, or None
    unless each rotation lists every edge exactly once at each of its two
    distinct ends.

    Edges are numbered densely in the order of ``ends``: dart ``2i`` runs
    along the ``i``-th edge from its first end to its second, and dart
    ``2i + 1`` runs back.  The successor of a dart entering ``v`` leaves
    ``v`` along the edge before it in ``v``'s counterclockwise rotation, so
    each face lies on the left of its darts.  A dart written twice is an
    edge listed twice at one vertex; with none written twice, the rotations
    list every edge at both ends exactly when all darts are written.

    The components with edges are the orbits of the face successor together
    with the twin map ``d -> d ^ 1``, so one search from each vertex's first
    dart finds both them and, tracing each face once as it is reached, the
    faces.  Components are numbered in the order of their first vertices in
    ``rot``.  A connected rotation system with ``V`` vertices, ``E`` edges
    and ``F`` faces embeds cellularly in the orientable surface of genus
    ``g`` where ``V - E + F = 2 - 2g`` (Mohar and Thomassen, *Graphs on
    Surfaces*, ch. 3); an isolated vertex is a plane component with one
    face.
    """
    index: dict[int, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    for e, (a, b) in ends.items():
        if a == b or a not in rot or b not in rot:
            return None
        index[e] = len(tails)
        tails.append(a)
        heads.append(b)
    nxt = [-1] * (2 * len(tails))
    for v, r in rot.items():
        if not r:
            continue
        i = index.get(r[-1])
        if i is None:
            return None
        last = 2 * i + (tails[i] != v)  # the loop checks that v is an end
        for e in r:
            i = index.get(e)
            if i is None:
                return None
            if tails[i] == v:
                o = 2 * i
            elif heads[i] == v:
                o = 2 * i + 1
            else:
                return None
            if nxt[o ^ 1] >= 0:
                return None
            nxt[o ^ 1] = last
            last = o
    if -1 in nxt:
        return None

    dart_comp = [-1] * len(nxt)
    faces: list[int] = []
    comp: list[int] = []
    euler: list[int] = []  # per component, V - E + F so far
    for v, r in rot.items():
        c = len(euler)
        if not r:
            euler.append(1)  # the one face of an isolated vertex
        else:
            i = index[r[0]]
            d = 2 * i + (tails[i] != v)
            if dart_comp[d] >= 0:
                c = dart_comp[d]
            else:
                first, darts, stack = len(faces), 0, [d]
                while stack:
                    d = stack.pop()
                    if dart_comp[d] >= 0:
                        continue
                    faces.append(d)
                    while dart_comp[d] < 0:
                        dart_comp[d] = c
                        darts += 1
                        stack.append(d ^ 1)
                        d = nxt[d]
                euler.append(len(faces) - first - darts // 2)
        comp.append(c)
        euler[c] += 1
    # g = 1 - (V - E + F) / 2; V - E + F is even, and were it miscounted odd
    # the floor would round g up, away from a plane 0.
    return _Embedding(nxt, faces, comp, [1 - x // 2 for x in euler])


def _vertex_path(plan: Graph, eids: Sequence[int]) -> tuple[int, ...]:
    """The vertex path of an edge-id walk; raises if it is not a simple path."""
    if not eids:
        raise ValueError("empty trace")
    for e in eids:
        if not (isinstance(e, int) and 0 <= e < plan.m):
            raise ValueError(f"unknown plan edge {e}")
    if len(eids) == 1:
        return plan.edges[eids[0]]
    first, second = plan.edges[eids[0]], plan.edges[eids[1]]
    shared = set(first) & set(second)
    if len(shared) != 1:
        raise ValueError("trace is not a path")
    start = first[0] if first[1] in shared else first[1]
    path = [start]
    cur = start
    for e in eids:
        a, b = plan.edges[e]
        if cur == a:
            cur = b
        elif cur == b:
            cur = a
        else:
            raise ValueError("trace is not a path")
        path.append(cur)
    if len(set(path)) != len(path):
        raise ValueError("trace revisits a vertex")
    return tuple(path)


# ===== Validation =====


def validate(d: Drawing) -> list[str]:
    """Checks all drawing invariants; returns a deterministic violation list.

    The checks run once per drawing; later calls copy the kept verdict.
    """
    return list(d._violations)


def _validate(d: Drawing) -> list[str]:
    out: list[str] = []
    pverts = set(d.plan.vertices)

    # Kind map shape and the real-copy bijection.
    if set(d.kind) != pverts:
        out.append("kind domain: keys differ from plan vertices")
    reals: dict[int, list[int]] = {}
    for p in sorted(d.kind):
        k = d.kind[p]
        v = _real_vertex(k)
        if v is not None:
            reals.setdefault(v, []).append(p)
        elif k not in ("crossing", "subdivision"):
            out.append(f"kind value: vertex {p} has {k!r}")
    for v in d.base.vertices:
        if len(reals.get(v, [])) != 1:
            out.append(f"real bijection: base vertex {v}")
    for v in sorted(set(reals) - set(d.base.vertices)):
        out.append(f"real bijection: unknown base vertex {v}")
    if out:
        return out

    # Rotations must list exactly the incident plan edges, once each.
    if set(d.rotation) != pverts:
        out.append("rotation domain: keys differ from plan vertices")
        return out
    incident: dict[int, set[int]] = {v: set() for v in d.plan.vertices}
    for eid, (a, b) in enumerate(d.plan.edges):
        incident[a].add(eid)
        incident[b].add(eid)
    for v in d.plan.vertices:
        rot = d.rotation[v]
        if len(rot) != len(set(rot)) or set(rot) != incident[v]:
            out.append(f"rotation: vertex {v} does not list incident edges once")
    if out:
        return out

    # Traces: one per base edge, simple plan paths between real copies with
    # interior of crossing/subdivision kind only.
    if set(d.trace) != set(range(d.base.m)):
        out.append("trace domain: keys differ from base edge ids")
        return out
    use_count: dict[int, int] = {eid: 0 for eid in range(d.plan.m)}
    passages: dict[int, list[tuple[int, int]]] = {}  # plan vertex -> (eid, pos)
    paths: dict[int, tuple[int, ...]] = {}
    for eid in range(d.base.m):
        u, v = d.base.edges[eid]
        try:
            p = _vertex_path(d.plan, d.trace[eid])
        except ValueError as exc:
            out.append(f"trace path: edge {eid}: {exc}")
            continue
        ru, rv = reals[u][0], reals[v][0]
        if p[0] == rv and p[-1] == ru:
            p = tuple(reversed(p))
        if not (p[0] == ru and p[-1] == rv):
            out.append(f"trace endpoints: edge {eid}")
            continue
        paths[eid] = p
        for t in d.trace[eid]:
            use_count[t] += 1
        for i, q in enumerate(p[1:-1], start=1):
            if d.kind_of(q) == "real":
                out.append(f"trace interior: edge {eid} passes real vertex {q}")
            passages.setdefault(q, []).append((eid, i))
    for t, cnt in use_count.items():
        if cnt != 1:
            out.append(f"edge coverage: plan edge {t} used {cnt} times")
    if out:
        return out

    # Crossing vertices: degree 4, two transversal passages.
    for p in d.plan.vertices:
        k = d.kind_of(p)
        deg = d.plan.degree(p)
        ps = passages.get(p, [])
        if k == "crossing":
            if deg != 4:
                out.append(f"crossing degree: vertex {p}")
                continue
            if len(ps) != 2:
                out.append(f"crossing passages: vertex {p}")
                continue
            rot = d.rotation[p]
            pair_pos = []
            for eid, i in ps:
                pp = paths[eid]
                e_in = d.plan.edge_id(pp[i - 1], p)
                e_out = d.plan.edge_id(p, pp[i + 1])
                pair_pos.append((rot.index(e_in), rot.index(e_out)))
            for a, b in pair_pos:
                if (a - b) % 4 != 2:
                    out.append(f"tangential intersection: vertex {p}")
                    break
        elif k == "subdivision":
            if deg != 2:
                out.append(f"subdivision degree: vertex {p}")
            elif len(ps) != 1:
                out.append(f"subdivision passages: vertex {p}")

    if out:
        return out

    # Per-component Euler formula, and the outer face index.
    emb, comp = d._embedding, d.plan_components
    for i in sorted({comp[v] for v, c in zip(d.rotation, emb.comp) if emb.genus[c]}):
        out.append(f"euler: plan component {i}")
    if not (0 <= d.outer < max(len(d.faces), 1)):
        out.append("outer face: index out of range")
    return out


# ===== Crossing counts =====


def crossings_per_edge(d: Drawing) -> dict[int, int]:
    """Base edge id -> number of crossings on its trace."""
    return {eid: len(xs) for eid, xs in d.edge_crossings.items()}


def is_k_planar(d: Drawing, k: int) -> bool:
    """True iff every base edge is crossed at most ``k`` times."""
    return all(c <= k for c in crossings_per_edge(d).values())


# ===== Subdivision plans and arcs =====


@dataclass(frozen=True)
class SubdivisionPlan:
    """Chosen subdivision points, as crossing-gap positions per base edge.

    For an edge whose trace passes crossings ``x_1 .. x_c`` in order, the
    valid positions are ``0 .. c``: position ``g`` lies between ``x_g`` and
    ``x_{g+1}`` (0 = before the first crossing, ``c`` = after the last).
    """

    cuts: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "cuts",
            {e: tuple(sorted(gs)) for e, gs in self.cuts.items() if len(gs) > 0},
        )


def _checked_cuts(d: Drawing, plan: Optional[SubdivisionPlan]) -> dict[int, tuple[int, ...]]:
    if plan is None:
        return {}
    out: dict[int, tuple[int, ...]] = {}
    for eid, gaps in plan.cuts.items():
        if not (0 <= eid < d.base.m):
            raise ValueError(f"unknown edge {eid} in subdivision plan")
        c = len(d.edge_crossings[eid])
        for g in gaps:
            if not (0 <= g <= c):
                raise ValueError("cut on crossing")
        out[eid] = tuple(sorted(gaps))
    return out


@dataclass(frozen=True, order=True)
class ArcRef:
    """A contiguous piece of a base edge, in crossing-gap coordinates.

    The arc spans gap ``lo`` to gap ``hi`` of its edge and owns the crossings
    with 1-based indices ``lo+1 .. hi``.  A whole uncut edge with ``c``
    crossings is ``ArcRef(e, 0, c)``.
    """

    edge: int
    lo: int
    hi: int


@dataclass(frozen=True)
class CrossingGraph:
    """Arcs as nodes, adjacent iff they share a crossing point."""

    nodes: tuple[ArcRef, ...]
    edges: tuple[tuple[int, int], ...]
    crossings: tuple[tuple[int, ...], ...]  # per node: its crossing plan vertices

    def components(self, nontrivial: bool = True) -> list[list[int]]:
        """Connected components (node index lists); optionally only those
        containing at least two arcs."""
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.nodes))}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen: set[int] = set()
        comps: list[list[int]] = []
        for i in range(len(self.nodes)):
            if i in seen:
                continue
            comp = []
            stack = [i]
            seen.add(i)
            while stack:
                a = stack.pop()
                comp.append(a)
                for b in adj[a]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
            if not nontrivial or len(comp) >= 2:
                comps.append(sorted(comp))
        comps.sort(key=lambda c: c[0])
        return comps


def crossing_graph(d: Drawing, plan: Optional[SubdivisionPlan] = None) -> CrossingGraph:
    """The crossing graph of ``d``, optionally after cutting edges per ``plan``.

    Nodes are whole edges (no plan) or the arcs delimited by the plan's cut
    positions; piece indices follow cut order.  Crossing-free arcs appear as
    isolated nodes.  The graph of a plan with cuts is kept in ``d``'s plan
    slot and shared by later calls on the same cuts.
    """
    cuts = _checked_cuts(d, plan)
    return d._planned(cuts, 1, _crossing_graph) if cuts else _crossing_graph(d, cuts)


def _crossing_graph(d: Drawing, cuts: Mapping[int, tuple[int, ...]]) -> CrossingGraph:
    """:func:`crossing_graph` on checked cuts, outside the plan slot."""
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


# ===== The mutable rotation system =====


class _RotSys:
    """A mutable rotation system, the one builder behind every edit of a
    plan: cutting base edges (:func:`subdivide_with_map`) and the
    transducers' surgery.  It is an edge list with counterclockwise
    rotations, as in a doubly-connected edge list, and tolerates parallel
    edges mid-surgery.

    Edge ids are local: the plan's ids to start with, fresh ones above them
    for every new edge.  New vertex ids start above both the plan's and the
    base's ids, so a cut vertex can also be a base vertex.  Every operation
    below preserves realizability in the plane; :meth:`is_plane_simple`
    checks that a finished surgery is a plane simple graph.
    """

    def __init__(self, d: Drawing) -> None:
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
        """Whether the finished system is a simple graph embedded in the plane.

        Beyond what :func:`_embed` checks, no two edges may join the same
        pair of vertices, and every component must have genus 0.  These are
        the checks of :func:`validate` that the surgery can break.  Its other
        checks hold by construction on the transducers' output drawing: every
        vertex is real (``real:<v>`` for itself) and every trace is the
        single edge it draws, so there are no crossing or subdivision
        vertices, and the kinds, the real-copy bijection and the traces are
        right.
        """
        pairs = {(a, b) if a < b else (b, a) for a, b in self.ends.values()}
        if len(pairs) != len(self.ends):
            return False
        emb = _embed(self.ends, self.rot)
        return emb is not None and not any(emb.genus)


# ===== Subdivision =====


def subdivide_with_map(d: Drawing, plan: SubdivisionPlan) -> tuple[Drawing, dict[int, list[int]]]:
    """Like :func:`subdivide`, also returning the pieces of every edge.

    Returns ``(d2, pieces)``: ``pieces[e]`` lists the base edge ids of
    ``d2`` that edge ``e`` of ``d`` falls into, in cut order from its smaller
    endpoint; an uncut edge is its own single piece.  A plan without cuts
    returns ``d`` itself, whose faces are then traced only once.  The result
    of a plan with cuts is kept in ``d``'s plan slot and shared by later
    calls on the same cuts, so callers must not modify ``pieces``.
    """
    cuts = _checked_cuts(d, plan)
    return d._planned(cuts, 2, _cut) if cuts else _cut(d, cuts)


def _cut(
    d: Drawing, cuts: Mapping[int, tuple[int, ...]]
) -> tuple[Drawing, dict[int, list[int]]]:
    """:func:`subdivide_with_map` on checked cuts, outside the plan slot.

    The cuts are made on a :class:`_RotSys`: every edge's trace is walked
    from its smaller endpoint and split at each of its cuts in turn, so cut
    vertices are numbered by edge, then along the trace.  A split keeps the
    rotation slots of the split edge's ends, so the outer face is found
    again through the slot of its first dart's tail.
    """
    if not cuts:
        return d, {e: [e] for e in range(d.base.m)}
    rs = _RotSys(d)
    kind = dict(d.kind)
    made: list[tuple[int, tuple[int, int], list[int]]] = []  # edge, piece ends, builder trace
    for eid, (u, v) in enumerate(d.base.edges):
        path, steps = d.paths[eid], d.trace[eid]
        if path[0] not in d.plan.edges[steps[0]]:
            steps = steps[::-1]
        xs = d.edge_crossings[eid]
        at = [path.index(xs[g - 1]) if g else 0 for g in cuts.get(eid, ())]
        tail, piece = u, []
        for i, pe in enumerate(steps):
            a = path[i]
            for _ in range(at.count(i)):
                s, e1, pe = rs.subdivide_edge(pe, a)
                kind[s] = f"real:{s}"
                made.append((eid, (tail, s), piece + [e1]))
                tail, piece, a = s, [], s
            piece.append(pe)
        made.append((eid, (tail, v), piece))

    new_plan = Graph.make(rs.rot, rs.ends.values())
    canon = {e: new_plan.edge_id(a, b) for e, (a, b) in rs.ends.items()}
    rotation = {v: tuple(canon[e] for e in r) for v, r in rs.rot.items()}
    cut_vertices = [v for v in rs.rot if v not in d.rotation]
    new_base = Graph.make((*d.base.vertices, *cut_vertices), (ends for _, ends, _ in made))
    trace: dict[int, tuple[int, ...]] = {}
    pieces: dict[int, list[int]] = {e: [] for e in range(d.base.m)}
    for eid, ends, steps in made:
        ne = new_base.edge_id(*ends)
        pieces[eid].append(ne)
        trace[ne] = tuple(canon[e] for e in steps)

    d2 = Drawing(new_base, new_plan, rotation, kind, trace, d.outer)
    a, b = d.faces[d.outer][0]
    first = rs.rot[a][d.rotation[a].index(d.plan.edge_id(a, b))]
    return d2.with_outer(d2.face_of_dart((a, rs.other(first, a)))), pieces


def subdivide(d: Drawing, plan: SubdivisionPlan) -> Drawing:
    """Inserts the plan's cut vertices into the base graph.

    Cut vertices become real vertices of the result; each lands on the first
    plan edge of its gap.  Crossings, rotations, and faces are preserved.
    """
    return subdivide_with_map(d, plan)[0]


# ===== Planarization =====


def planarize(d: Drawing) -> tuple[Drawing, dict[int, int]]:
    """Promotes every plan vertex to a real vertex.

    Returns the crossing-free drawing of the plan graph itself, plus the map
    from former crossing vertices to their (identical) new base ids.
    """
    base = Graph.make(d.plan.vertices, d.plan.edges)
    kind = {p: f"real:{p}" for p in d.plan.vertices}
    trace = {eid: (eid,) for eid in range(base.m)}
    out = Drawing(base, d.plan, d.rotation, kind, trace, d.outer)
    xmap = {p: p for p in d.plan.vertices if d.kind_of(p) == "crossing"}
    return out, xmap


# ===== Arc geometry: sides and the fan property =====


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
