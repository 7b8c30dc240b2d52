"""Combinatorial drawings of graphs with crossings.

A :class:`Drawing` records a drawn graph (the *base*) together with its
*plan*: the planarized arrangement whose vertices are real copies of base
vertices, crossing points, and inert degree-2 subdivision points (bends).
Each base edge owns a *trace*, the plan path it is drawn along.  Faces are
derived from the counterclockwise rotation system; the drawing designates
the face on the unbounded side of every plan component.

Parallel plan edges are never allowed: two curves that would otherwise share
consecutive plan vertices are kept apart by bend vertices.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Optional

from .graphs import Graph, _checked_graph, _checked_int, _checked_iter

Dart = tuple[int, int]


# ===== Drawing =====


@dataclass(frozen=True)
class Drawing:
    """A drawn graph: base, plan, rotations, vertex kinds, traces, outer faces.

    Fields:
        base: the drawn graph.
        plan: the planarization (always a simple graph).
        rotation: plan vertex -> plan edge ids in counterclockwise order.
        kind: plan vertex -> ``"real:<vid>"`` | ``"crossing"`` | ``"subdivision"``.
        trace: base edge id -> plan edge ids forming the drawn path.
        outer: index of the outer face in canonical face order.
        outers: for plan components other than ``outer``'s, the face on
            their unbounded side, at most one per component, in increasing
            order.  A component it does not name is taken to lie outside
            its face with the least dart (see :attr:`_dual_tree`).

    The three maps are read-only views of private copies, so a drawing never
    changes and every fact derived from it is computed once: the lookups
    below, the :func:`validate` verdict, the uncut crossing graph and the
    crossing graph of the last plan with cuts asked for (see
    :func:`crossing_graph`), each of which in turn keeps its components,
    and the side from which each edge passes each crossing, relative to the
    other edge there, found when a strong check first asks for it (see
    :func:`_passage_side`).  For the certificate search it also keeps its
    number of crossings, the position of each crossing along each edge, and
    the interior cut options of each fold asked for (see
    :func:`cluster._kept_options`), so that many queries on one drawing
    derive each of these once.  Last, it keeps in its verdict slot what the
    last certificate verified on it gave (see :func:`cluster._verified`):
    the certificate object itself, the mode, the failures and stats, and
    the crossing graph of its plan, which keeps its components and arc
    keys.  A certificate never changes either, so
    the same object asked about again, in the same mode or weak after a
    strong pass, is answered from the slot and not checked twice.
    """

    base: Graph
    plan: Graph
    rotation: Mapping[int, tuple[int, ...]]
    kind: Mapping[int, str]
    trace: Mapping[int, tuple[int, ...]]
    outer: int
    outers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _checked_graph("drawing base", self.base)
        _checked_graph("drawing plan", self.plan)
        for name in ("rotation", "kind", "trace"):
            try:
                table = dict(getattr(self, name))
            except (TypeError, ValueError):
                raise ValueError(f"drawing {name} {getattr(self, name)!r} is not a map") from None
            object.__setattr__(self, name, MappingProxyType(table))
        object.__setattr__(self, "outers", _checked_faces(self.outer, self.outers))

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
        """``"real"``, ``"crossing"`` or ``"subdivision"``; raises
        ValueError if ``kind`` does not name the plan vertex."""
        try:
            return self.kind[pvid].split(":", 1)[0]
        except KeyError:
            raise ValueError(f"plan vertex {pvid} has no kind") from None

    def with_outer(self, outer: int, outers: Sequence[int] = ()) -> "Drawing":
        """This drawing with other outer faces (see :attr:`outers`).

        The new drawing shares the read-only maps and keeps every cached
        lookup already computed here, the traced faces, both kept crossing
        graphs, the search's tables and the table of passage sides among
        them, except those that depend on the outer faces:
        :attr:`_dual_tree` is rooted at them, the verdict checks them, and
        the verdict slot holds strong checks, which read the dual tree.
        """
        outers = _checked_faces(outer, outers)
        out = object.__new__(Drawing)
        out.__dict__.update(
            (k, v) for k, v in self.__dict__.items() if k not in _OUTER_DEPENDENT
        )
        object.__setattr__(out, "outer", outer)
        object.__setattr__(out, "outers", outers)
        return out

    @cached_property
    def _sides(self) -> dict[tuple[int, int, int, bool], str]:
        """The passage sides found so far, filled by :func:`_passage_side`."""
        return {}

    @cached_property
    def _crossing_count(self) -> int:
        """The number of plan vertices of kind ``"crossing"``."""
        return sum(1 for p in self.plan.vertices if self.kind_of(p) == "crossing")

    @cached_property
    def _crossing_index(self) -> dict[tuple[int, int], int]:
        """(base edge id, crossing) -> the crossing's 1-based position in
        the edge's :attr:`edge_crossings`."""
        return {
            (eid, x): j for eid, xs in self.edge_crossings.items() for j, x in enumerate(xs, 1)
        }

    @cached_property
    def _fold_options(self) -> dict[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """The search's cut options found so far, by effective fold, filled
        by :func:`cluster._kept_options`."""
        return {}

    @cached_property
    def _uncut_graph(self) -> CrossingGraph:
        """The crossing graph with no cuts (see :func:`crossing_graph`)."""
        return _crossing_graph(self, {})

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """The verdict of :func:`validate`."""
        return tuple(_validate(self))

    @cached_property
    def _embedding(self) -> _Embedding:
        """The plan's faces, components and genera; darts ``2e`` and
        ``2e + 1`` run along plan edge ``e`` (see :func:`_embed`)."""
        emb = _embed(self.plan.edges, self.rotation)
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
        left.  Each plan component is rooted at the face on its unbounded
        side: :attr:`outer`, or its entry in :attr:`outers`, or by default
        its canonically first face, the one with the least dart."""
        faces, face_of, nxt = self._face_table
        some_dart = [0] * len(faces)
        for x, f in enumerate(face_of):
            some_dart[f] = x
        enter = [None] * len(faces)
        for root in (self.outer, *self.outers, *range(len(faces))):
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
        """The index of the face left of the plan dart ``(u, v)``."""
        u, v = dart
        return self._dart_face(2 * self.plan.edge_id(u, v) + (u > v))

    def _dart_face(self, x: int) -> int:
        """The index of the face left of integer dart ``x``: dart ``2e``
        runs along plan edge ``e`` from its smaller end, ``2e + 1`` back."""
        return self._face_table[1][x]

    @cached_property
    def paths(self) -> dict[int, tuple[int, ...]]:
        """Base edge id -> plan vertex path, oriented from the smaller endpoint."""
        out: dict[int, tuple[int, ...]] = {}
        for eid, (u, v) in enumerate(self.base.edges):
            if eid not in self.trace:
                raise ValueError(f"edge {eid} has no trace")
            p = _vertex_path(self.plan, self.trace[eid])
            ru, rv = self.real_pvid.get(u), self.real_pvid.get(v)
            if ru is None or rv is None:
                raise ValueError(f"edge {eid} has an end with no real plan vertex")
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
        """Crossing plan vertex -> the two base edge ids crossing there, sorted.

        Raises ValueError if some crossing is passed by one edge or by more
        than two."""
        at: dict[int, list[int]] = {}
        for eid, xs in self.edge_crossings.items():
            for x in xs:
                at.setdefault(x, []).append(eid)
        for x, es in at.items():
            if len(es) != 2:
                raise ValueError(f"crossing {x} is not shared by exactly two arcs")
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


_OUTER_DEPENDENT = ("_dual_tree", "_violations", "_verdict_slot")


def _checked_faces(outer: object, outers: object) -> tuple[int, ...]:
    """``outers`` as a tuple, refused with ``ValueError`` unless ``outer``
    is an int and ``outers`` can be iterated and holds ints; their range is
    checked by :func:`validate`."""
    _checked_int("outer face", outer)
    faces = tuple(_checked_iter("outers", outers))
    for f in faces:
        _checked_int("outer faces entry", f)
    return faces


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
    ends: Sequence[tuple[int, int]], rot: Mapping[int, Sequence[int]]
) -> Optional[_Embedding]:
    """The faces, components and genera of a rotation system, or None
    unless each rotation lists every edge exactly once at each of its two
    distinct ends.

    Edges are numbered densely: ``ends[i]`` holds the two ends of edge
    ``i``, and the rotations list these ids.  Dart ``2i`` runs along edge
    ``i`` from its first end to its second, and dart ``2i + 1`` runs back.
    The successor of a dart entering ``v`` leaves ``v`` along the edge
    before it in ``v``'s counterclockwise rotation, so each face lies on the
    left of its darts.  A dart written twice is an edge listed twice at one
    vertex; with none written twice, the rotations list every edge at both
    ends exactly when all darts are written.  An id that is negative, out of
    range or not an int names no edge and is refused; a negative one is
    caught before it can wrap round the edge lists.

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
    tails = [a for a, _ in ends]
    heads = [b for _, b in ends]
    nxt = [-1] * (2 * len(tails))
    try:
        for v, r in rot.items():
            if not r:
                continue
            e = r[-1]
            last = 2 * e + (tails[e] != v)  # the loop checks e and that v is an end
            for e in r:
                # A float or a str fails the comparison or the indexing.
                if e < 0:
                    return None
                if tails[e] == v:
                    o = 2 * e
                elif heads[e] == v:
                    o = 2 * e + 1
                else:
                    return None
                if nxt[o ^ 1] >= 0:
                    return None
                nxt[o ^ 1] = last
                last = o
    except (IndexError, TypeError):
        return None
    # A dart is listed only at its tail: 2i at edge i's first end, 2i + 1 at
    # its second end if that is not also its first.  Listing dart o writes
    # the successor of o ^ 1, so a loop or an end without a rotation leaves
    # a successor unwritten.
    if -1 in nxt:
        return None

    dart_comp = [-1] * len(nxt)
    faces: list[int] = []
    comp: list[int] = []
    euler: list[int] = []  # per component, 2 (V - E + F) so far
    for v, r in rot.items():
        c = len(euler)
        if not r:
            euler.append(2)  # the one face of an isolated vertex
        else:
            e = r[0]
            d = 2 * e + (tails[e] != v)
            if dart_comp[d] >= 0:
                c = dart_comp[d]
            else:
                first, stack = len(faces), [d]
                while stack:
                    d = stack.pop()
                    if dart_comp[d] >= 0:
                        continue
                    faces.append(d)
                    while dart_comp[d] < 0:
                        dart_comp[d] = c
                        stack.append(d ^ 1)
                        d = nxt[d]
                euler.append(2 * (len(faces) - first))
        comp.append(c)
        euler[c] += 2 - len(r)  # one vertex, half of its edges
    # g = 1 - (V - E + F) / 2; V - E + F is even, and were it miscounted odd
    # the floor would round g up, away from a plane 0.
    return _Embedding(nxt, faces, comp, [1 - x // 4 for x in euler])


def _plane_simple(ends: Sequence[tuple[int, int]], rot: Mapping[int, Sequence[int]]) -> bool:
    """Whether a rotation system with dense edge ids (see :func:`_embed`) is
    a simple graph embedded in the plane: no two edges join the same pair of
    vertices, :func:`_embed` accepts it, and every component has genus 0.

    These are the checks of :func:`validate` that building a crossing-free
    drawing can break.  Its other checks hold by construction on the
    transducers' output drawing: every vertex is real (``real:<v>`` for
    itself) and every trace is the single edge it draws, so there are no
    crossing or subdivision vertices, and the kinds, the real-copy bijection
    and the traces are right.
    """
    if len({(a, b) if a < b else (b, a) for a, b in ends}) != len(ends):
        return False
    emb = _embed(ends, rot)
    return emb is not None and not any(emb.genus)


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
    return list(_checked_drawing(d)._violations)


def _checked_drawing(d: object) -> Drawing:
    """``d``, refused with ``ValueError`` unless it is a :class:`Drawing`."""
    if not isinstance(d, Drawing):
        raise ValueError(f"drawing {d!r} is not a Drawing")
    return d


def _require_valid(d: Drawing) -> Drawing:
    """``d``, refused with ``ValueError("invalid drawing: <first
    violation>")`` unless :func:`validate` passes it, and with
    :func:`_checked_drawing`'s error unless it is a drawing."""
    if _checked_drawing(d)._violations:
        raise ValueError(f"invalid drawing: {d._violations[0]}")
    return d


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
        if (
            len(rot) != len(set(rot))
            or set(rot) != incident[v]
            or not all(isinstance(e, int) for e in rot)
        ):
            out.append(f"rotation: vertex {v} does not list incident edges once")
    if out:
        return out

    # Traces: one per base edge, simple plan paths between real copies with
    # interior of crossing/subdivision kind only.
    if set(d.trace) != set(range(d.base.m)):
        out.append("trace domain: keys differ from base edge ids")
        return out
    use_count: dict[int, int] = {eid: 0 for eid in range(d.plan.m)}
    # plan vertex -> per passing edge, its plan edges in and out
    passages: dict[int, list[tuple[int, int]]] = {}
    for eid in range(d.base.m):
        u, v = d.base.edges[eid]
        steps = d.trace[eid]
        try:
            p = _vertex_path(d.plan, steps)
        except ValueError as exc:
            out.append(f"trace path: edge {eid}: {exc}")
            continue
        ru, rv = reals[u][0], reals[v][0]
        if p[0] == rv and p[-1] == ru:
            p, steps = p[::-1], steps[::-1]
        if not (p[0] == ru and p[-1] == rv):
            out.append(f"trace endpoints: edge {eid}")
            continue
        for t in steps:
            use_count[t] += 1
        for i, q in enumerate(p[1:-1], start=1):
            if d.kind_of(q) == "real":
                out.append(f"trace interior: edge {eid} passes real vertex {q}")
            passages.setdefault(q, []).append((steps[i - 1], steps[i]))
    for t, cnt in use_count.items():
        if cnt != 1:
            out.append(f"edge coverage: plan edge {t} used {cnt} times")
    if out:
        return out

    # Crossing vertices: degree 4, two transversal passages.  Every plan edge
    # lies on one trace, and every trace is a simple path between real
    # vertices, so any other vertex has one passage per two of its edges:
    # two at a crossing of degree 4, one at a subdivision vertex of degree 2.
    for p in d.plan.vertices:
        k = d.kind_of(p)
        deg = d.plan.degree(p)
        if k == "crossing":
            if deg != 4:
                out.append(f"crossing degree: vertex {p}")
                continue
            rot = d.rotation[p]
            for e_in, e_out in passages[p]:
                if (rot.index(e_in) - rot.index(e_out)) % 4 != 2:
                    out.append(f"tangential intersection: vertex {p}")
                    break
        elif k == "subdivision" and deg != 2:
            out.append(f"subdivision degree: vertex {p}")

    if out:
        return out

    # Per-component Euler formula, and the outer faces: at most one in each
    # plan component.
    emb, comp = d._embedding, d.plan_components
    for i in sorted({comp[v] for v, c in zip(d.rotation, emb.comp) if emb.genus[c]}):
        out.append(f"euler: plan component {i}")
    faces = d.faces
    if not (0 <= d.outer < max(len(faces), 1)):
        out.append("outer face: index out of range")
    named = {comp[faces[d.outer][0][0]]: "the outer face"} if 0 <= d.outer < len(faces) else {}
    for f in d.outers:
        if not 0 <= f < len(faces):
            out.append(f"outer faces: entry {f} out of range")
            continue
        c = comp[faces[f][0][0]]
        if c in named:
            out.append(f"outer faces: entry {f} shares plan component {c} with {named[c]}")
        named.setdefault(c, f"entry {f}")
    return out


# ===== Crossing counts =====


def crossings_per_edge(d: Drawing) -> dict[int, int]:
    """Base edge id -> number of crossings on its trace."""
    return {eid: len(xs) for eid, xs in d.edge_crossings.items()}


def is_k_planar(d: Drawing, k: int) -> bool:
    """True iff every base edge is crossed at most ``k`` times."""
    _checked_int("k", k)
    return all(c <= k for c in crossings_per_edge(_checked_drawing(d)).values())


# ===== Subdivision plans and arcs =====


@dataclass(frozen=True)
class SubdivisionPlan:
    """Chosen subdivision points, as crossing-gap positions per base edge.

    For an edge whose trace passes crossings ``x_1 .. x_c`` in order, the
    valid positions are ``0 .. c``: position ``g`` lies between ``x_g`` and
    ``x_{g+1}`` (0 = before the first crossing, ``c`` = after the last).
    ``cuts`` is a read-only view of a private copy, each edge's gaps a
    sorted tuple, so a plan never changes.  Cuts that are not a map, and an
    edge id or a gap that is not an int (``bool`` included), are refused
    here with ``ValueError``, and the ranges by :func:`_checked_cuts`.
    """

    cuts: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.cuts, Mapping):
            raise ValueError(f"subdivision plan cuts {self.cuts!r} are not a map")
        cuts: dict[int, tuple[int, ...]] = {}
        for e, gs in self.cuts.items():
            try:
                gaps = tuple(sorted(gs))
            except TypeError:
                raise ValueError(
                    f"gaps {gs!r} on edge {e!r} in subdivision plan are not a sequence of ints"
                ) from None
            if not gaps:
                continue
            if type(e) is not int:
                raise ValueError(f"edge id {e!r} in subdivision plan is not an int")
            for g in gaps:
                if type(g) is not int:
                    raise ValueError(f"gap {g!r} on edge {e} in subdivision plan is not an int")
            cuts[e] = gaps
        object.__setattr__(self, "cuts", MappingProxyType(cuts))


def _checked_cuts(d: Drawing, plan: Optional[SubdivisionPlan]) -> Mapping[int, tuple[int, ...]]:
    """The plan's cuts themselves, checked against ``d``: a plan that is not
    a :class:`SubdivisionPlan` is refused, as is an edge id or a gap out of
    range.  The plan checked its own ids and gaps when it was built."""
    if plan is None:
        return {}
    if not isinstance(plan, SubdivisionPlan):
        raise ValueError(f"subdivision plan {plan!r} is not a SubdivisionPlan")
    for eid, gaps in plan.cuts.items():
        if not (0 <= eid < d.base.m):
            raise ValueError(f"unknown edge {eid} in subdivision plan")
        if not (0 <= gaps[0] and gaps[-1] <= len(d.edge_crossings[eid])):
            raise ValueError("cut on crossing")
    return plan.cuts


class ArcRef(NamedTuple):
    """A contiguous piece of a base edge, in crossing-gap coordinates.

    The arc spans gap ``lo`` to gap ``hi`` of its edge and owns the crossings
    with 1-based indices ``lo+1 .. hi``.  A whole uncut edge with ``c``
    crossings is ``ArcRef(e, 0, c)``.  An arc is the tuple ``(edge, lo,
    hi)``: it hashes, compares and sorts as that tuple and equals it.
    """

    edge: int
    lo: int
    hi: int


@dataclass(frozen=True)
class CrossingGraph:
    """Arcs as nodes, adjacent iff they share a crossing point.

    A crossing graph is a frozen value, so its components are found once,
    on the first call of :meth:`components`, and kept as tuples; every call
    returns fresh lists, which a caller may change without changing what a
    later call returns.  The key of each arc is also found once (see
    :attr:`_arc_keys`).
    """

    nodes: tuple[ArcRef, ...]
    edges: tuple[tuple[int, int], ...]
    crossings: tuple[tuple[int, ...], ...]  # per node: its crossing plan vertices

    @cached_property
    def _kept_components(self) -> tuple[tuple[int, ...], ...]:
        """Every component, trivial ones included (see :func:`_components`)."""
        return _components(len(self.nodes), self.edges)

    @cached_property
    def _arc_keys(self) -> tuple[tuple[int, int], ...]:
        """Per node, ``(edge id, piece index)``: its edge and how many nodes
        of that edge come before it."""
        counts: dict[int, int] = {}
        keys = []
        for node in self.nodes:
            piece = counts.get(node.edge, 0)
            counts[node.edge] = piece + 1
            keys.append((node.edge, piece))
        return tuple(keys)

    def components(self, nontrivial: bool = True) -> list[list[int]]:
        """Connected components (node index lists), each sorted, in the order
        of their least nodes; optionally only those containing at least two
        arcs."""
        return [list(c) for c in self._kept_components if not nontrivial or len(c) >= 2]


def _components(n: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The components of the graph on nodes ``0 .. n-1`` with ``edges``,
    each sorted, in the order of their least nodes."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = bytearray(n)
    comps: list[tuple[int, ...]] = []
    for i in range(n):
        if seen[i]:
            continue
        comp = [i]
        seen[i] = 1
        for a in comp:
            for b in adj[a]:
                if not seen[b]:
                    seen[b] = 1
                    comp.append(b)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def crossing_graph(d: Drawing, plan: Optional[SubdivisionPlan] = None) -> CrossingGraph:
    """The crossing graph of ``d``, optionally after cutting edges per ``plan``.

    Nodes are whole edges (no plan) or the arcs delimited by the plan's cut
    positions; piece indices follow cut order.  Crossing-free arcs appear as
    isolated nodes.  Two arcs are adjacent iff they share a crossing of
    :attr:`Drawing.crossing_edges`, which raises ValueError at a crossing
    not passed by exactly two edges.  ``d`` keeps two graphs: the uncut
    one, in :attr:`Drawing._uncut_graph`, and the graph of the last plan
    with cuts asked for, in its plan slot ``(cuts, graph)``, shared by later
    calls on the same cuts; a plan with other cuts replaces the slot and
    leaves the uncut graph.  So a certificate with cuts does not make the
    next search build the uncut graph again.  A crossing graph does not
    depend on the outer faces, so :meth:`Drawing.with_outer` keeps both.
    The search, verification, the clustered compile and the synthesizer's
    certificate all read the components of a kept graph, which it finds
    once (see :class:`CrossingGraph`).  Anything but a :class:`Drawing`,
    or a plan that is not a :class:`SubdivisionPlan`, is refused with
    ``ValueError``.
    """
    cuts = _checked_cuts(_checked_drawing(d), plan)
    if not cuts:
        return d._uncut_graph
    slot = d.__dict__.get("_plan_slot")
    if slot is None or slot[0] != cuts:
        slot = d.__dict__["_plan_slot"] = (cuts, _crossing_graph(d, cuts))
    return slot[1]


def _crossing_graph(d: Drawing, cuts: Mapping[int, tuple[int, ...]]) -> CrossingGraph:
    """:func:`crossing_graph` on checked cuts, outside the kept graphs."""
    nodes: list[ArcRef] = []
    crossings: list[tuple[int, ...]] = []
    node_at: dict[tuple[int, int], int] = {}  # (edge, crossing) -> node
    for eid in range(d.base.m):
        xs = d.edge_crossings[eid]
        bounds = [0, *cuts.get(eid, ()), len(xs)]
        for lo, hi in zip(bounds, bounds[1:]):
            node_at.update(((eid, x), len(nodes)) for x in xs[lo:hi])
            nodes.append(ArcRef(eid, lo, hi))
            crossings.append(xs[lo:hi])
    # Nodes are numbered by edge, so each pair is sorted like its edges.
    edges = {(node_at[e1, x], node_at[e2, x]) for x, (e1, e2) in d.crossing_edges.items()}
    return CrossingGraph(tuple(nodes), tuple(sorted(edges)), tuple(crossings))


# ===== Subdivision =====


def subdivide_with_map(d: Drawing, plan: SubdivisionPlan) -> tuple[Drawing, dict[int, list[int]]]:
    """Inserts the plan's cut vertices into the base graph.

    Cut vertices become real vertices of the result; each lands on the first
    plan edge of its gap.  Crossings, rotations and faces are preserved.
    Returns ``(d2, pieces)``: ``pieces[e]`` lists the base edge ids of
    ``d2`` that edge ``e`` of ``d`` falls into, in cut order from its smaller
    endpoint; an uncut edge is its own single piece.  A plan without cuts
    returns ``d`` itself.  Nothing is kept: each call with cuts builds a
    new drawing.
    """
    return _cut(d, _checked_cuts(_checked_drawing(d), plan))


def _cut(
    d: Drawing, cuts: Mapping[int, tuple[int, ...]]
) -> tuple[Drawing, dict[int, list[int]]]:
    """:func:`subdivide_with_map` on checked cuts.

    The cuts are made on the plan's dense edge list and rotations by
    :func:`_split`, and wrapped into a drawing here, with the edges
    renumbered in the cut plan's sorted order.  A subdivision keeps the
    rotation slots of the split edge's ends, so the root of every plan
    component (see :attr:`Drawing._dual_tree`) is found again through the
    slot of its first dart's tail and becomes an outer face of the cut
    drawing.
    """
    if not cuts:
        return d, {e: [e] for e in range(d.base.m)}
    ends, rot, made = _split(d, cuts)
    new_plan = Graph.make(rot, ends)
    canon = [new_plan.edge_id(a, b) for a, b in ends]
    rotation = {v: tuple(canon[e] for e in r) for v, r in rot.items()}
    cut_vertices = [v for v in rot if v not in d.rotation]
    kind = {**d.kind, **{v: f"real:{v}" for v in cut_vertices}}
    new_base = Graph.make((*d.base.vertices, *cut_vertices), (pair for _, pair, _ in made))
    trace: dict[int, tuple[int, ...]] = {}
    pieces: dict[int, list[int]] = {e: [] for e in range(d.base.m)}
    for eid, pair, steps in made:
        ne = new_base.edge_id(*pair)
        pieces[eid].append(ne)
        trace[ne] = tuple(canon[e] for e in steps)

    d2 = Drawing(new_base, new_plan, rotation, kind, trace, d.outer)
    image = {}  # the first dart of every root face -> that face in d2
    for f, x in enumerate(d._dual_tree):
        if x < 0:
            a, b = d.faces[f][0]
            e = canon[rot[a][d.rotation[a].index(d.plan.edge_id(a, b))]]
            image[a, b] = d2._dart_face(2 * e + (new_plan.edges[e][0] != a))
    outer = image.pop(d.faces[d.outer][0])
    return d2.with_outer(outer, sorted(image.values())), pieces


def _split(
    d: Drawing, cuts: Mapping[int, tuple[int, ...]]
) -> tuple[
    list[tuple[int, int]], dict[int, list[int]], list[tuple[int, tuple[int, int], list[int]]]
]:
    """The cuts made on the plan's rotation system, with no drawing built.

    The system is the plan's edge ends and rotations, with dense edge ids
    (see :func:`_embed`), and each cut adds one edge (see
    :func:`_subdivide`).  Every edge's trace is walked from its smaller
    endpoint and split at each of its cuts in turn (see :func:`_cut_step`),
    so cut vertices are numbered by edge, then along the trace.  They count
    up from one above every plan and base vertex id, so a cut vertex can
    also be a base vertex of the cut drawing.  Returns the ends, the
    rotations and every piece in that order as (edge of ``d``, its two end
    vertices, its edges in path order).  An end is a base vertex of ``d``
    or a cut vertex, which is its own real vertex.  Raises ValueError
    unless each plan edge is listed once at both of its ends.
    """
    d._embedding  # raises ValueError on malformed rotations
    ends = list(d.plan.edges)
    rot = {v: list(r) for v, r in d.rotation.items()}
    fresh = max((*d.plan.vertices, *d.base.vertices), default=-1) + 1
    made: list[tuple[int, tuple[int, int], list[int]]] = []
    for eid, (u, v) in enumerate(d.base.edges):
        path, steps = d.paths[eid], _steps(d, eid)
        at = [_cut_step(d, eid, g) for g in cuts.get(eid, ())]
        tail, piece = u, []
        for i, pe in enumerate(steps):
            a = path[i]
            for _ in range(at.count(i)):
                rest = _subdivide(ends, rot, pe, a, fresh)
                made.append((eid, (tail, fresh), piece + [pe]))
                tail, piece, a, pe = fresh, [], fresh, rest
                fresh += 1
            piece.append(pe)
        made.append((eid, (tail, v), piece))
    return ends, rot, made


def _subdivide(
    ends: list[tuple[int, int]], rot: dict[int, list[int]], e: int, start: int, s: int
) -> int:
    """Splits edge ``e`` at the new vertex ``s`` in place and returns the new
    edge: ``e`` keeps its id and its slot at ``start`` and now ends at
    ``s``, and the new last edge runs from ``s`` to ``e``'s other end and
    takes ``e``'s slot there.  ``s`` lists ``e``, then the new edge."""
    p, q = ends[e]
    end = q if p == start else p
    ends[e] = (start, s)
    ends.append((s, end))
    new = len(ends) - 1
    r = rot[end]
    r[r.index(e)] = new
    rot[s] = [e, new]
    return new


def _steps(d: Drawing, eid: int) -> tuple[int, ...]:
    """The plan edges of base edge ``eid``'s trace in the order of its path."""
    steps = d.trace[eid]
    return steps if d.paths[eid][0] in d.plan.edges[steps[0]] else steps[::-1]


def _cut_step(d: Drawing, eid: int, gap: int) -> int:
    """The position along base edge ``eid``'s path of the plan edge that a
    cut at ``gap`` lies in: the first plan edge after crossing ``gap``, or
    the path's first plan edge at gap 0."""
    return d.paths[eid].index(d.edge_crossings[eid][gap - 1]) if gap else 0


# ===== Planarization =====


def planarize(d: Drawing) -> tuple[Drawing, dict[int, int]]:
    """Promotes every plan vertex to a real vertex.

    Returns the crossing-free drawing of the plan graph itself, plus the map
    from former crossing vertices to their (identical) new base ids.
    """
    base = Graph.make(_checked_drawing(d).plan.vertices, d.plan.edges)
    kind = {p: f"real:{p}" for p in d.plan.vertices}
    trace = {eid: (eid,) for eid in range(base.m)}
    out = Drawing(base, d.plan, d.rotation, kind, trace, d.outer, d.outers)
    xmap = {p: p for p in d.plan.vertices if d.kind_of(p) == "crossing"}
    return out, xmap


# ===== Arc geometry: sides and the fan property =====


def _around(d: Drawing, eid: int, x: int) -> tuple[int, int]:
    """The plan edges of base edge ``eid``'s trace just before and just after
    its interior plan vertex ``x``, in the order of its path."""
    i = d.paths[eid].index(x)
    steps = _steps(d, eid)
    return steps[i - 1], steps[i]


def _passage_side(d: Drawing, eid: int, x: int, fid: int, forward: bool) -> str:
    """Which side base edge ``fid`` arrives from at crossing ``x``, relative
    to the orientation of base edge ``eid``'s path; ``fid`` is walked along
    its path if ``forward``, else against it.

    Each side is found once per drawing and kept in :attr:`Drawing._sides`
    under its four arguments; a side that raises is not kept, so it raises
    again on every call.
    """
    key = (eid, x, fid, forward)
    side = d._sides.get(key)
    if side is not None:
        return side
    a_in, a_out = _around(d, eid, x)
    f_in, f_out = _around(d, fid, x)
    o_in = f_in if forward else f_out
    rot = d.rotation.get(x, ())
    if len(rot) != 4:
        raise ValueError(f"crossing {x} does not have four plan edges")
    pos = rot.index(a_in)
    for step in range(1, 4):
        e = rot[(pos + step) % 4]
        if e == o_in:
            side = "left"
            break
        if e == a_out:
            side = "right"
            break
    else:
        raise ValueError("darts do not meet at the crossing")
    d._sides[key] = side
    return side


def _fan_core(
    d: Drawing,
    eid: int,
    lo: int,
    hi: int,
    cuts: Mapping[int, tuple[int, ...]],
    hits: Sequence[tuple[Collection[int], int, bool]],
) -> bool:
    """The strong fan-property conditions for one arc and one fan, checked
    on the uncut drawing.

    The arc is the stretch of base edge ``eid`` from gap ``lo`` to gap
    ``hi`` (see :class:`ArcRef`); ``cuts`` holds every cut in effect, as
    distinct gaps per base edge, and an end of the arc is a cut iff its gap
    is one of ``eid``'s cuts.  Each hit is a whole fan edge that meets the
    arc, ``(crossings, base edge id, forward)``: the crossings it shares
    with the arc, and whether the fan center, from which it is walked, is
    the start of its path.  Checks: (1) each hit meets the arc in exactly
    one crossing; (2) all approaches come from the same side
    (:func:`_passage_side`); (3) deleting everything else never encloses an
    end of the arc.

    A cut only adds a degree-2 vertex inside the first plan edge after
    crossing ``gap`` (see :func:`_cut_step`) and leaves every face as it
    is, so nothing is cut here.  Condition (3) is traced on the kept
    subgraph H: the hits' plan edges, the arc's plan edges strictly
    between its ends, and at each end that is a cut, the half of its plan
    edge on the arc's side.  After (1) every hit meets the arc, and all of
    them share the center, so H is connected.  The faces of a connected H
    are then exactly the faces of the arc's plan component merged across
    every edge outside H, and the face of H that holds the component's root
    (see :attr:`Drawing._dual_tree`) meets an end of the arc iff its
    boundary passes through it.  The walk from a dart of H up the dual tree
    locates that face: the last kept edge crossed gives a dart of H with
    the root's side on its left, or, if none is crossed, the start dart has
    it.  A half-kept plan edge counts as not kept there, as both of its
    sides lie in one face of H.  The face is then traced with the rotation
    restricted to H (skip every edge outside H, backwards round the vertex)
    until both ends of the arc have been seen.  A half-kept plan edge is in
    that rotation only at its end on the arc's side; the walk along it
    reaches the cut, which is an end of the arc, and turns back.  The cost
    is the depth of the dual tree plus the plan degrees along the traced
    face of H, not the size of the drawing.
    """
    if any(len(common) != 1 for common, _, _ in hits):
        return False
    sides = {_passage_side(d, eid, x, fid, forward) for (x,), fid, forward in hits}
    if len(sides) > 1:
        return False
    if not hits:
        return True  # H is the arc alone, whose one face passes both ends

    path, steps, edges = d.paths[eid], _steps(d, eid), d.plan.edges
    gaps = cuts.get(eid, ())
    ends: set = set()
    turn: dict[int, tuple[str, int]] = {}  # dart from H towards a cut -> that end
    first, last = 0, len(steps)
    if lo in gaps:
        i = _cut_step(d, eid, lo)
        first = i + 1
        turn[2 * steps[i] + (edges[steps[i]][0] != path[first])] = ("cut", lo)
    else:
        ends.add(path[0])
    if hi in gaps:
        last = _cut_step(d, eid, hi)
        turn[2 * steps[last] + (edges[steps[last]][0] != path[last])] = ("cut", hi)
    else:
        ends.add(path[-1])
    ends.update(turn.values())
    kept = set(steps[first:last])
    for _, fid, _ in hits:
        kept.update(d.trace[fid])

    _, face_of, nxt = d._face_table
    enter = d._dual_tree
    start = 2 * next(iter(kept))
    f = face_of[start]
    while enter[f] >= 0:
        x = enter[f] ^ 1
        if x >> 1 in kept:
            start = x
        f = face_of[x]
    x = start
    while ends:
        ends.discard(edges[x >> 1][x & 1])
        if x in turn:  # the walk reaches a cut, an end of the arc, and turns back
            ends.discard(turn[x])
            x ^= 1
        else:
            x = nxt[x]
            while x >> 1 not in kept and x not in turn:
                x = nxt[x ^ 1]
        if x == start:
            return not ends
    return True

