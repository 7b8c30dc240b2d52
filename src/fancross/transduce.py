"""Compiling drawings into colored planar graphs with bounded-path formulas.

Both compilations delete a small vertex set ``X`` from the drawn graph and
encode the crossing structure of a drawing of the remainder into vertex
colors of a crossing-free drawing, so that the original adjacency relation
is recovered by a fixed formula: either a color handshake through ``X`` or a
short colored path.

* ``transduce_kplanar`` consumes a k-planar drawing: every crossing becomes
  a ``b0`` vertex whose four subdivision neighbors say, via ``b1``/``b2``,
  which of the two edges they continue.
* ``transduce_clustered`` consumes a drawing with a verified k-fold
  ell-clustered fan-crossing certificate: each crossing cluster collapses to
  a ``b0`` hub whose spokes are colored by fan membership (``b_j`` on the
  center side, ``bP_j`` on the far side).

Both outputs are written in one pass over the strands of a rotation system
with dense edge ids (``_strands``: the plan paths between two vertices that
are not bends).  The k-planar output is the plan with every bend smoothed
away and every edge subdivided twice, and neither step changes a face; its
edges are written straight to their places in ``Graph`` order.  The
clustered output starts from the plan with the certificate's cuts
(``drawing._split``) and the stubs made in it, each by one in-place
subdivision (``drawing._subdivide``); a crossing cluster is contracted by
dropping the strands inside it and giving its hub the rotation in which a
tour of the cluster meets the strands that leave it.  Each transducer
checks its system before it builds the output graph, so no intermediate
``Drawing`` is built or validated.  The k-planar system is compared with
the plan, whose plane verdict the drawing keeps, strand by strand and
rotation slot by rotation slot (``_subdivides_plan``), in linear time and
with no face traced: smoothing and subdividing keep every face.  The
clustered system, whose contractions do change faces, is checked with
``drawing._plane_simple``: a simple graph that the dart kernel
``drawing._embed``, which also traces every ``Drawing``'s faces, accepts
with genus 0 on every component is a plane drawing.

``eval_formula`` evaluates the formula exactly.  It pairs the holders of
each handshake color, and runs one bounded simple-path search per source
vertex that looks only for the images of the later vertices and stops once
all of them are witnessed.  The search runs on vertex positions in the
sorted vertex list, over neighbour position lists that are the decode's one
adjacency (``Graph.adj`` is never built on this path).  It classes each
distinct label set once (plain, ``b0`` hub, and the bitmasks of the hub
pairs it opens and closes), spreads the classes into ``bytearray`` flags
and int lists by position, and never hashes a label inside the search.  It
keeps one frame per path vertex, made when the vertex is entered: the
vertex's neighbour iterator and what the vertex allows after it.  A
backtrack pops the frame, so no vertex's state is worked out twice.
``roundtrip`` checks that evaluation returns the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .cluster import Certificate, _verified
from .drawing import (
    Drawing,
    _checked_drawing,
    _plane_simple,
    _require_valid,
    _split,
    _subdivide,
    is_k_planar,
)
from .errors import Infeasible, InvariantBroken
from .graphs import (
    ColorLabel,
    ColoredGraph,
    Graph,
    _checked_graph,
    _checked_int,
    _checked_iter,
    induced,
)

# ===== The path clause, one table entry per mode =====


@dataclass(frozen=True)
class _Mode:
    """The path clause of one mode.

    An internal path vertex passes if it holds a plain label, or if it is a
    ``b0`` hub strictly between the first and the last internal vertex, its
    predecessor holds a plain label ``l`` and its successor holds ``l``'s
    partner: the label of kind ``partner[l.kind]`` at the same index, which
    is at least 1.  With ``ends_plain`` the first and the last internal
    vertices must be plain; otherwise they may hold anything.
    """

    slope: int  # the path budget is slope * k + offset edges
    offset: int
    fixed: tuple[ColorLabel, ...]  # plain at every k
    indexed: tuple[str, ...]  # plain kinds at each index 1 .. k
    partner: dict[str, str]
    ends_plain: bool

    def plain(self, k: int) -> tuple[ColorLabel, ...]:
        """The plain labels up to index ``k``, in rendering order."""
        return self.fixed + tuple(
            ColorLabel(kind, j) for j in range(1, k + 1) for kind in self.indexed
        )

    def hub_pairs(self, k: int) -> list[tuple[ColorLabel, ColorLabel]]:
        """(label before a hub, label after it), in rendering order."""
        return [
            (label, ColorLabel(self.partner[label.kind], label.index))
            for label in self.plain(k)
            if label.index and label.kind in self.partner
        ]


_MODES = {
    "kplanar": _Mode(
        slope=3,
        offset=3,
        fixed=(ColorLabel("b", 1), ColorLabel("b", 2)),
        indexed=(),
        partner={"b": "b"},
        ends_plain=False,
    ),
    "clustered": _Mode(
        slope=4,
        offset=2,
        fixed=(ColorLabel("bP", 0),),
        indexed=("b", "bP"),
        partner={"b": "bP", "bP": "b"},
        ends_plain=True,
    ),
}


def _mode(name: str) -> _Mode:
    entry = _MODES.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown mode {name!r}")
    return entry


def _checked_k(k: int) -> None:
    """Refuses a fold bound that is not a positive int (``bool`` included)."""
    if _checked_int("k", k) < 1:
        raise ValueError("k must be positive")


def _path_budget(k: int, mode: str) -> int:
    entry = _mode(mode)
    _checked_k(k)
    return entry.slope * k + entry.offset


# ===== Output containers =====


@dataclass(frozen=True)
class TransductionFormula:
    """Shape of the edge-recovery formula: mode, fold bound, path budget."""

    k: int
    mode: str
    max_path_len: int

    def __post_init__(self) -> None:
        budget = _path_budget(self.k, self.mode)
        if type(self.max_path_len) is not int or self.max_path_len != budget:
            raise ValueError("max_path_len does not match mode")

    @staticmethod
    def for_mode(k: int, mode: str) -> "TransductionFormula":
        return TransductionFormula(k, mode, _path_budget(k, mode))


@dataclass(frozen=True)
class TransductionOutput:
    """A colored crossing-free graph plus the data needed to decode it.

    Fields:
        colored: the colored graph ``G`` (the deleted vertices sit in it as
            isolated vertices).
        embed: injection from the original vertices into ``V(G)``.
        formula: shape of the edge-recovery formula.
        x: the deleted vertex set, sorted.
    """

    colored: ColoredGraph
    embed: dict[int, int]
    formula: TransductionFormula
    x: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.colored, ColoredGraph):
            raise ValueError(f"colored {self.colored!r} is not a ColoredGraph")
        if not isinstance(self.formula, TransductionFormula):
            raise ValueError(f"formula {self.formula!r} is not a TransductionFormula")
        if not isinstance(self.embed, Mapping):
            raise ValueError(f"embed {self.embed!r} is not a map")
        g = self.colored.graph
        for h, v in self.embed.items():
            _checked_int("embedded vertex", h)
            if not g.has_vertex(_checked_int("embed image", v)):
                raise ValueError(f"embed maps {h} to {v}, not a vertex of the colored graph")
        for v in _checked_iter("X vertices", self.x):
            _checked_int("X vertex", v)
        if len(set(self.embed.values())) != len(self.embed):
            raise ValueError("embed is not injective")
        if not set(self.x) <= set(self.embed):
            raise ValueError("X is not a subset of the embedded vertices")


# ===== Shared input checks and assembly =====


def _bends(d: Drawing) -> list[int]:
    """The bend vertices of the plan, sorted."""
    return sorted(p for p in d.plan.vertices if d.kind_of(p) == "subdivision")


def _checked_x(d: Drawing, x_edges: Mapping[int, Iterable[int]], k: int) -> dict[int, tuple[int, ...]]:
    """Validates the deleted vertex set and symmetrizes its edge lists; the
    set must be a map, and every vertex an int (``bool`` refused)."""
    if not isinstance(x_edges, Mapping):
        raise ValueError(f"x_edges {x_edges!r} is not a map")
    xs = {_checked_int("X vertex", v) for v in x_edges}
    if len(xs) > k:
        raise ValueError("|X| > k")
    base = set(d.base.vertices)
    if xs & base:
        raise ValueError("X overlaps the drawing")
    verts = base | xs
    norm: dict[int, set[int]] = {v: set() for v in xs}
    for xv, nbrs in x_edges.items():
        try:
            nbrs = iter(nbrs)
        except TypeError:
            raise ValueError(f"neighbors {nbrs!r} of {xv} are not a list") from None
        for w in nbrs:
            if type(w) is not int or w == xv or w not in verts:
                raise ValueError(f"unknown neighbor {w!r} of {xv}")
            norm[xv].add(w)
    for xv in sorted(norm):
        for w in norm[xv]:
            if w in norm:
                norm[w].add(xv)
    return {v: tuple(sorted(ws)) for v, ws in norm.items()}


def _output(
    hverts: list[int],
    verts: list[int],
    gedges: list[tuple[int, int]],
    colors: dict[int, frozenset[ColorLabel]],
    x_edges: dict[int, tuple[int, ...]],
    k: int,
    mode: str,
) -> TransductionOutput:
    """The output of a checked system: the graph on the sorted vertices
    ``verts``, X among them, and the ``(min, max)`` edges ``gedges``, built
    without ``Graph.make``'s checks, which the system's check has made; the
    colors plus the handshake colors of X; and the identity embedding of the
    original vertices ``hverts``, sorted."""
    for i, xv in enumerate(sorted(x_edges), start=1):
        colors[xv] = colors.get(xv, frozenset()) | {ColorLabel("c", i)}
        for w in x_edges[xv]:
            colors[w] = colors.get(w, frozenset()) | {ColorLabel("cP", i)}
    gedges.sort()
    g = Graph(tuple(verts), tuple(gedges))
    embed = {v: v for v in hverts}
    return TransductionOutput(
        ColoredGraph(g, colors), embed, TransductionFormula.for_mode(k, mode), tuple(sorted(x_edges))
    )


def _strands(
    ends: Sequence[tuple[int, int]], rot: Mapping[int, Sequence[int]], inner: set[int]
) -> list[tuple[int, int, int, int]]:
    """The strands of a rotation system with dense edge ids (see
    :func:`drawing._embed`) whose ``inner`` vertices have degree 2: the
    paths between two vertices outside ``inner`` with only ``inner``
    vertices inside, each as (end, end, its edge at the first end, at the
    second).  Strands without inner vertices come first, in edge order, each
    from its edge's first end; then the others, by increasing largest inner
    vertex, each from the end reached through the first edge in that
    vertex's rotation."""
    strands = [(a, b, f, f) for f, (a, b) in enumerate(ends) if a not in inner and b not in inner]
    bent = []
    seen: set[int] = set()
    for bend in sorted(inner, reverse=True):  # the first bend met on a strand is its largest
        if bend in seen:
            continue
        walked = []
        for f in rot[bend]:
            v = bend
            while True:
                p, q = ends[f]
                v = q if p == v else p
                if v not in inner:
                    break
                seen.add(v)
                r = rot[v]
                f = r[1] if r[0] == f else r[0]
            walked.append((v, f))
        (a, fa), (b, fb) = walked
        bent.append((a, b, fa, fb))
    return strands + bent[::-1]


# ===== Mode (a): k-planar drawings =====


def transduce_kplanar(
    d: Drawing, x_edges: Mapping[int, Iterable[int]], k: int
) -> TransductionOutput:
    """Compiles a k-planar drawing (of the graph minus ``X``) into colors.

    ``x_edges`` maps each deleted vertex to its neighbors in the full graph.
    Every crossing becomes a ``b0`` vertex; each incident strand is
    subdivided twice and the subdivision vertex next to the crossing names
    its edge: ``b1`` for the smaller base edge id, ``b2`` for the larger.

    Smoothing the bends and subdividing keep every face, so the output is
    written in one pass over the plan's strands (see :func:`_strands`), as
    a system with dense edge ids: a strand becomes the path ``a, s, s + 1,
    b``, and each rotation of the plan names, in its slots, the strand
    edges at that vertex.  The original vertices keep their ids; the
    crossings are numbered next, in increasing plan id, then the
    subdivision vertices, strand by strand.  These are the ids that
    smoothing the bends one at a time in increasing id, then subdividing
    each remaining edge twice from its first end in increasing edge id,
    gives.  An edge's id is its place in ``Graph`` order, so the edges are
    written already sorted.

    The system is checked before the graph is built, against the plan,
    whose plane verdict ``d`` keeps (:func:`_require_valid`), and with no
    face traced (:func:`_subdivides_plan`).  A system that passes is one
    :func:`drawing._plane_simple` accepts; in that check's names, where
    strand ``(a, b, fa, fb)`` is the path of edges ``x, y, z`` through ``s``
    and ``s + 1``:

    * Every edge is listed exactly once at each of its two ends.  The
      strands name ``3 * len(strands)`` ids, all in range and each with its
      own pair of ends, so they are all the ids, each named once.  The
      plan darts that leave vertices outside ``inner`` number ``2 *
      len(pe) - 2 * len(inner)``, twice the strands, and a dart that no
      strand starts fails its slot, so each starts exactly one strand.  So
      ``x`` is listed at ``s`` and in one slot at ``ren[a]``, ``y`` at ``s``
      and ``s + 1``, ``z`` at ``s + 1`` and in one slot at ``ren[b]``, and
      nowhere else.
    * No two edges join the same pair of vertices, as the pairs ``(ren[a],
      s)``, ``(s, s + 1)`` and ``(ren[b], s + 1)`` all differ, and no edge is
      a loop, as no ``ren`` value is a subdivision id.
    * Every component has genus 0.  The system is the plan's with each
      strand's plan path replaced by a path of three edges in the same
      rotation slots at its ends: the plan with its bends smoothed, then
      with each edge subdivided twice.  Smoothing a vertex of degree 2 and
      subdividing an edge each map faces one to one and lower or raise
      ``V`` and ``E`` together, so every component keeps its ``V - E + F``
      (Mohar and Thomassen, *Graphs on Surfaces*, ch. 3), and the plan's
      components have genus 0 because ``d`` is valid.
    """
    _checked_k(k)
    _require_valid(d)
    if not is_k_planar(d, k):
        raise Infeasible("not k-planar")
    xn = _checked_x(d, x_edges, k)

    pe, rotation = d.plan.edges, d.rotation
    owner = [0] * len(pe)
    for eid, t in d.trace.items():
        for f in t:
            owner[f] = eid
    inner = set(_bends(d))
    hverts = sorted(set(d.base.vertices) | set(xn))
    fresh = max(hverts, default=-1) + 1
    ren = {p: v for v, p in d.real_pvid.items()}
    crossing_edges = d.crossing_edges
    ren.update((x, fresh + j) for j, x in enumerate(crossing_edges))
    b0, b1, b2 = (frozenset({ColorLabel("b", j)}) for j in range(3))
    colors = {ren[x]: b0 for x in crossing_edges}
    s = fresh + len(crossing_edges)
    strands = _strands(pe, rotation, inner)
    # Every original vertex and crossing r is below every subdivision
    # vertex s, so each edge is (min, max) as written, and each goes
    # straight to its place in Graph order: first the edges (r, s), by r,
    # one per entry of r's rotation, and then by s, which rises strand by
    # strand; then the edges (s, s + 1), in strand order.
    nxt: dict[int, int] = {}  # plan vertex -> the place of its next edge
    at = 0
    for p in [*(d.real_pvid[v] for v in d.base.vertices), *crossing_edges]:
        nxt[p] = at
        at += len(rotation[p])
    edges: list[tuple[int, int]] = [(0, 0)] * (at + len(strands))
    rot: dict[int, list[int]] = {}
    slot = [0] * (2 * len(pe))  # plan dart leaving a strand end -> its output edge
    for e, (a, b, fa, fb) in enumerate(strands, start=at):
        ea = nxt[a]
        nxt[a] = ea + 1
        eb = nxt[b]
        nxt[b] = eb + 1
        edges[ea] = (ren[a], s)
        edges[e] = (s, s + 1)
        edges[eb] = (ren[b], s + 1)
        rot[s] = [ea, e]
        rot[s + 1] = [e, eb]
        slot[2 * fa + (pe[fa][0] != a)] = ea
        slot[2 * fb + (pe[fb][0] != b)] = eb
        own = owner[fa]
        if a in crossing_edges:
            colors[s] = b1 if crossing_edges[a][0] == own else b2
        if b in crossing_edges:
            colors[s + 1] = b1 if crossing_edges[b][0] == own else b2
        s += 2
    # The darts of every rotation but the bends', computed once for the
    # output and its check, in one flat list: one comprehension in all, not
    # one per vertex.
    darts = [2 * f + (pe[f][0] != v) for v, r in rotation.items() if v not in inner for f in r]
    listed = list(map(slot.__getitem__, darts))
    i = 0
    for v, r in rotation.items():
        if v not in inner:
            rot[ren[v]] = listed[i : i + len(r)]
            i += len(r)
    if not _subdivides_plan(edges, rot, d, inner, strands, ren, fresh + len(crossing_edges), darts):
        raise InvariantBroken("construction invariant broken")
    # hverts holds X, and every new vertex lies above it.
    return _output(hverts, [*hverts, *range(fresh, s)], edges, colors, xn, k, "kplanar")


def _subdivides_plan(
    ends: Sequence[tuple[int, int]],
    rot: Mapping[int, Sequence[int]],
    d: Drawing,
    inner: set[int],
    strands: Sequence[tuple[int, int, int, int]],
    ren: Mapping[int, int],
    first: int,
    darts: Sequence[int],
) -> bool:
    """Whether a system with dense edge ids (see :func:`drawing._embed`) is
    the plan of the valid drawing ``d`` with the ``inner`` vertices, its
    bends, smoothed and every strand subdivided twice, in rotation order.
    ``darts`` lists the darts leaving the plan vertices outside ``inner``
    in their rotations, vertex after vertex in ``d.rotation`` order: ``2 *
    f + (pe[f][0] != p)`` for each plan edge ``f`` of ``d.rotation[p]``.

    ``ren`` names the output vertex of each other plan vertex, and strand
    ``i`` of ``strands`` (see :func:`_strands`), ``(a, b, fa, fb)``, is to
    become the path ``ren[a], s, s + 1, ren[b]`` with ``s = first + 2i``.
    The check holds when:

    * ``ren`` names every plan vertex outside ``inner`` and no other, with
      output ids that are distinct and are not the subdivision ids, and
      ``rot`` has exactly these vertices and the subdivision vertices;
    * there are ``len(d.plan.edges) - len(inner)`` strands, and three edges
      per strand;
    * each strand is a plan path that leaves ``a`` by ``fa``, passes only
      ``inner`` vertices and enters ``b`` by ``fb``, and the strands pass
      no more ``inner`` vertices than there are;
    * ``rot[s]`` is ``[x, y]`` and ``rot[s + 1]`` is ``[y, z]``, where no id
      is negative, ``ends[x] == (ren[a], s)``, ``ends[y] == (s, s + 1)`` and
      ``ends[z] == (ren[b], s + 1)``;
    * the rotation of ``ren[p]`` is the image of ``p``'s, slot by slot: the
      ``x`` or ``z`` of the strand that starts with each dart.

    It runs once over the strands, walking the bends on them, and once over
    the other plan vertices' rotations; it traces no face.  The proof that
    it implies :func:`drawing._plane_simple` is in :func:`transduce_kplanar`.
    """
    pe, rotation = d.plan.edges, d.rotation
    m = len(strands)
    if (
        m != len(pe) - len(inner)
        or len(ends) != 3 * m
        or len(ren) != len(rotation) - len(inner)
        or len(rot) != len(ren) + 2 * m
        or rot.keys() != {*ren.values(), *range(first, first + 2 * m)}
    ):
        return False
    unset = object()  # in no rotation, so a dart no strand starts fails its slot
    named = [unset] * (2 * len(pe))  # plan dart leaving a strand end -> the id in its slot
    bends_left = len(inner)  # each lies on one strand, so no walk goes round a cycle
    s = first
    try:
        for a, b, fa, fb in strands:
            t = s + 1
            (x, y), (y2, z) = rot[s], rot[t]
            if (
                y != y2
                or x < 0
                or y < 0
                or z < 0
                or ends[x] != (ren[a], s)
                or ends[y] != (s, t)
                or ends[z] != (ren[b], t)
            ):
                return False
            if fa == fb and pe[fa] == (a, b):  # a plan edge, from its first end
                named[2 * fa] = x
                named[2 * fa + 1] = z
            else:
                p, q = pe[fa]
                v = q if p == a else p if q == a else None
                f = fa
                while v in inner:
                    bends_left -= 1
                    if bends_left < 0:
                        return False
                    r = rotation[v]
                    f = r[1] if r[0] == f else r[0]
                    p, q = pe[f]
                    v = q if p == v else p
                if v != b or f != fb:
                    return False
                named[2 * fa + (pe[fa][0] != a)] = x
                named[2 * fb + (pe[fb][0] != b)] = z
            s += 2
        listed = list(map(named.__getitem__, darts))
        i = 0
        for p, r in rotation.items():
            if p not in inner:
                if rot[ren[p]] != listed[i : i + len(r)]:
                    return False
                i += len(r)
    except (KeyError, IndexError, TypeError, ValueError):
        return False
    return i == len(darts)


# ===== Mode (b): clustered fan-crossing drawings =====


def transduce_clustered(
    d: Drawing, cert: Certificate, x_edges: Mapping[int, Iterable[int]], k: int
) -> TransductionOutput:
    """Compiles a drawing with a verified clustered certificate into colors.

    After cutting per the certificate and shielding every original vertex
    behind a crossing-free stub edge, each crossing cluster is contracted to
    a ``b0`` hub.  Each spoke is subdivided once and colored by fan
    membership of its endpoint: ``b_j`` if the endpoint is reachable from
    fan ``j``'s center without traversing the cluster, ``bP_j`` otherwise.

    The certificate's cuts (:func:`drawing._split`) and the stubs are made
    on one rotation system of ``d`` with dense edge ids, and the output is
    written in one pass over its strands (see :func:`_strands`): a strand
    with both ends in one cluster is a loop of the contraction and is
    dropped, a strand from a leaf into a cluster is the leaf's spoke unless
    the leaf already has one to that hub, and every other strand is one
    edge.  Contracting a connected cluster is contracting a spanning tree of
    it, so the hub's rotation is the order in which a depth-first tour of
    the tree, entering each crossing just after the edge it came in by,
    meets the edges that leave the cluster (Mohar and Thomassen, *Graphs on
    Surfaces*, ch. 3).  The original vertices keep their ids; the hubs, cut
    and stub vertices are numbered next, in increasing system id, then the
    spoke vertices by cluster and leaf.  The system is checked
    (:func:`drawing._plane_simple`) before the graph is built.
    """
    _checked_k(k)
    _require_valid(d)
    report, cg, comps, keys = _verified(d, cert, strong=False)
    if not report.verdict or cert.k > k or cert.ell > k:
        raise Infeasible("certificate invalid")
    xn = _checked_x(d, x_edges, k)

    # Cut per certificate, then add a stub next to every original end of
    # every piece, so no original vertex touches a crossed edge.  Stubs are
    # numbered after the cut vertices, piece by piece in the order of the
    # pieces' sorted end pairs, smaller end first; a cut or stub vertex is
    # its own real vertex.
    ends, rot, made = _split(d, cert.plan.cuts)
    stub = max((*rot, *d.base.vertices), default=-1) + 1
    orig = set(d.base.vertices)
    chains = [list(pair) for _, pair, _ in made]  # each piece's vertices in path order
    for i in sorted(range(len(made)), key=lambda i: sorted(made[i][1])):
        _, (a, b), steps = made[i]
        for end in sorted((a, b)):
            if end in orig:
                at = 0 if end == a else -1
                steps[at] = _subdivide(ends, rot, steps[at], d.real_pvid[end], stub)
                chains[i].insert(1 if at == 0 else -1, stub)
                stub += 1
    pieces: dict[int, list[list[int]]] = {}
    for (eid, _, _), chain in zip(made, chains):
        pieces.setdefault(eid, []).append(chain)

    cluster_of: dict[int, int] = {}  # crossing -> the index of its cluster
    hubs: list[int] = []
    sides: list[list[tuple[set[int], set[int]]]] = []
    for ci, comp in enumerate(comps):
        # The edge of each arc's piece that carries its crossings: the one
        # after the stub at its first end, if that end is original.
        cluster = set()
        for eid, piece in (keys[n] for n in comp):
            chain = pieces[eid][piece]
            i = chain[0] in orig
            cluster.add(frozenset(chain[i : i + 2]))
        # Reachable / far endpoint sets per fan of this component's cover.
        fan_sides: list[tuple[set[int], set[int]]] = []
        for fan in cert.covers[ci]:
            incident: set[int] = set()
            near: set[int] = set()
            for u, v in fan.edges:
                chains_uv = pieces[d.base.edge_id(u, v)]
                path = chains_uv[0][:1] + [w for chain in chains_uv for w in chain[1:]]
                if path[0] != fan.center:
                    path.reverse()
                reachable = True
                for cur, far in zip(path, path[1:]):
                    if frozenset((cur, far)) in cluster:
                        incident.update((cur, far))
                        if reachable:
                            near.add(cur)
                            reachable = False
            fan_sides.append((near, incident - near))
        sides.append(fan_sides)
        interior = sorted({x for n in comp for x in cg.crossings[n]})
        cluster_of.update(dict.fromkeys(interior, ci))
        hubs.append(interior[0])

    inner = set(_bends(d))
    hverts = sorted(orig | set(xn))
    first = fresh = max(hverts, default=-1) + 1
    ren = {p: v for v, p in d.real_pvid.items()}
    for p in sorted((rot.keys() - inner - cluster_of.keys()) | set(hubs)):
        if p not in ren:
            ren[p] = fresh
            fresh += 1
    bp0 = frozenset({ColorLabel("bP", 0)})
    colors = {ren[v]: bp0 for chain in chains for v in chain if v not in orig}
    colors.update((ren[hub], frozenset({ColorLabel("b", 0)})) for hub in hubs)
    ren.update((x, ren[hubs[c]]) for x, c in cluster_of.items())

    edges: list[tuple[int, int]] = []
    slot = [-1] * (2 * len(ends))  # dart leaving a strand end -> its output edge
    loop: dict[int, tuple[int, int]] = {}  # dart leaving a loop -> its far end and edge there
    spokes: dict[tuple[int, int], tuple[int, int]] = {}  # (cluster, leaf) -> the darts leaving both
    for a, b, fa, fb in _strands(ends, rot, inner):
        da, db = 2 * fa + (ends[fa][0] != a), 2 * fb + (ends[fb][0] != b)
        ra, rb = ren[a], ren[b]
        if ra == rb:
            loop[da], loop[db] = (b, fb), (a, fa)
        elif (a in cluster_of) == (b in cluster_of):
            slot[da] = slot[db] = len(edges)
            edges.append((ra, rb) if ra < rb else (rb, ra))
        elif b in cluster_of:
            spokes.setdefault((cluster_of[b], a), (da, db))
        else:
            spokes.setdefault((cluster_of[a], b), (db, da))
    out: dict[int, list[int]] = {}
    for (c, leaf), (dl, dh) in sorted(spokes.items()):
        e = len(edges)
        edges += ((ren[leaf], fresh), (ren[hubs[c]], fresh))
        out[fresh] = [e, e + 1]
        slot[dl], slot[dh] = e, e + 1
        marks = set()
        for j, (near, far) in enumerate(sides[c], start=1):
            if leaf in near:
                marks.add(ColorLabel("b", j))
            if leaf in far:
                marks.add(ColorLabel("bP", j))
        colors[fresh] = frozenset(marks)
        fresh += 1

    for v, r in rot.items():
        if v not in inner and v not in cluster_of:
            darts = [2 * f + (ends[f][0] != v) for f in r]
            out[ren[v]] = [slot[x] for x in darts if slot[x] >= 0]
    for hub in hubs:
        tour = out[ren[hub]] = []
        reached = {hub}
        # One frame per crossing of the tour: the crossing and what is left
        # of its rotation, from just after the edge the tour came in by.
        stack = [(hub, iter(rot[hub]))]
        while stack:
            x, rest = stack[-1]
            for f in rest:
                dart = 2 * f + (ends[f][0] != x)
                if slot[dart] >= 0:
                    tour.append(slot[dart])
                elif dart in loop and loop[dart][0] not in reached:
                    y, g = loop[dart]
                    reached.add(y)
                    r = rot[y]
                    i = r.index(g)
                    stack.append((y, iter(r[i + 1 :] + r[:i])))
                    break
            else:
                stack.pop()
    if not _plane_simple(edges, out):
        raise InvariantBroken("construction invariant broken")
    return _output(hverts, [*hverts, *range(first, fresh)], edges, colors, xn, k, "clustered")


# ===== Formula evaluation =====


def eval_formula(out: TransductionOutput) -> Graph:
    """Evaluates the edge-recovery formula on the colored graph.

    Returns the decoded graph on the original vertex set.  An edge is
    present iff the color handshake for some deleted vertex holds, or a
    simple path within the length budget satisfies the positional color
    constraints of the mode.

    The handshake pairs every holder of ``c_i`` with every holder of
    ``cP_i``.  The path clause runs one bounded simple-path search per
    original vertex ``a`` (:func:`_path_search`, on vertex positions): it
    looks only for the images of the vertices after ``a``, and stops as
    soon as all of them are witnessed.  The original vertices are ints and
    every edge is written ``(min, max)``, so the graph is built from them
    directly, without ``Graph.make``'s checks.
    """
    if not isinstance(out, TransductionOutput):
        raise ValueError(f"output {out!r} is not a TransductionOutput")
    cg, f, embed = out.colored, out.formula, out.embed
    hverts = sorted(embed)
    edges: set[tuple[int, int]] = set()
    holders: dict[ColorLabel, list[int]] = {}
    for a in hverts:
        for label in cg.labels(embed[a]):
            holders.setdefault(label, []).append(a)
    for label, has_c in holders.items():
        if label.kind == "c" and label.index <= f.k:
            for b in holders.get(ColorLabel("cP", label.index), ()):
                edges.update((min(a, b), max(a, b)) for a in has_c if a != b)
    witnessed = _path_search(cg, f)
    orig = {g: h for h, g in embed.items()}
    later = set(orig)
    for a in hverts:
        later.discard(embed[a])
        if later:
            edges.update((a, orig[g]) for g in witnessed(embed[a], later))
    return Graph(tuple(hverts), tuple(sorted(edges)))


def _path_search(
    cg: ColoredGraph, f: TransductionFormula
) -> Callable[[int, set[int]], list[int]]:
    """The path clause of ``f`` on ``cg``, as a one-source search.

    Returns ``witnessed(src, targets)``, the targets ``t`` joined to ``src``
    by a simple path of at most ``f.max_path_len`` edges that avoids ``t``
    inside and meets the conditions of the mode's ``_MODES`` entry.  An
    internal vertex ``z`` between the first and the last passes if it is
    plain, or a hub whose predecessor opens a pair (holds the label before
    the hub) that its successor closes (holds the label after it).  With
    ``ends_plain``, a vertex may be entered at position ``p`` only if it is
    plain or, for ``p >= 2``, a hub, and the last internal vertex must be
    plain.  A witnessed target may still sit inside a path to another
    target.

    The search runs on vertex positions in the sorted ``cg.graph.vertices``:
    the ids themselves when they are ``0 .. n - 1``, else through one id to
    position dict, with the witnessed targets mapped back to ids.  It reads
    the graph once, into neighbour position lists, and the labels once per
    distinct label set, which is classed as plain (holds a plain label), hub
    (``b0`` and no plain label) or neither, with the bitmasks of the hub
    pairs it opens and closes.  Every vertex of a class gets its flags in
    ``bytearray`` tables and its masks in int lists, so the search itself
    hashes only the target set.
    """
    g = cg.graph
    verts = g.vertices
    n = len(verts)
    dense = not verts or (verts[0] == 0 and verts[-1] == n - 1)
    index = None if dense else {v: i for i, v in enumerate(verts)}
    ends = g.edges if index is None else [(index[u], index[v]) for u, v in g.edges]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in ends:
        nbrs[u].append(v)
        nbrs[v].append(u)
    budget = f.max_path_len
    entry = _mode(f.mode)
    ends_plain = entry.ends_plain
    classes: dict[frozenset[ColorLabel], list[int]] = {}
    for v, ls in cg.colors.items():
        classes.setdefault(ls, []).append(v if index is None else index[v])
    # Labels above the largest index in ``cg`` match nothing, so a large k
    # in a document costs nothing.
    top = min(f.k, max((max(label.index for label in ls) for ls in classes), default=0))
    plain_labels = frozenset(entry.plain(top))
    opens: dict[ColorLabel, int] = {}
    closes: dict[ColorLabel, int] = {}
    for i, (a, b) in enumerate(entry.hub_pairs(top)):
        opens[a] = opens.get(a, 0) | 1 << i
        closes[b] = closes.get(b, 0) | 1 << i
    b0 = ColorLabel("b", 0)
    plain = bytearray(n)
    hub = bytearray(n)
    before = [0] * n
    after = [0] * n
    for ls, members in classes.items():
        is_plain = not plain_labels.isdisjoint(ls)
        is_hub = not is_plain and b0 in ls
        bits_in = bits_out = 0
        for label in ls:
            bits_in |= opens.get(label, 0)
            bits_out |= closes.get(label, 0)
        for p in members:
            plain[p] = is_plain
            hub[p] = is_hub
            before[p] = bits_in
            after[p] = bits_out
    onpath = bytearray(n)  # cleared again on every exit from ``witnessed``

    def witnessed(src: int, targets: set[int]) -> list[int]:
        if index is None:
            left = set(targets)
        else:
            src = index[src]
            left = {index[t] for t in targets}
        found: list[int] = []
        onpath[src] = 1
        # One frame per path vertex, made when the vertex is entered and
        # popped on backtrack: the vertex, its neighbour iterator, the
        # number of edges used to reach it, whether the path may end after
        # it, whether it may go deeper (used + 2 edges fit the budget,
        # leaving room for the closing edge), whether it is a non-plain
        # vertex in the middle, and, for a hub there, the pairs its
        # predecessor opens.  A non-plain vertex in the middle lets only a
        # successor through that closes one of those pairs.
        stack = [(src, iter(nbrs[src]), 0, True, 2 <= budget, False, 0)]
        while stack:
            cur, it, used, may_end, deeper, mid, opened = stack[-1]
            for w in it:
                if onpath[w]:
                    continue
                if may_end and w in left:
                    left.remove(w)
                    found.append(w)
                    if not left:
                        for frame in stack:
                            onpath[frame[0]] = 0
                        stack.clear()
                        break
                if not deeper or (ends_plain and not plain[w] and not (used and hub[w])):
                    continue
                if mid and not opened & after[w]:
                    continue
                onpath[w] = 1
                w_plain = plain[w]
                w_mid = used >= 1 and not w_plain
                stack.append((
                    w,
                    iter(nbrs[w]),
                    used + 1,
                    not ends_plain or w_plain,
                    used + 3 <= budget,
                    w_mid,
                    before[cur] if w_mid and hub[w] else 0,
                ))
                break
            else:
                stack.pop()
                onpath[cur] = 0
        return found if index is None else [verts[p] for p in found]

    return witnessed


def roundtrip(
    h: Graph,
    d: Drawing,
    x: Iterable[int],
    k: int,
    mode: str,
    cert: Optional[Certificate] = None,
) -> bool:
    """Compiles, evaluates, and compares against the original graph; every
    vertex of ``x`` must be an int (``bool`` refused)."""
    xs = sorted({_checked_int("X vertex", v) for v in _checked_iter("X vertices", x)})
    base = set(_checked_drawing(d).base.vertices)
    if set(_checked_graph("graph", h).vertices) != base | set(xs) or set(xs) & base:
        raise ValueError("drawing does not match the graph")
    if induced(h, base) != d.base:
        raise ValueError("drawing does not match the graph")
    x_edges = {v: h.neighbors(v) for v in xs}
    if mode == "kplanar":
        out = transduce_kplanar(d, x_edges, k)
    elif mode == "clustered":
        if cert is None:
            raise Infeasible("certificate invalid")
        out = transduce_clustered(d, cert, x_edges, k)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return eval_formula(out) == h


# ===== Formula rendering =====


def render_formula(f: TransductionFormula) -> str:
    """Deterministic text of the edge-recovery formula.

    One disjunct per handshake index and per path length, with a separate
    existential quantifier for every internal path vertex.
    """
    if not isinstance(f, TransductionFormula):
        raise ValueError(f"formula {f!r} is not a TransductionFormula")
    alts = [
        f"(c{i}(x) & cP{i}(y)) | (cP{i}(x) & c{i}(y))" for i in range(1, f.k + 1)
    ]
    for p in range(f.max_path_len):
        alts.append(_path_disjunct(f, p))
    return "xi(x, y) :=\n    " + "\n  | ".join(alts) + "\n"


def _path_disjunct(f: TransductionFormula, p: int) -> str:
    names = ["x"] + [f"z{i}" for i in range(1, p + 1)] + ["y"]
    quants = "".join(f"exists {z}: " for z in names[1:-1])
    atoms = [f"adj({a}, {b})" for a, b in zip(names, names[1:])]
    atoms += [f"{a} ~= {b}" for a, b in combinations(names, 2)]
    for i in range(1, p + 1):
        cons = _position_constraint(f, names, i, p)
        if cons:
            atoms.append(cons)
    return "(" + quants + " & ".join(atoms) + ")"


def _position_constraint(
    f: TransductionFormula, names: list[str], i: int, p: int
) -> str:
    entry = _mode(f.mode)
    z, prev, nxt = names[i], names[i - 1], names[i + 1]
    inner = 1 < i < p
    if not (inner or entry.ends_plain):
        return ""
    alts = [f"{label}({z})" for label in entry.plain(f.k)]
    if inner:
        pairs = " | ".join(f"({a}({prev}) & {b}({nxt}))" for a, b in entry.hub_pairs(f.k))
        alts.append(f"(b0({z}) & ({pairs}))")
    return "(" + " | ".join(alts) + ")"
