"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned and been checked.  A workload builds its inputs in
:meth:`setup` from the seed, and :meth:`cycle` lists the ops of one pass over
its instance set, which is the same in every cycle.  Every op takes one
instance to a checked verdict and returns ``(failure, result)``: ``failure``
is ``None`` or a message, and ``result()`` builds the op's output document
for the digest (called after the op's timing stops).

Every check compares against a reference the benchmark holds itself: the
graph the instance was generated from, the pattern of a minor model, or
verdicts recorded once by ``record_expected.py`` from the brute-force
oracles in ``tests/oracles.py``.  How instances are sized is stated in
``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import deque
from typing import Any, Callable, Optional

from fancross.cluster import min_ell, search_certificate, verify_certificate
from fancross.drawing import crossing_graph, validate
from fancross.fixtures import fig1a, fig1b, fig3, random_kplanar
from fancross.geometry import drawing_from_segments, pt
from fancross.graphs import Graph, complete, cycle, grid2d, path
from fancross.jsonio import (
    certificate_to_json,
    drawing_from_json,
    drawing_to_json,
    graph_to_json,
    model_to_json,
    synthresult_to_json,
    transduction_from_json,
    transduction_to_json,
)
from fancross.minors import MinorModel, find_model_bruteforce, verify_model
from fancross.synth import synthesize
from fancross.transduce import eval_formula, transduce_clustered, transduce_kplanar

from tracing import Tracer

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

Result = Callable[[], Any]
Op = Callable[[Tracer], tuple[Optional[str], Result]]


# ===== Independent references =====


def n_crossings(d) -> int:
    return sum(1 for kind in d.kind.values() if kind == "crossing")


def graph_mismatch(g: Graph, vertices, edges) -> Optional[str]:
    """``None`` iff ``g`` has exactly these vertices and undirected edges."""
    want_e = {(min(u, v), max(u, v)) for u, v in edges}
    got_e = {(min(u, v), max(u, v)) for u, v in g.edges}
    if set(g.vertices) != set(vertices):
        return "decoded vertex set differs"
    if got_e != want_e:
        return f"decoded edges differ: {len(got_e - want_e)} extra, {len(want_e - got_e)} missing"
    return None


def model_violation(host: Graph, pattern: Graph, branch, c: int, d: int) -> Optional[str]:
    """Recomputes the three minor-model conditions by breadth-first search."""
    adj: dict[int, set[int]] = {v: set() for v in host.vertices}
    for u, v in host.edges:
        adj[u].add(v)
        adj[v].add(u)
    load: dict[int, int] = {}
    for v in pattern.vertices:
        bs = set(branch.get(v, ()))
        if not bs or not bs <= set(adj):
            return f"branch {v} empty or off the host"
        radius = None
        for s in bs:
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w in bs and w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            if len(dist) != len(bs):
                return f"branch {v} not connected"
            ecc = max(dist.values())
            radius = ecc if radius is None else min(radius, ecc)
        if radius > d:
            return f"branch {v} radius {radius} > {d}"
        for u in bs:
            load[u] = load.get(u, 0) + 1
    if any(n > c for n in load.values()):
        return "congestion exceeded"
    for v, w in pattern.edges:
        a, b = set(branch[v]), set(branch[w])
        if not (a & b or any(y in adj[x] for x in a for y in b)):
            return f"pattern edge ({v}, {w}) does not touch"
    return None


def cut_space(d, k: int) -> int:
    """Product over edges of the interior cut sets with at most k-1 cuts."""
    total = 1
    for xs in d.edge_crossings.values():
        gaps = max(len(xs) - 1, 0)
        total *= sum(math.comb(gaps, s) for s in range(min(k - 1, gaps) + 1))
    return total


def drawing_sha256(d) -> str:
    doc = json.dumps(drawing_to_json(d), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def load_expected() -> dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _roundtrip_json(T: Tracer, enc: str, dec: str, enc_fn, dec_fn, value):
    doc = T.call(enc, enc_fn, value)
    return doc, T.call(dec, dec_fn, json.loads(json.dumps(doc, sort_keys=True)))


def _x_edges(h_edges, xs) -> dict[int, tuple[int, ...]]:
    nbrs: dict[int, set[int]] = {x: set() for x in xs}
    for u, v in h_edges:
        if u in nbrs:
            nbrs[u].add(v)
        if v in nbrs:
            nbrs[v].add(u)
    return {x: tuple(sorted(ws)) for x, ws in nbrs.items()}


def _add_x(rng: random.Random, base: list[int], count: int, max_nbrs: int, h_edges: set):
    """Adds ``count`` deleted vertices with random neighbours to ``h_edges``."""
    xs = list(range(max(base) + 1, max(base) + 1 + count))
    for x in xs:
        others = [v for v in base + xs if v != x]
        for w in rng.sample(others, rng.randint(0, min(max_nbrs, len(others)))):
            h_edges.add((min(x, w), max(x, w)))
    return xs


def _shuffled(ops: list, seed: int, c: int) -> list:
    out = list(ops)
    random.Random(f"order:{seed}:{c}").shuffle(out)
    return out


# ===== kplanar-roundtrip =====

ROUNDTRIP_STRATA = [(n, k) for n in range(4, 13) for k in (1, 2, 3)]
ROUNDTRIP_PER_STRATUM = 3


class KplanarRoundtrip:
    """Criterion 4's distribution: a seeded instance set with the same number
    of instances in every (n, k) stratum, run again in every cycle."""

    name = "kplanar-roundtrip"
    setup_reps = 9

    def setup(self, T: Tracer, seed: int) -> list:
        # Warm-up on fixed small instances, so lazy imports and caches are
        # filled before timing.
        for n, k in ROUNDTRIP_STRATA[:9]:
            with T.group(f"setup:{n}/{k}", "setup"):
                fail, _ = self._op(n, k, f"warmup:{n}:{k}")(T)
            if fail:
                raise RuntimeError(f"warm-up op failed: {fail}")
        return [
            (f"{n}/{k}/{i}", self._op(n, k, f"roundtrip:{seed}:{n}:{k}:{i}"))
            for n, k in ROUNDTRIP_STRATA
            for i in range(ROUNDTRIP_PER_STRATUM)
        ]

    def cycle(self, ops: list, seed: int, c: int) -> list[tuple[str, Op]]:
        return _shuffled(ops, seed, c)

    @staticmethod
    def _op(n: int, k: int, key: str) -> Op:
        rng = random.Random(key)
        iseed = rng.randrange(2**31)
        h_edges: set = set()
        xs = _add_x(rng, list(range(n)), rng.randint(0, k), 3, h_edges)
        x_edges = _x_edges(h_edges, xs)

        def op(T: Tracer):
            d = T.call("fixtures.random_kplanar", random_kplanar, n, k, iseed)
            T.count("op.crossings", n_crossings(d))
            T.count("fixtures.chords_accepted", d.base.m - (n - 1))
            ddoc, d = _roundtrip_json(
                T, "jsonio.drawing_to_json", "jsonio.drawing_from_json",
                drawing_to_json, drawing_from_json, d,
            )
            errs = T.call("drawing.validate", validate, d)
            if errs:
                return f"validate: {errs[0]}", lambda: None
            out = T.call("transduce.transduce_kplanar", transduce_kplanar, d, x_edges, k)
            tdoc, out = _roundtrip_json(
                T, "jsonio.transduction_to_json", "jsonio.transduction_from_json",
                transduction_to_json, transduction_from_json, out,
            )
            T.count("transduce.colored_vertices", out.colored.graph.n)
            g = T.call("transduce.eval_formula", eval_formula, out)
            fail = graph_mismatch(g, list(range(n)) + xs, set(d.base.edges) | h_edges)
            return fail, lambda: {
                "drawing": ddoc, "transduction": tdoc, "decoded": graph_to_json(g)
            }

        return op


# ===== kplanar-decode =====

DECODE_PER_STRATUM = 5
DECODE_STRATA = [
    (n, k, j) for n in (24, 36, 48) for k in (2, 4, 6) for j in range(DECODE_PER_STRATUM)
]


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _cross(p, q, r, s) -> bool:
    if len({p, q, r, s}) < 4:
        return False
    return _orient(p, q, r) * _orient(p, q, s) < 0 and _orient(r, s, p) * _orient(r, s, q) < 0


def _through(a, b, c) -> bool:
    """Whether point ``c`` lies strictly inside segment ``ab``."""
    return (
        c not in (a, b)
        and _orient(a, b, c) == 0
        and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def decode_target(n: int, k: int) -> int:
    """The crossing count of every decode drawing with n vertices at k."""
    return n * k // 3


def decode_candidate(rng: random.Random, n: int, k: int):
    """Integer positions and edges of a straight-line drawing with exactly
    ``decode_target(n, k)`` crossings and at most ``k`` on any edge, by the
    benchmark's own predicates, or ``None`` if this candidate cannot get
    there.  It is an x-monotone backbone path plus random chords, tried up to
    ``10n`` times, each kept only if it passes through no vertex, keeps every
    edge within ``k`` crossings and does not overshoot the target."""
    target = decode_target(n, k)
    pos = {i: (i, rng.randrange(0, 2 * n + 1)) for i in range(n)}
    edges = [(i, i + 1) for i in range(n - 1)]
    load = {e: 0 for e in edges}
    crossings = 0
    for _ in range(10 * n):
        if crossings == target:
            return pos, edges
        u, w = sorted(rng.sample(range(n), 2))
        if w - u < 2 or (u, w) in load:
            continue
        a, b = pos[u], pos[w]
        if any(_through(a, b, pos[v]) for v in range(u + 1, w)):
            continue
        hits = [e for e in edges if _cross(a, b, pos[e[0]], pos[e[1]])]
        if len(hits) > k or crossings + len(hits) > target or any(load[e] >= k for e in hits):
            continue
        for e in hits:
            load[e] += 1
        load[(u, w)] = len(hits)
        edges.append((u, w))
        crossings += len(hits)
    return (pos, edges) if crossings == target else None


class KplanarDecode:
    """A seeded corpus of large k-planar drawings, built once in set-up."""

    name = "kplanar-decode"
    setup_reps = 3

    def setup(self, T: Tracer, seed: int) -> list:
        corpus = []
        for n, k, j in DECODE_STRATA:
            attempt = 0
            while True:
                rng = random.Random(f"decode:{seed}:{n}:{k}:{j}:{attempt}")
                attempt += 1
                cand = decode_candidate(rng, n, k)
                if cand is None:
                    continue
                pos, edges = cand
                g = Graph.make(range(n), edges)
                with T.group(f"setup:{n}/{k}/{j}/{attempt}", "setup"):
                    try:
                        d = T.call(
                            "geometry.drawing_from_segments", drawing_from_segments,
                            g, {v: pt(*p) for v, p in pos.items()},
                        )
                    except ValueError:
                        d = None  # a degenerate candidate; draw another
                if d is not None:
                    break
            h_edges = set(g.edges)
            xs = _add_x(rng, list(range(n)), 2, 4, h_edges)
            corpus.append((f"{n}/{k}/{j}", n, k, d, xs, h_edges))
        return corpus

    def cycle(self, corpus: list, seed: int, c: int) -> list[tuple[str, Op]]:
        return _shuffled([(it[0], self._op(*it[1:])) for it in corpus], seed, c)

    @staticmethod
    def _op(n, k, d, xs, h_edges) -> Op:
        x_edges = _x_edges(h_edges, xs)

        def op(T: Tracer):
            T.count("op.crossings", n_crossings(d))
            out = T.call("transduce.transduce_kplanar", transduce_kplanar, d, x_edges, k)
            T.count("transduce.colored_vertices", out.colored.graph.n)
            g = T.call("transduce.eval_formula", eval_formula, out)
            fail = graph_mismatch(g, list(range(n)) + xs, h_edges)
            return fail, lambda: {
                "transduction": transduction_to_json(out), "decoded": graph_to_json(g)
            }

        return op


# ===== cluster-search =====

CLUSTER_CUT_SPACE_LIMIT = 2048
CLUSTER_CAP = 32


def cluster_drawings(T: Tracer, pool: list[dict]) -> dict[str, Any]:
    """The recorded random pool plus the shipped fixtures, by name."""
    out = {}
    for p in pool:
        with T.group(f"setup:{p['name']}", "setup"):
            out[p["name"]] = T.call(
                "fixtures.random_kplanar", random_kplanar, p["n"], p["k"], p["seed"]
            )
    out["fig3"] = fig3()
    for m in range(4, 9):
        out[f"fig1b{m}"] = fig1b(m)
    out["fig1a"] = fig1a()
    return out


def cluster_queries(drawings: dict[str, Any]) -> list[tuple[str, int, int, bool]]:
    """Every (k, ell, strong) in {1,2,3}^2 x {weak, strong} whose cut space
    is at most the limit, on every drawing but fig1a; fig1a only at weak
    (2, 2), the paper's certificate."""
    grid = []
    for name, d in drawings.items():
        if name == "fig1a":
            continue
        for k in (1, 2, 3):
            if cut_space(d, k) > CLUSTER_CUT_SPACE_LIMIT:
                continue
            for ell in (1, 2, 3):
                for strong in (False, True):
                    grid.append((name, k, ell, strong))
    grid.append(("fig1a", 2, 2, False))
    return grid


def query_key(name: str, k: int, ell: int, strong: bool) -> str:
    return f"{name}/{k}/{ell}/{'strong' if strong else 'weak'}"


class ClusterSearch:
    """A fixed grid of certificate queries over small drawings and fixtures."""

    name = "cluster-search"
    setup_reps = 5

    def setup(self, T: Tracer, seed: int) -> dict:
        expected = load_expected()
        pool = expected["cluster_pool"]
        drawings = cluster_drawings(T, pool)
        return {
            "drawings": drawings,
            "stale": {p["name"] for p in pool
                      if drawing_sha256(drawings[p["name"]]) != p["sha256"]},
            "queries": cluster_queries(drawings),
            "verdicts": expected["cluster_verdicts"],
            "min_ell": expected["min_ell"],
        }

    def cycle(self, st: dict, seed: int, c: int) -> list[tuple[str, Op]]:
        ops = [(query_key(*q), self._query(st, *q)) for q in st["queries"]]
        for name, want in sorted(st["min_ell"].items()):
            ops.append((f"{name}/min_ell", self._min_ell(st["drawings"][name], want)))
        return _shuffled(ops, seed, c)

    @staticmethod
    def _query(st: dict, name: str, k: int, ell: int, strong: bool) -> Op:
        d = st["drawings"][name]
        key = query_key(name, k, ell, strong)
        want = st["verdicts"].get(key)
        space = cut_space(d, k)
        crossings = n_crossings(d)

        def op(T: Tracer):
            T.count("op.crossings", crossings)
            T.count("cluster.cut_space", space)
            T.call("drawing.crossing_graph", crossing_graph, d)
            cert = T.call(
                "cluster.search_certificate", search_certificate, d, k, ell,
                strong=strong, cap=CLUSTER_CAP, variant="strong" if strong else "weak",
            )
            g = None
            doc = lambda: {
                "query": key,
                "cert": certificate_to_json(cert, d.base) if cert else None,
                "decoded": graph_to_json(g) if g else None,
            }
            if name in st["stale"]:
                return "drawing differs from the recorded one", doc
            if want is None:
                return "no recorded verdict", doc
            if (cert is not None) != want:
                return f"verdict {cert is not None}, oracle says {want}", doc
            if cert is None:
                return None, doc
            if (cert.k, cert.ell) != (k, ell):
                return "certificate has other parameters", doc
            rep = T.call("cluster.verify_certificate", verify_certificate, d, cert, strong=strong)
            if not rep.verdict:
                return "certificate fails verification", doc
            if not strong and k == ell:
                out = T.call("transduce.transduce_clustered", transduce_clustered, d, cert, {}, k)
                T.count("transduce.colored_vertices", out.colored.graph.n)
                g = T.call("transduce.eval_formula", eval_formula, out)
                return graph_mismatch(g, d.base.vertices, d.base.edges), doc
            return None, doc

        return op

    @staticmethod
    def _min_ell(d, want: int) -> Op:
        def op(T: Tracer):
            T.count("op.crossings", n_crossings(d))
            got = T.call("cluster.min_ell", min_ell, d, 1, cap=CLUSTER_CAP)
            fail = None if got == want else f"min_ell {got}, oracle says {want}"
            return fail, lambda: {"min_ell": got}

        return op


# ===== theorem-pipeline =====

PATTERNS: dict[str, Callable[[], Graph]] = {
    "P3": lambda: path(3),
    "C4": lambda: cycle(4),
    "K4": lambda: complete(4),
    "K5": lambda: complete(5),
    "K6": lambda: complete(6),
    "K7": lambda: complete(7),
    "K8": lambda: complete(8),
    "G3x3": lambda: grid2d(3, 3),
}
BIG = 8


def grid_drawing(T: Tracer, rows: int, cols: int):
    g = grid2d(rows, cols)
    pos = {i * cols + j: pt(j, i) for i in range(rows) for j in range(cols)}
    return T.call("geometry.drawing_from_segments", drawing_from_segments, g, pos)


class TheoremPipeline:
    """Find, verify, synthesize, certify and decode shallow minor models."""

    name = "theorem-pipeline"
    setup_reps = 7

    def setup(self, T: Tracer, seed: int) -> list:
        rng = random.Random(f"theorem:{seed}")
        instances = load_expected()["theorem"]
        hosts: dict[tuple[int, int], Any] = {}
        for shape in sorted({(i["rows"], i["cols"]) for i in instances} | {(BIG, BIG)}):
            with T.group(f"setup:{shape[0]}x{shape[1]}", "setup"):
                hosts[shape] = grid_drawing(T, *shape)
        out = []
        for inst in instances:
            r, c = inst["rows"], inst["cols"]
            offset = None
            if inst["big"]:
                offset = (rng.randint(0, BIG - r), rng.randint(0, BIG - c))
            out.append((inst, hosts[(r, c)], hosts[(BIG, BIG)], offset))
        return out

    def cycle(self, items: list, seed: int, c: int) -> list[tuple[str, Op]]:
        ops = []
        for inst, small, big, offset in items:
            key = f"{inst['pattern']}/{inst['k']}/{inst['rows']}x{inst['cols']}"
            if offset:
                key += f"@{offset[0]},{offset[1]}"
            ops.append((key, self._op(inst, small, big, offset)))
        return _shuffled(ops, seed, c)

    @staticmethod
    def _op(inst: dict, small, big, offset) -> Op:
        k = inst["k"]
        pattern = PATTERNS[inst["pattern"]]()
        rows, cols = inst["rows"], inst["cols"]

        def op(T: Tracer):
            m = T.call(
                "minors.find_model_bruteforce", find_model_bruteforce,
                small.base, pattern, k, k, cap=16,
            )
            if (m is not None) != inst["found"]:
                return f"found {m is not None}, expected {inst['found']}", lambda: None
            if m is None:
                return None, lambda: {"model": None}
            host = small
            if offset:
                oi, oj = offset
                remap = {i * cols + j: (i + oi) * BIG + j + oj
                         for i in range(rows) for j in range(cols)}
                branch = {v: tuple(sorted(remap[h] for h in bs)) for v, bs in m.branch.items()}
                m = MinorModel(big.base, pattern, branch, k, k)
                host = big
            bad = T.call("minors.verify_model", verify_model, m)
            own = model_violation(host.base, pattern, m.branch, k, k)
            if bad or own:
                return f"model rejected: {bad or own}", lambda: None
            res = T.call("synth.synthesize", synthesize, host, m)
            T.count("op.crossings", n_crossings(res.drawing))
            T.count("synth.kprime", res.kPrime)
            T.count("synth.crossings", n_crossings(res.drawing))
            g = None
            doc = lambda: {
                "model": model_to_json(m), "synth": synthresult_to_json(res),
                "decoded": graph_to_json(g) if g else None,
            }
            errs = T.call("drawing.validate", validate, res.drawing)
            if errs:
                return f"validate: {errs[0]}", doc
            rep = T.call("cluster.verify_certificate", verify_certificate,
                         res.drawing, res.cert, strong=True)
            if not rep.verdict:
                return "certificate fails strong verification", doc
            host_edges = set(host.base.edges)
            for walk in res.routes.values():
                if len(walk) - 1 > 2 * k + 1:
                    return "route longer than 2k+1 host edges", doc
                if any((min(a, b), max(a, b)) not in host_edges for a, b in zip(walk, walk[1:])):
                    return "route leaves the host", doc
            out = T.call("transduce.transduce_clustered", transduce_clustered,
                         res.drawing, res.cert, {}, res.kPrime)
            T.count("transduce.colored_vertices", out.colored.graph.n)
            g = T.call("transduce.eval_formula", eval_formula, out)
            return graph_mismatch(g, pattern.vertices, pattern.edges), doc

        return op


WORKLOADS = {
    w.name: w
    for w in (KplanarRoundtrip(), KplanarDecode(), ClusterSearch(), TheoremPipeline())
}
