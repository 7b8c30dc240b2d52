"""Records the instance lists and reference verdicts the benchmark checks.

Run from the repository root (it reads ``src/`` and ``tests/oracles.py``):

    python3 perfbench/record_expected.py

and commit the ``perfbench/expected.json`` it writes.  The verdicts come from
the brute-force oracles of the test suite, never from the searchers the
benchmark times; a minor-model query at k >= 2 is recorded as infeasible only
when a counting bound proves it.  The sizing rules applied here are stated
in ``README.md``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

from fancross.fixtures import random_kplanar  # noqa: E402
from fancross.graphs import grid2d  # noqa: E402
from fancross.minors import find_model_bruteforce  # noqa: E402
from oracles import oracle_cluster_feasible, oracle_contains_minor_c1  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_PATH,
    PATTERNS,
    cluster_drawings,
    cluster_queries,
    drawing_sha256,
    n_crossings,
    query_key,
)

POOL_SIZE = 8
POOL_CROSSINGS = (6, 12)
HOSTS = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]  # by vertex count
NONPLANAR = {"K5", "K6", "K7", "K8"}
FIND_LIMIT_S = 2
ORACLE_PARTITIONS = 10**6
CRITERION6 = [("P3", 1, 1, 3), ("P3", 2, 1, 3), ("C4", 1, 2, 2), ("C4", 2, 2, 2),
              ("K4", 1, 3, 3), ("K4", 2, 2, 2)]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def cluster_pool() -> list[dict]:
    """The first POOL_SIZE seeds s = 0, 1, ... whose drawing
    random_kplanar(n, k, s), with n in 7..10 and k in 2..5 drawn from one
    fixed stream, has between 6 and 12 crossings."""
    rng = random.Random("cluster-pool")
    pool = []
    s = 0
    while len(pool) < POOL_SIZE:
        n, k = rng.randint(7, 10), rng.randint(2, 5)
        d = random_kplanar(n, k, s)
        if POOL_CROSSINGS[0] <= n_crossings(d) <= POOL_CROSSINGS[1]:
            pool.append({"name": f"rk{n}_{k}_{s}", "n": n, "k": k, "seed": s,
                         "sha256": drawing_sha256(d)})
        s += 1
    return pool


def cluster_verdicts(drawings: dict) -> dict[str, bool]:
    out = {}
    for q in cluster_queries(drawings):
        t = time.perf_counter()
        out[query_key(*q)] = oracle_cluster_feasible(drawings[q[0]], q[1], q[2], strong=q[3])
        log(f"  {query_key(*q)} {out[query_key(*q)]} {time.perf_counter() - t:.1f}s")
    return out


def min_ells(drawings: dict) -> dict[str, int]:
    out = {}
    for m in range(4, 9):
        d = drawings[f"fig1b{m}"]
        out[f"fig1b{m}"] = next(
            ell for ell in range(1, d.base.m + 1) if oracle_cluster_feasible(d, 1, ell)
        )
    return out


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def find_within_limit(host, pattern, k):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(FIND_LIMIT_S)
    try:
        return find_model_bruteforce(host, pattern, k, k, cap=16)
    finally:
        signal.alarm(0)


def infeasible_reference(pattern, k: int, rows: int, cols: int) -> str | None:
    """Why no model exists, by an argument independent of the searcher."""
    if pattern.n > k * rows * cols:
        return "capacity"
    if k == 1 and (pattern.n + 1) ** (rows * cols) <= ORACLE_PARTITIONS:
        if oracle_contains_minor_c1(grid2d(rows, cols), pattern, 1):
            raise SystemExit(f"the oracle finds a model the searcher missed: {pattern}")
        return "oracle"
    return None


def theorem_instances() -> list[dict]:
    """Per pattern and k: the smallest host holding a (k, k) model, plus the
    next smaller host as an infeasible query when its verdict has an
    independent reference; then criterion 6's models for the 8x8 host."""
    out = []
    for name, make in PATTERNS.items():
        pattern = make()
        for k in (1, 2, 3):
            if k == 1 and name in NONPLANAR:
                continue  # a congestion-1 model would make it a planar minor
            below = None
            for rows, cols in HOSTS:
                t = time.perf_counter()
                try:
                    m = find_within_limit(grid2d(rows, cols), pattern, k)
                except _Timeout:
                    log(f"  {name} k={k} {rows}x{cols}: over {FIND_LIMIT_S}s, dropped")
                    break
                log(f"  {name} k={k} {rows}x{cols}: {m is not None} {time.perf_counter() - t:.2f}s")
                if m is None:
                    below = (rows, cols)
                    continue
                if below and (why := infeasible_reference(pattern, k, *below)):
                    out.append({"pattern": name, "k": k, "rows": below[0], "cols": below[1],
                                "found": False, "big": False, "reference": why})
                out.append({"pattern": name, "k": k, "rows": rows, "cols": cols,
                            "found": True, "big": False})
                break
    for name, k, rows, cols in CRITERION6:
        if not find_model_bruteforce(grid2d(rows, cols), PATTERNS[name](), k, k, cap=16):
            raise SystemExit(f"criterion 6 model {name} k={k} not found")
        out.append({"pattern": name, "k": k, "rows": rows, "cols": cols,
                    "found": True, "big": True})
    return out


def main() -> int:
    log("cluster pool")
    pool = cluster_pool()
    drawings = cluster_drawings(Tracer(False), pool)
    log("theorem instances")
    theorem = theorem_instances()
    log("cluster verdicts")
    verdicts = cluster_verdicts(drawings)
    log("min_ell")
    doc = {
        "cluster_pool": pool,
        "cluster_verdicts": verdicts,
        "min_ell": min_ells(drawings),
        "theorem": theorem,
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
