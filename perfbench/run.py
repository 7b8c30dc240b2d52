"""Seeded single-thread benchmark of fancross, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload kplanar-roundtrip --seed 1 --seconds 25 --trace 0

The workload's inputs are made from ``--seed``.  The loop is closed with one
client and runs cycles over the workload's instance set until ``--seconds``
have passed and every op has run MIN_CYCLES times.  The time metrics use
each op's median over the cycles, each time scaled by the host speed sampled
around it (see ``hostspeed.py``).  Every op is checked against an independent
reference; a failed op makes the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each cycle
twice, untraced and traced, reports the per-layer metrics and
``trace_overhead``, and writes every span to ``.perfbench_out/``.  The last
line of standard output is one JSON object; the lines before it give each
metric with its unit, the failed share and the output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

from hostspeed import HostSpeed
from tracing import Tracer, counter_means, found_share, layer_stats, variant_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

LAYERS = [
    "fixtures.random_kplanar",
    "geometry.drawing_from_segments",
    "jsonio.drawing_to_json",
    "jsonio.drawing_from_json",
    "jsonio.transduction_to_json",
    "jsonio.transduction_from_json",
    "drawing.validate",
    "drawing.crossing_graph",
    "transduce.transduce_kplanar",
    "transduce.transduce_clustered",
    "transduce.eval_formula",
    "cluster.search_certificate",
    "cluster.verify_certificate",
    "cluster.min_ell",
    "minors.find_model_bruteforce",
    "minors.verify_model",
    "synth.synthesize",
]
COUNTERS = [
    "op.crossings",
    "cluster.cut_space",
    "transduce.colored_vertices",
    "synth.kprime",
    "synth.crossings",
    "fixtures.chords_accepted",
]
UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Every op runs in at least this many cycles, so its median time is taken
# over several runs however short --seconds is.
MIN_CYCLES = 3
# Reference units timed before and after each set-up.
SETUP_SAMPLES = 10


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class Loop:
    """Runs whole cycles of one workload and keeps what the metrics need."""

    def __init__(self, workload, state, seed: int, tracer, host=None) -> None:
        self.workload, self.state, self.seed, self.T = workload, state, seed, tracer
        self.host = host  # a HostSpeed sampled between ops, or None
        self.times: dict[str, list[tuple[float, float]]] = {}  # op key -> (start, latency) per cycle
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}  # op key -> sha256 of its output
        self.cycles = 0

    def run_cycle(self, deadline: float = math.inf) -> None:
        """One pass over the instance set.  Once every op has run in
        MIN_CYCLES cycles, the pass stops early at ``deadline``."""
        c = self.cycles
        for key, op in self.workload.cycle(self.state, self.seed, c):
            if self.host:
                self.host.maybe_sample()
            t0 = time.perf_counter()
            if c >= MIN_CYCLES and t0 >= deadline:
                break
            try:
                with self.T.group(f"{c}:{key}", "op"):
                    fail, result = op(self.T)
            except Exception as exc:  # an op that raises is a failed op
                fail, result = f"{type(exc).__name__}: {exc}", (lambda: None)
            self.times.setdefault(key, []).append((t0, time.perf_counter() - t0))
            digest = hashlib.sha256(canonical(result())).hexdigest()
            if self.outputs.setdefault(key, digest) != digest:
                fail = fail or "output differs from an earlier run of the op"
            if fail:
                self.failures.append(f"cycle {c} op {key}: {fail}")
        self.cycles += 1

    def run_for(self, seconds: float) -> None:
        gc.collect()
        end = time.perf_counter() + seconds
        while self.cycles < MIN_CYCLES or time.perf_counter() < end:
            self.run_cycle(end)

    def attempted(self) -> int:
        return sum(len(v) for v in self.times.values())

    def typical(self, host=None) -> list[float]:
        """Each op's median time over the cycles, each time scaled by the
        host speed around it when ``host`` is given."""
        if host is None:
            return [statistics.median(dt for _, dt in v) for v in self.times.values()]
        return [
            statistics.median(dt * host.scale_at(t0, t0 + dt) for t0, dt in v)
            for v in self.times.values()
        ]

    def ops_per_s(self, host=None) -> float:
        """Ops per second over one cycle, each op at its median time."""
        typical = self.typical(host)
        return len(typical) / sum(typical)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(f"{key}={self.outputs[key]}\n".encode())
        return h.hexdigest()


def timed_setup(workload, seed: int, tracer, reps: int):
    """The state of the last set-up and the median set-up time, each scaled
    by the host speed sampled just before and after it."""
    times = []
    for _ in range(reps):
        gc.collect()
        host = HostSpeed()
        host.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        state = workload.setup(tracer, seed)
        t1 = time.perf_counter()
        host.sample(SETUP_SAMPLES)
        times.append((t1 - t0) * host.scale())
    return state, statistics.median(times)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x)
        - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile_ms(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile, in ms.

    A weighted mean of every order statistic, weighted by a beta
    distribution centred on the percentile.  On a few dozen instances whose
    costs have gaps between them, it moves far less with the seed than the
    one or two order statistics a plain percentile picks.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) * 1000


def end_to_end(workload, seed: int, seconds: float):
    state, setup_s = timed_setup(workload, seed, Tracer(False), workload.setup_reps)
    host = HostSpeed()
    loop = Loop(workload, state, seed, Tracer(False), host)
    loop.run_for(seconds)
    typical = loop.typical(host)
    metrics = {
        "ops_per_s": loop.ops_per_s(host),
        "op_p50_ms": percentile_ms(typical, 50),
        "op_p90_ms": percentile_ms(typical, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"host: reference unit median {statistics.median(host.samples) * 1000:.4g} ms "
          f"over {len(host.samples)} samples, scale {host.scale():.4g}; unscaled: "
          f"ops_per_s {loop.ops_per_s():.6g} 1/s, op_p50_ms {percentile_ms(loop.typical(), 50):.6g} ms")
    return loop, {k: (v, UNITS[k]) for k, v in metrics.items()}


def per_layer(workload, seed: int, seconds: float):
    tracer = Tracer(True)
    state = workload.setup(tracer, seed)
    host = HostSpeed()
    plain = Loop(workload, state, seed, Tracer(False), host)
    traced = Loop(workload, state, seed, tracer, host)
    # Each cycle runs untraced and traced back to back, alternating which
    # goes first, so drift and warm-up fall on both sides alike.
    gc.collect()
    end = time.perf_counter() + seconds
    while plain.cycles < MIN_CYCLES or time.perf_counter() < end:
        pair = (plain, traced) if plain.cycles % 2 == 0 else (traced, plain)
        for loop in pair:
            loop.run_cycle()
    values = layer_stats(tracer, LAYERS)
    search = "cluster.search_certificate"
    values[f"{search}.weak_ms"] = variant_ms(tracer, search, "weak")
    values[f"{search}.strong_ms"] = variant_ms(tracer, search, "strong")
    values[f"{search}.found_share"] = found_share(tracer, search)
    values["minors.find_model_bruteforce.found_share"] = found_share(
        tracer, "minors.find_model_bruteforce"
    )
    values.update(counter_means(tracer, COUNTERS))
    values["op.failed_share"] = len(traced.failures) / traced.attempted()
    plain_ops = plain.ops_per_s(host)
    values["trace_overhead"] = (plain_ops - traced.ops_per_s(host)) / plain_ops
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"))
    traced.failures += plain.failures
    for key, times in plain.times.items():
        traced.times.setdefault(key, []).extend(times)
    traced.cycles += plain.cycles
    return traced, {k: (v, per_layer_unit(k)) for k, v in values.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("share", "overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The library keeps sets of string-keyed labels, whose order (and so
        # the work done on them) follows the hash seed; fix it so that runs
        # of one commit do the same work.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    measure = per_layer if args.trace else end_to_end
    loop, metrics = measure(workload, args.seed, args.seconds)

    attempted, failed = loop.attempted(), len(loop.failures)
    for line in loop.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {attempted} ops in "
          f"{loop.cycles} cycles, closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {failed / attempted:.6g} ratio")
    print(f"  digest = sha256:{loop.digest()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
