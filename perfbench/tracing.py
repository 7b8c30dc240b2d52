"""Span recorder used by the benchmark around its calls into fancross.

Every call the benchmark makes into a library function goes through
:meth:`Tracer.call`.  With tracing off that is one attribute test and the
call itself; with tracing on it records a span (group, name, start, end,
parent, error, variant, whether the result was ``None``).  A *group* is one
op, or one item built during set-up; its root span is opened with
:meth:`Tracer.group`.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# Field positions in a span record.
GROUP, NAME, START, END, PARENT, ERROR, VARIANT, NONE = range(8)


class Tracer:
    def __init__(self, on: bool) -> None:
        self.on = on
        self.spans: list[list[Any]] = []
        self.counters: list[tuple[str, str, float]] = []
        self._stack: list[int] = []
        self._group = ""

    @contextmanager
    def group(self, gid: str, kind: str) -> Iterator[None]:
        """Root span ``kind`` ("op" or "setup") for group ``gid``."""
        if not self.on:
            yield
            return
        self._group = gid
        idx = self._open(kind, None)
        try:
            yield
        except BaseException:
            self.spans[idx][ERROR] = 1
            raise
        finally:
            self._close(idx)

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             variant: Optional[str] = None, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, recorded as span ``name`` when tracing."""
        if not self.on:
            return fn(*args, **kwargs)
        idx = self._open(name, variant)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.spans[idx][ERROR] = 1
            raise
        finally:
            self._close(idx)
        self.spans[idx][NONE] = out is None
        return out

    def count(self, name: str, value: float) -> None:
        """A work counter observed in the current group."""
        if self.on:
            self.counters.append((self._group, name, value))

    def _open(self, name: str, variant: Optional[str]) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [self._group, name, time.perf_counter_ns(), 0, parent, 0, variant, False]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for c in self.counters:
                fh.write(json.dumps(["counter", *c]) + "\n")


def layer_stats(tracer: Tracer, layers: list[str]) -> dict[str, float]:
    """Per-layer ``ms``, ``share``, ``calls`` and ``errors`` from the spans.

    Self time is a span's duration minus that of its direct children.
    ``ms`` is the median, over the groups a layer ran in, of its self time
    in that group; ``share`` is its self time inside ops divided by the
    total duration of all op root spans.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    op_total = sum(s[END] - s[START] for s in spans if s[NAME] == "op")
    op_groups = {s[GROUP] for s in spans if s[NAME] == "op"}
    per_group: dict[tuple[str, str], int] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    in_ops: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        self_ns = s[END] - s[START] - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + s[ERROR]
        key = (name, s[GROUP])
        per_group[key] = per_group.get(key, 0) + self_ns
        if s[GROUP] in op_groups:
            in_ops[name] = in_ops.get(name, 0) + self_ns
    out: dict[str, float] = {}
    for name in layers:
        times = [ns for (n, _), ns in per_group.items() if n == name]
        out[f"{name}.ms"] = statistics.median(times) / 1e6 if times else 0.0
        out[f"{name}.share"] = in_ops.get(name, 0) / op_total if op_total else 0.0
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.errors"] = errors.get(name, 0)
    return out


def variant_ms(tracer: Tracer, name: str, variant: str) -> float:
    """Median duration in ms of the ``name`` spans tagged ``variant``."""
    times = [
        s[END] - s[START]
        for s in tracer.spans
        if s[NAME] == name and s[VARIANT] == variant
    ]
    return statistics.median(times) / 1e6 if times else 0.0


def found_share(tracer: Tracer, name: str) -> float:
    """Share of successful ``name`` calls that returned something."""
    done = [s for s in tracer.spans if s[NAME] == name and not s[ERROR]]
    return sum(1 for s in done if not s[NONE]) / len(done) if done else 0.0


def counter_means(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Mean of each counter over the observations recorded for it."""
    vals: dict[str, list[float]] = {n: [] for n in names}
    for _, name, value in tracer.counters:
        if name in vals:
            vals[name].append(value)
    return {n: statistics.fmean(v) if v else 0.0 for n, v in vals.items()}
