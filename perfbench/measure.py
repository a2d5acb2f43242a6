"""Measurement primitives for the benchmark: percentiles under the
sample-count rule, in-memory spans with self time, metric-name checks,
peak memory and the environment record.

Only the standard library is imported here, so this module can be loaded
before the BLAS thread count is pinned.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Sequence

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10
TAIL_LADDER = (90.0, 99.0, 99.9)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, p: float) -> float:
    # Rounded so that, say, 10,000 samples leave exactly 10 beyond p99.9.
    return round(n * (100.0 - p) / 100.0, 6)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of `TAIL_LADDER` with at least
    `MIN_SAMPLES_BEYOND` of `n` samples beyond it, or None."""
    valid = [p for p in TAIL_LADDER if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND]
    return max(valid) if valid else None


def summarize(values: Sequence[float]) -> dict:
    """Median, the highest valid tail percentile, and the sample count."""
    summary = {"n": len(values), "p50": median(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One timed call: `parent` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; nothing is written until `dump`."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, self._clock(), math.nan, parent, self.run_id)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._open.pop()

    def dump(self, path) -> None:
        self_times = self_time(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (record, own) in enumerate(zip(self.spans, self_times)):
                fh.write(json.dumps({"id": index, **asdict(record), "self": own},
                                    sort_keys=True) + "\n")


class NullTracer:
    """Stands in for `Tracer` when tracing is off."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append((record.start, record.end))
    return [record.duration - _covered(children.get(i, []), record.start, record.end)
            for i, record in enumerate(spans)]


def self_time_by_parent(spans: Sequence[Span], parent_name: str) -> list[dict[str, float]]:
    """For every span named `parent_name`, the self time of each span name
    in its subtree (the parent's own self time included)."""
    own = self_time(spans)
    root_of: dict[int, int] = {}
    totals: dict[int, dict[str, float]] = {}
    for i, record in enumerate(spans):
        if record.name == parent_name:
            root = i
            totals[i] = {}
        elif record.parent is not None and record.parent in root_of:
            root = root_of[record.parent]
        else:
            continue
        root_of[i] = root
        totals[root][record.name] = totals[root].get(record.name, 0.0) + own[i]
    return [totals[i] for i in sorted(totals)]


def durations(spans: Sequence[Span], name: str) -> list[float]:
    return [record.duration for record in spans if record.name == name]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def check_metric_names(names) -> None:
    for name in names:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise ValueError(f"bad metric name {name!r}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment(blas_threads: int, seed: int, workload: str) -> dict:
    """Versions, BLAS build and thread pinning behind a result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
    }
