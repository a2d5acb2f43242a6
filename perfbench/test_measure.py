"""The benchmark's own arithmetic: percentiles, span self time, names."""

import json
import math
from pathlib import Path

import pytest

from measure import (
    Span,
    Tracer,
    check_metric_names,
    percentile,
    self_time,
    self_time_by_parent,
    summarize,
    tail_percentile,
)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_percentile_interpolates_like_numpy_linear():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, tail", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, tail):
    assert tail_percentile(n) == tail


def test_summarize_reports_count_and_only_valid_tails():
    few = summarize([float(i) for i in range(50)])
    assert few == {"n": 50, "p50": 24.5}
    many = summarize([float(i) for i in range(100)])
    assert many["n"] == 100 and many["p90"] == pytest.approx(89.1)
    assert "p99" not in many


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_nested_children():
    # step [0, 10] holds fwd [1, 4] (which holds matmul [2, 3]) and bwd [5, 9].
    tracer = Tracer("run", clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("step"):
        with tracer.span("fwd"):
            with tracer.span("matmul"):
                pass
        with tracer.span("bwd"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["step", "fwd", "matmul", "bwd"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert {s.run_id for s in tracer.spans} == {"run"}
    assert self_time(tracer.spans) == [3, 2, 1, 4]
    assert sum(self_time(tracer.spans)) == tracer.spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, None, "r"), Span("b", 1.0, 6.0, 0, "r"),
             Span("c", 4.0, 8.0, 0, "r"), Span("d", 9.0, 12.0, 0, "r")]
    # b and c overlap on [4, 6]; d runs past the parent's end.
    assert self_time(spans)[0] == pytest.approx(10 - (7 + 1))


def test_self_time_by_parent_groups_each_step_subtree():
    # step [0, 6] holds fwd [1, 3] and [4, 5]; step [10, 16] holds fwd [11, 15]
    # and [15, 15]; "outside" [20, 21] belongs to no step.
    tracer = Tracer("run", clock=FakeClock([0, 1, 3, 4, 5, 6, 10, 11, 15, 15, 15, 16, 20, 21]))
    for _ in range(2):
        with tracer.span("step"):
            with tracer.span("fwd"):
                pass
            with tracer.span("fwd"):
                pass
    with tracer.span("outside"):
        pass
    steps = self_time_by_parent(tracer.spans, "step")
    assert steps == [{"step": 3, "fwd": 3}, {"step": 2, "fwd": 4}]


def test_tracer_closes_span_when_body_raises():
    tracer = Tracer("run", clock=FakeClock([0, 1]))
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError
    assert tracer.spans[0].end == 1 and not math.isnan(tracer.spans[0].end)


def test_metric_name_rule():
    check_metric_names(["setup_s", "tensor.nodes_per_step", "a-b.c_1"])
    for bad in ("", "has space", "slash/name", "x" * 65, "per%"):
        with pytest.raises(ValueError):
            check_metric_names([bad])


def test_benchmark_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]] + \
        [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    check_metric_names(names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(m["bound"] <= setup[0]["bound"] <= 0.25 for m in SPEC["end_to_end"])
