"""Benchmark entry point.

    python3 perfbench/run.py --workload desk-cascade --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds every input from `--seed`, sets
up the workload several times, warms up, then repeats rounds of work for
`--seconds`. Prints one line per metric, the environment, and as its last
line a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`. Exit codes: 0 success, 1 an output was wrong or
an operation failed, 2 the program could not be loaded.
"""

from __future__ import annotations

import time

# setup_s counts from here, so it includes every import.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run spread than speed. Must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import cascadekd from this checkout's `src`, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cascadekd
    except ImportError as exc:
        print(f"error: cannot import cascadekd from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(cascadekd.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: cascadekd loaded from {cascadekd.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)


def run(args, work: Path, import_s: float, spec: dict, tracer,
        state: dict) -> tuple[dict, dict]:
    """Set up, warm up and run rounds; returns the metrics and a record of
    everything behind them. `state` counts attempted and failed operations."""
    import measure
    from workloads import LOSS_WINDOW, SETUP_REPEATS, WORKLOADS, Counts, GateFailure

    workload_cls = WORKLOADS[args.workload]
    record = {"import_s": import_s, "setup_s_samples": []}

    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = workload_cls(args.seed, tracer, work / f"setup_{i}")
        workload.setup()
        record["setup_s_samples"].append(time.perf_counter() - started)

    started = time.perf_counter()
    workload.warm_up(work / "warmup")
    record["warmup_s"] = time.perf_counter() - started

    untraced, traced, counts = [], [], Counts()
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(untraced) + len(traced)
        # A traced run alternates untraced and traced rounds, so the
        # tracing overhead is measured under the same conditions.
        is_traced = bool(args.trace) and index % 2 == 1
        out = work / f"round_{index}"
        if is_traced:
            result = workload.run_traced_round(out, counts)
        else:
            result = workload.run_round(out)
        state["attempted"] += result.steps + result.eval_sets
        if untraced and not workload.same_result(untraced[0], result):
            raise GateFailure(f"round {index} differs from round 0 on identical work")
        (traced if is_traced else untraced).append(result)
        shutil.rmtree(out)
        # Stop once another round would end more than half a round late.
        expected_end = time.perf_counter() + result.wall_s / 2
        if expected_end >= deadline and (traced or not args.trace):
            break

    record["rounds"] = {"untraced": len(untraced), "traced": len(traced)}
    step_s = [s for r in untraced for s in r.step_s]
    record["step_ms"] = {k: v * 1e3 if k != "n" else v
                         for k, v in measure.summarize(step_s).items()}
    record["wall_s_samples"] = [r.wall_s for r in untraced]
    record["step_s_samples"] = [r.step_s for r in untraced]
    first = untraced[0]
    if first.stage_losses:
        tail = first.stage_losses[-1][-LOSS_WINDOW:]
        record["final_distill_loss"] = sum(tail) / len(tail)
    if first.accuracy:
        record["eval_accuracy"] = sum(first.accuracy.values()) / len(first.accuracy)
        record["eval_accuracy_per_language"] = first.accuracy
        evaluated = sum(map(len, workload.eval_sets.values()))
        record["eval_examples_per_s"] = evaluated / measure.median([r.eval_s for r in untraced])
    record["failed_op_share"] = state["failed"] / state["attempted"]

    if args.trace:
        metrics = workload.layer_metrics(tracer.spans, counts, traced, untraced)
        record["computed_counts"] = {"nodes": counts.nodes, "loss_nodes": counts.loss_nodes,
                                     "graph_bytes": counts.graph_bytes,
                                     "checkpoint_bytes": traced[0].bytes_written}
        record["traced_step_samples"] = len(measure.durations(tracer.spans, "training.step"))
    else:
        metrics = {
            "setup_s": (import_s + measure.median(record["setup_s_samples"]), "s"),
            "wall_s": (measure.median(record["wall_s_samples"]), "s"),
            "train_examples_per_s": (sum(r.examples for r in untraced) / sum(step_s), "1/s"),
            "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        }
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    measure.check_metric_names(metrics)
    if sorted(metrics) != sorted(wanted):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(threads)
    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import measure
    import workloads
    from workloads import SETUP_REPEATS
    from cascadekd import CascadeKDError

    import_s = time.perf_counter() - START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = measure.Tracer(f"{tag}-{os.getpid()}") if args.trace else measure.NullTracer()
    state = {"attempted": 0, "failed": 0}
    correct, metrics = True, {}
    record = {"environment": measure.environment(threads, args.seed, args.workload)}
    try:
        metrics, extra = run(args, work, import_s, spec, tracer, state)
        record.update(extra)
    except (workloads.GateFailure, CascadeKDError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct = False
        if isinstance(exc, CascadeKDError):
            # The operation that raised was attempted and failed.
            state["attempted"] += 1
            state["failed"] += 1
        state["attempted"] = max(state["attempted"], 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record.update(state, correct=correct)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["computed_metrics"] = sorted(workloads.COMPUTED & set(metrics))
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.dump(results / f"{tag}-spans.jsonl")
    for name, (value, unit) in metrics.items():
        label = "computed" if name in workloads.COMPUTED else ""
        print(f"{name:40s} {value:14.6g} {unit:8s} {label}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("samples " + json.dumps({k: record[k] for k in ("rounds", "step_ms")
                                   if k in record} | {"setups": SETUP_REPEATS}))
    print(f"record {results / (tag + '.json')}")
    print(json.dumps({"correct": correct, "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
