"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh process with BLAS and OpenMP threads pinned
to 1.  Untraced (``--trace 0``), it cycles through the workload's items for
``--seconds`` seconds, at least once through, and times each item from
outside.  Traced (``--trace 1``), it runs every item once untraced and once
traced, alternating which goes first, and reports per-layer counts and self
times.  Correctness checks run after the timed region of each item and, in
a traced run, after the wrappers are removed, so they add to no timing and
no trace count.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

import calibration
import workloads
from tracer import COUNT, Tracer, installed, self_times

HERE = Path(__file__).resolve().parent
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(count: int) -> float | None:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    supported = [
        p for p in PERCENTILE_LADDER
        if count * (100 - Fraction(str(p))) / 100 >= MIN_TAIL_SAMPLES
    ]
    return supported[-1] if supported else None


def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference.json").read_text()).get(name, {})


def _check(workload, item, output, reference, failures: list[str]) -> bool:
    problems = workload.check(item, output, reference)
    failures.extend(problems)
    return not problems


def run_untraced(workload, seed: int, seconds: float) -> dict:
    items = workload.items(seed)
    reference = load_reference(workload.name)
    workload.run(items[0])  # warm-up: first-call costs and lazy caches
    raw: list[list[float]] = [[] for _ in items]
    scaled: list[list[float]] = [[] for _ in items]
    window = calibration.measure_window(0.0)
    kernel_s = list(window)
    failures: list[str] = []
    attempted = failed = out_of_band = 0
    started = time.perf_counter()
    k = 0
    while True:
        i = k % len(items)
        if k >= len(items):
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(raw[i]) > seconds:
                break
        t0 = time.perf_counter()
        output = workload.run(items[i])
        raw[i].append(time.perf_counter() - t0)
        before, window = window, calibration.measure_window(raw[i][-1])
        kernel_s.extend(window)
        speed = calibration.REFERENCE_S / statistics.mean(before + window)
        scaled[i].append(raw[i][-1] * speed)
        attempted += 1
        if not _check(workload, items[i], output, reference, failures):
            failed += 1
        if hasattr(workload, "slope_out_of_band"):
            out_of_band += workload.slope_out_of_band(items[i], output)
        k += 1
    scaled_medians = [statistics.median(s) for s in scaled]
    raw_medians = [statistics.median(s) for s in raw]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": sum(scaled_medians),
            "item_ms.p50": 1e3 * percentile(scaled_medians, 50),
            "item_ms.p90": 1e3 * percentile(scaled_medians, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw": {
            "wall_s": sum(raw_medians),
            "item_ms.p50": 1e3 * percentile(raw_medians, 50),
            "item_ms.p90": 1e3 * percentile(raw_medians, 90),
            "kernel_s.median": statistics.median(kernel_s),
        },
        "items": len(items),
        "item_s": [[item.key, m] for item, m in zip(items, scaled_medians)],
        "passes": attempted / len(items),
        "measured_s": time.perf_counter() - started,
        "supported_percentile": supported_percentile(len(items)),
        "slope_out_of_band": out_of_band,
        "failures": failures[:20],
    }


def run_traced(workload, seed: int) -> tuple[dict, Tracer]:
    items = workload.items(seed)
    reference = load_reference(workload.name)
    workload.run(items[0])
    tracer = Tracer()
    failures: list[str] = []
    attempted = failed = out_of_band = 0
    plain_s = traced_s = 0.0
    for k, item in enumerate(items):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                with installed(tracer, workloads.TARGETS, [workloads]):
                    t0 = time.perf_counter()
                    with tracer.span("perfbench.item"):
                        output = workload.run(item)
                    traced_s += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                output = workload.run(item)
                plain_s += time.perf_counter() - t0
            attempted += 1
            if not _check(workload, item, output, reference, failures):
                failed += 1
            if traced and hasattr(workload, "slope_out_of_band"):
                out_of_band += workload.slope_out_of_band(item, output)

    layers = self_times(tracer.nodes)
    silent = sorted(
        m for m in workload.expected
        if layers.get(m, {}).get("calls", 0) == 0 and tracer.counts.get(m, 0) == 0
    )
    if silent:
        raise RuntimeError(f"wrappers never fired on {workload.name}: {', '.join(silent)}")
    covered = sum(row["self_s"] for row in layers.values())
    if abs(covered - traced_s) > 0.05 * traced_s:
        raise RuntimeError(f"self times sum to {covered:.3f} s, traced wall {traced_s:.3f} s")

    metrics: dict[str, float] = {}
    for target in workloads.TARGETS:
        if target.kind == COUNT:
            metrics[target.metric] = tracer.counts.get(target.metric, 0)
            continue
        row = layers.get(target.metric, {"calls": 0, "self_s": 0.0})
        metrics[f"{target.metric}.calls"] = row["calls"]
        metrics[f"{target.metric}.self_s"] = row["self_s"]
    metrics["taylor2d.eval.coeff_points"] = tracer.work.get("taylor2d.eval", 0)
    by_id = {node.id: node for node in tracer.nodes}
    waves = metrics["construction.construct_gpw.calls"]
    residuals_in_waves = sum(
        node.calls for node in tracer.nodes
        if node.name == "operators.residual_series"
        and node.parent is not None
        and by_id[node.parent].name == "construction.construct_gpw"
    )
    metrics["construction.residual_calls_per_wave"] = residuals_in_waves / waves if waves else 0.0
    bases = layers.get("construction.build_basis", {"calls": 0, "errors": 0})
    metrics["bench.center_accept_ratio"] = (
        (bases["calls"] - bases["errors"]) / bases["calls"] if bases["calls"] else 0.0
    )
    metrics["bench.slope_out_of_band"] = out_of_band
    metrics["perfbench.item.self_s"] = layers["perfbench.item"]["self_s"]
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "items": len(items),
        "untraced_wall_s": plain_s,
        "failures": failures[:20],
    }
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", help="write the recorded spans here")
    args = parser.parse_args(argv)

    # order_table sweeps q < n-1 on purpose (JJ, n=4, q=1)
    warnings.filterwarnings("ignore", message=".*not guaranteed to reach order.*")
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        result, tracer = run_traced(workload, args.seed)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.to_json()))
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
