#!/usr/bin/env python3
"""gpw benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload order_table --seed 1 --seconds 30 --trace 0

Workloads: order_table, basis_high_q, wave_grid (see NOTES.md).  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Every metric is printed by name and unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  gpw is imported from ``src/`` of the checkout this file sits
in; without it the run fails.

Set-up time is the median over several fresh processes that each import
gpw and build the four cases.  The workload runs in one more fresh process
with BLAS and OpenMP threads pinned to 1.  Results and traces are written
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("order_table", "basis_high_q", "wave_grid")
SETUP_PROCESSES = 7
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import gpw\n"
    "gpw.builtin_cases()\n"
    "t1 = time.perf_counter()\n"
    "import pathlib, statistics, calibration\n"
    "if not pathlib.Path(gpw.__file__).resolve().is_relative_to({src!r}):\n"
    "    raise SystemExit('gpw imported from outside ' + {src!r})\n"
    "kernel_s = statistics.median(calibration.measure() for _ in range(5))\n"
    "print((t1 - t0) * calibration.REFERENCE_S / kernel_s, t1 - t0)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion and return its standard output."""
    proc = subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median set-up time over fresh processes: scaled as calibration.py
    describes, and raw."""
    probe = SETUP_PROBE.format(src=str(SRC.resolve()))
    run_child(["-c", probe], deadline)  # writes the bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_PROCESSES):
        seconds = run_child(["-c", probe], deadline).split()
        scaled.append(float(seconds[0]))
        raw.append(float(seconds[1]))
    return statistics.median(scaled), statistics.median(raw)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "gpw" / "__init__.py").is_file():
        print(f"error: gpw sources not found under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = [
        str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        worker += ["--trace-out", str(RESULTS / f"{stem}-spans.json")]
    try:
        setup = None if args.trace else measure_setup(deadline)
        result = json.loads(run_child(worker, deadline).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(result["numpy"])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"], result["raw"]["setup_s"] = setup
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans_file = RESULTS / f"{stem}-spans.json"
        spans = json.loads(spans_file.read_text())
        spans_file.write_text(json.dumps({"environment": env, **spans}))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['items']} items, environment {json.dumps(env)}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac {fail_frac:.6g} ratio (failed {result['failed']} of {result['attempted']})")
    if not args.trace:
        print(f"item_ms.p90 over {result['items']} items; the highest percentile "
              f"with 10 samples beyond it is p{result['supported_percentile']}")
        print(f"slopes outside their criterion-7 band: {result['slope_out_of_band']}")
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    final = {}
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
        final[name] = {"value": metrics[name], "unit": units[name]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
