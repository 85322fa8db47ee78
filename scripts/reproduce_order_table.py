#!/usr/bin/env python3
"""Reproduce the convergence-order tables: fitted order for q = 1..4 (rows)
by n = 1..5 (columns), one table per case.

Each cell is a full random-center study (default 50 centers, h from 1 down
to 1e-6, p = 2n+1 wave functions); the printed value is the fitted log-log
slope over the pre-stagnation window, with ``*`` marking cells whose error
curve hits a detectable stagnation floor.  Use ``--centers 10`` for a quick
look, and ``--out`` to keep every per-h error curve.

Takes about 15 s for all four cases at the default 50 centers (2 vCPUs).
"""

import argparse
import sys
import warnings

from gpw.bench import (
    CASE_NAMES,
    REPORT_FORMATS,
    case_by_name,
    emit_report,
    run_convergence,
)

ORDERS = (1, 2, 3, 4, 5)
TANGENCIES = (1, 2, 3, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--case", choices=CASE_NAMES, action="append",
        help="repeatable; default: all four cases",
    )
    parser.add_argument("--centers", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write all per-h error curves here")
    parser.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    args = parser.parse_args(argv)

    reports = []
    for name in args.case or CASE_NAMES:
        case = case_by_name(name)
        print(
            f"case {name}: fitted order, {args.centers} centers, "
            f"seed {args.seed} (* = stagnation floor detected)"
        )
        print("q\\n " + "".join(f"{n:>9}" for n in ORDERS))
        for q in TANGENCIES:
            cells = []
            for n in ORDERS:
                try:
                    with warnings.catch_warnings():
                        # sweeping q < n-1 cells is the point of this table
                        warnings.filterwarnings(
                            "ignore", message=".*not guaranteed to reach order.*"
                        )
                        report = run_convergence(
                            case, n=n, q=q, num_centers=args.centers, seed=args.seed
                        )
                except ValueError:
                    cells.append(f"{'n/a':>9}")
                    continue
                reports.append(report)
                mark = "*" if report.floor > 0 else " "
                cells.append(f"{report.slope:8.2f}{mark}")
            print(f"{q:>3} " + "".join(cells))
        print()
    if args.out:
        emit_report(reports, path=args.out, format=args.format)
        print(f"wrote {len(reports)} error curves to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
