"""Command-line front end for the wave construction and its benchmarks.

Subcommands
-----------
construct    build one wave at a center and serialize its phase coefficients
validate     substitute each exact solution into its operator and report
rank-study   numeric ranks of the matching matrices as the basis size varies
convergence  random-center disk-error study with fitted convergence orders
order-table  fitted convergence orders for q = 1..4 by n = 1..5, per case

Config files
------------
``--config FILE`` reads a plain-text file of ``key = value`` lines.  Keys
are the long option names of the chosen subcommand without the leading
dashes (``case = cs``, ``hmin = 1e-4``); the ``center`` key takes two
numbers (``center = 0.5 -0.5``, comma optional).  Each value is converted
and checked as its flag would be, and an error names the key and the bad
value.  ``#`` starts a comment and blank lines are skipped.  Values from
the file override values given on the command line, and a required option
may come from the file alone.

``order-table`` prints its table to stdout; its ``--out`` file holds the
per-h error curves of every study in the table.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .bench import (
    CASE_NAMES,
    DEFAULT_CENTERS,
    DEFAULT_SEED,
    H_COUNT,
    H_MAX,
    H_MIN,
    MIN_H_VALUES,
    REPORT_FORMATS,
    VALIDATION_CENTERS,
    VALIDATION_SEED,
    builtin_cases,
    case_by_name,
    draw_centers,
    emit_report,
    log_radii,
    require_centers,
    run_convergence,
    validate_case,
)
from .construction import (
    FIRST_ANGLE,
    GpwNormalization,
    basis_angles,
    build_basis,
    construct_gpw,
    serialize_gpw,
)
from .interp import (
    MatchingOrderWarning,
    assemble_gpw_matrix,
    assemble_reference_matrix,
    least_tangency,
    numeric_rank,
)


def _config_value(option: argparse.Action, raw: str) -> object:
    """Convert one config value the way ``option`` converts its flag."""
    parts = raw.replace(",", " ").split() if option.nargs else [raw]
    if option.nargs and len(parts) != option.nargs:
        raise ValueError(f"{option.dest} needs {option.nargs} numbers, got {raw!r}")
    convert = option.type or str
    values = []
    for part in parts:
        try:
            values.append(convert(part))
        except ValueError:
            raise ValueError(
                f"config key {option.dest}: invalid {convert.__name__} value {part!r}"
            ) from None
    for value in values:
        if option.choices is not None and value not in option.choices:
            raise ValueError(
                f"unknown {option.dest} {value!r}; "
                f"choose from {', '.join(option.choices)}"
            )
    return values if option.nargs else values[0]


def read_config(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` comments and blank lines ignored."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def apply_config(args: argparse.Namespace) -> None:
    """Overwrite parsed arguments with entries from ``--config``, if given."""
    if not getattr(args, "config", None):
        return
    for key, raw in read_config(args.config).items():
        if key not in args.config_options:
            raise ValueError(
                f"unknown config key {key!r} for this subcommand "
                f"(allowed: {', '.join(args.config_options)})"
            )
        setattr(args, key, _config_value(args.config_options[key], raw))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpw",
        description=__doc__.split("\n\n")[0],
        epilog="Config files hold 'key = value' lines (# comments allowed); "
        "keys are the option names without dashes and override the "
        "command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="build one wave and serialize its phase"
    )
    construct.add_argument("--case", choices=CASE_NAMES, required=True, help="required")
    construct.add_argument("--q", type=int, default=1, help="order of tangency")
    construct.add_argument(
        "--theta", type=float, default=FIRST_ANGLE,
        help="direction angle (radians; default: the first of basis_angles)",
    )
    construct.add_argument(
        "--center", type=float, nargs=2, metavar=("X", "Y"),
        help="expansion center (default: domain midpoint)",
    )
    construct.add_argument("--out", help="write here instead of stdout")
    construct.set_defaults(func=cmd_construct)

    validate = sub.add_parser(
        "validate", help="residual report for the built-in cases"
    )
    validate.add_argument(
        "--case", choices=CASE_NAMES, help="one case (default: all four)"
    )
    validate.add_argument(
        "--centers", type=int, default=VALIDATION_CENTERS, help="random centers per case"
    )
    validate.add_argument("--seed", type=int, default=VALIDATION_SEED)
    validate.add_argument("--out", help="write here instead of stdout")
    validate.set_defaults(func=cmd_validate)

    rank = sub.add_parser(
        "rank-study", help="numeric rank of the matching matrices vs p"
    )
    rank.add_argument("--case", choices=CASE_NAMES, help="one case (default: all four)")
    rank.add_argument("--n", type=int, help="matching order (default: 1..4)")
    rank.add_argument(
        "--p", type=int, help="basis size (default: 2n-1, 2n, 2n+1, 2n+2)"
    )
    rank.add_argument("--centers", type=int, default=10)
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--out", help="write here instead of stdout")
    rank.set_defaults(func=cmd_rank_study)

    convergence = sub.add_parser(
        "convergence", help="disk-error convergence study on one case"
    )
    convergence.add_argument("--case", choices=CASE_NAMES, required=True, help="required")
    convergence.add_argument("--n", type=int, required=True, help="matching order (required)")
    convergence.add_argument(
        "--q", type=int, help="order of tangency (default: max(1, n-1))"
    )
    convergence.add_argument("--p", type=int, help="basis size (default: 2n+1)")
    convergence.add_argument("--centers", type=int, default=DEFAULT_CENTERS)
    convergence.add_argument("--seed", type=int, default=DEFAULT_SEED)
    convergence.add_argument("--hmin", type=float, default=H_MIN)
    convergence.add_argument("--hmax", type=float, default=H_MAX)
    convergence.add_argument("--hcount", type=int, default=H_COUNT)
    convergence.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    convergence.add_argument("--out", help="write here instead of stdout")
    convergence.set_defaults(func=cmd_convergence)

    order_table = sub.add_parser(
        "order-table", help="fitted-order table, q = 1..4 by n = 1..5, per case"
    )
    order_table.add_argument(
        "--case", choices=CASE_NAMES, help="one case (default: all four)"
    )
    order_table.add_argument("--centers", type=int, default=DEFAULT_CENTERS)
    order_table.add_argument("--seed", type=int, default=DEFAULT_SEED)
    order_table.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    order_table.add_argument("--out", help="write all per-h error curves here")
    order_table.set_defaults(func=cmd_order_table)

    for command in (construct, validate, rank, convergence, order_table):
        # config keys are the dests of the subcommand's own options; a
        # required one may come from the file, so main checks it after
        options = {a.dest: a for a in command._actions if a.dest != "help"}
        required = [a for a in options.values() if a.required]
        for action in required:
            action.required = False
        command.add_argument("--config", help="key = value file overriding flags")
        command.set_defaults(config_options=options, required=required, parser=command)
    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    case = case_by_name(args.case)
    if args.center is None:
        x_lo, x_hi, y_lo, y_hi = case.domain
        center = ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)
    else:
        center = (args.center[0], args.center[1])
    op = case.family.instantiate(center, q=args.q)
    gpw = construct_gpw(op, [GpwNormalization(theta=args.theta)]).functions[0]
    _write(serialize_gpw(gpw), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cases = [case_by_name(args.case)] if args.case else builtin_cases()
    lines: list[str] = []
    all_passed = True
    for case in cases:
        result = validate_case(case, trials=args.centers, seed=args.seed)
        lines.extend(result.summary_lines())
        all_passed &= result.passed
    _write("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


def cmd_rank_study(args: argparse.Namespace) -> int:
    """Exit status 1 unless, in every cell, the reference rank is full
    (2n+1) exactly when p >= 2n+1 and every wave rank equals it."""
    require_centers(args.centers)
    for flag, value in (("--n", args.n), ("--p", args.p)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    cases = [case_by_name(args.case)] if args.case else builtin_cases()
    orders = [args.n] if args.n is not None else [1, 2, 3, 4]
    lines: list[str] = []
    failed: list[str] = []
    for case in cases:
        rng = np.random.default_rng(args.seed)
        centers = draw_centers(case, args.centers, rng)
        lines += [
            f"case {case.name}: numeric ranks at {len(centers)} centers, seed {args.seed}",
            " n   p  reference  gpw  full rank (2n+1)",
        ]
        for n in orders:
            sizes = [args.p] if args.p is not None else [2 * n - 1, 2 * n, 2 * n + 1, 2 * n + 2]
            ops = [case.family.instantiate(center, q=least_tangency(n)) for center in centers]
            for p in sizes:
                reference = numeric_rank(assemble_reference_matrix(basis_angles(p), n))
                waves = assemble_gpw_matrix(build_basis(ops, p), n).coeffs  # (centers, p, rows)
                ranks = {numeric_rank(rows.T) for rows in waves}
                observed = "/".join(str(r) for r in sorted(ranks))
                lines.append(f"{n:2d} {p:3d} {reference:10d} {observed:>4}  {2 * n + 1:d}")
                if (reference == 2 * n + 1) != (p >= 2 * n + 1) or ranks != {reference}:
                    failed.append(f"{case.name} n={n} p={p}")
    _write("\n".join(lines) + "\n", args.out)
    if failed:
        print(f"error: rank characterization fails at {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    case = case_by_name(args.case)
    for flag, value in (("hmin", args.hmin), ("hmax", args.hmax)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not args.hmin > 0:
        raise ValueError(f"hmin must be positive, got {args.hmin}")
    if not args.hmax > args.hmin:
        raise ValueError(f"hmax must exceed hmin, got hmax {args.hmax}, hmin {args.hmin}")
    if args.hcount < MIN_H_VALUES:
        raise ValueError(
            f"--hcount: need at least {MIN_H_VALUES} h values to estimate an order, "
            f"got {args.hcount}"
        )
    report = run_convergence(
        case,
        n=args.n,
        q=args.q,
        p=args.p,
        num_centers=args.centers,
        h_grid=log_radii(args.hmax, args.hmin, args.hcount),
        seed=args.seed,
    )
    _write(emit_report(report, format=args.format), args.out)
    return 0


def cmd_order_table(args: argparse.Namespace) -> int:
    """One convergence study per cell; the value printed is the fitted order,
    ``*`` marks a detected stagnation floor, and ``n/a`` a study that
    raised ``ValueError``."""
    require_centers(args.centers)
    orders, tangencies = range(1, 6), range(1, 5)
    reports = []
    for case in [case_by_name(args.case)] if args.case else builtin_cases():
        print(
            f"case {case.name}: fitted order, {args.centers} centers, "
            f"seed {args.seed} (* = stagnation floor detected)"
        )
        print("q\\n " + "".join(f"{n:>9}" for n in orders))
        for q in tangencies:
            cells = []
            for n in orders:
                try:
                    with warnings.catch_warnings():
                        # sweeping q < n-1 cells is the point of this table
                        warnings.simplefilter("ignore", MatchingOrderWarning)
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
        _write(emit_report(reports, format=args.format), args.out)
        print(f"wrote {len(reports)} error curves to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args)
        missing = [a.option_strings[0] for a in args.required if getattr(args, a.dest) is None]
        if missing:
            args.parser.error(f"the following arguments are required: {', '.join(missing)}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
