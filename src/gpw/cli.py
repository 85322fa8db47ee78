"""Command-line front end for the wave construction and its benchmarks.

Subcommands
-----------
construct    build one wave at a center and serialize its phase coefficients
validate     substitute each exact solution into its operator and report
rank-study   numeric ranks of the matching matrices as the basis size varies
convergence  random-center disk-error study with fitted convergence orders

Config files
------------
``--config FILE`` reads a plain-text file of ``key = value`` lines.  Keys
are the long option names of the chosen subcommand without the leading
dashes (``case = cs``, ``hmin = 1e-4``); the ``center`` key takes two
numbers (``center = 0.5 -0.5``, comma optional).  ``#`` starts a comment
and blank lines are skipped.  Values from the file override values given
on the command line.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bench import (
    CASE_NAMES,
    MIN_H_VALUES,
    builtin_cases,
    case_by_name,
    draw_centers,
    emit_report,
    require_centers,
    run_convergence,
    validate_case,
)
from .construction import (
    GpwNormalization,
    basis_angles,
    build_basis,
    construct_gpw,
    serialize_gpw,
)
from .interp import assemble_gpw_matrix, assemble_reference_matrix, numeric_rank

FORMAT_NAMES = ("csv", "plotdata")


def _case_name(text: str) -> str:
    if text not in CASE_NAMES:
        raise ValueError(f"unknown case {text!r}; choose from {', '.join(CASE_NAMES)}")
    return text


def _format_name(text: str) -> str:
    if text not in FORMAT_NAMES:
        raise ValueError(
            f"unknown format {text!r}; choose from {', '.join(FORMAT_NAMES)}"
        )
    return text


def _center_pair(text: str) -> tuple[float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"center needs two numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


# config key -> (argparse dest, converter), per subcommand
_CONVERTERS: dict[str, tuple[str, Callable[[str], object]]] = {
    "case": ("case", _case_name),
    "n": ("n", int),
    "q": ("q", int),
    "p": ("p", int),
    "centers": ("centers", int),
    "seed": ("seed", int),
    "theta": ("theta", float),
    "center": ("center", _center_pair),
    "hmin": ("hmin", float),
    "hmax": ("hmax", float),
    "hcount": ("hcount", int),
    "format": ("format", _format_name),
    "out": ("out", str),
}

_CONSTRUCT_KEYS = ("case", "q", "theta", "center", "out")
_VALIDATE_KEYS = ("case", "centers", "seed", "out")
_RANK_KEYS = ("case", "n", "p", "centers", "seed", "out")
_CONVERGENCE_KEYS = (
    "case", "n", "q", "p", "centers", "seed",
    "hmin", "hmax", "hcount", "format", "out",
)


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
        if key not in args.config_keys:
            raise ValueError(
                f"unknown config key {key!r} for this subcommand "
                f"(allowed: {', '.join(args.config_keys)})"
            )
        dest, convert = _CONVERTERS[key]
        setattr(args, dest, convert(raw))


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
    construct.add_argument("--case", choices=CASE_NAMES, required=True)
    construct.add_argument("--q", type=int, default=1, help="order of tangency")
    construct.add_argument(
        "--theta", type=float, default=math.pi / 6, help="direction angle (radians)"
    )
    construct.add_argument(
        "--center", type=float, nargs=2, metavar=("X", "Y"),
        help="expansion center (default: domain midpoint)",
    )
    construct.add_argument("--out", help="write here instead of stdout")
    construct.set_defaults(func=cmd_construct, config_keys=_CONSTRUCT_KEYS)

    validate = sub.add_parser(
        "validate", help="residual report for the built-in cases"
    )
    validate.add_argument(
        "--case", choices=CASE_NAMES, help="one case (default: all four)"
    )
    validate.add_argument(
        "--centers", type=int, default=20, help="random centers per case"
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--out", help="write here instead of stdout")
    validate.set_defaults(func=cmd_validate, config_keys=_VALIDATE_KEYS)

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
    rank.set_defaults(func=cmd_rank_study, config_keys=_RANK_KEYS)

    convergence = sub.add_parser(
        "convergence", help="disk-error convergence study on one case"
    )
    convergence.add_argument("--case", choices=CASE_NAMES, required=True)
    convergence.add_argument("--n", type=int, required=True, help="matching order")
    convergence.add_argument(
        "--q", type=int, help="order of tangency (default: max(1, n-1))"
    )
    convergence.add_argument("--p", type=int, help="basis size (default: 2n+1)")
    convergence.add_argument("--centers", type=int, default=50)
    convergence.add_argument("--seed", type=int, default=0)
    convergence.add_argument("--hmin", type=float, default=1e-6)
    convergence.add_argument("--hmax", type=float, default=1.0)
    convergence.add_argument("--hcount", type=int, default=12)
    convergence.add_argument("--format", choices=FORMAT_NAMES, default="csv")
    convergence.add_argument("--out", help="write here instead of stdout")
    convergence.set_defaults(func=cmd_convergence, config_keys=_CONVERGENCE_KEYS)

    for command in (construct, validate, rank, convergence):
        command.add_argument("--config", help="key = value file overriding flags")
    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    case = case_by_name(args.case)
    if args.center is None:
        x_lo, x_hi, y_lo, y_hi = case.domain
        center = ((x_lo + x_hi) / 2, (y_lo + y_hi) / 2)
    else:
        center = (args.center[0], args.center[1])
    op = case.family.instantiate(center, q=args.q)
    gpw = construct_gpw(op, [GpwNormalization(theta=args.theta)])[0]
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
            for p in sizes:
                reference = numeric_rank(assemble_reference_matrix(basis_angles(p), n))
                ranks = set()
                for center in centers:
                    op = case.family.instantiate(center, q=max(1, n - 1))
                    basis = build_basis(op, p)
                    ranks.add(numeric_rank(assemble_gpw_matrix(basis, n)))
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
    q = args.q if args.q is not None else max(1, args.n - 1)
    if not args.hmin > 0:
        raise ValueError(f"hmin must be positive, got {args.hmin}")
    if not args.hmax > args.hmin:
        raise ValueError(f"hmax must exceed hmin, got hmax {args.hmax}, hmin {args.hmin}")
    if args.hcount < MIN_H_VALUES:
        raise ValueError(
            f"--hcount: need at least {MIN_H_VALUES} h values to estimate an order, "
            f"got {args.hcount}"
        )
    h_grid = np.logspace(math.log10(args.hmax), math.log10(args.hmin), args.hcount)
    report = run_convergence(
        case,
        n=args.n,
        q=q,
        p=args.p,
        num_centers=args.centers,
        h_grid=h_grid,
        seed=args.seed,
    )
    text = emit_report(report, path=args.out, format=args.format)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
