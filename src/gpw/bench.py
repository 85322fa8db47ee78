"""Benchmark harness: manufactured test problems and convergence studies.

Four second-order variable-coefficient problems, each shipped with a closed
form solution of L u = 0: an Airy-type advection-free problem (``Ad``), two
Bessel-based problems (``Jc``, ``JJ``), and a trigonometric problem with a
mixed second-order term (``cs``).  The harness validates the manufactured
solutions by direct substitution, then measures how well local wave bases
reproduce each solution on shrinking disks around random centers, fitting
convergence orders from the error curves and emitting machine-readable
reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .construction import build_basis
from .interp import assemble_gpw_matrix, taylor_match
from .operators import HypothesisError, OperatorFamily, check_hypotheses
from .special import (
    airy_derivative_stack,
    bessel_derivative_stack,
    evaluate_from_stack,
)
from .taylor2d import TaylorSeries2, indices, ts_derive, ts_mul

logger = logging.getLogger(__name__)

VALIDATION_TOL = 1e-9
DEFAULT_H_GRID = np.logspace(0.0, -6.0, 12)
EDGE_MARGIN_FRACTION = 0.05
SAMPLE_RADII = 8
SAMPLE_ANGLES = 32
LOCAL_EXPANSION_ORDER = 40
STAGNATION_RATIO = 0.5
# Round-off tails are not sharp plateaus: errors keep meandering within one
# to two decades of the detected floor before settling, with shallow local
# slopes that would contaminate a log-log fit.  Demand two full decades of
# clearance before a point counts as genuine decay.
FLOOR_CLEARANCE = 100.0

MIN_H_VALUES = 4  # fewest radii an order can be fitted through

CASE_NAMES = ("Ad", "Jc", "JJ", "cs")  # builtin_cases(), in order
CSV_HEADER = "case,n,q,p,seed,h,max_err,slope,floor"
REPORT_FORMATS = ("csv", "plotdata")  # emit_report's formats

Domain = tuple[float, float, float, float]  # x_lo, x_hi, y_lo, y_hi
Expansion = tuple[Callable[[int, int], float], Callable[..., np.ndarray]]  # cell, values


@dataclass(frozen=True)
class TestCase:
    """One benchmark problem: operator family, domain, and exact solution.

    ``expand(center, order)`` builds the solution's derivative stacks at a
    center once, through ``order`` >= LOCAL_EXPANSION_ORDER, and returns the
    pair ``(cell, values)``: ``cell(i, j)`` is the unscaled Taylor cell
    d^i_x d^j_y u at the center (i + j <= order), ``values(xs, ys)`` the
    solution on points near the center from 40-term local expansions.
    ``printed_family`` carries a published-but-wrong variant of the operator,
    kept so the validator can demonstrate the failure (only ``Jc`` has one).
    """

    __test__ = False  # keep pytest from collecting the Test* name

    name: str
    family: OperatorFamily
    domain: Domain
    expand: Callable[[tuple[float, float], int], Expansion]
    printed_family: OperatorFamily | None = None

    def diameter(self) -> float:
        x_lo, x_hi, y_lo, y_hi = self.domain
        return math.hypot(x_hi - x_lo, y_hi - y_lo)

    def values(self, center: tuple[float, float], xs, ys) -> np.ndarray:
        """The exact solution on point arrays near the center."""
        return self.expand(center, LOCAL_EXPANSION_ORDER)[1](xs, ys)


def _local_values(stack: list[float], t0: float) -> Callable[..., np.ndarray]:
    local = stack[: LOCAL_EXPANSION_ORDER + 1]  # 40 terms, however long the stack
    return lambda t: evaluate_from_stack(local, t0, t)


def _airy_expand(center, order) -> Expansion:
    z0 = center[0] + center[1]
    stack = airy_derivative_stack(z0, order)
    at = _local_values(stack, z0)
    return lambda i, j: stack[i + j], lambda xs, ys: at(np.asarray(xs) + np.asarray(ys))


def _bessel_cos_expand(center, order) -> Expansion:
    x0, y0 = center
    stack = bessel_derivative_stack(1, x0, order)
    at = _local_values(stack, x0)
    return (
        lambda i, j: stack[i] * math.cos(y0 + j * math.pi / 2),
        lambda xs, ys: at(xs) * np.cos(np.asarray(ys)),
    )


def _bessel_product_expand(center, order) -> Expansion:
    x0, y0 = center
    stack_x = bessel_derivative_stack(0, x0, order)
    stack_y = bessel_derivative_stack(1, y0, order)
    at_x, at_y = _local_values(stack_x, x0), _local_values(stack_y, y0)
    return lambda i, j: stack_x[i] * stack_y[j], lambda xs, ys: at_x(xs) * at_y(ys)


def _trig_expand(center, order) -> Expansion:
    x0, y0 = center
    return (
        lambda i, j: math.cos(x0 + i * math.pi / 2) * math.sin(y0 + j * math.pi / 2),
        lambda xs, ys: np.cos(np.asarray(xs)) * np.sin(np.asarray(ys)),
    )


def builtin_cases() -> list[TestCase]:
    """The four benchmark problems.

    The ``Jc`` zeroth-order coefficient ships sign-corrected (the variant that
    actually annihilates J_1(x) cos y); the sign as published elsewhere is
    retained on ``printed_family`` so validation can report both outcomes.
    """
    airy = TestCase(
        name="Ad",
        family=OperatorFamily(
            M=2,
            terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "2*x + 2*y"},
            name="Ad",
        ),
        domain=(-2.0, 2.0, -2.0, 2.0),
        expand=_airy_expand,
    )
    bessel_cos = TestCase(
        name="Jc",
        family=OperatorFamily(
            M=2,
            terms={
                (2, 0): "x**2",
                (0, 2): "x**2",
                (1, 0): "x",
                (0, 1): "cos(y)",
                (0, 0): "2*x**2 + sin(y) - 1",
            },
            name="Jc",
        ),
        domain=(1.0, 4.0, 0.0, 2 * math.pi),
        expand=_bessel_cos_expand,
        printed_family=OperatorFamily(
            M=2,
            terms={
                (2, 0): "x**2",
                (0, 2): "x**2",
                (1, 0): "x",
                (0, 1): "cos(y)",
                (0, 0): "1 - 2*x**2 - sin(y)",
            },
            name="Jc-printed",
        ),
    )
    bessel_product = TestCase(
        name="JJ",
        family=OperatorFamily(
            M=2,
            terms={
                (2, 0): "x**2",
                (0, 2): "y**2",
                (1, 0): "x",
                (0, 1): "y",
                (0, 0): "x**2 + y**2 - 1",
            },
            name="JJ",
        ),
        domain=(1.0, 3.0, 1.0, 3.0),
        expand=_bessel_product_expand,
    )
    trig = TestCase(
        name="cs",
        family=OperatorFamily(
            M=2,
            terms={
                (2, 0): "1",
                (1, 1): "0.2*cos(x)*sin(y)",
                (0, 2): "-2",
                (0, 0): "0.2*sin(x)*cos(y) - 1",
            },
            name="cs",
        ),
        domain=(-1.0, 1.0, -1.0, 1.0),
        expand=_trig_expand,
    )
    return [airy, bessel_cos, bessel_product, trig]


def case_by_name(name: str) -> TestCase:
    for case in builtin_cases():
        if case.name == name:
            return case
    raise KeyError(f"unknown case {name!r}; choose from {', '.join(CASE_NAMES)}")


def _local_expansion(
    case: TestCase, center: tuple[float, float], n: int
) -> tuple[np.ndarray, Callable[..., np.ndarray]]:
    """One ``case.expand`` at the center: the Taylor data through order n,
    each cell scaled by 1/(i! j!), and the evaluator of the solution."""
    cell, values = case.expand(center, max(n, LOCAL_EXPANSION_ORDER))
    taylor = [cell(i, j) / (math.factorial(i) * math.factorial(j)) for i, j in indices(n)]
    return np.array(taylor, dtype=float), values


def exact_solution_taylor(case: TestCase, center: tuple[float, float], n: int) -> np.ndarray:
    """Scaled Taylor coefficients of the exact solution at the center.

    Flat triangular layout through total order n >= 0, from one
    ``case.expand`` through max(n, LOCAL_EXPANSION_ORDER).  Raises when the
    center leaves the solution's validity region (nonpositive Bessel
    arguments).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _local_expansion(case, center, n)[0]


# --- manufactured-solution validation ----------------------------------------


@dataclass(frozen=True)
class CaseValidation:
    """Max |coefficient| of L u through order 2, over random centers."""

    case: str
    trials: int
    max_residual: float
    passed: bool
    printed_max_residual: float | None = None
    printed_passed: bool | None = None

    def summary_lines(self) -> list[str]:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"case {self.case}: max |L u| Taylor coefficient through order 2 "
            f"over {self.trials} centers = {self.max_residual:.3e} -> {verdict} "
            f"(tolerance {VALIDATION_TOL:g})"
        ]
        if self.printed_max_residual is not None:
            verdict = "PASS" if self.printed_passed else "FAIL"
            lines.append(
                f"case {self.case} (zeroth-order sign as published): "
                f"max residual = {self.printed_max_residual:.3e} -> {verdict}"
            )
        return lines


def substitution_residual(family: OperatorFamily, u: TaylorSeries2) -> float:
    """Max |coefficient| of the series of L u at u's center, through order 2.

    ``u`` is the solution's Taylor series through order 2 + family.M.
    """
    if u.order < 2 + family.M:
        raise ValueError(f"u needs order at least {2 + family.M}, got {u.order}")
    op = family.instantiate(u.center, q=1, coeff_order=2)
    total = sum(
        math.factorial(k) * math.factorial(l) * ts_mul(alpha, ts_derive(u, (k, l)), order=2)
        for (k, l), alpha in op.coeffs.items()
    )
    return total.max_abs()


def validate_case(case: TestCase, trials: int = 20, seed: int = 0) -> CaseValidation:
    """Check L u = 0 by direct series substitution at random centers."""
    require_centers(trials)
    rng = np.random.default_rng(seed)
    centers = draw_centers(case, trials, rng)
    order = 2 + case.family.M
    solutions = [
        TaylorSeries2(c, order, exact_solution_taylor(case, c, order)) for c in centers
    ]
    worst = max(substitution_residual(case.family, u) for u in solutions)
    printed_worst = printed_ok = None
    if case.printed_family is not None:
        printed_worst = max(substitution_residual(case.printed_family, u) for u in solutions)
        printed_ok = printed_worst < VALIDATION_TOL
    return CaseValidation(
        case=case.name,
        trials=trials,
        max_residual=worst,
        passed=worst < VALIDATION_TOL,
        printed_max_residual=printed_worst,
        printed_passed=printed_ok,
    )


# --- random centers and disk sampling ----------------------------------------


def require_centers(count: int) -> None:
    """Every study needs a center; checked before any work."""
    if count < 1:
        raise ValueError(f"number of centers must be at least 1, got {count}")


def draw_centers(
    case: TestCase, count: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Uniform draws over the domain, rejecting a margin near the boundary.

    The margin is 0.05 of the domain diameter so that sampling disks around
    accepted centers stay inside the coefficient validity region.
    """
    x_lo, x_hi, y_lo, y_hi = case.domain
    margin = EDGE_MARGIN_FRACTION * case.diameter()
    if 2 * margin >= min(x_hi - x_lo, y_hi - y_lo):
        raise ValueError(f"domain of case {case.name} too thin for the edge margin")
    centers: list[tuple[float, float]] = []
    while len(centers) < count:
        x = rng.uniform(x_lo, x_hi)
        y = rng.uniform(y_lo, y_hi)
        if x_lo + margin <= x <= x_hi - margin and y_lo + margin <= y <= y_hi - margin:
            centers.append((x, y))
    return centers


def disk_points(
    center: tuple[float, float], h: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic polar sampling of the closed disk of radius h: 8 radii
    times 32 angles, plus the center itself (257 points).  For an array of
    radii, the disks follow one another in its order."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    radii = h[:, None] * np.arange(1, SAMPLE_RADII + 1) / SAMPLE_RADII
    angles = 2 * math.pi * np.arange(SAMPLE_ANGLES) / SAMPLE_ANGLES
    xs = np.empty((h.size, SAMPLE_RADII * SAMPLE_ANGLES + 1))
    ys = np.empty_like(xs)
    xs[:, 0], ys[:, 0] = center
    xs[:, 1:] = center[0] + np.outer(radii, np.cos(angles)).reshape(h.size, -1)
    ys[:, 1:] = center[1] + np.outer(radii, np.sin(angles)).reshape(h.size, -1)
    return xs.ravel(), ys.ravel()


# --- convergence studies ------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Max-over-centers disk errors per h, with the fitted order data."""

    case: str
    n: int
    q: int
    p: int
    seed: int
    h: np.ndarray
    errors: np.ndarray
    slope: float
    floor: float

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        errors = np.asarray(self.errors, dtype=float)
        if h.shape != errors.shape:
            raise ValueError("h and errors must have matching shapes")
        if h.size and not np.all(np.diff(h) < 0):
            raise ValueError("h values must be strictly decreasing")
        if np.any(errors < 0):
            raise ValueError("errors must be non-negative")
        h.setflags(write=False)
        errors.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "slope", float(self.slope))
        object.__setattr__(self, "floor", float(self.floor))


def _slope_and_floor(h: np.ndarray, errors: np.ndarray) -> tuple[float, float]:
    # Stagnation floor: the highest plateau in the small-h half of the grid.
    # A plateau is a run of at least two consecutive points whose decay per
    # step stays above STAGNATION_RATIO (a proper convergence order loses
    # much more than half the error per grid step).
    count = len(errors)
    ratios = np.array(
        [
            errors[i + 1] / errors[i] if errors[i] > 0 else 1.0
            for i in range(count - 1)
        ]
    )
    floor = 0.0
    i = 0
    while i < count - 1:
        if ratios[i] > STAGNATION_RATIO:
            start = i
            while i < count - 1 and ratios[i] > STAGNATION_RATIO:
                i += 1
            if i >= count // 2:  # the run reaches into the small-h half
                floor = max(floor, float(errors[start]))
        else:
            i += 1
    window = (errors > FLOOR_CLEARANCE * floor) & (errors > 0)
    if np.count_nonzero(window) < 2:
        raise ValueError("too few usable points above the stagnation floor")
    slope, _ = np.polyfit(np.log(h[window]), np.log(errors[window]), 1)
    return float(slope), floor


def _require_fit_grid(h: np.ndarray) -> None:
    if h.size < MIN_H_VALUES:
        raise ValueError(
            f"need at least {MIN_H_VALUES} h values to estimate an order, got {h.size}"
        )


def run_convergence(
    case: TestCase,
    n: int,
    q: int,
    p: int | None = None,
    num_centers: int = 50,
    h_grid: Sequence[float] | None = None,
    seed: int = 0,
) -> ConvergenceReport:
    """Measure max disk errors of the matched local approximant vs. h.

    Draws random centers one at a time, redrawing (and logging) a center
    where the operator fails its hypotheses, then builds the local wave
    bases of all accepted centers in one batched build_basis call.  At each
    center one taylor_match call matches the solution's Taylor data through
    order n once per radius h, with conditions weighted by h^(row order) —
    the match is calibrated to the disk it is judged on, so mismatches that
    a short basis cannot avoid land on the conditions that matter least at
    that radius.  The Taylor data and the exact values on the disks come
    from one expansion per center.  Records the max pointwise error over the
    sampled disk per h, aggregated over centers.  Per-center error curves
    are made monotone in h before aggregation: the sampled max over the disk
    of radius h includes all smaller sampled disks.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    require_centers(num_centers)
    if p is None:
        p = 2 * n + 1
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    h = np.asarray(DEFAULT_H_GRID if h_grid is None else h_grid, dtype=float)
    if h.size and not np.all(np.diff(h) < 0):
        raise ValueError("h grid must be strictly decreasing")
    _require_fit_grid(h)
    validation = validate_case(case)
    if not validation.passed:
        raise ValueError(
            f"case {case.name} failed manufactured-solution validation "
            f"(max residual {validation.max_residual:.3e})"
        )
    rng = np.random.default_rng(seed)
    ops = []
    attempts = 0
    while len(ops) < num_centers:
        attempts += 1
        if attempts > 50 * num_centers:
            raise ValueError(f"case {case.name}: too many rejected centers")
        center = draw_centers(case, 1, rng)[0]
        op = case.family.instantiate(center, q=q)
        try:
            check_hypotheses(op)
        except HypothesisError as exc:
            logger.warning("redrew center %s for case %s: %s", center, case.name, exc)
            continue
        ops.append(op)
    row_weights = h[:, None] ** np.array([k1 + k2 for k1, k2 in indices(n)], dtype=float)
    point_count = SAMPLE_RADII * SAMPLE_ANGLES + 1
    per_center = np.zeros((num_centers, h.size))
    for c, basis in enumerate(build_basis(ops, p)):
        center = basis.operator.center
        F, values = _local_expansion(case, center, n)
        mat = assemble_gpw_matrix(basis, n)
        xs, ys = disk_points(center, h)
        exact = values(xs, ys).reshape(h.size, point_count)
        phases = TaylorSeries2(
            center, basis.functions[0].degree, [fn.phase.coeffs for fn in basis.functions]
        )
        members = phases(xs, ys).T  # one column per basis member
        np.exp(members, out=members)
        # rcond=None: the weighted rows span many orders of magnitude by
        # design, so only the machine-precision rank cutoff is safe here.
        match = taylor_match(mat, F, rcond=None, row_weights=row_weights)
        # one disk per radius: (h, points, p) @ (h, p, 1)
        approx = members.reshape(h.size, point_count, -1) @ match.coefficients[:, :, None]
        errs = np.max(np.abs(exact - approx[..., 0]), axis=1)
        # cumulative max over ascending h = include all smaller disks
        per_center[c] = np.maximum.accumulate(errs[::-1])[::-1]
    errors = per_center.max(axis=0)
    slope, floor = _slope_and_floor(h, errors)
    return ConvergenceReport(
        case=case.name, n=n, q=q, p=p, seed=seed, h=h, errors=errors,
        slope=slope, floor=floor,
    )


# --- report emission ----------------------------------------------------------


def _as_report_list(
    reports: ConvergenceReport | Iterable[ConvergenceReport],
) -> list[ConvergenceReport]:
    if isinstance(reports, ConvergenceReport):
        return [reports]
    return list(reports)


def emit_report(
    reports: ConvergenceReport | Iterable[ConvergenceReport],
    path: str | Path | None = None,
    format: str = "csv",
) -> str:
    """Serialize report(s) as CSV or gnuplot-style block data.

    CSV carries one row per h value with 17 significant digits (lossless for
    doubles); plotdata emits two-column "h err" blocks separated by blank
    lines.  Returns the text; writes it to ``path`` when given.
    """
    if format not in REPORT_FORMATS:
        raise ValueError(
            f"unknown report format {format!r}; choose from {', '.join(REPORT_FORMATS)}"
        )
    items = _as_report_list(reports)
    if format == "csv":
        lines = [CSV_HEADER]
        for r in items:
            for hv, ev in zip(r.h, r.errors):
                lines.append(
                    f"{r.case},{r.n},{r.q},{r.p},{r.seed},"
                    f"{hv:.17g},{ev:.17g},{r.slope:.17g},{r.floor:.17g}"
                )
        text = "\n".join(lines) + "\n"
    else:  # plotdata
        blocks = []
        for r in items:
            blocks.append(
                "\n".join(f"{hv:.17g} {ev:.17g}" for hv, ev in zip(r.h, r.errors))
            )
        text = "\n\n".join(blocks) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def read_report_csv(text: str) -> list[ConvergenceReport]:
    """Parse emit_report's CSV back into reports (exact float round-trip)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    reports: list[ConvergenceReport] = []
    group_key = None
    hs: list[float] = []
    errs: list[float] = []

    def flush():
        if group_key is not None:
            case, n, q, p, seed, slope, floor = group_key
            reports.append(
                ConvergenceReport(
                    case=case, n=n, q=q, p=p, seed=seed,
                    h=np.array(hs), errors=np.array(errs),
                    slope=slope, floor=floor,
                )
            )

    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"malformed CSV row: {line!r}")
        case, n, q, p, seed, hv, ev, slope, floor = parts
        key = (case, int(n), int(q), int(p), int(seed), float(slope), float(floor))
        if key != group_key:
            flush()
            group_key = key
            hs, errs = [], []
        hs.append(float(hv))
        errs.append(float(ev))
    flush()
    return reports
