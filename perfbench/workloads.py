"""The benchmark's three workloads, driven through gpw's public API.

Each workload turns a seed into a fixed list of items, runs one item at a
time, and checks each item's output.  Why each workload exists is written
down in NOTES.md next to this file.

order_table   the 21 criterion-7 convergence studies, each one
              ``gpw convergence`` call at 50 centers on the CLI's default grid
basis_high_q  ``build_basis`` at q = 8 and 12 (p = 2q+3) on the cs and Jc
              operators: construction only
wave_grid     per center of all four cases, a q=3, p=7 basis matched at n=3
              and evaluated on the disk points of 40 radii
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

import gpw
import gpw.cli
from tracer import AGG, COUNT, SPAN, Target

DEFAULT_SEED = 1

RESIDUAL_TOL = 1e-12  # the defining property: residual below order q
MATCH_TOL = 1e-12  # Taylor-match residual and error on the smallest disk
REF_RTOL = 1e-9  # recorded values may move this much when float ops reorder
REF_ATOL = 1e-12  # errors at the round-off floor
SLOPE_ATOL = 1e-2


def _eval_work(series, x, y) -> int:
    points = np.broadcast(np.asarray(x), np.asarray(y)).size
    return points * gpw.tri_size(series.order)


TARGETS = (
    Target("taylor2d.ts_mul", "gpw.taylor2d", "ts_mul", AGG),
    Target("taylor2d.ts_derive", "gpw.taylor2d", "ts_derive", AGG),
    Target("taylor2d.ts_exp", "gpw.taylor2d", "ts_exp", AGG),
    Target("taylor2d.eval", "gpw.taylor2d:TaylorSeries2", "__call__", AGG, _eval_work),
    Target("taylor2d.series_created", "gpw.taylor2d:TaylorSeries2", "__post_init__", COUNT),
    Target("operators.instantiate", "gpw.operators:OperatorFamily", "instantiate", AGG),
    Target("operators.check_hypotheses", "gpw.operators", "check_hypotheses", AGG),
    Target("operators.residual_series", "gpw.operators", "residual_series", AGG),
    Target("construction.build_basis", "gpw.construction", "build_basis", SPAN),
    Target("construction.construct_gpw", "gpw.construction", "construct_gpw", AGG),
    Target("construction.level_matrix", "gpw.construction", "level_matrix", AGG),
    Target("interp.assemble_gpw_matrix", "gpw.interp", "assemble_gpw_matrix", AGG),
    Target("interp.taylor_match", "gpw.interp", "taylor_match", AGG),
    Target("special.seed", "gpw.special", "airy_seed", AGG),
    Target("special.seed", "gpw.special", "bessel_seed", AGG),
    Target("special.evaluate_from_stack", "gpw.special", "evaluate_from_stack", AGG),
    Target("bench.run_convergence", "gpw.bench", "run_convergence", SPAN),
    Target("bench.validate_case", "gpw.bench", "validate_case", SPAN),
    Target("bench.exact_solution_taylor", "gpw.bench", "exact_solution_taylor", AGG),
    Target("cli.main", "gpw.cli", "main", SPAN),
)
TARGET_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS))

_CONSTRUCTION = {
    "operators.instantiate", "operators.check_hypotheses",
    "operators.residual_series", "construction.build_basis",
    "construction.construct_gpw", "construction.level_matrix",
    "taylor2d.ts_mul", "taylor2d.ts_derive", "taylor2d.series_created",
}
_MATCHING = {
    "interp.assemble_gpw_matrix", "interp.taylor_match", "taylor2d.ts_exp",
    "taylor2d.eval", "special.seed", "special.evaluate_from_stack",
    "bench.exact_solution_taylor",
}


@dataclass(frozen=True)
class Study:
    key: str
    argv: tuple[str, ...]
    fields: list[str]  # case, n, q, p, seed as the CSV rows carry them
    band: tuple[float, float]


class OrderTable:
    """The 21 criterion-7 studies through ``gpw.cli.main``, in process."""

    name = "order_table"
    expected = frozenset(TARGET_METRICS)

    def __init__(self, centers: int = 50, jobs: int | None = None) -> None:
        self.centers = centers
        self.jobs = jobs

    def items(self, seed: int) -> list[Study]:
        diagonal = [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4)]
        jobs = [
            (name, n, q, n + 1 - 0.35, n + 1 + 0.35)
            for name in ("Ad", "JJ", "cs")
            for n, q in diagonal
        ]
        jobs += [("Jc", n, q, n + 1 - 0.35, n + 1 + 0.35) for n, q in diagonal[:3]]
        jobs += [("JJ", 4, 1, 2.7, 4.3), ("JJ", 4, 3, 4.6, math.inf), ("JJ", 4, 4, 4.6, math.inf)]
        # Largest n and q first: a run's partial second pass then repeats the
        # studies that dominate the time, and their medians rest on two samples.
        jobs.sort(key=lambda job: (-job[1], -job[2]))
        studies = []
        for name, n, q, lo, hi in jobs[: self.jobs]:
            argv = (
                "convergence", "--case", name, "--n", str(n), "--q", str(q),
                "--centers", str(self.centers), "--seed", str(seed),
            )
            fields = [name, str(n), str(q), str(2 * n + 1), str(seed)]
            studies.append(Study(" ".join(argv), argv, fields, (lo, hi)))
        return studies

    def run(self, study: Study):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gpw.cli.main(list(study.argv))
        return code, out.getvalue()

    def check(self, study: Study, output, reference: dict) -> list[str]:
        code, text = output
        if code != 0:
            return [f"{study.key}: exit code {code}"]
        recorded = reference.get("csv", {}).get(study.key)
        lines = text.splitlines()
        if not lines or lines[0] != reference["csv_header"]:
            return [f"{study.key}: missing or wrong CSV header"]
        rows = [line.split(",") for line in lines[1:]]
        h_grid = np.logspace(0.0, -6.0, 12)
        if len(rows) != h_grid.size or any(len(r) != 9 for r in rows):
            return [f"{study.key}: malformed CSV"]
        if any(r[:5] != study.fields for r in rows):
            return [f"{study.key}: CSV rows name another study"]
        h = np.array([float(r[5]) for r in rows])
        errors = np.array([float(r[6]) for r in rows])
        slope, floor = float(rows[0][7]), float(rows[0][8])
        problems = []
        if not np.allclose(h, h_grid, rtol=1e-14, atol=0):
            problems.append("h column is not the default grid")
        if not (np.all(np.isfinite(errors)) and np.all(errors >= 0)):
            problems.append("errors not finite and non-negative")
        if np.any(np.diff(errors) > 0):
            problems.append("errors grow as h shrinks")
        if not (math.isfinite(slope) and slope > 0 and floor >= 0):
            problems.append(f"slope {slope}, floor {floor}")
        if any(float(r[7]) != slope or float(r[8]) != floor for r in rows):
            problems.append("slope or floor differs between rows")
        if recorded is not None:
            ref = [line.split(",") for line in recorded.splitlines()[1:]]
            ref_errors = np.array([float(r[6]) for r in ref])
            if not np.allclose(errors, ref_errors, rtol=REF_RTOL, atol=REF_ATOL):
                problems.append("errors differ from the recorded CSV")
            if abs(slope - float(ref[0][7])) > SLOPE_ATOL:
                problems.append(f"slope {slope} differs from recorded {ref[0][7]}")
            lo, hi = study.band
            if not lo <= slope <= hi:
                problems.append(f"slope {slope:.3f} outside band [{lo}, {hi}]")
        return [f"{study.key}: {p}" for p in problems]

    def slope_out_of_band(self, study: Study, output) -> bool:
        """Band test on any seed; reported, not counted as a failure."""
        code, text = output
        if code != 0:
            return False
        slope = float(text.splitlines()[1].split(",")[7])
        lo, hi = study.band
        return not lo <= slope <= hi


@dataclass(frozen=True)
class BasisJob:
    key: str
    case: gpw.TestCase
    center: tuple[float, float]
    q: int


class BasisHighQ:
    """Construction only: large bases, no matching or evaluation.

    q = 12 runs at every other center, so the items are one part cs q=8,
    one part Jc q=8 and half a part each at q=12: the median lands inside
    the q=8 group and p90 inside the q=12 group, not on the gap between.
    """

    name = "basis_high_q"
    expected = frozenset(_CONSTRUCTION)

    def __init__(self, centers: int = 34, orders: tuple[int, int] = (8, 12)) -> None:
        self.centers = centers
        self.orders = orders

    def items(self, seed: int) -> list[BasisJob]:
        rng = np.random.default_rng(seed)
        low, high = self.orders
        jobs = []
        for name in ("cs", "Jc"):
            case = gpw.case_by_name(name)
            for i, center in enumerate(gpw.draw_centers(case, self.centers, rng)):
                for q in (low, high) if i % 2 == 0 else (low,):
                    jobs.append(BasisJob(f"{name} {center!r} q={q}", case, center, q))
        return jobs

    def run(self, job: BasisJob):
        op = job.case.family.instantiate(job.center, q=job.q)
        return op, gpw.build_basis(op, 2 * job.q + 3)

    def check(self, job: BasisJob, output, reference: dict) -> list[str]:
        op, basis = output
        if basis.p != 2 * job.q + 3:
            return [f"{job.key}: basis has {basis.p} members"]
        worst = max(
            gpw.residual_series(op, fn.phase, job.q - 1).max_abs()
            for fn in basis.functions
        )
        if not worst < RESIDUAL_TOL:
            return [f"{job.key}: residual {worst:.2e} below order q"]
        return []


@dataclass(frozen=True)
class GridJob:
    key: str
    case: gpw.TestCase
    center: tuple[float, float]


class WaveGrid:
    """Trefftz-style use: match once, evaluate the combination on many points."""

    name = "wave_grid"
    expected = frozenset(_CONSTRUCTION | _MATCHING)
    radii = np.logspace(0.0, -6.0, 40)

    def __init__(self, centers: int = 30) -> None:
        self.centers = centers

    def items(self, seed: int) -> list[GridJob]:
        rng = np.random.default_rng(seed)
        jobs = []
        for name in ("Ad", "Jc", "JJ", "cs"):
            case = gpw.case_by_name(name)
            for center in gpw.draw_centers(case, self.centers, rng):
                jobs.append(GridJob(f"{name} {center!r}", case, center))
        return jobs

    def run(self, job: GridJob):
        case = job.case
        op = case.family.instantiate(job.center, q=3)
        basis = gpw.build_basis(op, 7)
        F = gpw.exact_solution_taylor(case, job.center, 3)
        match = gpw.taylor_match(gpw.assemble_gpw_matrix(basis, 3), F)
        points = [gpw.disk_points(job.center, h) for h in self.radii]
        xs = np.concatenate([p[0] for p in points])
        ys = np.concatenate([p[1] for p in points])
        values = sum(
            x_l * np.exp(fn.phase(xs, ys))
            for x_l, fn in zip(match.coefficients, basis.functions)
        )
        errors = np.abs(values - case.values(job.center, xs, ys))
        per_radius = errors.reshape(self.radii.size, -1).max(axis=1)
        return values, per_radius, match.residual

    def check(self, job: GridJob, output, reference: dict) -> list[str]:
        values, per_radius, residual = output
        problems = []
        if not np.all(np.isfinite(values)):
            problems.append("non-finite values")
        if not (residual < MATCH_TOL and per_radius[-1] < MATCH_TOL):
            problems.append(
                f"match residual {residual:.2e}, error {per_radius[-1]:.2e} "
                f"on the smallest disk"
            )
        recorded = reference.get("summary", {}).get(job.key)
        if recorded is not None:
            summary = wave_summary(output)
            if not np.allclose(summary, recorded, rtol=REF_RTOL, atol=REF_ATOL):
                problems.append(f"summary {summary} differs from recorded {recorded}")
        return [f"{job.key}: {p}" for p in problems]


def wave_summary(output) -> list[float]:
    """Recorded per wave_grid center: sum of values and largest error."""
    values, per_radius, _ = output
    total = complex(np.sum(values))
    return [total.real, total.imag, float(np.max(per_radius))]


WORKLOADS = {w.name: w for w in (OrderTable, BasisHighQ, WaveGrid)}
