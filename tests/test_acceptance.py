"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible with ``pytest -s`` or on failure) in addition to its assertions.
Stated runtime budgets are asserted where a criterion carries one.
"""

import importlib
import math
import time
from pathlib import Path

import numpy as np

from gpw.bench import (
    builtin_cases,
    case_by_name,
    draw_centers,
    run_convergence,
    validate_case,
)
from gpw.cli import main as cli_main
from gpw.construction import (
    GpwNormalization,
    basis_angles,
    build_basis,
    construct_gpw,
    level_matrix,
)
from gpw.interp import assemble_gpw_matrix, assemble_reference_matrix, numeric_rank
from gpw.operators import (
    OperatorFamily,
    PdeOperator,
    check_hypotheses,
    principal_symbol_matrix,
    residual_series,
)
from gpw.taylor2d import graded_indices, indices, ts_from_dict
from faa_oracle import phase_operator_series_oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Criterion 7's studies and bands: (part, case, n, q, lo, hi).  The benchmark's
# order_table workload runs the same list; a test below holds the two equal.
DIAGONAL = [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4)]
CRITERION_7_JOBS = [
    ("7a", name, n, q, n + 1 - 0.35, n + 1 + 0.35)
    for name in ("Ad", "JJ", "cs")
    for n, q in DIAGONAL
]
CRITERION_7_JOBS += [("7a", "Jc", n, q, n + 1 - 0.35, n + 1 + 0.35) for n, q in DIAGONAL[:3]]
CRITERION_7_JOBS += [
    ("7b", "JJ", 4, 1, 2.7, 4.3),
    ("7b", "JJ", 4, 3, 4.6, math.inf),
    ("7b", "JJ", 4, 4, 4.6, math.inf),
]


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")


def _helmholtz(kappa: float) -> OperatorFamily:
    return OperatorFamily(
        M=2, terms={(2, 0): "-1", (0, 2): "-1", (0, 0): f"-{kappa**2!r}"}
    )


def _single_wave(op, theta: float):
    check_hypotheses(op)  # raises unless both hypotheses hold at the center
    return construct_gpw(op, [GpwNormalization(theta=theta)]).functions[0]


def test_criterion_1_defining_property():
    """Residual coefficients of order < q vanish: 4 operators x 50 centers
    x q in 1..5, 1e-11 relative, under 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in builtin_cases():
        centers = draw_centers(case, 50, rng)
        for center in centers:
            for q in range(1, 6):
                op = case.family.instantiate(center, q=q)
                gpw = _single_wave(op, theta=rng.uniform(0.0, 2.0 * math.pi))
                res = residual_series(op, gpw.phase, q - 1)
                rel = res.max_abs() / max(1.0, gpw.phase.max_abs())
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-11 and elapsed < 30.0
    _report(
        "criterion 1 (defining property)",
        ok,
        f"max relative residual coefficient {worst:.3e} "
        f"(tolerance 1e-11), {elapsed:.1f}s (budget 30s)",
    )
    assert worst < 1e-11
    assert elapsed < 30.0


def test_criterion_2_plane_wave_reduction():
    """Constant-coefficient Helmholtz collapses to classical plane waves:
    all phase coefficients of order >= 2 below 1e-13, 8 angles, under 1 s."""
    started = time.perf_counter()
    worst = 0.0
    for kappa in (1.0, 2.5):
        op = _helmholtz(kappa).instantiate((0.0, 0.0), q=3)
        basis = build_basis(op, 8)
        for gpw in basis.functions:
            for i, j in graded_indices(gpw.degree):
                if i + j >= 2:
                    worst = max(worst, abs(gpw[(i, j)]))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-13 and elapsed < 1.0
    _report(
        "criterion 2 (plane-wave reduction)",
        ok,
        f"max |order >= 2 coefficient| {worst:.3e} (tolerance 1e-13), "
        f"kappa in {{1, 2.5}}, 8 angles, {elapsed:.2f}s (budget 1s)",
    )
    assert worst < 1e-13
    assert elapsed < 1.0


def test_criterion_3_derivative_recurrence_vs_partitions():
    """The ratio recurrence and the partition-sum oracle agree on all
    coefficients through order 4, operator orders 2 and 3, 50 random
    trials each, 1e-12 relative, under 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    Q = 4
    worst = 0.0
    for M in (2, 3):
        for _ in range(50):
            center = (rng.uniform(-1, 1), rng.uniform(-1, 1))

            def random_series(order):
                values = {
                    ij: complex(*rng.uniform(-1, 1, 2))
                    for ij in indices(order)
                }
                return ts_from_dict(center, order, values)

            phase = random_series(Q + M)
            coeffs = {
                (k, l): random_series(Q)
                for k in range(M + 1)
                for l in range(M + 1 - k)
                if 1 <= k + l
            }
            op = PdeOperator(M=M, center=center, coeffs=coeffs, q=1)
            got = residual_series(op, phase, Q).coeffs  # no (0,0) term
            want = phase_operator_series_oracle(coeffs, M, phase, Q).coeffs
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 10.0
    _report(
        "criterion 3 (derivative-ratio equivalence)",
        ok,
        f"max relative deviation {worst:.3e} (tolerance 1e-12), "
        f"orders <= 4, M in {{2, 3}}, 50 trials each, {elapsed:.1f}s (budget 10s)",
    )
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_4_layer_determinant_formula():
    """det of the layer system equals the closed-form product for
    M in {2,3,4}, layer L in 0..4, random leading coefficients, 1e-10."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for M in (2, 3, 4):
        for L in range(5):
            coeffs = {(k, M - k): rng.standard_normal() for k in range(M + 1)}
            op = OperatorFamily(
                M=M, terms={ij: f"{c!r}" for ij, c in coeffs.items()}
            ).instantiate((0.0, 0.0), q=L + 1)
            got = np.linalg.det(level_matrix(op, L))
            want = coeffs[(M, 0)] ** (L + 1)
            for I in range(L + 1):
                want *= math.factorial(I + M) / math.factorial(I)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-10
    _report(
        "criterion 4 (layer determinant formula)",
        ok,
        f"max relative deviation {worst:.3e} (tolerance 1e-10), "
        "M in {2,3,4}, L in 0..4",
    )
    assert worst < 1e-10


def test_criterion_5_rank_characterization():
    """Reference matrices reach rank 2n+1 exactly when p >= 2n+1, and the
    wave matrices match the reference rank for Ad and cs at 10 centers."""
    rng = np.random.default_rng(51)
    iff_ok = True
    for n in range(1, 5):
        for p in (2 * n - 1, 2 * n, 2 * n + 1, 2 * n + 2):
            rank = numeric_rank(assemble_reference_matrix(basis_angles(p), n))
            iff_ok &= (rank == 2 * n + 1) == (p >= 2 * n + 1)

    equal_ok = True
    for name in ("Ad", "cs"):
        case = case_by_name(name)
        centers = draw_centers(case, 10, rng)
        for center in centers:
            for n in range(1, 5):
                op = case.family.instantiate(center, q=max(1, n - 1))
                for p in (2 * n - 1, 2 * n, 2 * n + 1, 2 * n + 2):
                    basis = build_basis(op, p)
                    gpw_rank = numeric_rank(assemble_gpw_matrix(basis, n))
                    ref_rank = numeric_rank(
                        assemble_reference_matrix(basis.angles, n)
                    )
                    equal_ok &= gpw_rank == ref_rank
    ok = iff_ok and equal_ok
    _report(
        "criterion 5 (rank characterization)",
        ok,
        f"full rank iff p >= 2n+1: {iff_ok}; wave rank equals reference "
        f"rank on Ad and cs at 10 centers: {equal_ok} (threshold 1e-9)",
    )
    assert iff_ok
    assert equal_ok


def test_criterion_6_first_order_pair_normalization():
    """The first-order pair lies on the symbol quadric: the quadratic form
    evaluates to -kappa^2 for every member, all cases, 20 centers, 1e-12."""
    rng = np.random.default_rng(61)
    worst = 0.0
    for case in builtin_cases():
        centers = draw_centers(case, 20, rng)
        for center in centers:
            op = case.family.instantiate(center, q=2)
            basis = build_basis(op, 5)
            gamma = principal_symbol_matrix(op)
            want = -basis.kappa**2
            for gpw in basis.functions:
                v = np.array(gpw.first_order_pair())
                worst = max(worst, abs(v @ gamma @ v - want) / abs(want))
    ok = worst < 1e-12
    _report(
        "criterion 6 (quadric normalization)",
        ok,
        f"max relative deviation from -kappa^2: {worst:.3e} "
        "(tolerance 1e-12), 5 members, 4 cases, 20 centers",
    )
    assert worst < 1e-12


def test_criterion_7_order_table():
    """Convergence-order table at 50 centers, h in [1e-6, 1], p = 2n+1:
    (a) diagonal (n,q) orders approach n+1 within +-0.35 for Ad, JJ, cs
        (Jc, sign-corrected, for n <= 3);
    (b) the n=4 row on JJ: q=1 lands in [2.7, 4.3], q in {3,4} reaches 4.6;
    all under 10 minutes."""
    started = time.perf_counter()
    jobs = CRITERION_7_JOBS
    failures = []
    for part, name, n, q, lo, hi in jobs:
        report = run_convergence(case_by_name(name), n=n, q=q, seed=1)
        ok = lo <= report.slope <= hi
        if not ok:
            failures.append(f"{name} (n={n}, q={q}): {report.slope:.3f}")
        band = f"[{lo}, {hi}]" if math.isfinite(hi) else f">= {lo}"
        _report(
            f"criterion {part} {name} (n={n}, q={q})",
            ok,
            f"fitted order {report.slope:.3f}, band {band}, "
            f"floor {report.floor:.1e}",
        )
    elapsed = time.perf_counter() - started
    _report(
        "criterion 7 (order table)",
        not failures and elapsed < 600.0,
        f"{len(jobs) - len(failures)}/{len(jobs)} bands met, "
        f"{elapsed:.0f}s (budget 600s)"
        + (f"; out of band: {'; '.join(failures)}" if failures else ""),
    )
    assert not failures
    assert elapsed < 600.0


def test_criterion_7_jobs_are_the_benchmark_order_table(monkeypatch):
    """The benchmark's order_table workload runs criterion 7's studies with
    criterion 7's bands: one list, written twice, held equal here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    studies = workloads.OrderTable().items(seed=1)
    benchmark = {
        (s.fields[0], int(s.fields[1]), int(s.fields[2]), *s.band) for s in studies
    }
    assert len(studies) == len(CRITERION_7_JOBS) == 21
    assert benchmark == {job[1:] for job in CRITERION_7_JOBS}


def test_criterion_8_manufactured_solution_validation():
    """Substituting each exact solution into its operator: Ad, JJ, cs pass
    below 1e-9; Jc passes sign-corrected and fails as published, with both
    outcomes stated in the report."""
    lines = []
    ok = True
    for name in ("Ad", "JJ", "cs"):
        result = validate_case(case_by_name(name))
        lines.extend(result.summary_lines())
        ok &= result.passed and result.max_residual < 1e-9
    jc = validate_case(case_by_name("Jc"))
    lines.extend(jc.summary_lines())
    ok &= jc.passed and jc.printed_passed is False
    report_states_both = (
        sum("-> PASS" in line for line in lines) == 4
        and sum("-> FAIL" in line for line in lines) == 1
    )
    ok &= report_states_both
    for line in lines:
        print(line)
    _report(
        "criterion 8 (manufactured solutions)",
        ok,
        "Ad, JJ, cs < 1e-9; Jc corrected passes and published sign fails, "
        f"both stated: {report_states_both}",
    )
    assert ok


def test_criterion_9_csv_determinism(tmp_path):
    """Two identical CLI convergence runs emit byte-identical CSV."""
    argv = ["convergence", "--case", "cs", "--n", "3", "--q", "2", "--seed", "7"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(
        "criterion 9 (determinism)",
        identical,
        f"two runs of `{' '.join(['gpw'] + argv)}`: byte-identical = {identical}",
    )
    assert identical
