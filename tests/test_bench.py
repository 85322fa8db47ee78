"""Tests for the benchmark harness.

Oracles: mpmath special-function evaluators (independent of the production
series and stacks), finite differences for derivative data, hand-computed
Maclaurin products for the trigonometric case, and synthetic error curves
with known slopes and floors for the order estimator.
"""

import inspect
import math
import sys

import mpmath
import numpy as np
import pytest

from gpw.bench import (
    CASE_NAMES,
    CSV_HEADER,
    DEFAULT_H_GRID,
    REPORT_FORMATS,
    ConvergenceReport,
    TestCase,
    builtin_cases,
    case_by_name,
    disk_points,
    draw_centers,
    emit_report,
    exact_solution_taylor,
    read_report_csv,
    run_convergence,
    substitution_residual,
    validate_case,
)
import gpw.bench
import gpw.operators
import gpw.special
from gpw.construction import build_basis
from gpw.interp import assemble_gpw_matrix, taylor_match
from gpw.operators import HypothesisError, check_hypotheses
from gpw.taylor2d import TaylorSeries2, index_of, tri_size, ts_derive, ts_mul
from series_oracles import ts_zero
from solution_oracles import ORACLES

mpmath.mp.dps = 30


def fd_third(f, x, h):
    return (
        -13 / 8 * (f(x + h) - f(x - h))
        + (f(x + 2 * h) - f(x - 2 * h))
        - 1 / 8 * (f(x + 3 * h) - f(x - 3 * h))
    ) / h**3


# --- case definitions ---------------------------------------------------------


def test_builtin_cases_shape():
    cases = builtin_cases()
    assert [c.name for c in cases] == ["Ad", "Jc", "JJ", "cs"]
    assert tuple(c.name for c in cases) == CASE_NAMES
    by_name = {c.name: c for c in cases}
    assert by_name["Ad"].domain == (-2.0, 2.0, -2.0, 2.0)
    assert by_name["JJ"].domain == (1.0, 3.0, 1.0, 3.0)
    assert by_name["cs"].domain == (-1.0, 1.0, -1.0, 1.0)
    assert by_name["Jc"].domain[3] == pytest.approx(2 * math.pi)
    assert by_name["Jc"].printed_family is not None
    assert all(by_name[k].printed_family is None for k in ("Ad", "JJ", "cs"))
    with pytest.raises(KeyError, match="choose from Ad, Jc, JJ, cs"):
        case_by_name("helmholtz")


# --- manufactured-solution validation ------------------------------------------


def test_validate_airy_case():
    report = validate_case(case_by_name("Ad"), trials=20, seed=3)
    assert report.max_residual < 1e-10
    assert report.passed


def test_validate_trig_case():
    report = validate_case(case_by_name("cs"), trials=20, seed=3)
    assert report.max_residual < 1e-12
    assert report.passed


def test_validate_bessel_product_case():
    report = validate_case(case_by_name("JJ"), trials=20, seed=3)
    assert report.max_residual < 1e-9
    assert report.passed


def test_validate_bessel_cos_both_signs():
    # The corrected zeroth-order coefficient passes; the sign as published
    # leaves a residual on the scale of 2|u| |1 - 2x^2 - sin y|, and the
    # report must state both outcomes.
    case = case_by_name("Jc")
    report = validate_case(case, trials=20, seed=3)
    assert report.max_residual < 1e-10
    assert report.passed
    assert report.printed_max_residual is not None
    assert report.printed_max_residual > 1e-2
    assert report.printed_passed is False
    lines = report.summary_lines()
    assert len(lines) == 2
    assert "PASS" in lines[0]
    assert "FAIL" in lines[1]


def test_printed_sign_residual_scale():
    # The two variants differ by 2 alpha_00 u, so the printed-sign residual's
    # constant coefficient is exactly 2 (1 - 2x^2 - sin y) u at the center,
    # and the reported max can only exceed it.
    case = case_by_name("Jc")
    center = (2.0, 1.0)
    op = case.printed_family.instantiate(center, q=1, coeff_order=2)
    u = TaylorSeries2(center, 4, exact_solution_taylor(case, center, 4))
    total = ts_zero(center, 2)
    for (k, l), alpha in op.coeffs.items():
        unscale = math.factorial(k) * math.factorial(l)
        total = total + unscale * ts_mul(alpha, ts_derive(u, (k, l)), order=2)
    x, y = center
    u0 = float(mpmath.besselj(1, x)) * math.cos(y)
    expected = 2 * (1 - 2 * x * x - math.sin(y)) * u0
    assert total[(0, 0)] == pytest.approx(expected, rel=1e-9)
    got = substitution_residual(case.printed_family, u)
    assert got >= abs(expected) * (1 - 1e-12)
    assert substitution_residual(case.family, u) < 1e-12


def test_substitution_residual_needs_order_two_plus_m():
    case = case_by_name("cs")
    u = TaylorSeries2((0.1, 0.2), 3, exact_solution_taylor(case, (0.1, 0.2), 3))
    with pytest.raises(ValueError, match="u needs order at least 4, got 3"):
        substitution_residual(case.family, u)


# --- exact solution Taylor data -------------------------------------------------


def test_trig_taylor_cells_at_origin():
    F = exact_solution_taylor(case_by_name("cs"), (0.0, 0.0), 3)
    assert F.shape == (tri_size(3),)
    assert F[index_of(0, 1)] == pytest.approx(1.0, abs=1e-15)
    assert F[index_of(2, 0)] == pytest.approx(0.0, abs=1e-15)
    assert F[index_of(2, 1)] == pytest.approx(-0.5, abs=1e-15)


def test_bessel_cos_third_derivative_matches_finite_differences():
    x0, y0 = 2.0, 1.0
    F = exact_solution_taylor(case_by_name("Jc"), (x0, y0), 3)
    j1 = lambda t: float(mpmath.besselj(1, t))
    want = fd_third(j1, x0, 0.02) * math.cos(y0) / math.factorial(3)
    assert F[index_of(3, 0)] == pytest.approx(want, abs=1e-7)


def test_product_taylor_cell():
    x0, y0 = 1.7, 2.2
    F = exact_solution_taylor(case_by_name("JJ"), (x0, y0), 2)
    want = float(mpmath.besselj(0, x0, derivative=1)) * float(
        mpmath.besselj(1, y0, derivative=1)
    )
    assert F[index_of(1, 1)] == pytest.approx(want, rel=1e-12)


def test_taylor_validity_errors():
    with pytest.raises(ValueError):
        exact_solution_taylor(case_by_name("Jc"), (-1.0, 1.0), 2)
    with pytest.raises(ValueError):
        exact_solution_taylor(case_by_name("JJ"), (1.5, 0.0), 2)
    for case in builtin_cases():
        center = draw_centers(case, 1, np.random.default_rng(0))[0]
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            exact_solution_taylor(case, center, -1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", CASE_NAMES)
def test_one_expansion_reproduces_the_separate_builders_bit_for_bit(name):
    # One expansion per center serves both the Taylor data and the disk
    # values; neither may move a bit against the builders that made each
    # from its own stacks.
    case = case_by_name(name)
    taylor, values = ORACLES[name]
    for center in draw_centers(case, 3, np.random.default_rng(17)):
        for n in (0, 1, 4, 40, 41):
            assert _same_bits(exact_solution_taylor(case, center, n), taylor(center, n))
        xs, ys = disk_points(center, DEFAULT_H_GRID)
        assert _same_bits(case.values(center, xs, ys), values(center, xs, ys))


@pytest.mark.parametrize(
    "name, validation_seeds, center_seeds",
    [("Ad", 1, 1), ("Jc", 1, 1), ("JJ", 2, 2), ("cs", 0, 0)],
)
def test_one_expansion_per_center_seed_counts(
    monkeypatch, name, validation_seeds, center_seeds
):
    # A seed (point value and slope in 50-digit decimals) starts each
    # derivative stack: validation checks both Jc operators on one expansion
    # per center, and a convergence study expands each accepted center once.
    calls = []

    def counted(seed):
        def wrapper(*args):
            calls.append(args)
            return seed(*args)
        return wrapper

    monkeypatch.setattr(gpw.special, "airy_seed", counted(gpw.special.airy_seed))
    monkeypatch.setattr(gpw.special, "bessel_seed", counted(gpw.special.bessel_seed))
    case = case_by_name(name)
    validate_case(case, trials=3)
    assert len(calls) == 3 * validation_seeds
    calls.clear()
    run_convergence(case, n=1, q=1, num_centers=2, h_grid=[1.0, 0.1, 0.01, 0.001])
    assert len(calls) == 20 * validation_seeds + 2 * center_seeds


# --- centers and sampling -------------------------------------------------------


def test_draw_centers_respects_margin():
    case = case_by_name("cs")
    rng = np.random.default_rng(5)
    centers = draw_centers(case, 200, rng)
    margin = 0.05 * math.hypot(2.0, 2.0)
    assert len(centers) == 200
    for x, y in centers:
        assert -1 + margin <= x <= 1 - margin
        assert -1 + margin <= y <= 1 - margin
    again = draw_centers(case, 200, np.random.default_rng(5))
    assert centers == again


def test_disk_points_pattern():
    xs, ys = disk_points((0.5, -0.25), 0.125)
    assert xs.shape == ys.shape == (257,)
    assert xs[0] == 0.5 and ys[0] == -0.25
    r = np.hypot(xs - 0.5, ys + 0.25)
    assert np.max(r) == pytest.approx(0.125, rel=1e-14)
    assert np.all(r <= 0.125 * (1 + 1e-12))


def test_disk_points_of_many_radii_concatenate_the_single_disks():
    center = (1.7, -0.3)
    h = np.logspace(0.0, -6.0, 12)
    xs, ys = disk_points(center, h)
    single = [disk_points(center, hv) for hv in h]
    assert np.array_equal(xs, np.concatenate([d[0] for d in single]))
    assert np.array_equal(ys, np.concatenate([d[1] for d in single]))
    assert xs.shape == (12 * 257,)


# --- order estimation ------------------------------------------------------------


def _synthetic_report(h, errors):
    return ConvergenceReport(
        case="cs", n=1, q=1, p=3, seed=0,
        h=np.asarray(h, float), errors=np.asarray(errors, float),
        slope=0.0, floor=0.0,
    )


def estimate_order(report):
    """(slope, floor) of a report's errors, fitted as run_convergence fits them."""
    gpw.bench._require_fit_grid(report.h)
    return gpw.bench._slope_and_floor(report.h, report.errors)


def test_estimate_order_pure_power():
    h = np.logspace(0, -6, 12)
    slope, floor = estimate_order(_synthetic_report(h, h**3))
    assert slope == pytest.approx(3.0, abs=1e-6)
    assert floor == 0.0


def test_estimate_order_with_floor():
    h = np.logspace(0, -6, 12)
    slope, floor = estimate_order(_synthetic_report(h, np.maximum(h**3, 1e-13)))
    assert slope == pytest.approx(3.0, abs=1e-6)
    assert floor == pytest.approx(1e-13, rel=1e-12)


def test_estimate_order_preconditions():
    h = np.logspace(0, -2, 3)
    with pytest.raises(ValueError, match="at least 4"):
        estimate_order(_synthetic_report(h, h**2))
    h = np.logspace(0, -6, 12)
    with pytest.raises(ValueError, match="too few usable points"):
        estimate_order(_synthetic_report(h, np.full(12, 1e-8)))


def test_report_invariants():
    with pytest.raises(ValueError, match="strictly decreasing"):
        _synthetic_report([1.0, 1.0, 0.1, 0.01], [1, 1, 1, 1])
    with pytest.raises(ValueError, match="non-negative"):
        _synthetic_report([1.0, 0.1], [1.0, -1.0])
    with pytest.raises(ValueError, match="matching shapes"):
        _synthetic_report([1.0, 0.1], [1.0])


# --- emission and parsing ---------------------------------------------------------


def test_csv_round_trip_exact():
    rng = np.random.default_rng(11)
    reports = []
    for i, case in enumerate(("Ad", "cs")):
        h = np.logspace(0, -6, 12)
        errors = np.sort(rng.uniform(1e-12, 1.0, 12))[::-1]
        reports.append(
            ConvergenceReport(
                case=case, n=2 + i, q=1, p=5 + 2 * i, seed=7,
                h=h, errors=errors, slope=rng.uniform(1, 6), floor=rng.uniform(0, 1e-9),
            )
        )
    text = emit_report(reports, format="csv")
    parsed = read_report_csv(text)
    assert len(parsed) == 2
    for got, want in zip(parsed, reports):
        assert got.case == want.case
        assert (got.n, got.q, got.p, got.seed) == (want.n, want.q, want.p, want.seed)
        assert np.array_equal(got.h, want.h)
        assert np.array_equal(got.errors, want.errors)
        assert got.slope == want.slope and got.floor == want.floor


def test_empty_report_is_header_only():
    text = emit_report([], format="csv")
    assert text == CSV_HEADER + "\n"
    assert read_report_csv(text) == []


def test_csv_schema_shape():
    h = np.logspace(0, -3, 10)
    report = ConvergenceReport(
        case="JJ", n=1, q=1, p=3, seed=0, h=h, errors=h**2, slope=2.0, floor=0.0
    )
    lines = emit_report(report, format="csv").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    slopes = {line.split(",")[7] for line in lines[1:]}
    floors = {line.split(",")[8] for line in lines[1:]}
    assert slopes == {"2"} and floors == {"0"}


def test_reports_compare_by_identity():
    # fields hold arrays, whose == has no single truth value
    h = np.array([1.0, 0.5, 0.25])
    a, b = _synthetic_report(h, h**2), _synthetic_report(h, h**2)
    assert a == a and a != b


def test_plotdata_blocks():
    h = np.array([1.0, 0.5, 0.25])
    r1 = ConvergenceReport(
        case="Ad", n=1, q=1, p=3, seed=0, h=h, errors=h**2, slope=2.0, floor=0.0
    )
    r2 = ConvergenceReport(
        case="cs", n=1, q=1, p=3, seed=0, h=h, errors=h**3, slope=3.0, floor=0.0
    )
    text = emit_report([r1, r2], format="plotdata")
    blocks = text.strip("\n").split("\n\n")
    assert len(blocks) == 2
    assert all(len(block.splitlines()) == 3 for block in blocks)
    first = blocks[0].splitlines()[0].split()
    assert float(first[0]) == 1.0 and float(first[1]) == 1.0
    with pytest.raises(ValueError, match="format"):
        emit_report([r1], format="json")


def test_unknown_report_format_names_the_choices():
    report = ConvergenceReport(
        case="cs", n=1, q=1, p=3, seed=0, h=np.array([1.0]), errors=np.array([1.0]),
        slope=2.0, floor=0.0,
    )
    assert REPORT_FORMATS == ("csv", "plotdata")
    for fmt in REPORT_FORMATS:
        emit_report(report, format=fmt)
    with pytest.raises(ValueError, match="format 'json'; choose from csv, plotdata"):
        emit_report(report, format="json")


def test_read_report_csv_malformed():
    with pytest.raises(ValueError, match="header"):
        read_report_csv("h,err\n1,2\n")
    with pytest.raises(ValueError, match="malformed"):
        read_report_csv(CSV_HEADER + "\ncs,1,1,3,0,1.0\n")
    with pytest.raises(ValueError, match=r"malformed CSV row 'cs,1,1,3,0,1.0,abc,2.0,0.0'"):
        read_report_csv(CSV_HEADER + "\ncs,1,1,3,0,1.0,abc,2.0,0.0\n")
    with pytest.raises(ValueError, match=r"malformed CSV row 'cs,x,1,3,0,1.0,0.5,2.0,0.0'"):
        read_report_csv(CSV_HEADER + "\ncs,x,1,3,0,1.0,0.5,2.0,0.0\n")
    with pytest.raises(ValueError, match="errors must be finite"):
        read_report_csv(CSV_HEADER + "\ncs,1,1,3,0,1.0,nan,2.0,0.0\n")


def test_emit_report_returns_text_and_writes_no_file():
    # the CLI's --out is the one writer of report files
    assert list(inspect.signature(emit_report).parameters) == ["reports", "format"]


# --- convergence runs --------------------------------------------------------------


def test_run_convergence_smoke_orders():
    # Reduced centers keep this quick; the acceptance suite runs the full
    # protocol.  q=1, n=1 should give second order, n=2 third order.
    case = case_by_name("cs")
    r1 = run_convergence(case, n=1, q=1, num_centers=5, seed=2)
    assert r1.p == 3
    assert abs(r1.slope - 2.0) < 0.6
    r2 = run_convergence(case, n=2, q=1, num_centers=5, seed=2)
    assert abs(r2.slope - 3.0) < 0.6


def test_run_convergence_errors_monotone_in_h():
    case = case_by_name("Ad")
    report = run_convergence(case, n=1, q=1, num_centers=3, seed=4)
    assert np.all(np.diff(report.errors) <= 0)
    assert np.all(report.errors >= 0)


def test_run_convergence_rejects_bad_grid():
    case = case_by_name("cs")
    with pytest.raises(ValueError, match="strictly decreasing"):
        run_convergence(case, n=1, q=1, num_centers=2, h_grid=[0.1, 0.5])


def test_run_convergence_rejects_bad_arguments_before_validating(monkeypatch):
    # every check runs before the case is validated or a center is drawn
    def no_work(*args, **kwargs):
        raise AssertionError("the study started")

    monkeypatch.setattr(gpw.bench, "validate_case", no_work)
    case = case_by_name("cs")
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        run_convergence(case, n=0, q=1, num_centers=2)
    with pytest.raises(ValueError, match="q must be at least 1, got 0"):
        run_convergence(case, n=1, q=0, num_centers=2)
    with pytest.raises(ValueError, match="number of centers must be at least 1, got 0"):
        run_convergence(case, n=1, q=1, num_centers=0)
    with pytest.raises(ValueError, match="at least 4 h values to estimate an order, got 3"):
        run_convergence(case, n=1, q=1, num_centers=2, h_grid=[0.5, 0.1, 0.01])


@pytest.mark.parametrize(
    "grid, message",
    [
        ([1.0, 0.1, 0.01, 0.0], "h values must be positive and finite, got 0.0"),
        ([0.1, 0.01, -0.01, -0.1], "h values must be positive and finite, got -0.01"),
        ([math.inf, 1.0, 0.1, 0.01], "h values must be positive and finite, got inf"),
        ([1.0, math.nan, 0.1, 0.01], "h values must be positive and finite, got nan"),
        ([[1.0, 0.1], [0.01, 0.001]], r"h grid must be one-dimensional, got shape \(2, 2\)"),
    ],
)
def test_run_convergence_rejects_bad_radii_before_any_work(monkeypatch, grid, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the study started")

    monkeypatch.setattr(gpw.bench, "validate_case", no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_convergence(case_by_name("cs"), n=1, q=1, num_centers=2, h_grid=grid)


def test_run_convergence_gates_on_validation():
    # A case wired to the wrong-sign operator must be refused.
    jc = case_by_name("Jc")
    broken = TestCase(
        name="Jc",
        family=jc.printed_family,
        domain=jc.domain,
        expand=jc.expand,
    )
    with pytest.raises(ValueError, match="validation"):
        run_convergence(broken, n=1, q=1, num_centers=2)


def test_run_convergence_redraws_only_on_hypothesis_errors(monkeypatch, caplog):
    case = case_by_name("cs")
    calls = []

    def first_center_fails(error):
        def fake(op):
            calls.append(op.center)
            if len(calls) == 1:
                raise error
            return check_hypotheses(op)
        return fake

    hypothesis_failure = HypothesisError("no usable symbol factorization")
    monkeypatch.setattr(gpw.operators, "check_hypotheses", first_center_fails(hypothesis_failure))
    with caplog.at_level("WARNING", logger="gpw.bench"):
        report = run_convergence(case, n=1, q=1, num_centers=2, seed=3)
    assert len(calls) == 3 and report.errors.shape == report.h.shape
    assert [r.getMessage().startswith("redrew center") for r in caplog.records] == [True]

    calls.clear()
    plain_failure = ValueError("bad argument")
    monkeypatch.setattr(gpw.operators, "check_hypotheses", first_center_fails(plain_failure))
    with pytest.raises(ValueError, match="bad argument"):
        run_convergence(case, n=1, q=1, num_centers=2, seed=3)
    assert len(calls) == 1


def test_study_checks_each_drawn_center_once(monkeypatch):
    # the redraw loop and the construction share one factorization per
    # operator; every module's binding is counted, as the benchmark tracer does
    calls = []

    def counted(op):
        calls.append(op.center)
        return check_hypotheses(op)

    for name, module in list(sys.modules.items()):
        if name.startswith("gpw") and getattr(module, "check_hypotheses", None) is check_hypotheses:
            monkeypatch.setattr(module, "check_hypotheses", counted)
    run_convergence(case_by_name("cs"), n=2, q=1, num_centers=3, seed=3)
    assert len(calls) == len(set(calls)) == 3


def test_studies_on_one_case_object_validate_it_once(monkeypatch):
    calls = []

    def counted(case, *args, **kwargs):
        calls.append(case.name)
        return validate_case(case, *args, **kwargs)

    monkeypatch.setattr(gpw.bench, "validate_case", counted)
    case = case_by_name("cs")
    run_convergence(case, n=1, q=1, num_centers=2, seed=3)
    run_convergence(case, n=2, q=1, num_centers=2, seed=3)
    assert calls == ["cs"]
    run_convergence(case_by_name("cs"), n=1, q=1, num_centers=2, seed=3)
    assert calls == ["cs", "cs"]  # case_by_name gives a fresh case object


def test_run_convergence_q_defaults_to_least_tangency():
    case = case_by_name("cs")
    default = run_convergence(case, n=3, num_centers=2, seed=3)
    assert default.q == 2
    assert emit_report(default) == emit_report(run_convergence(case, n=3, q=2, num_centers=2, seed=3))


def test_run_convergence_at_one_center():
    report = run_convergence(case_by_name("JJ"), n=2, q=1, num_centers=1, seed=5)
    assert report.errors.shape == report.h.shape
    assert np.all(np.isfinite(report.errors)) and report.slope > 0


def test_reproducibility_bytes():
    case = case_by_name("cs")
    a = emit_report(run_convergence(case, n=2, q=1, num_centers=5, seed=9))
    b = emit_report(run_convergence(case, n=2, q=1, num_centers=5, seed=9))
    assert a.encode() == b.encode()


def test_necessity_of_basis_count():
    # With p = 2n the matrix rank falls short of the Taylor space dimension,
    # so generic solution data cannot be matched: the relative residual must
    # be large at some centers.
    case = case_by_name("cs")
    n = 2
    rng = np.random.default_rng(13)
    centers = draw_centers(case, 20, rng)
    failures = 0
    for center in centers:
        op = case.family.instantiate(center, q=1)
        basis = build_basis(op, 2 * n)
        F = exact_solution_taylor(case, center, n)
        match = taylor_match(assemble_gpw_matrix(basis, n), F)
        if match.residual > 1e-6 * np.linalg.norm(F):
            failures += 1
    assert failures >= 1
