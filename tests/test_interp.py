"""Tests for coefficient-matrix assembly, rank counting, and matching solves.

The reference rows have closed forms, so most expectations here are direct
formula evaluations; the exact-solution matching tests draw their coefficient
vectors from the trigonometric product solution (closed form) and from the
Airy derivative stack.  The classical and transition companion matrices and
the pointwise evaluation of a matched combination are oracles kept here; the
package builds only the wave and reference matrices, each as a batch of
series with one row per function, so the rows × p matrix is ``coeffs.T``.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

import gpw
import gpw.interp
from gpw.bench import CASE_NAMES, case_by_name, draw_centers, exact_solution_taylor
from gpw.construction import GpwBasis, build_basis
from gpw.interp import (
    MatchingOrderWarning,
    assemble_gpw_matrix,
    assemble_reference_matrix,
    numeric_rank,
    taylor_match,
)
from gpw.operators import OperatorFamily
from gpw.special import airy_derivative_stack
from gpw.taylor2d import TaylorSeries2, index_of, indices, tri_size, ts_exp, ts_from_dict
from series_oracles import term_magnitude, term_sum

AIRY = OperatorFamily(
    M=2,
    terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "2*x + 2*y"},
)
BESSEL_COS = OperatorFamily(
    M=2,
    terms={
        (2, 0): "x**2",
        (0, 2): "x**2",
        (1, 0): "x",
        (0, 1): "cos(y)",
        (0, 0): "2*x**2 + sin(y) - 1",
    },
)
BESSEL_PRODUCT = OperatorFamily(
    M=2,
    terms={
        (2, 0): "x**2",
        (0, 2): "y**2",
        (1, 0): "x",
        (0, 1): "y",
        (0, 0): "x**2 + y**2 - 1",
    },
)
TRIG = OperatorFamily(
    M=2,
    terms={
        (2, 0): "1",
        (1, 1): "0.2*cos(x)*sin(y)",
        (0, 2): "-2",
        (0, 0): "0.2*sin(x)*cos(y) - 1",
    },
)

FAMILY_CENTERS = [
    (AIRY, [(0.3, -0.8), (-1.1, 0.6)]),
    (BESSEL_COS, [(2.0, 1.0), (3.1, 4.5)]),
    (BESSEL_PRODUCT, [(1.7, 2.2), (2.4, 1.3)]),
    (TRIG, [(0.2, -0.4), (-0.5, 0.7)]),
]


def helmholtz(kappa):
    return OperatorFamily(
        M=2, terms={(2, 0): "-1", (0, 2): "-1", (0, 0): f"-{kappa**2!r}"}
    )


# --- oracles -----------------------------------------------------------------


def _power_rows(columns, n):
    # the rows × p matrix: row (k1, k2), column l is a_l^k1 b_l^k2 / (k1! k2!)
    entries = np.empty((tri_size(n), len(columns)), dtype=complex)
    for row, (k1, k2) in enumerate(indices(n)):
        w = 1.0 / (math.factorial(k1) * math.factorial(k2))
        for col, (a, b) in enumerate(columns):
            entries[row, col] = a**k1 * b**k2 * w
    return entries


def classical_matrix(angles, n, kappa):
    """Row (k1, k2): the reference row times (i kappa)^(k1+k2), the Taylor
    data of the classical plane waves exp(i kappa (cos t, sin t).(x, y))."""
    return _power_rows(
        [(1j * kappa * math.cos(t), 1j * kappa * math.sin(t)) for t in angles], n
    )


def transition_matrix(pairs, n):
    """Row (k1, k2): (l10_l)^k1 (l01_l)^k2 / (k1! k2!), from the first-order
    pairs alone."""
    return _power_rows([(complex(a), complex(b)) for a, b in pairs], n)


def evaluate_combination(basis, X, point):
    """Value of sum_l X_l exp(P_l) at the point, one wave at a time."""
    X = np.asarray(X, dtype=complex).ravel()
    if X.shape[0] != basis.p:
        raise ValueError(f"{X.shape[0]} coefficients for {basis.p} functions")
    total = 0j
    for x_l, gpw in zip(X, basis.functions):
        if x_l != 0:
            total += x_l * cmath.exp(gpw.phase(*point))
    return total


# --- assembly ----------------------------------------------------------------


def test_row_offset_matches_triangular_layout():
    angles = [0.1, 0.9, 2.2, 3.8, 5.1]
    mat = assemble_reference_matrix(angles, 2)
    assert mat.coeffs.shape == (5, 6) and mat.center == (0.0, 0.0)
    for l, t in enumerate(angles):
        wave = TaylorSeries2(mat.center, 2, mat.coeffs[l])
        for k1, k2 in indices(2):
            offset = (k1 + k2) * (k1 + k2 + 1) // 2 + k2
            assert wave[(k1, k2)] == mat.coeffs.T[offset, l]
        # the series of exp(x cos t + y sin t) about the origin
        plane = ts_exp(ts_from_dict(mat.center, 2, {(1, 0): math.cos(t), (0, 1): math.sin(t)}))
        np.testing.assert_allclose(wave.coeffs, plane.coeffs, rtol=1e-14, atol=1e-16)


def test_gpw_matrix_normalized_rows():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    basis = build_basis(op, 4)
    mat = assemble_gpw_matrix(basis, 2)
    assert mat.center == op.center
    assert np.array_equal(mat.coeffs[:, index_of(0, 0)], np.ones(4))
    pairs = [gpw.first_order_pair() for gpw in basis.functions]
    assert np.array_equal(mat.coeffs[:, index_of(1, 0)], np.array([a for a, _ in pairs]))
    assert np.array_equal(mat.coeffs[:, index_of(0, 1)], np.array([b for _, b in pairs]))


def test_gpw_matrix_order1_equals_transition():
    for fam, centers in FAMILY_CENTERS:
        op = fam.instantiate(centers[0], q=1)
        basis = build_basis(op, 3)
        gpw_mat = assemble_gpw_matrix(basis, 1)
        pairs = [gpw.first_order_pair() for gpw in basis.functions]
        trans = transition_matrix(pairs, 1)
        assert np.array_equal(gpw_mat.coeffs.T, trans)


def test_reference_rows_at_axis_angles():
    mat = assemble_reference_matrix([0.0, math.pi / 2, math.pi], 1)
    want = np.array([[1, 1, 1], [1, 0, -1], [0, 1, 0]], dtype=complex)
    assert np.allclose(mat.coeffs.T, want, atol=1e-15)
    assert numeric_rank(mat) == 3


def test_classical_is_block_scaled_reference():
    angles = [0.3 + 1.1 * l for l in range(6)]
    kappa = 1.7
    ref = assemble_reference_matrix(angles, 3)
    cla = classical_matrix(angles, 3, kappa)
    for row, (k1, k2) in enumerate(indices(3)):
        scale = (1j * kappa) ** (k1 + k2)
        assert np.allclose(cla[row], scale * ref.coeffs.T[row], rtol=1e-14)


def test_transition_matches_classical_for_constant_coefficients():
    op = helmholtz(2.0).instantiate((0.5, -0.5), q=2)
    basis = build_basis(op, 5)
    pairs = [gpw.first_order_pair() for gpw in basis.functions]
    trans = transition_matrix(pairs, 3)
    cla = classical_matrix(basis.angles, 3, 2.0)
    assert np.allclose(trans, cla, rtol=1e-13, atol=1e-15)


def test_assembly_argument_errors():
    with pytest.raises(ValueError, match="duplicate"):
        assemble_reference_matrix([0.0, 2 * math.pi], 1)


def test_gpw_matrix_warns_when_order_exceeds_guarantee():
    # a caller that sweeps q < n-1 on purpose silences this class, not a message
    op = TRIG.instantiate((0.2, -0.4), q=1)
    basis = build_basis(op, 7)
    with pytest.warns(MatchingOrderWarning, match="q=1"):
        mat = assemble_gpw_matrix(basis, 3)
    assert mat.coeffs.shape == (7, tri_size(3))
    assert issubclass(MatchingOrderWarning, UserWarning)
    assert "MatchingOrderWarning" not in gpw.__all__


@pytest.mark.parametrize("name", CASE_NAMES)
def test_batched_gpw_matrix_equals_the_per_basis_calls(name):
    # all bases' phases go through one ts_exp call; each basis's rows come
    # out bit for bit as its own call gives them, truncated (n=2) or padded (n=6)
    case = case_by_name(name)
    centers = draw_centers(case, 4, np.random.default_rng(3))
    bases = build_basis([case.family.instantiate(c, q=3) for c in centers], 7)
    for n in (2, 6):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MatchingOrderWarning)
            batch = assemble_gpw_matrix(bases, n)
            alone = [assemble_gpw_matrix(basis, n) for basis in bases]
        assert (batch.center, batch.order) == (bases[0].operator.center, n)
        assert batch.coeffs.shape == (len(bases), 7, tri_size(n))
        for rows, single in zip(batch.coeffs, alone):
            assert np.array_equal(rows.view(float), single.coeffs.view(float))


def test_batched_gpw_matrix_rejects_mixed_bases():
    ops = [TRIG.instantiate(c, q=2) for c in ((0.2, -0.4), (-0.5, 0.7))]
    five, seven = build_basis(ops[0], 5), build_basis(ops[1], 7)
    with pytest.raises(ValueError, match=r"differ in size p: \[5, 7\]"):
        assemble_gpw_matrix([five, seven], 2)
    deeper = build_basis(TRIG.instantiate((-0.5, 0.7), q=3), 5)
    with pytest.raises(ValueError, match=r"differ in phase degree: \[3, 4\]"):
        assemble_gpw_matrix([five, deeper], 2)
    with pytest.raises(ValueError, match="at least one basis"):
        assemble_gpw_matrix([], 2)
    # a basis without waves is refused where it is built
    empty = TaylorSeries2(ops[0].center, 3, np.zeros((0, tri_size(3))))
    with pytest.raises(ValueError, match="phases must hold at least one wave"):
        GpwBasis(ops[0], empty, ())


# --- rank --------------------------------------------------------------------


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.zeros((4, 2))) == 0
    mat = assemble_reference_matrix([0.2 * l for l in range(11)], 4)
    assert numeric_rank(mat) == 9  # capped at 2n+1 despite p = 11


def test_rank_iff_enough_directions():
    for n in range(1, 5):
        for p in (2 * n - 1, 2 * n, 2 * n + 1, 2 * n + 2):
            angles = [math.pi / 6 + 2 * math.pi * l / p for l in range(p)]
            rank = numeric_rank(assemble_reference_matrix(angles, n))
            assert (rank == 2 * n + 1) == (p >= 2 * n + 1)


def test_gpw_rank_equals_reference_rank():
    for fam, centers in FAMILY_CENTERS:
        for center in centers:
            for n in range(1, 5):
                p = 2 * n + 1
                op = fam.instantiate(center, q=max(1, n - 1))
                basis = build_basis(op, p)
                got = numeric_rank(assemble_gpw_matrix(basis, n))
                want = numeric_rank(assemble_reference_matrix(basis.angles, n))
                assert got == want == 2 * n + 1


def test_higher_order_rows_lie_in_lower_transition_span():
    # the coefficient rows of order K differ from the pure-exponent rows
    # only by combinations of lower-order data
    for fam, centers in FAMILY_CENTERS:
        op = fam.instantiate(centers[0], q=4)
        basis = build_basis(op, 9)
        mat = assemble_gpw_matrix(basis, 4)
        pairs = [gpw.first_order_pair() for gpw in basis.functions]
        trans = transition_matrix(pairs, 4)
        diff = mat.coeffs.T - trans
        for K in range(1, 5):
            block = diff[tri_size(K - 1): tri_size(K)]
            span = trans[: tri_size(K - 1)]
            sol, _, _, _ = np.linalg.lstsq(span.T, block.T, rcond=None)
            err = np.linalg.norm(span.T @ sol - block.T)
            assert err < 1e-9 * max(1.0, np.linalg.norm(block))


# --- matching ----------------------------------------------------------------


def test_match_reproduces_member_column():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    basis = build_basis(op, 7)
    mat = assemble_gpw_matrix(basis, 3)
    F = mat.coeffs[0]
    match = taylor_match(mat, F)
    assert match.residual < 1e-12 * np.linalg.norm(F)
    assert np.allclose(mat.coeffs.T @ match.coefficients, F, atol=1e-12)


def test_matches_compare_by_identity():
    # fields hold arrays, whose == has no single truth value
    mat = assemble_gpw_matrix(build_basis(TRIG.instantiate((0.2, -0.4), q=2), 5), 2)
    a, b = taylor_match(mat, mat.coeffs[0]), taylor_match(mat, mat.coeffs[0])
    assert a == a and a != b


def test_match_dimension_mismatch():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    mat = assemble_gpw_matrix(build_basis(op, 5), 2)
    with pytest.raises(ValueError, match="entries"):
        taylor_match(mat, np.ones(4))


def test_match_and_evaluate_plane_wave():
    kappa, center = 1.5, (0.2, -0.3)
    op = helmholtz(kappa).instantiate(center, q=2)
    basis = build_basis(op, 7)
    theta = basis.angles[1]
    exponent = 1j * kappa * np.array([math.cos(theta), math.sin(theta)])

    def wave(x, y):
        return cmath.exp(exponent[0] * (x - center[0]) + exponent[1] * (y - center[1]))

    arr = np.zeros(tri_size(3), dtype=complex)
    arr[index_of(1, 0)], arr[index_of(0, 1)] = exponent
    F = ts_exp(TaylorSeries2(center, 3, arr)).coeffs
    match = taylor_match(assemble_gpw_matrix(basis, 3), F)
    assert match.residual < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(10):
        point = (center[0] + rng.uniform(-0.5, 0.5), center[1] + rng.uniform(-0.5, 0.5))
        got = evaluate_combination(basis, match.coefficients, point)
        want = wave(*point)
        assert got == pytest.approx(want, rel=1e-12)


def test_match_airy_solution_data():
    rng = np.random.default_rng(9)
    for _ in range(3):
        center = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        op = AIRY.instantiate(center, q=2)
        basis = build_basis(op, 7)
        mat = assemble_gpw_matrix(basis, 3)
        stack = airy_derivative_stack(center[0] + center[1], 3)
        F = np.array(
            [
                stack[k1 + k2] / (math.factorial(k1) * math.factorial(k2))
                for k1, k2 in indices(3)
            ],
            dtype=complex,
        )
        match = taylor_match(mat, F)
        assert match.residual < 1e-9 * np.linalg.norm(F)


def test_match_row_weights_steer_the_mismatch():
    # Five members cannot match a generic order-2 jet (six conditions), so the
    # solve must leave a mismatch somewhere; weighting rows by h**order for a
    # small h forces it onto the high-order conditions.
    op = TRIG.instantiate((0.2, -0.4), q=1)
    basis = build_basis(op, 5)
    mat = assemble_gpw_matrix(basis, 2)
    rng = np.random.default_rng(4)
    F = rng.normal(size=tri_size(2)) + 1j * rng.normal(size=tri_size(2))
    plain = taylor_match(mat, F)
    orders = np.array([k1 + k2 for k1, k2 in indices(2)], dtype=float)
    weighted = taylor_match(mat, F, rcond=None, row_weights=1e-3**orders)
    row_errors = np.abs(mat.coeffs.T @ weighted.coefficients - F)
    assert np.abs(mat.coeffs.T @ plain.coefficients - F)[0] > 0.1
    assert row_errors[0] < 1e-11
    # the reported residual stays on the unweighted system, where the plain
    # least-squares solution is optimal by definition
    assert weighted.residual >= plain.residual > 1.0


def test_match_row_weights_length_mismatch():
    op = TRIG.instantiate((0.2, -0.4), q=1)
    mat = assemble_gpw_matrix(build_basis(op, 5), 2)
    rows = tri_size(2)
    for weights in (np.ones(rows - 1), np.ones((2, rows + 1)), np.ones((2, 2, rows)), 1.0):
        with pytest.raises(ValueError, match="row weights"):
            taylor_match(mat, np.ones(rows), row_weights=weights)


def test_match_stacked_row_weights_equal_the_per_row_calls():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    mat = assemble_gpw_matrix(build_basis(op, 7), 3)
    rng = np.random.default_rng(6)
    F = rng.normal(size=tri_size(3)) + 1j * rng.normal(size=tri_size(3))
    orders = np.array([k1 + k2 for k1, k2 in indices(3)], dtype=float)
    h = np.logspace(0.0, -6.0, 12)
    weights = h[:, None] ** orders
    stacked = taylor_match(mat, F, rcond=None, row_weights=weights)
    assert stacked.coefficients.shape == (h.size, 7)
    assert stacked.residual.shape == (h.size,)
    for k, w in enumerate(weights):
        alone = taylor_match(mat, F, rcond=None, row_weights=w)
        assert np.array_equal(stacked.coefficients[k].view(float), alone.coefficients.view(float))
        assert stacked.residual[k] == alone.residual
        # the residual of one unstacked solve, bit for bit as it was reported
        # before weights could be stacked: one product with the contiguous
        # rows × p matrix (the transposed view would move its last bits)
        entries = np.ascontiguousarray(mat.coeffs.T)
        assert alone.residual == float(np.linalg.norm(entries @ alone.coefficients - F))
    with pytest.raises(ValueError, match="row weights"):
        taylor_match(mat, F, row_weights=weights[:, :-1])


def test_match_without_weights_is_the_match_with_unit_weights():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    mat = assemble_gpw_matrix(build_basis(op, 7), 3)
    rng = np.random.default_rng(8)
    F = rng.normal(size=tri_size(3)) + 1j * rng.normal(size=tri_size(3))
    plain = taylor_match(mat, F)
    ones = taylor_match(mat, F, row_weights=np.ones(tri_size(3)))
    stacked = taylor_match(mat, F, row_weights=np.ones((1, tri_size(3))))
    for coefficients in (ones.coefficients, stacked.coefficients[0]):
        assert np.array_equal(coefficients.view(float), plain.coefficients.view(float))
    assert isinstance(plain.residual, float)
    assert plain.residual == ones.residual == stacked.residual[0]


def test_match_residual_is_computed_when_read():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    mat = assemble_gpw_matrix(build_basis(op, 7), 3)
    F = mat.coeffs[2] + 0.5
    h = np.logspace(0.0, -3.0, 4)
    orders = np.array([k1 + k2 for k1, k2 in indices(3)], dtype=float)
    match = taylor_match(mat, F, rcond=None, row_weights=h[:, None] ** orders)
    assert "residual" not in vars(match)
    residual = match.residual
    assert vars(match)["residual"] is residual is match.residual
    entries = np.ascontiguousarray(mat.coeffs.T)
    want = [np.linalg.norm(entries @ x - F) for x in match.coefficients]
    assert residual.tolist() == want


@pytest.mark.parametrize("name", CASE_NAMES)
def test_stacked_match_is_np_linalg_lstsq_row_by_row(name):
    # the stacked solve against one np.linalg.lstsq call per row of weights,
    # at lstsq's own cutoff (None) and at a fixed one, on the study's data
    case = case_by_name(name)
    n = 4
    centers = draw_centers(case, 3, np.random.default_rng(5))
    bases = build_basis([case.family.instantiate(c, q=3) for c in centers], 2 * n + 1)
    orders = np.array([k1 + k2 for k1, k2 in indices(n)], dtype=float)
    weights = np.logspace(0.0, -6.0, 12)[:, None] ** orders
    for basis in bases:
        mat = assemble_gpw_matrix(basis, n)
        F = exact_solution_taylor(case, basis.operator.center, n).astype(complex)
        A = np.ascontiguousarray(mat.coeffs.T)
        for rcond in (None, 1e-9):
            stacked = taylor_match(mat, F, rcond=rcond, row_weights=weights)
            for w, got in zip(weights, stacked.coefficients):
                want = np.linalg.lstsq(A * w[:, None], F * w, rcond=rcond)[0]
                assert np.array_equal(got.view(float), want.view(float))
            single = taylor_match(mat, F, rcond=rcond).coefficients
            want = np.linalg.lstsq(A, F, rcond=rcond)[0]
            assert np.array_equal(single.view(float), want.view(float))


def test_match_raises_linalg_error_like_lstsq():
    # a NaN in the matrix stops the SVD: the same LinAlgError lstsq raises
    op = TRIG.instantiate((0.2, -0.4), q=2)
    mat = assemble_gpw_matrix(build_basis(op, 5), 2)
    coeffs = mat.coeffs.copy()
    coeffs[0, 1] = np.nan
    broken = TaylorSeries2(mat.center, mat.order, coeffs)
    F = np.ones(tri_size(2))
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(np.ascontiguousarray(broken.coeffs.T), F.astype(complex))
    with pytest.raises(np.linalg.LinAlgError) as got:
        taylor_match(broken, F, rcond=None)
    assert str(got.value) == str(want.value)


def test_missing_lstsq_gufunc_names_the_numpy_version(monkeypatch):
    from numpy.linalg import _umath_linalg

    monkeypatch.delattr(_umath_linalg, "lstsq")
    with pytest.raises(ImportError, match=f"numpy {re.escape(np.__version__)} does not"):
        gpw.interp._stacked_lstsq()


# --- evaluation ----------------------------------------------------------------


def test_horner_matches_term_summation():
    rng = np.random.default_rng(13)
    arr = rng.standard_normal(tri_size(4)) + 1j * rng.standard_normal(tri_size(4))
    series = TaylorSeries2((0.4, -0.2), 4, arr)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, size=2)
        got = series(x, y)
        assert isinstance(got, complex)
        assert abs(got - term_sum(series, x, y)) <= 1e-13 * term_magnitude(series, x, y)


def test_gpw_matrix_columns_are_per_wave_exponentials():
    # one batched ts_exp per basis gives the per-wave columns bit for bit,
    # with the phases truncated (q=4, n=3) or zero-padded (q=1, n=3)
    for q in (4, 1):
        basis = build_basis(TRIG.instantiate((0.2, -0.4), q=q), 9)
        if q >= 2:
            mat = assemble_gpw_matrix(basis, 3)
        else:
            with pytest.warns(UserWarning, match="not guaranteed"):
                mat = assemble_gpw_matrix(basis, 3)
        for col, gpw in enumerate(basis.functions):
            phase = gpw.phase if gpw.phase.order >= 3 else gpw.phase.with_order(3)
            np.testing.assert_array_equal(mat.coeffs[col], ts_exp(phase, order=3).coeffs)


def test_evaluate_combination_trivial_values():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    basis = build_basis(op, 4)
    assert evaluate_combination(basis, np.zeros(4), (0.5, 0.5)) == 0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert evaluate_combination(basis, e1, (0.2, -0.4)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="coefficients"):
        evaluate_combination(basis, np.ones(3), (0.0, 0.0))
