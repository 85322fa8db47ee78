"""Tests for coefficient-matrix assembly, rank counting, and matching solves.

The reference rows have closed forms, so most expectations here are direct
formula evaluations; the exact-solution matching tests draw their coefficient
vectors from the trigonometric product solution (closed form) and from the
Airy derivative stack.  The classical and transition companion matrices and
the pointwise evaluation of a matched combination are oracles kept here; the
package builds only the wave and reference matrices.
"""

import cmath
import math

import numpy as np
import pytest

from gpw.construction import build_basis
from gpw.interp import (
    TaylorMatrix,
    assemble_gpw_matrix,
    assemble_reference_matrix,
    numeric_rank,
    taylor_match,
)
from gpw.operators import OperatorFamily
from gpw.special import airy_derivative_stack
from gpw.taylor2d import TaylorSeries2, index_of, indices, tri_size, ts_exp
from series_oracles import term_magnitude, term_sum

AIRY = OperatorFamily(
    M=2,
    terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "2*x + 2*y"},
    name="airy",
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
    name="bessel-cos",
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
    name="bessel-product",
)
TRIG = OperatorFamily(
    M=2,
    terms={
        (2, 0): "1",
        (1, 1): "0.2*cos(x)*sin(y)",
        (0, 2): "-2",
        (0, 0): "0.2*sin(x)*cos(y) - 1",
    },
    name="trig",
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
    entries = np.empty((tri_size(n), len(columns)), dtype=complex)
    for row, (k1, k2) in enumerate(indices(n)):
        w = 1.0 / (math.factorial(k1) * math.factorial(k2))
        for col, (a, b) in enumerate(columns):
            entries[row, col] = a**k1 * b**k2 * w
    return TaylorMatrix(n=n, entries=entries)


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
    mat = assemble_reference_matrix([0.1, 0.9, 2.2, 3.8, 5.1], 2)
    assert mat.rows == 6 and mat.p == 5
    for k1, k2 in indices(2):
        offset = (k1 + k2) * (k1 + k2 + 1) // 2 + k2
        assert np.array_equal(mat.row_of(k1, k2), mat.entries[offset])


def test_gpw_matrix_normalized_rows():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    basis = build_basis(op, 4)
    mat = assemble_gpw_matrix(basis, 2)
    assert np.array_equal(mat.row_of(0, 0), np.ones(4))
    pairs = [gpw.first_order_pair() for gpw in basis.functions]
    assert np.array_equal(mat.row_of(1, 0), np.array([a for a, _ in pairs]))
    assert np.array_equal(mat.row_of(0, 1), np.array([b for _, b in pairs]))


def test_gpw_matrix_order1_equals_transition():
    for fam, centers in FAMILY_CENTERS:
        op = fam.instantiate(centers[0], q=1)
        basis = build_basis(op, 3)
        gpw_mat = assemble_gpw_matrix(basis, 1)
        pairs = [gpw.first_order_pair() for gpw in basis.functions]
        trans = transition_matrix(pairs, 1)
        assert np.array_equal(gpw_mat.entries, trans.entries)


def test_reference_rows_at_axis_angles():
    mat = assemble_reference_matrix([0.0, math.pi / 2, math.pi], 1)
    want = np.array([[1, 1, 1], [1, 0, -1], [0, 1, 0]], dtype=complex)
    assert np.allclose(mat.entries, want, atol=1e-15)
    assert numeric_rank(mat) == 3


def test_classical_is_block_scaled_reference():
    angles = [0.3 + 1.1 * l for l in range(6)]
    kappa = 1.7
    ref = assemble_reference_matrix(angles, 3)
    cla = classical_matrix(angles, 3, kappa)
    for row, (k1, k2) in enumerate(indices(3)):
        scale = (1j * kappa) ** (k1 + k2)
        assert np.allclose(cla.entries[row], scale * ref.entries[row], rtol=1e-14)


def test_transition_matches_classical_for_constant_coefficients():
    op = helmholtz(2.0).instantiate((0.5, -0.5), q=2)
    basis = build_basis(op, 5)
    pairs = [gpw.first_order_pair() for gpw in basis.functions]
    trans = transition_matrix(pairs, 3)
    cla = classical_matrix(basis.angles, 3, 2.0)
    assert np.allclose(trans.entries, cla.entries, rtol=1e-13, atol=1e-15)


def test_assembly_argument_errors():
    with pytest.raises(ValueError, match="duplicate"):
        assemble_reference_matrix([0.0, 2 * math.pi], 1)
    with pytest.raises(ValueError, match="rows"):
        TaylorMatrix(n=2, entries=np.ones((3, 2)))


def test_gpw_matrix_warns_when_order_exceeds_guarantee():
    op = TRIG.instantiate((0.2, -0.4), q=1)
    basis = build_basis(op, 7)
    with pytest.warns(UserWarning, match="q=1"):
        mat = assemble_gpw_matrix(basis, 3)
    assert mat.rows == tri_size(3)


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
        diff = mat.entries - trans.entries
        for K in range(1, 5):
            block = diff[tri_size(K - 1): tri_size(K)]
            span = trans.entries[: tri_size(K - 1)]
            sol, _, _, _ = np.linalg.lstsq(span.T, block.T, rcond=None)
            err = np.linalg.norm(span.T @ sol - block.T)
            assert err < 1e-9 * max(1.0, np.linalg.norm(block))


# --- matching ----------------------------------------------------------------


def test_match_reproduces_member_column():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    basis = build_basis(op, 7)
    mat = assemble_gpw_matrix(basis, 3)
    F = mat.entries[:, 0]
    match = taylor_match(mat, F)
    assert match.residual < 1e-12 * np.linalg.norm(F)
    assert np.allclose(mat.entries @ match.coefficients, F, atol=1e-12)


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
    F = rng.normal(size=mat.rows) + 1j * rng.normal(size=mat.rows)
    plain = taylor_match(mat, F)
    orders = np.array([k1 + k2 for k1, k2 in indices(2)], dtype=float)
    weighted = taylor_match(mat, F, rcond=None, row_weights=1e-3**orders)
    row_errors = np.abs(mat.entries @ weighted.coefficients - F)
    assert np.abs(mat.entries @ plain.coefficients - F)[0] > 0.1
    assert row_errors[0] < 1e-11
    # the reported residual stays on the unweighted system, where the plain
    # least-squares solution is optimal by definition
    assert weighted.residual >= plain.residual > 1.0


def test_match_row_weights_length_mismatch():
    op = TRIG.instantiate((0.2, -0.4), q=1)
    mat = assemble_gpw_matrix(build_basis(op, 5), 2)
    with pytest.raises(ValueError, match="row weights"):
        taylor_match(mat, np.ones(mat.rows), row_weights=np.ones(mat.rows - 1))


def test_match_stacked_row_weights_equal_the_per_row_calls():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    mat = assemble_gpw_matrix(build_basis(op, 7), 3)
    rng = np.random.default_rng(6)
    F = rng.normal(size=mat.rows) + 1j * rng.normal(size=mat.rows)
    orders = np.array([k1 + k2 for k1, k2 in indices(3)], dtype=float)
    h = np.logspace(0.0, -6.0, 12)
    weights = h[:, None] ** orders
    stacked = taylor_match(mat, F, rcond=None, row_weights=weights)
    assert stacked.coefficients.shape == (h.size, mat.p)
    assert stacked.residual.shape == (h.size,)
    for k, w in enumerate(weights):
        alone = taylor_match(mat, F, rcond=None, row_weights=w)
        assert np.array_equal(stacked.coefficients[k].view(float), alone.coefficients.view(float))
        assert stacked.residual[k] == alone.residual
        # the residual of one unstacked solve, bit for bit as it was reported
        # before weights could be stacked
        assert alone.residual == float(np.linalg.norm(mat.entries @ alone.coefficients - F))
    with pytest.raises(ValueError, match="row weights"):
        taylor_match(mat, F, row_weights=weights[:, :-1])


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
            np.testing.assert_array_equal(mat.entries[:, col], ts_exp(phase, order=3).coeffs)


def test_evaluate_combination_trivial_values():
    op = TRIG.instantiate((0.2, -0.4), q=2)
    basis = build_basis(op, 4)
    assert evaluate_combination(basis, np.zeros(4), (0.5, 0.5)) == 0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert evaluate_combination(basis, e1, (0.2, -0.4)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="coefficients"):
        evaluate_combination(basis, np.ones(3), (0.0, 0.0))
