import math

import numpy as np
import pytest

from gpw.operators import (
    HypothesisError,
    OperatorFamily,
    PdeOperator,
    apply_phase_operator,
    check_hypotheses,
    factor_principal_symbol,
    parse_coefficient,
    principal_symbol_matrix,
    residual_series,
)
from gpw.taylor2d import (
    TaylorSeries2,
    index_of,
    tri_size,
    ts_constant,
    ts_derive,
    ts_from_dict,
    ts_zero,
)
from faa_oracle import phase_operator_series_oracle


def helmholtz(center, q=2, coeff_order=None, kappa=1.0):
    fam = OperatorFamily(M=2, terms={(2, 0): "-1", (0, 2): "-1", (0, 0): f"-{kappa**2}"})
    return fam.instantiate(center, q, coeff_order)


def random_series(rng, center, order, zero_constant=False):
    arr = rng.standard_normal(tri_size(order)) + 1j * rng.standard_normal(tri_size(order))
    if zero_constant:
        arr[0] = 0.0
    return TaylorSeries2(center, order, arr)


def random_operator(rng, M, center, coeff_order):
    coeffs = {}
    for k in range(M + 1):
        for l in range(M + 1 - k):
            if 1 <= k + l <= M:
                coeffs[(k, l)] = random_series(rng, center, coeff_order)
    return PdeOperator(M=M, center=center, coeffs=coeffs, q=1)


# ---------------------------------------------------------------------------
# operator construction and hypothesis 1


def test_operator_validates_order_and_centers():
    with pytest.raises(ValueError):
        PdeOperator(M=1, center=(0.0, 0.0), coeffs={}, q=1)
    with pytest.raises(ValueError):
        PdeOperator(
            M=2, center=(0.0, 0.0), coeffs={(2, 0): ts_zero((1.0, 0.0), 1)}, q=1
        )
    with pytest.raises(ValueError):
        PdeOperator(
            M=2, center=(0.0, 0.0), coeffs={(3, 0): ts_zero((0.0, 0.0), 1)}, q=1
        )


def test_hyp1_true_for_helmholtz():
    op = helmholtz((0.2, 0.4))
    check_hypotheses(op)
    assert op.principal_at_center() == -1


def test_hyp1_false_when_leading_coefficient_vanishes():
    fam = OperatorFamily(M=2, terms={(2, 0): "x", (0, 2): "1"})
    with pytest.raises(HypothesisError, match="leading coefficient vanishes") as info:
        check_hypotheses(fam.instantiate((0.0, 0.5), 1))
    assert "(0.0, 0.5)" in str(info.value)


# ---------------------------------------------------------------------------
# principal symbol factorization


def test_helmholtz_symbol_factors_to_identity():
    f = check_hypotheses(helmholtz((0.0, 0.0)))
    np.testing.assert_allclose(f.gamma, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.A, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.D, np.eye(2), atol=1e-15)


def test_mixed_symbol_completed_square():
    # 1*dxx + 0.2 cos x sin y * dxy - 2*dyy; the first-variable square
    # absorbs the cross term and corrects the second diagonal entry
    fam = OperatorFamily(
        M=2,
        terms={(2, 0): "1", (1, 1): "0.2*cos(x)*sin(y)", (0, 2): "-2", (0, 0): "1"},
    )
    center = (0.7, 1.1)
    c = math.cos(center[0]) * math.sin(center[1])
    f = check_hypotheses(fam.instantiate(center, 1))
    np.testing.assert_allclose(
        f.gamma, [[-1, -0.1 * c], [-0.1 * c, 2]], atol=1e-15
    )
    np.testing.assert_allclose(f.D, np.diag([-1, 2 + 0.01 * c**2]), atol=1e-14)
    np.testing.assert_allclose(f.A, [[1, 0.1 * c], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(f.A.T @ f.D @ f.A, f.gamma, atol=1e-14)


def test_factor_identity():
    f = factor_principal_symbol(np.eye(2))
    np.testing.assert_allclose(f.A, np.eye(2))
    np.testing.assert_allclose(f.D, np.eye(2))


def test_factor_first_branch_reconstructs():
    c = math.cos(0.3) * math.sin(0.9)
    gamma = np.array([[1, 0.05 * c], [0.05 * c, -2]], dtype=complex)
    f = factor_principal_symbol(gamma)
    np.testing.assert_allclose(f.D, np.diag([1, -2 - 0.0025 * c**2]), atol=1e-15)
    np.testing.assert_allclose(f.A.T @ f.D @ f.A, gamma, atol=1e-14)


def test_factor_pure_cross_term():
    gamma = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    f = factor_principal_symbol(gamma)
    assert abs(f.D[0, 0]) > 0 and abs(f.D[1, 1]) > 0
    np.testing.assert_allclose(f.A.T @ f.D @ f.A, gamma, atol=1e-14)


def test_factor_second_variable_branch():
    gamma = np.array([[0, 1], [1, 3]], dtype=complex)
    f = factor_principal_symbol(gamma)
    np.testing.assert_allclose(f.D, np.diag([-1 / 3, 3]), atol=1e-15)
    np.testing.assert_allclose(f.A.T @ f.D @ f.A, gamma, atol=1e-14)


def test_factor_degenerate_cases():
    with pytest.raises(HypothesisError, match="no usable symbol factorization"):
        factor_principal_symbol(np.zeros((2, 2)))
    # rank-one form (X + Y)^2: second diagonal entry collapses
    with pytest.raises(HypothesisError, match="no usable symbol factorization"):
        factor_principal_symbol(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_factor_random_symbols_reconstruct():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g1, g2, g3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gamma = np.array([[g1, g2 / 2], [g2 / 2, g3]])
        try:
            f = factor_principal_symbol(gamma)
        except HypothesisError:
            continue
        np.testing.assert_allclose(f.A.T @ f.D @ f.A, gamma, atol=1e-13)
        assert abs(np.linalg.det(f.A)) > 1e-12


def test_inverse_sqrt_uses_principal_branch():
    f = factor_principal_symbol(np.diag([4.0, -1.0]).astype(complex))
    inv = f.inverse_sqrt_D()
    np.testing.assert_allclose(inv[0, 0], 0.5)
    np.testing.assert_allclose(inv[1, 1], 1 / 1j)


def test_symbol_matrix_requires_order_two():
    fam = OperatorFamily(M=3, terms={(3, 0): "1"})
    with pytest.raises(ValueError):
        principal_symbol_matrix(fam.instantiate((0.0, 0.0), 1))


# ---------------------------------------------------------------------------
# phase operator application


def test_plane_wave_phase_gives_constant():
    center = (0.6, -0.3)
    kappa, theta = 2.5, 1.1
    op = helmholtz(center, q=3, coeff_order=3, kappa=kappa)
    P = ts_from_dict(
        center,
        5,
        {(1, 0): 1j * kappa * math.cos(theta), (0, 1): 1j * kappa * math.sin(theta)},
    )
    got = apply_phase_operator(op, P, 3)
    want = ts_constant(kappa**2, center, 3)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-12)
    res = residual_series(op, P, 3)
    np.testing.assert_allclose(res.coeffs, 0, atol=1e-12)


def test_constant_coefficient_of_normalized_order_two_operator():
    # -dxx + g11 dxy + g02 dyy + g10 dx + g01 dy applied to exp(P) and
    # divided by exp(P): the value at the center collects one linear and one
    # quadratic contribution from each second-order ratio
    center = (0.4, 0.9)
    terms = {
        (2, 0): "-1",
        (1, 1): "sin(x)",
        (0, 2): "2 + x*y",
        (1, 0): "cos(y)",
        (0, 1): "x",
    }
    fam = OperatorFamily(M=2, terms=terms)
    op = fam.instantiate(center, 1)
    rng = np.random.default_rng(8)
    P = random_series(rng, center, 2, zero_constant=True)
    got = apply_phase_operator(op, P, 0)[(0, 0)]
    g11 = math.sin(center[0])
    g02 = 2 + center[0] * center[1]
    g10 = math.cos(center[1])
    g01 = center[0]
    l10, l01 = P[(1, 0)], P[(0, 1)]
    l20, l11, l02 = P[(2, 0)], P[(1, 1)], P[(0, 2)]
    want = (
        -2 * l20
        + g11 * l11
        + 2 * g02 * l02
        - l10**2
        + g11 * l10 * l01
        + g02 * l01**2
        + g10 * l10
        + g01 * l01
    )
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_apply_rejects_short_phase_and_wrong_center():
    op = helmholtz((0.0, 0.0), q=2, coeff_order=2)
    with pytest.raises(ValueError):
        apply_phase_operator(op, ts_zero((0.0, 0.0), 3), 2)
    with pytest.raises(ValueError):
        apply_phase_operator(op, ts_zero((1.0, 0.0), 4), 2)


@pytest.mark.parametrize("M", [2, 3])
def test_matches_partition_oracle(M):
    rng = np.random.default_rng(100 + M)
    center = (0.1, -0.4)
    Q = 3
    for _ in range(6):
        op = random_operator(rng, M, center, Q)
        P = random_series(rng, center, Q + M, zero_constant=True)
        got = apply_phase_operator(op, P, Q)
        want = phase_operator_series_oracle(op.coeffs, M, P, Q)
        scale = max(1.0, want.max_abs())
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("M", [2, 3])
def test_linear_part_split(M):
    # the operator on phases minus all multi-factor products must equal the
    # plain linear action sum alpha_{k,l} d^(k,l) P
    rng = np.random.default_rng(50 + M)
    center = (-0.2, 0.3)
    Q = 2
    op = random_operator(rng, M, center, Q)
    P = random_series(rng, center, Q + M, zero_constant=True)
    linear = None
    for (k, l), alpha in op.coeffs.items():
        scale = math.factorial(k) * math.factorial(l)
        from gpw.taylor2d import ts_mul

        term = ts_mul(alpha, scale * ts_derive(P, (k, l)), order=Q)
        linear = term if linear is None else linear + term
    oracle_linear = phase_operator_series_oracle(op.coeffs, M, P, Q, mu_min=1, mu_max=1)
    np.testing.assert_allclose(oracle_linear.coeffs, linear.coeffs, rtol=1e-12, atol=1e-12)
    full = apply_phase_operator(op, P, Q)
    products = phase_operator_series_oracle(op.coeffs, M, P, Q, mu_min=2)
    np.testing.assert_allclose(
        (full - products).coeffs, linear.coeffs, rtol=1e-11, atol=1e-11
    )


def test_residual_coefficient_is_affine_in_top_layer_unknowns():
    # residual cell (I,J) responds linearly to any phase coefficient of
    # length M+I+J: equal slopes when probed at three points
    rng = np.random.default_rng(77)
    center = (0.5, 0.5)
    M, Q = 2, 2
    op = random_operator(rng, M, center, Q)
    base = random_series(rng, center, Q + M, zero_constant=True)
    I, J = 1, 1
    probe = (3, 1)  # length M + I + J = 4
    values = []
    for t in (0.0, 1.0, 2.0):
        arr = np.array(base.coeffs)
        arr[index_of(*probe)] = t
        res = residual_series(op, TaylorSeries2(center, Q + M, arr), Q)
        values.append(res[(I, J)])
    d1 = values[1] - values[0]
    d2 = values[2] - values[1]
    np.testing.assert_allclose(d1, d2, rtol=1e-10, atol=1e-12)


def test_residual_coefficient_ignores_longer_unknowns():
    rng = np.random.default_rng(78)
    center = (0.5, -0.5)
    M, Q = 2, 2
    op = random_operator(rng, M, center, Q)
    base = random_series(rng, center, Q + M, zero_constant=True)
    I, J = 1, 0
    res0 = residual_series(op, base, Q)
    arr = np.array(base.coeffs)
    arr[index_of(2, 2)] += 7.5  # length 4 > M + I + J = 3
    res1 = residual_series(op, TaylorSeries2(center, Q + M, arr), Q)
    np.testing.assert_allclose(res1[(I, J)], res0[(I, J)], rtol=0, atol=1e-14)


def test_residual_of_zero_phase_is_zeroth_coefficient():
    center = (0.3, 0.3)
    fam = OperatorFamily(M=2, terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "2 + x"})
    op = fam.instantiate(center, 3, coeff_order=2)
    res = residual_series(op, ts_zero(center, 4), 2)
    np.testing.assert_allclose(res.coeffs, op.coeffs[(0, 0)].coeffs, atol=1e-15)


# ---------------------------------------------------------------------------
# coefficient expression grammar


def test_expression_builds_polynomial_field():
    expr = parse_coefficient("2*x**2 + sin(y) - 1")
    center = (0.5, 0.25)
    series = expr.build(center, 6)
    for dx, dy in [(0.0, 0.0), (0.1, -0.05), (-0.2, 0.15)]:
        x, y = center[0] + dx, center[1] + dy
        # order-6 expansion of sin carries error O(dy^7), below the tol
        want = 2 * x**2 + math.sin(y) - 1
        np.testing.assert_allclose(series(x, y), want, rtol=1e-6)


def test_expression_exact_for_polynomials():
    series = parse_coefficient("x**2*y - 3*y + 0.5").build((1.0, 2.0), 3)
    np.testing.assert_allclose(series(1.3, 1.9), 1.3**2 * 1.9 - 3 * 1.9 + 0.5, rtol=1e-14)


def test_expression_constant_folding():
    series = parse_coefficient("-(2 + 3)**2").build((0.0, 0.0), 2)
    np.testing.assert_allclose(series.coeffs[0], -25)
    np.testing.assert_allclose(series.coeffs[1:], 0, atol=0)


@pytest.mark.parametrize(
    "bad",
    [
        "x / y",
        "sin(x*y)",
        "x ** y",
        "x ** -1",
        "z + 1",
        "__import__('os')",
        "exp(x)",
        "x if y else 0",
        "'str'",
    ],
)
def test_expression_rejects_outside_grammar(bad):
    with pytest.raises(ValueError):
        parse_coefficient(bad)


def test_family_instantiates_at_requested_center_and_order():
    fam = OperatorFamily(M=2, terms={(2, 0): "x**2", (0, 2): "y**2", (0, 0): "x*y"})
    op = fam.instantiate((2.0, 3.0), 2, coeff_order=4)
    assert op.center == (2.0, 3.0)
    assert all(s.order == 4 for s in op.coeffs.values())
    assert op.coefficient_at_center(2, 0) == 4
    assert op.coefficient_at_center(0, 0) == 6
    assert op.coefficient_at_center(1, 1) == 0
