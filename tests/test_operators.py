import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpw.taylor2d
from gpw.operators import (
    HypothesisError,
    OperatorFamily,
    PdeOperator,
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
)
from faa_oracle import phase_operator_series_oracle
from series_oracles import phase_operator_by_products, ts_zero


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


def test_family_rejects_term_indices_outside_its_order_when_created():
    for key in [(3, 0), (2, 1), (-1, 2), (0, -1)]:
        with pytest.raises(ValueError, match=rf"term index \({key[0]},{key[1]}\) outside order 2"):
            OperatorFamily(M=2, terms={(2, 0): "1", (0, 2): "1", key: "x"})


def test_operator_rejects_a_batched_coefficient():
    center = (0.0, 0.0)
    batch = TaylorSeries2(center, 1, np.ones((2, tri_size(1))))
    with pytest.raises(ValueError, match=r"coefficient \(1,1\) is a batch of shape \(2, 3\)"):
        PdeOperator(M=2, center=center, coeffs={(2, 0): ts_constant(1.0, center, 1), (1, 1): batch}, q=1)


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
    # without its (0,0) term the operator leaves kappa^2
    derivatives = {kl: series for kl, series in op.coeffs.items() if kl != (0, 0)}
    laplacian = PdeOperator(M=2, center=center, coeffs=derivatives, q=op.q)
    got = residual_series(laplacian, P, 3)
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
    got = residual_series(op, P, 0)[(0, 0)]  # the operator has no (0,0) term
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
    with pytest.raises(ValueError, match=r"phase order 3 < Q \+ M = 4"):
        residual_series(op, ts_zero((0.0, 0.0), 3), 2)
    with pytest.raises(ValueError, match="phase centered at"):
        residual_series(op, ts_zero((1.0, 0.0), 4), 2)


@pytest.mark.parametrize("M", [2, 3])
def test_matches_partition_oracle(M):
    rng = np.random.default_rng(100 + M)
    center = (0.1, -0.4)
    Q = 3
    for _ in range(6):
        op = random_operator(rng, M, center, Q)
        P = random_series(rng, center, Q + M, zero_constant=True)
        got = residual_series(op, P, Q)
        want = phase_operator_series_oracle(op.coeffs, M, P, Q)
        scale = max(1.0, want.max_abs())
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=1e-12 * scale)


@given(
    st.integers(2, 4), st.integers(0, 10), st.integers(0, 4), st.integers(0, 2**32 - 1)
)
@settings(max_examples=60, deadline=None)
def test_matches_product_recurrence(M, Q, p, seed):
    # p == 0 draws a single phase, p >= 1 a batch of p phases; the operator
    # keeps a random nonempty subset of its derivative terms and half the
    # time gains a (0,0) term, which the oracle leaves out
    rng = np.random.default_rng(seed)
    center = (0.3, -0.7)
    op = random_operator(rng, M, center, Q + int(rng.integers(0, 3)))
    keep = rng.random(len(op.coeffs)) < 0.7
    keep[rng.integers(len(keep))] = True
    coeffs = {kl: c for (kl, c), kept in zip(op.coeffs.items(), keep) if kept}
    if rng.random() < 0.5:
        coeffs[(0, 0)] = random_series(rng, center, Q)
    op = PdeOperator(M=M, center=center, coeffs=coeffs, q=1)
    order = Q + M + int(rng.integers(0, 3))
    shape = (p, tri_size(order)) if p else (tri_size(order),)
    P = TaylorSeries2(center, order, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got = residual_series(op, P, Q)
    want = phase_operator_by_products(op, P, Q)
    if (0, 0) in coeffs:
        want = want + coeffs[(0, 0)]
    assert got.coeffs.shape == want.coeffs.shape
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0, atol=1e-13 * want.max_abs())


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
    full = residual_series(op, P, Q)
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


def test_residual_over_operators_with_two_wave_axes_is_the_per_operator_calls():
    terms = {(2, 0): "-1", (1, 1): "x*y", (0, 2): "-2", (0, 0): "cos(x)"}
    fam = OperatorFamily(M=2, terms=terms)
    rng = np.random.default_rng(12)
    Q, order = 3, 5
    ops = [fam.instantiate((0.1 * c, -0.2 * c), Q + 1) for c in range(3)]
    shape = (len(ops), 2, 4, tri_size(order))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = residual_series(ops, TaylorSeries2(ops[0].center, order, arr), Q)
    assert got.coeffs.shape == shape[:-1] + (tri_size(Q),)
    for row, op, phases in zip(got.coeffs, ops, arr):
        alone = residual_series(op, TaylorSeries2(op.center, order, phases), Q)
        assert np.array_equal(row, alone.coeffs)


@pytest.mark.parametrize("waves", [(), (5,), (2, 3)], ids=["single", "waves", "two-axes"])
def test_residual_of_one_operator_keeps_the_phase_shape(waves):
    op = helmholtz((0.2, 0.4), q=3, coeff_order=2)
    rng = np.random.default_rng(13)
    shape = waves + (tri_size(4),)
    P = TaylorSeries2(op.center, 4, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got = residual_series(op, P, 2)
    assert got.coeffs.shape == waves + (tri_size(2),)
    flat = P.coeffs.reshape(-1, tri_size(4))
    for row, phase in zip(got.coeffs.reshape(-1, tri_size(2)), flat):
        alone = residual_series(op, TaylorSeries2(op.center, 4, phase), 2)
        np.testing.assert_allclose(row, alone.coeffs, rtol=1e-15, atol=1e-15 * alone.max_abs())


def _same_bits(a, b):
    return a.coeffs.shape == b.coeffs.shape and np.array_equal(a.coeffs.view(float), b.coeffs.view(float))


@pytest.mark.parametrize("M", [2, 3])
def test_residual_table_follows_any_change_of_the_phases(M):
    # a table carried across calls gives the bits of a fresh call whatever
    # changed in between: the top layer, a middle one, nothing, Q itself
    rng = np.random.default_rng(60 + M)
    center = (0.2, 0.1)
    op = random_operator(rng, M, center, 6)
    op = PdeOperator(M=M, center=center, coeffs={**op.coeffs, (0, 0): random_series(rng, center, 6)}, q=1)
    shape = (3, tri_size(6 + M))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    table = {}
    for Q, layer in [(2, None), (3, M + 2), (3, None), (4, 2), (6, 0), (1, M + 1), (5, M + 5)]:
        if layer is not None:
            cells = slice(tri_size(layer - 1), tri_size(layer))
            arr[:, cells] = rng.standard_normal((3, layer + 1))
            arr[:, 0] = 0.0
        P = TaylorSeries2(center, Q + M, arr[:, : tri_size(Q + M)])
        assert _same_bits(residual_series(op, P, Q, table=table), residual_series(op, P, Q)), (Q, layer)


def test_residual_table_belongs_to_its_operators_and_rows():
    op = helmholtz((0.2, 0.4), q=3, coeff_order=2)
    other = helmholtz((0.2, 0.4), q=3, coeff_order=2)
    rng = np.random.default_rng(14)
    P = TaylorSeries2(op.center, 4, rng.standard_normal((2, tri_size(4))))
    table = {}
    residual_series(op, P, 2, table=table)
    with pytest.raises(ValueError, match="the table was filled for other operators"):
        residual_series(other, P, 2, table=table)
    with pytest.raises(ValueError, match="the table holds 2 phase rows, the phases have 3"):
        residual_series(op, TaylorSeries2(op.center, 4, np.zeros((3, tri_size(4)))), 2, table=table)


def test_residual_rejects_operators_it_cannot_apply():
    center = (0.0, 0.0)
    P = ts_zero(center, 4)
    zeroth = {(0, 0): ts_constant(1.0, center, 2)}
    zeroth_only = PdeOperator(M=2, center=center, coeffs=zeroth, q=1)
    with pytest.raises(ValueError, match="operator has no derivative terms"):
        residual_series(zeroth_only, P, 2)
    short_zeroth = PdeOperator(
        M=2,
        center=center,
        coeffs={
            (2, 0): ts_constant(-1.0, center, 2),
            (0, 2): ts_constant(-1.0, center, 2),
            (0, 0): ts_constant(1.0, center, 1),
        },
        q=1,
    )
    with pytest.raises(ValueError, match="zeroth coefficient order 1 < 2"):
        residual_series(short_zeroth, P, 2)
    residual_series(short_zeroth, P, 1)  # enough for Q = 1


def test_factorizations_compare_by_identity():
    # fields hold arrays, whose == has no single truth value
    a, b = factor_principal_symbol(np.eye(2)), factor_principal_symbol(np.eye(2))
    assert a == a and a != b


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


def test_powers_are_built_by_repeated_squaring(monkeypatch):
    products = []
    real_mul = gpw.taylor2d.ts_mul

    def counting_mul(a, b, order=None):
        products.append(1)
        return real_mul(a, b, order)

    monkeypatch.setattr(gpw.taylor2d, "ts_mul", counting_mul)
    parse_coefficient("x ** 20000")
    # 14 squarings and at most 15 set bits for 20000 < 2**15
    assert 0 < len(products) <= 29
    products.clear()
    parse_coefficient("x ** 2")
    assert len(products) == 1
    products.clear()
    parse_coefficient("x ** 1 + y ** 0")
    assert products == []


@pytest.mark.parametrize("exponent", [0, 1, 2, 3, 5, 8, 13])
def test_powers_equal_repeated_products(exponent):
    center = (0.7, -0.3)
    base = parse_coefficient("0.5*x + y + 1.25").build(center, 4)
    want = ts_constant(1.0, center, 4)
    for _ in range(exponent):
        want = want * base
    got = parse_coefficient(f"(0.5*x + y + 1.25) ** {exponent}").build(center, 4)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-14, atol=1e-14 * want.max_abs())


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
        "x + True",
        "x ** True",
    ],
)
def test_expression_rejects_outside_grammar(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        parse_coefficient(bad)


# Random expressions from the grammar, drawn as (text, majorant, degree).
# The majorant sums absolute values (|sin|, |cos| <= 1), so it bounds the
# rounding of every evaluation of the text; degree is None with sin/cos.
_leaves = st.one_of(
    st.one_of(st.integers(-5, 5), st.floats(-3.0, 3.0, allow_nan=False)).map(
        lambda v: (repr(v), repr(abs(v)), 0)
    ),
    st.sampled_from(["x", "y"]).map(lambda v: (v, f"abs({v})", 1)),
    st.sampled_from(["sin(x)", "sin(y)", "cos(x)", "cos(y)"]).map(lambda v: (v, "1", None)),
)


def _binary(a, op, b):
    degree = None if None in (a[2], b[2]) else (a[2] + b[2] if op == "*" else max(a[2], b[2]))
    return f"({a[0]}) {op} ({b[0]})", f"({a[1]}) {'*' if op == '*' else '+'} ({b[1]})", degree


def _power(a, k):
    return f"({a[0]}) ** {k}", f"({a[1]}) ** {k}", None if a[2] is None else a[2] * k


def _expressions(depth):
    if depth == 0:
        return _leaves
    sub = _expressions(depth - 1)
    return st.one_of(
        _leaves,
        st.builds(_binary, sub, st.sampled_from("+-*"), sub),
        st.builds(_power, sub, st.integers(0, 3)),
        st.builds(lambda a, sign: (f"{sign}({a[0]})", a[1], a[2]), sub, st.sampled_from("+-")),
    )


def _evaluate(text, x, y):
    return eval(text, {"__builtins__": {"abs": abs}, "sin": math.sin, "cos": math.cos, "x": x, "y": y})


_coordinates = st.floats(-2.0, 2.0, allow_nan=False)
_offsets = st.lists(st.tuples(*[st.floats(-0.5, 0.5, allow_nan=False)] * 2), min_size=1, max_size=3)


@given(_expressions(3), _coordinates, _coordinates, st.integers(0, 8), _offsets)
@settings(max_examples=150, deadline=None)
def test_expression_series_matches_python_value(expr, cx, cy, order, offsets):
    text, majorant, degree = expr
    series = parse_coefficient(text).build((cx, cy), order)
    assert series.order == order and series.center == (cx, cy)
    rtol = 1e-9
    got, want = series(cx, cy), _evaluate(text, cx, cy)
    assert abs(got - want) <= rtol * _evaluate(majorant, cx, cy)
    if degree is None or degree > order:
        return  # a truncated series matches only at its center
    for dx, dy in offsets:
        got, want = series(cx + dx, cy + dy), _evaluate(text, cx + dx, cy + dy)
        # each Taylor term is bounded by the majorant at |center| + |offset|
        assert abs(got - want) <= rtol * _evaluate(majorant, abs(cx) + abs(dx), abs(cy) + abs(dy))


_outside = [
    "z", "sin", "exp(x)", "abs(x)", "x / y", "x % 2", "x // 2", "x @ y", "~x", "not x",
    "x < y", "True", "False", "None", "1j", "'s'", "[x]", "lambda: 0", "x(", "x ** y",
    "x ** -1", "x ** 2.0", "x ** True", "sin(1)", "sin(x*y)", "sin(x, y)", "sin(x=1)",
    "x if y else 0",
]


@given(_expressions(2), st.sampled_from(_outside), st.sampled_from("+-*"), st.booleans())
@settings(max_examples=100, deadline=None)
def test_expression_outside_grammar_raises_quoting_the_text(expr, bad, op, bad_first):
    left, right = (bad, expr[0]) if bad_first else (expr[0], bad)
    text = f"({left}) {op} ({right})"
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_coefficient(text)


def test_family_instantiates_at_requested_center_and_order():
    fam = OperatorFamily(M=2, terms={(2, 0): "x**2", (0, 2): "y**2", (0, 0): "x*y"})
    op = fam.instantiate((2.0, 3.0), 2, coeff_order=4)
    assert op.center == (2.0, 3.0)
    assert all(s.order == 4 for s in op.coeffs.values())
    assert op.coefficient_at_center(2, 0) == 4
    assert op.coefficient_at_center(0, 0) == 6
    assert op.coefficient_at_center(1, 1) == 0
