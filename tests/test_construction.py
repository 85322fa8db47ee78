"""Tests for the level-by-level phase construction.

Independent oracles before anything else: an explicit-sum transcription
of the per-level right-hand side (linear lower-layer terms with factorial
weights plus the partition-based nonlinear part), hand-derived closed forms
for the first nonlinear cells of a mixed-coefficient second-order operator,
and ``level_rhs``, the right-hand side read off the residual of a phase whose
unsolved layers are cleared.  The production path never sees any of them.
"""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import gpw.construction
import gpw.operators
from gpw.construction import (
    FIRST_ANGLE,
    GpwNormalization,
    basis_angles,
    build_basis,
    construct_gpw,
    dof_counts,
    kappa_from_zeroth,
    level_matrix,
    parse_gpw_text,
    pi_weight,
    serialize_gpw,
)
from gpw.bench import case_by_name, draw_centers
from gpw.operators import (
    HYP1_RTOL,
    HypothesisError,
    OperatorBatch,
    OperatorFamily,
    check_hypotheses,
    operator_batch,
    principal_symbol_matrix,
    residual_series,
)
from gpw.taylor2d import TaylorSeries2, graded_indices, index_of, tri_size
from faa_oracle import phase_operator_series_oracle
from series_oracles import phase_operator_by_products, residual_by_products


# --- oracles ---------------------------------------------------------------


def rhs_cell_by_explicit_sums(op, phase, I, J):
    """Right-hand side cell (I, J) assembled term by term for M = 2.

    Linear contributions of each coefficient layer enter with weight
    (k+i)! (l+j)! / (i! j!) on the phase coefficient they multiply; the
    top layer keeps every term except the (i, j) = (I, J) one, which is
    the unknown block sitting on the other side of the equation.  The
    part with two or more phase factors comes from the partition oracle,
    and the zeroth-order coefficient contributes its own cell.
    """
    L = I + J
    total = 0j
    for ell in (1, 2):
        for k in range(ell + 1):
            alpha = op.coeffs.get((k, ell - k))
            if alpha is None:
                continue
            for it in range(I + 1):
                for jt in range(J + 1):
                    if ell == 2 and (it, jt) == (I, J):
                        continue
                    w = (
                        math.factorial(k + it)
                        * math.factorial(ell - k + jt)
                        // (math.factorial(it) * math.factorial(jt))
                    )
                    total += (
                        alpha[(I - it, J - jt)]
                        * w
                        * phase[(k + it, ell - k + jt)]
                    )
    nonlinear = phase_operator_series_oracle(op.coeffs, 2, phase, L, mu_min=2)
    total += nonlinear[(I, J)]
    zeroth = op.coeffs.get((0, 0))
    if zeroth is not None:
        total += zeroth[(I, J)]
    return -total


def level_rhs(op, phase, L):
    """Right-hand side of level L, independent of every coefficient of
    length >= M + L: those are zeroed internally before the residual is
    taken, so the result depends only on the already-solved layers.
    """
    if phase.order < L + op.M:
        raise ValueError(f"phase order {phase.order} < {L + op.M}")
    arr = np.array(phase.coeffs)
    arr[tri_size(op.M + L - 1):] = 0.0
    cleared = TaylorSeries2(phase.center, phase.order, arr)
    res = residual_series(op, cleared, L)
    return np.array([-res[(I, L - I)] for I in range(L + 1)])


def random_phase(center, order, rng, top_zero_below=None):
    arr = rng.standard_normal(tri_size(order)) + 1j * rng.standard_normal(
        tri_size(order)
    )
    arr[0] = 0.0
    if top_zero_below is not None:
        arr[tri_size(top_zero_below - 1):] = 0.0
    return TaylorSeries2(center, order, arr)


def helmholtz(kappa=1.0):
    return OperatorFamily(
        M=2,
        terms={(2, 0): "-1", (0, 2): "-1", (0, 0): f"-{kappa**2!r}"},
    )


AIRY = OperatorFamily(
    M=2,
    terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "2*x + 2*y"},
)

MIXED = OperatorFamily(
    M=2,
    terms={
        (2, 0): "1",
        (1, 1): "0.2*cos(x)*sin(y)",
        (0, 2): "-2",
        (0, 0): "0.2*sin(x)*cos(y) - 1",
    },
)

# order 4 with mixed and first-order terms: every benchmark case has M = 2,
# and which ratio layers are final at a level depends on M
QUARTIC = OperatorFamily(
    M=4,
    terms={
        (4, 0): "1 + 0.2*sin(y)",
        (2, 2): "0.3*cos(x)*sin(y)",
        (0, 4): "2 + 0.1*cos(x)",
        (1, 3): "0.1*x",
        (1, 0): "y",
        (0, 0): "-(3 + 0.2*sin(y) + 0.1*cos(x))",
    },
)
QUARTIC_PAIR = {(1, 0): 0.6 + 0.2j, (0, 1): -0.4 + 0.7j, (2, 1): 0.3, (0, 3): -0.2j, (3, 0): 0.1}

PRODUCT = OperatorFamily(
    M=2,
    terms={
        (2, 0): "x**2",
        (0, 2): "y**2",
        (1, 0): "x",
        (0, 1): "y",
        (0, 0): "x**2 + y**2 - 1",
    },
)


# --- counting and system matrix ---------------------------------------------


def test_dof_counts_examples():
    assert dof_counts(2, 3) == (15, 6, 9)
    assert dof_counts(3, 2) == (15, 3, 12)
    for M in range(2, 6):
        for q in range(1, 7):
            n_dof, n_eqn, n_fixed = dof_counts(M, q)
            assert n_dof == n_eqn + n_fixed


def test_pi_weight_values():
    # by hand: (k+I)! (M-k+L-I)! / (I! (L-I)!)
    assert pi_weight(0, 0, 2, 0) == 2
    assert pi_weight(1, 0, 2, 0) == 1
    assert pi_weight(2, 0, 2, 0) == 2
    assert pi_weight(1, 1, 2, 1) == 2
    assert pi_weight(2, 1, 2, 1) == 6
    assert pi_weight(3, 2, 3, 2) == 60
    assert isinstance(pi_weight(2, 1, 2, 3), int)


def test_level_matrix_helmholtz_level0():
    op = helmholtz().instantiate((0.0, 0.0), q=1)
    T = level_matrix(op, 0)
    want = np.array([[1, 0, 0], [0, 1, 0], [-2, 0, -2]], dtype=complex)
    assert np.array_equal(T, want)
    assert np.linalg.det(T) == pytest.approx(-2.0)


def test_level_matrix_lower_triangular():
    rng = np.random.default_rng(7)
    for M in (2, 3, 4):
        terms = {
            (k, l): f"{rng.uniform(0.5, 2.0)!r}"
            for k in range(M + 1)
            for l in range(M + 1 - k)
        }
        op = OperatorFamily(M=M, terms=terms).instantiate((0.0, 0.0), q=5)
        for L in range(5):
            T = level_matrix(op, L)
            assert T.shape == (M + L + 1, M + L + 1)
            assert np.array_equal(T, np.tril(T))


def test_level_matrix_matches_the_per_cell_formula():
    # the cached weight table gives the same matrices, bit for bit, as
    # pi_weight evaluated afresh for every cell
    rng = np.random.default_rng(5)
    for M in (2, 3, 4):
        terms = {(k, M - k): f"{rng.uniform(-2.0, 2.0)!r}" for k in range(M + 1)}
        op = OperatorFamily(M=M, terms=terms).instantiate((0.3, -0.2), q=7)
        lead = [op.coefficient_at_center(k, M - k) for k in range(M + 1)]
        for L in range(7):
            want = np.zeros((M + L + 1, M + L + 1), dtype=complex)
            want[range(M), range(M)] = 1.0
            for I in range(L + 1):
                for k in range(M + 1):
                    want[M + I, I + k] = pi_weight(k, I, M, L) * lead[k]
            got = level_matrix(op, L)
            assert np.array_equal(got.view(float), want.view(float))


def test_level_matrix_determinant_product_formula():
    rng = np.random.default_rng(11)
    for M in (2, 3, 4):
        for L in range(5):
            coeffs = {(k, M - k): rng.standard_normal() for k in range(M + 1)}
            op = OperatorFamily(
                M=M, terms={ij: f"{c!r}" for ij, c in coeffs.items()}
            ).instantiate((0.0, 0.0), q=L + 1)
            T = level_matrix(op, L)
            want = coeffs[(M, 0)] ** (L + 1)
            for I in range(L + 1):
                want *= math.factorial(I + M) / math.factorial(I)
            got = np.linalg.det(T)
            assert got == pytest.approx(want, rel=1e-10)
            assert abs(got) > 0


# --- right-hand side ---------------------------------------------------------


def test_level_rhs_zeroth_cell_mixed_second_order():
    # operator -dxx + g11 dxdy + g02 dyy + g10 dx + g01 dy + g00 with
    # variable fields: the level-0 cell collects the first-order terms,
    # the quadratic form in the gradient, and the zeroth coefficient
    fam = OperatorFamily(
        M=2,
        terms={
            (2, 0): "-1",
            (1, 1): "sin(x)",
            (0, 2): "2 + x*y",
            (1, 0): "cos(y)",
            (0, 1): "x",
            (0, 0): "x**2 - y",
        },
    )
    x0, y0 = 0.4, -0.7
    op = fam.instantiate((x0, y0), q=1, coeff_order=2)
    rng = np.random.default_rng(3)
    phase = random_phase((x0, y0), 2, rng)
    l10, l01 = phase[(1, 0)], phase[(0, 1)]
    g11 = math.sin(x0)
    g02 = 2 + x0 * y0
    want = (
        -x0 * l01
        - math.cos(y0) * l10
        - (-(l10**2) + g11 * l10 * l01 + g02 * l01**2)
        - (x0**2 - y0)
    )
    got = level_rhs(op, phase, 0)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_level_rhs_plane_wave_is_zero():
    for kappa in (1.0, 2.5):
        op = helmholtz(kappa).instantiate((0.0, 0.0), q=1)
        for theta in (0.0, 0.3, 2.0):
            arr = np.zeros(tri_size(2), dtype=complex)
            arr[index_of(1, 0)] = 1j * kappa * math.cos(theta)
            arr[index_of(0, 1)] = 1j * kappa * math.sin(theta)
            phase = TaylorSeries2((0.0, 0.0), 2, arr)
            assert abs(level_rhs(op, phase, 0)[0]) < 1e-13 * kappa**2


def test_level_rhs_ignores_top_and_longer_coefficients():
    rng = np.random.default_rng(5)
    op = MIXED.instantiate((0.1, -0.2), q=3, coeff_order=3)
    for L in (0, 1, 2):
        base = random_phase((0.1, -0.2), 5, rng, top_zero_below=2 + L)
        want = level_rhs(op, base, L)
        arr = np.array(base.coeffs)
        arr[tri_size(2 + L - 1):] = rng.standard_normal(
            len(arr) - tri_size(2 + L - 1)
        ) + 1j * rng.standard_normal(len(arr) - tri_size(2 + L - 1))
        perturbed = TaylorSeries2(base.center, base.order, arr)
        assert np.array_equal(level_rhs(op, perturbed, L), want)


def test_level_rhs_matches_explicit_cell_sums():
    # fully variable second-order operator, random lower layers
    fam = OperatorFamily(
        M=2,
        terms={
            (2, 0): "2 + x",
            (1, 1): "sin(x)",
            (0, 2): "-1 + y**2",
            (1, 0): "cos(y)",
            (0, 1): "x*y",
            (0, 0): "x**2 - y",
        },
    )
    center = (0.4, -0.7)
    op = fam.instantiate(center, q=3, coeff_order=2)
    rng = np.random.default_rng(17)
    phase = random_phase(center, 4, rng)
    for L in (1, 2):
        got = level_rhs(op, phase, L)
        for I in range(L + 1):
            want = rhs_cell_by_explicit_sums(op, phase, I, L - I)
            assert got[I] == pytest.approx(want, rel=1e-12)


def test_level_rhs_rejects_short_phase():
    op = helmholtz().instantiate((0.0, 0.0), q=2)
    phase = random_phase((0.0, 0.0), 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        level_rhs(op, phase, 1)


def test_nonlinear_cells_closed_forms():
    # d/dx and d/dy of the multi-factor part, by hand, for the operator
    # -dxx + g11 dxdy + g02 dyy (+ lower-order terms, which contribute
    # nothing with two or more phase factors)
    fam = OperatorFamily(
        M=2,
        terms={
            (2, 0): "-1",
            (1, 1): "sin(x)",
            (0, 2): "2 + x*y",
            (1, 0): "cos(y)",
            (0, 1): "x",
        },
    )
    x0, y0 = 0.4, -0.7
    op = fam.instantiate((x0, y0), q=2, coeff_order=2)
    rng = np.random.default_rng(23)
    phase = random_phase((x0, y0), 3, rng)
    l10, l01 = phase[(1, 0)], phase[(0, 1)]
    l20, l11, l02 = phase[(2, 0)], phase[(1, 1)], phase[(0, 2)]
    g11, dxg11, dyg11 = math.sin(x0), math.cos(x0), 0.0
    g02, dxg02, dyg02 = 2 + x0 * y0, y0, x0
    want00 = -(l10**2) + g11 * l10 * l01 + g02 * l01**2
    want10 = (
        -4 * l20 * l10
        + g11 * (2 * l20 * l01 + l10 * l11)
        + 2 * g02 * l11 * l01
        + dxg11 * l10 * l01
        + dxg02 * l01**2
    )
    want01 = (
        -2 * l11 * l10
        + g11 * (l11 * l01 + 2 * l10 * l02)
        + 4 * g02 * l02 * l01
        + dyg11 * l10 * l01
        + dyg02 * l01**2
    )
    got = phase_operator_series_oracle(op.coeffs, 2, phase, 1, mu_min=2)
    scale = max(abs(want00), abs(want10), abs(want01))
    assert abs(got[(0, 0)] - want00) < 1e-12 * scale
    assert abs(got[(1, 0)] - want10) < 1e-12 * scale
    assert abs(got[(0, 1)] - want01) < 1e-12 * scale


# --- construction ------------------------------------------------------------


def test_plane_wave_reduction():
    for kappa in (1.0, 2.5):
        fam = helmholtz(kappa)
        op = fam.instantiate((0.0, 0.0), q=3)
        basis = build_basis(op, 8)
        assert basis.kappa == pytest.approx(kappa)
        for gpw, theta in zip(basis.functions, basis.angles):
            l10, l01 = gpw.first_order_pair()
            assert l10 == pytest.approx(1j * kappa * math.cos(theta), abs=1e-14)
            assert l01 == pytest.approx(1j * kappa * math.sin(theta), abs=1e-14)
            for i, j in graded_indices(gpw.degree):
                if i + j >= 2:
                    assert abs(gpw[(i, j)]) <= 1e-14


def test_airy_level0_coefficient():
    # with -dxx - dyy + 2(x+y): the level-0 solve gives
    # l20 = (x0+y0) - (l10^2 + l01^2)/2
    x0, y0 = 0.3, -0.1
    op = AIRY.instantiate((x0, y0), q=2)
    # A = D = I for Airy, so the kappa=1.7 pair of direction 0.9 is explicit
    pair = {(1, 0): 1.7j * math.cos(0.9), (0, 1): 1.7j * math.sin(0.9)}
    gpw = construct_gpw(op, [GpwNormalization(fixed_values=pair)])[0]
    l10, l01 = gpw.first_order_pair()
    want = (x0 + y0) - 0.5 * (l10**2 + l01**2)
    assert gpw[(2, 0)] == pytest.approx(want, rel=1e-13)
    # default wavenumber kappa^2 = -a00(center) makes it vanish outright
    x0, y0 = 0.3, -0.8
    op = AIRY.instantiate((x0, y0), q=2)
    basis = build_basis(op, 3)
    assert basis.kappa == pytest.approx(1.0)
    for gpw in basis.functions:
        assert abs(gpw[(2, 0)]) < 1e-14


def test_constructed_residual_vanishes():
    rng = np.random.default_rng(41)
    cases = [
        (helmholtz(1.3), (0.2, 0.5)),
        (AIRY, (-0.4, 0.9)),
        (MIXED, (0.3, -0.6)),
        (PRODUCT, (1.7, 2.2)),
    ]
    for fam, center in cases:
        for q in (1, 2, 3, 4):
            op = fam.instantiate(center, q=q)
            basis = build_basis(op, 2)
            for gpw in basis.functions:
                res = residual_series(op, gpw.phase, q - 1)
                scale = max(1.0, gpw.phase.max_abs())
                assert res.max_abs() < 1e-11 * scale


def test_constructed_residual_with_random_fixed_values():
    rng = np.random.default_rng(43)
    for fam, center in ((MIXED, (0.3, -0.6)), (PRODUCT, (1.7, 2.2))):
        for q in (2, 3):
            op = fam.instantiate(center, q=q)
            degree = 2 + q - 1
            fixed = {}
            for i, j in graded_indices(degree):
                if i >= 2 or (i, j) == (0, 0) or i + j == 1:
                    continue
                fixed[(i, j)] = complex(
                    rng.standard_normal(), rng.standard_normal()
                )
            pair = {
                (1, 0): complex(rng.standard_normal(), rng.standard_normal()),
                (0, 1): complex(rng.standard_normal(), rng.standard_normal()),
            }
            norm = GpwNormalization(fixed_values={**fixed, **pair})
            gpw = construct_gpw(op, [norm])[0]
            for ij, value in {**fixed, **pair}.items():
                assert gpw[ij] == value
            res = residual_series(op, gpw.phase, q - 1)
            scale = max(1.0, gpw.phase.max_abs())
            assert res.max_abs() < 1e-11 * scale


def test_order_four_operator_is_not_a_hypothesis_failure():
    # no order-2 symbol is a property of the operator, not of the center, so
    # it must not raise the error a convergence study redraws the center on
    fam = OperatorFamily(
        M=4,
        terms={
            (4, 0): "1 + 0.2*sin(y)",
            (0, 4): "2 + 0.1*cos(x)",
            (0, 0): "-(3 + 0.2*sin(y) + 0.1*cos(x))",
        },
    )
    op = fam.instantiate((0.3, 0.4), q=2)
    with pytest.raises(ValueError, match="M=4") as info:
        build_basis(op, 3)
    assert not isinstance(info.value, HypothesisError)


def test_type_changing_operator_with_explicit_pair():
    # degenerate symbol at the center: factorization is unusable, but an
    # explicit first-order pair needs only the nonvanishing leading term
    fam = OperatorFamily(M=2, terms={(2, 0): "1", (0, 2): "x**3"})
    op = fam.instantiate((0.0, 0.0), q=3)
    with pytest.raises(HypothesisError, match="no usable symbol factorization at the center"):
        check_hypotheses(op)
    norm = GpwNormalization(fixed_values={(1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j})
    gpw = construct_gpw(op, [norm])[0]
    res = residual_series(op, gpw.phase, 2)
    assert res.max_abs() < 1e-11 * max(1.0, gpw.phase.max_abs())
    with pytest.raises(ValueError):
        build_basis(op, 3)


def test_solving_level0_only_leaves_longer_cells():
    op = AIRY.instantiate((0.3, 0.4), q=1, coeff_order=2)
    basis_op = AIRY.instantiate((0.3, 0.4), q=1)
    gpw = construct_gpw(basis_op, [GpwNormalization()])[0]
    padded = gpw.phase.with_order(3)
    res = residual_series(op, padded, 1)
    assert abs(res[(0, 0)]) < 1e-13
    assert abs(res[(1, 0)]) > 1e-3 or abs(res[(0, 1)]) > 1e-3


def test_quadratic_identity_on_first_order_pair():
    rng = np.random.default_rng(47)
    for _ in range(10):
        center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        op = MIXED.instantiate(center, q=2)
        basis = build_basis(op, 4)
        gamma = principal_symbol_matrix(op)
        for gpw in basis.functions:
            v = np.array(gpw.first_order_pair())
            got = v @ gamma @ v
            want = -basis.kappa**2
            assert got == pytest.approx(want, rel=1e-12)


def test_counting_matches_solved_coefficients():
    op = MIXED.instantiate((0.2, 0.1), q=3)
    gpw = construct_gpw(op, [GpwNormalization()])[0]
    n_dof, n_eqn, n_fixed = dof_counts(2, 3)
    assert tri_size(gpw.degree) == n_dof
    solved = sum(1 for i, j in graded_indices(gpw.degree) if i >= 2)
    assert solved == n_eqn


# --- normalization and basis --------------------------------------------------


def test_basis_angles_offset_and_spacing():
    got = basis_angles(3)
    want = [math.pi / 6, math.pi / 6 + 2 * math.pi / 3, math.pi / 6 + 4 * math.pi / 3]
    assert got == pytest.approx(want)
    assert len(basis_angles(7)) == 7


def test_helmholtz_basis_members_are_plane_waves():
    op = helmholtz(2.0).instantiate((0.5, -0.5), q=2)
    basis = build_basis(op, 5)
    assert basis.p == 5
    for gpw, theta in zip(basis.functions, basis.angles):
        l10, l01 = gpw.first_order_pair()
        assert l10 == pytest.approx(2j * math.cos(theta), abs=1e-14)
        assert l01 == pytest.approx(2j * math.sin(theta), abs=1e-14)


def test_kappa_policy():
    op = OperatorFamily(
        M=2, terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "x"}
    ).instantiate((0.0, 0.0), q=1)
    assert kappa_from_zeroth(op) == 1.0 + 0j
    op = helmholtz(2.0).instantiate((0.0, 0.0), q=1)
    assert kappa_from_zeroth(op) == pytest.approx(2.0)
    op = OperatorFamily(
        M=2, terms={(2, 0): "-1", (0, 2): "-1", (0, 0): "4"}
    ).instantiate((0.0, 0.0), q=1)
    assert kappa_from_zeroth(op) == pytest.approx(2j)


def test_normalization_errors():
    op = helmholtz().instantiate((0.0, 0.0), q=2)
    degenerate = OperatorFamily(M=2, terms={(2, 0): "1", (0, 2): "x**3"})
    with pytest.raises(ValueError, match="factorization"):
        construct_gpw(degenerate.instantiate((0.0, 0.0), q=2), [GpwNormalization()])[0]
    with pytest.raises(ValueError, match="both"):
        construct_gpw(op, [GpwNormalization(fixed_values={(1, 0): 1.0})])[0]
    with pytest.raises(ValueError, match="constant"):
        construct_gpw(
            op,
            [GpwNormalization(fixed_values={(0, 0): 1.0})],
        )[0]
    with pytest.raises(ValueError, match="solved"):
        construct_gpw(
            op,
            [GpwNormalization(fixed_values={(2, 0): 1.0})],
        )[0]
    with pytest.raises(ValueError, match="degree"):
        construct_gpw(
            op,
            [GpwNormalization(fixed_values={(0, 9): 1.0})],
        )[0]


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 1)])
def test_normalization_rejects_non_finite_fixed_values(value):
    with pytest.raises(ValueError, match=r"fixed value \(0,3\) must be finite"):
        GpwNormalization(fixed_values={(1, 0): 1, (0, 1): 1j, (0, 3): value})


def test_basis_angles_and_the_construct_default_share_the_first_angle():
    from gpw.cli import build_parser

    assert basis_angles(5)[0] == FIRST_ANGLE == math.pi / 6
    assert build_parser().parse_args(["construct", "--case", "cs"]).theta == FIRST_ANGLE


def test_normalization_rejects_negative_indices():
    # (-1, 1) has the flat offset of (1, 0): it used to overwrite the pair
    op = helmholtz().instantiate((0.0, 0.0), q=2)
    for key in [(-1, 1), (1, -1)]:
        fixed = {(1, 0): 1, (0, 1): 1j, key: 5}
        with pytest.raises(ValueError, match=rf"fixed value \({key[0]},{key[1]}\) has a negative index"):
            construct_gpw(op, [GpwNormalization(fixed_values=fixed)])


def test_vanishing_leading_coefficient_rejected():
    op = PRODUCT.instantiate((0.0, 2.0), q=2)
    with pytest.raises(ValueError, match="leading"):
        construct_gpw(op, [GpwNormalization()])[0]
    with pytest.raises(ValueError, match="leading"):
        build_basis(op, 3)


def test_leading_coefficient_threshold_is_hyp1_rtol():
    # at the threshold both the hypothesis check and the construction refuse;
    # just above it both accept
    pair = GpwNormalization(fixed_values={(1, 0): 1j, (0, 1): 0.5j})
    for factor, accepted in ((1.0, False), (1.0 + 1e-9, True)):
        lead = HYP1_RTOL * factor
        op = OperatorFamily(M=2, terms={(2, 0): repr(lead), (0, 2): "1"}).instantiate(
            (0.0, 0.0), q=2
        )
        if accepted:
            check_hypotheses(op)
            assert construct_gpw(op, [pair])[0].degree == 3
        else:
            with pytest.raises(HypothesisError, match="leading"):
                check_hypotheses(op)
            with pytest.raises(HypothesisError, match="leading"):
                construct_gpw(op, [pair])


def test_build_basis_argument_errors():
    op = helmholtz().instantiate((0.0, 0.0), q=2)
    with pytest.raises(ValueError, match="p"):
        build_basis(op, 0)


# --- serialization ------------------------------------------------------------


def test_serialize_parse_roundtrip():
    op = MIXED.instantiate((0.25, -0.75), q=3)
    gpw = construct_gpw(op, [GpwNormalization(theta=1.1)])[0]
    text = serialize_gpw(gpw)
    center, M, q, values = parse_gpw_text(text)
    assert center == gpw.center
    assert (M, q) == (2, 3)
    assert len(values) == tri_size(gpw.degree)
    for ij, value in values.items():
        assert value == gpw[ij]


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError, match="header"):
        parse_gpw_text("0 0 1.0 0.0\n")
    op = helmholtz().instantiate((0.0, 0.0), q=1)
    gpw = construct_gpw(op, [GpwNormalization()])[0]
    text = serialize_gpw(gpw)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError, match="coefficients"):
        parse_gpw_text(truncated)
    with pytest.raises(ValueError, match="unrecognized"):
        parse_gpw_text(text + "what is this\n")


# --- batched construction -------------------------------------------------------


def _standard_norms(op, p):
    check_hypotheses(op)  # raises unless both hypotheses hold at the center
    return [GpwNormalization(theta=theta) for theta in basis_angles(p)]


@pytest.mark.parametrize(
    "family, center", [(MIXED, (0.3, -0.6)), (PRODUCT, (1.7, 2.2)), (AIRY, (-0.4, 0.9))]
)
def test_batched_construction_matches_single_wave_calls(family, center):
    op = family.instantiate(center, q=5)
    norms = _standard_norms(op, 7)
    norms.append(GpwNormalization(fixed_values={(1, 0): 0.3 + 1j, (0, 1): -0.2j, (0, 3): 0.7}))
    batch = construct_gpw(op, norms)
    assert [gpw.normalization for gpw in batch] == norms
    for gpw, norm in zip(batch, norms):
        [alone] = construct_gpw(op, [norm])
        scale = np.max(np.abs(alone.phase.coeffs))
        np.testing.assert_allclose(gpw.phase.coeffs, alone.phase.coeffs, rtol=0, atol=1e-14 * scale)


def test_construct_gpw_needs_a_normalization():
    op = MIXED.instantiate((0.3, -0.6), q=2)
    with pytest.raises(ValueError, match="normalization"):
        construct_gpw(op, [])


@pytest.mark.parametrize("q", [8, 12, 16, 20])
def test_defining_property_at_high_q(q):
    # checked twice: with residual_series run fresh, which gives the bits
    # the construction's carried ratio table gives at every level (see
    # test_carried_ratio_table_changes_no_bits), and with the all-ts_mul
    # recurrence, so that a fault the two share cannot hide
    rng = np.random.default_rng(q)
    for name in ("Ad", "Jc", "JJ", "cs"):
        case = case_by_name(name)
        for center in draw_centers(case, 3, rng):
            op = case.family.instantiate(center, q=q)
            basis = build_basis(op, 2 * q + 3)
            # the whole basis goes through the residual as one batch
            phases = np.stack([gpw.phase.coeffs for gpw in basis.functions])
            P = TaylorSeries2(op.center, q + 1, phases)
            oracle = phase_operator_by_products(op, P, q - 1)
            oracle += op.coeffs[(0, 0)].with_order(q - 1)
            scale = np.maximum(1.0, np.max(np.abs(phases), axis=-1))
            for res in (residual_series(op, P, q - 1), oracle):
                rel = np.max(np.abs(res.coeffs), axis=-1) / scale
                assert np.max(rel) < 1e-11, (name, center)


def _construct_by_full_residuals(op, norms):
    """construct_gpw with every level's residual recomputed from layer 0 by
    the all-ts_mul recurrence, nothing carried between levels."""
    with mock.patch.object(gpw.construction, "residual_series", residual_by_products):
        return construct_gpw(op, norms)


def _phases(waves):
    return np.stack([fn.phase.coeffs for fn in waves])


@pytest.mark.parametrize("q", [1, 4, 8, 12])
@pytest.mark.parametrize("name", ["Ad", "Jc", "JJ", "cs"])
def test_carried_ratio_table_matches_full_residuals_per_level(name, q):
    case = case_by_name(name)
    for center in draw_centers(case, 2, np.random.default_rng(q)):
        op = case.family.instantiate(center, q=q)
        norms = [GpwNormalization(theta=theta) for theta in basis_angles(2 * q + 3)]
        got = _phases(construct_gpw(op, norms))
        want = _phases(_construct_by_full_residuals(op, norms))
        scale = np.max(np.abs(want), axis=-1)
        assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * scale), (name, center)


@pytest.mark.parametrize("q", [1, 4, 8])
def test_carried_ratio_table_matches_full_residuals_at_order_four(q):
    op = QUARTIC.instantiate((0.4, -0.3), q=q)
    norms = [GpwNormalization(fixed_values=QUARTIC_PAIR)]
    norms += [
        GpwNormalization(fixed_values={(1, 0): 1j * math.cos(theta), (0, 1): 1j * math.sin(theta)})
        for theta in basis_angles(5)
    ]
    waves = construct_gpw(op, norms)
    got, want = _phases(waves), _phases(_construct_by_full_residuals(op, norms))
    scale = np.max(np.abs(want), axis=-1)
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * scale)
    for fn in waves:
        assert residual_series(op, fn.phase, q - 1).max_abs() < 1e-11 * max(1.0, scale.max())


def test_carried_ratio_table_changes_no_bits():
    # at every level the residual from the carried table is the residual of
    # a fresh call on the same partial phase: a stale or skipped layer shows
    levels = []

    def fresh_alongside(ops, P, Q, table=None):
        carried = residual_series(ops, P, Q, table=table)
        fresh = residual_series(ops, P, Q)
        assert np.array_equal(carried.coeffs.view(float), fresh.coeffs.view(float)), Q
        levels.append(Q)
        return carried

    q = 8
    quartic = QUARTIC.instantiate((0.4, -0.3), q=q)
    runs = [(quartic, [GpwNormalization(fixed_values=QUARTIC_PAIR)])]
    for name in ("Ad", "Jc", "JJ", "cs"):
        case = case_by_name(name)
        ops = [case.family.instantiate(c, q=q) for c in draw_centers(case, 2, np.random.default_rng(3))]
        norms = [GpwNormalization(theta=theta) for theta in basis_angles(2 * q + 3)]
        runs += [(ops[0], norms), (ops, norms)]
    with mock.patch.object(gpw.construction, "residual_series", fresh_alongside):
        for op, norms in runs:
            construct_gpw(op, norms)
    assert levels == list(range(q)) * len(runs)


def _bits(bases):
    return [np.stack([fn.phase.coeffs for fn in b.functions]).view(np.uint64) for b in bases]


@pytest.mark.parametrize("name", ["Ad", "Jc", "JJ", "cs"])
@pytest.mark.parametrize("q", [1, 3, 6])
def test_build_basis_over_several_operators_is_bit_identical(name, q):
    case = case_by_name(name)
    centers = draw_centers(case, 6, np.random.default_rng(q))
    ops = [case.family.instantiate(center, q=q) for center in centers]
    p = 2 * q + 3
    alone = [build_basis(op, p) for op in ops]
    for batch in (ops, ops[:1]):  # a batch of one included
        bases = build_basis(batch, p)
        assert [b.operator for b in bases] == batch
        assert all(b.angles == basis_angles(p) for b in bases)
        for got, want in zip(_bits(bases), _bits(alone)):
            assert np.array_equal(got, want)


def test_level_matrix_over_several_operators_stacks_the_single_ones():
    ops = [MIXED.instantiate(center, q=3) for center in ((0.3, -0.6), (-0.1, 0.4))]
    for L in range(3):
        stacked = level_matrix(ops, L)
        assert stacked.shape == (2, 2 + L + 1, 2 + L + 1)
        for T, op in zip(stacked, ops):
            assert np.array_equal(T, level_matrix(op, L))


def test_operator_batches_must_share_one_family():
    a = MIXED.instantiate((0.3, -0.6), q=2)
    with pytest.raises(ValueError, match="at least one operator"):
        build_basis([], 5)
    with pytest.raises(ValueError, match="differ in M, q or coefficient indices"):
        build_basis([a, MIXED.instantiate((0.1, 0.2), q=3)], 5)
    with pytest.raises(ValueError, match="differ in M, q or coefficient indices"):
        build_basis([a, AIRY.instantiate((0.1, 0.2), q=2)], 5)
    # a batch of phases needs one row of waves per operator
    P = TaylorSeries2(a.center, 3, np.zeros((3, 2, tri_size(3))))
    with pytest.raises(ValueError, match="one row of waves per operator"):
        residual_series([a, a], P, 1)


def test_a_batch_is_checked_once_per_construction(monkeypatch):
    # build_basis checks its operators once; construct_gpw, level_matrix and
    # residual_series take the checked batch on without checking it again
    checked = []

    class Counted(OperatorBatch):
        def __new__(cls, ops):
            checked.append(len(ops))
            return super().__new__(cls, ops)

    monkeypatch.setattr(gpw.operators, "OperatorBatch", Counted)
    ops = [MIXED.instantiate(center, q=3) for center in ((0.3, -0.6), (-0.1, 0.4))]
    build_basis(ops, 5)
    construct_gpw(ops[0], [GpwNormalization(theta=0.4)])
    assert checked == [2, 1]
    batch = operator_batch(ops)
    assert operator_batch(batch) is batch
    # the public entry points still check what they are given
    other = MIXED.instantiate((0.1, 0.2), q=2)
    with pytest.raises(ValueError, match="differ in M, q or coefficient indices"):
        level_matrix([ops[0], other], 0)
    P = TaylorSeries2(other.center, 3, np.zeros((2, 1, tri_size(3))))
    with pytest.raises(ValueError, match="differ in M, q or coefficient indices"):
        residual_series([other, ops[0]], P, 1)


GOLDEN = Path(__file__).with_name("golden_phases.json")


def test_phases_match_per_wave_construction():
    """Phases recorded from the per-wave construction (one construct_gpw
    call per direction, full-degree residual at every level, commit
    35c4dbf): rows 0, p//2 and p-1 of cs and Jc bases at q = 4 and 12."""
    entries = json.loads(GOLDEN.read_text())["entries"]
    assert {(e["case"], e["q"]) for e in entries} == {
        (name, q) for name in ("cs", "Jc") for q in (4, 12)
    }
    for entry in entries:
        op = case_by_name(entry["case"]).family.instantiate(tuple(entry["center"]), q=entry["q"])
        basis = build_basis(op, entry["p"])
        for row, flat in zip(entry["rows"], entry["coeffs"]):
            want = np.array(flat[0::2]) + 1j * np.array(flat[1::2])
            got = basis.functions[row].phase.coeffs
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
