import itertools
import math

import numpy as np
import pytest

from faa_oracle import (
    Partition,
    enumerate_partitions,
    faa_di_bruno_exp_derivative,
    mi_sort_key,
    phase_operator_series_oracle,
)
from gpw.taylor2d import (
    TaylorSeries2,
    tri_size,
    ts_constant,
    ts_exp,
    ts_from_dict,
)

# ---------------------------------------------------------------------------
# brute-force enumeration oracle


def brute_force_partitions(target, mu):
    """All multiplicity assignments over every index below target."""
    ti, tj = target
    candidates = sorted(
        ((i, j) for i in range(ti + 1) for j in range(tj + 1) if (i, j) != (0, 0)),
        key=mi_sort_key,
    )
    bounds = []
    for i, j in candidates:
        b = mu
        if i:
            b = min(b, ti // i)
        if j:
            b = min(b, tj // j)
        bounds.append(b)
    found = set()
    for ks in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(ks) != mu:
            continue
        si = sum(k * ij[0] for k, ij in zip(ks, candidates))
        sj = sum(k * ij[1] for k, ij in zip(ks, candidates))
        if (si, sj) == target:
            found.add(tuple((k, ij) for k, ij in zip(ks, candidates) if k > 0))
    return found


# ---------------------------------------------------------------------------
# enumeration


def test_single_derivative():
    parts = enumerate_partitions((1, 0), 1)
    assert len(parts) == 1
    assert parts[0].parts == ((1, (1, 0)),)
    assert parts[0].s == 1 and parts[0].mu == 1 and parts[0].target == (1, 0)


def test_mixed_second_derivative_two_factors():
    parts = enumerate_partitions((1, 1), 2)
    assert len(parts) == 1
    assert parts[0].parts == ((1, (0, 1)), (1, (1, 0)))


def test_pure_second_derivative():
    two = enumerate_partitions((2, 0), 2)
    assert len(two) == 1 and two[0].parts == ((2, (1, 0)),)
    one = enumerate_partitions((2, 0), 1)
    assert len(one) == 1 and one[0].parts == ((1, (2, 0)),)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_partitions((0, 0), 1)
    with pytest.raises(ValueError):
        enumerate_partitions((2, 1), 0)
    with pytest.raises(ValueError):
        enumerate_partitions((2, 1), 4)


def test_parts_strictly_increasing():
    for mu in range(1, 6):
        for p in enumerate_partitions((3, 2), mu):
            keys = [mi_sort_key(ij) for _, ij in p.parts]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert all(k > 0 for k, _ in p.parts)
            assert p.target == (3, 2) and p.mu == mu


def test_enumeration_matches_brute_force():
    targets = [(i, j) for i in range(7) for j in range(7) if 1 <= i + j <= 6]
    for target in targets:
        for mu in range(1, target[0] + target[1] + 1):
            got = {p.parts for p in enumerate_partitions(target, mu)}
            assert got == brute_force_partitions(target, mu), (target, mu)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_order_m_products_with_m_factors_are_pure_gradients(M):
    # with mu = M and |target| = M every part must have length 1, so the
    # only surviving products are powers of the two first derivatives
    for i in range(M + 1):
        j = M - i
        parts = enumerate_partitions((i, j), M)
        assert len(parts) == 1
        expect = tuple(
            p for p in (((j, (0, 1)) if j else None), ((i, (1, 0)) if i else None)) if p
        )
        assert parts[0].parts == expect


# ---------------------------------------------------------------------------
# exp-derivative ratio


def random_phase(rng, center, order, zero_constant=True):
    arr = rng.standard_normal(tri_size(order)) + 1j * rng.standard_normal(tri_size(order))
    if zero_constant:
        arr[0] = 0.0
    return TaylorSeries2(center, order, arr)


def test_exp_derivative_order_zero_and_one():
    rng = np.random.default_rng(1)
    P = random_phase(rng, (0.0, 0.0), 3)
    assert faa_di_bruno_exp_derivative(P, (0, 0)) == 1
    np.testing.assert_allclose(faa_di_bruno_exp_derivative(P, (1, 0)), P[(1, 0)])
    np.testing.assert_allclose(faa_di_bruno_exp_derivative(P, (0, 1)), P[(0, 1)])


def test_exp_derivative_matches_series_recurrence():
    rng = np.random.default_rng(42)
    P = random_phase(rng, (0.5, -0.5), 3)
    e = ts_exp(P)
    got = faa_di_bruno_exp_derivative(P, (2, 1))
    want = math.factorial(2) * math.factorial(1) * e[(2, 1)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_exp_derivative_full_triangle_vs_recurrence():
    rng = np.random.default_rng(99)
    P = random_phase(rng, (0.0, 0.0), 5)
    e = ts_exp(P)
    for i in range(6):
        for j in range(6 - i):
            got = faa_di_bruno_exp_derivative(P, (i, j))
            want = math.factorial(i) * math.factorial(j) * e[(i, j)]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)


def test_exp_derivative_rejects_overlong_target():
    P = random_phase(np.random.default_rng(0), (0.0, 0.0), 2)
    with pytest.raises(ValueError):
        faa_di_bruno_exp_derivative(P, (2, 1))


def test_mu_slices_sum_to_total():
    rng = np.random.default_rng(17)
    P = random_phase(rng, (0.0, 0.0), 4)
    target = (2, 2)
    total = faa_di_bruno_exp_derivative(P, target)
    sliced = sum(faa_di_bruno_exp_derivative(P, target, mu=m) for m in range(1, 5))
    np.testing.assert_allclose(total, sliced, rtol=1e-13)


# ---------------------------------------------------------------------------
# operator assembly oracle


def test_oracle_on_constant_laplacian_plane_wave():
    # alpha = {-1, -1}: applying to a linear phase ikappa(cos t X + sin t Y)
    # must give the constant kappa^2
    center = (0.3, 0.8)
    kappa, theta = 2.0, 0.7
    Q = 2
    P = ts_from_dict(
        center,
        Q + 2,
        {(1, 0): 1j * kappa * math.cos(theta), (0, 1): 1j * kappa * math.sin(theta)},
    )
    coeffs = {
        (2, 0): ts_constant(-1.0, center, Q),
        (0, 2): ts_constant(-1.0, center, Q),
    }
    got = phase_operator_series_oracle(coeffs, 2, P, Q)
    want = ts_constant(kappa**2, center, Q)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-13)


def test_oracle_grade_filter_splits_linear_from_products():
    center = (0.0, 0.0)
    Q = 2
    P = ts_from_dict(center, Q + 2, {(1, 0): 0.5j, (0, 1): -0.25})
    coeffs = {
        (2, 0): ts_constant(-1.0, center, Q),
        (0, 2): ts_constant(-1.0, center, Q),
    }
    # linear phase: second derivatives of P vanish, so the mu=1 slice is 0
    lin = phase_operator_series_oracle(coeffs, 2, P, Q, mu_min=1, mu_max=1)
    np.testing.assert_allclose(lin.coeffs, 0, atol=1e-15)
    quad = phase_operator_series_oracle(coeffs, 2, P, Q, mu_min=2)
    full = phase_operator_series_oracle(coeffs, 2, P, Q)
    np.testing.assert_allclose(quad.coeffs, full.coeffs, atol=1e-14)
