"""Tests for the special-function seeds and derivative stacks.

Oracles first, independent of the production series and recurrences: mpmath's
arbitrary-precision Airy and Bessel evaluators pin the seeds, and high-order
central finite differences of those evaluators pin the stacks.
"""

import math

import mpmath
import numpy as np
import pytest

from gpw.special import (
    airy_derivative_stack,
    airy_seed,
    bessel_derivative_stack,
    bessel_seed,
    evaluate_from_stack,
)

mpmath.mp.dps = 30


# --- oracles ---------------------------------------------------------------


def mp_airy(z):
    return float(mpmath.airyai(z)), float(mpmath.airyai(z, 1))


def mp_bessel(nu, x):
    return float(mpmath.besselj(nu, x)), float(mpmath.besselj(nu, x, derivative=1))


def fd_second(f, x, h):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )


def fd_third(f, x, h):
    return (
        -13 / 8 * (f(x + h) - f(x - h))
        + (f(x + 2 * h) - f(x - 2 * h))
        - 1 / 8 * (f(x + 3 * h) - f(x - 3 * h))
    ) / h**3


# --- seeds -----------------------------------------------------------------


def test_airy_seed_at_origin():
    ai, aip = airy_seed(0.0)
    assert ai == pytest.approx(0.35502805, abs=1e-7)
    assert aip == pytest.approx(-0.25881940, abs=1e-7)


def test_airy_seed_across_working_range():
    # Positive z is the hard direction: the partial sums cancel down by ~8
    # digits at z = 6, which the decimal summation must absorb.
    for z in (0.0, 1.0, -1.0, 2.2, -3.9, 3.9, 5.43, 6.0, -6.0):
        want_v, want_s = mp_airy(z)
        got_v, got_s = airy_seed(z)
        assert got_v == pytest.approx(want_v, rel=1e-13, abs=1e-300)
        assert got_s == pytest.approx(want_s, rel=1e-13, abs=1e-300)


def test_bessel_seed_across_working_range():
    for nu in (0, 1):
        for x in (0.3, 1.3, 2.0, 3.7, 6.0):
            want_v, want_s = mp_bessel(nu, x)
            got_v, got_s = bessel_seed(nu, x)
            assert got_v == pytest.approx(want_v, rel=1e-13, abs=1e-16)
            assert got_s == pytest.approx(want_s, rel=1e-13, abs=1e-16)


def test_bessel_first_derivative_identity():
    # J0' = -J1
    for x in (1.1, 2.6):
        _, slope = bessel_seed(0, x)
        value, _ = bessel_seed(1, x)
        assert slope == pytest.approx(-value, rel=1e-13)


# --- derivative stacks -------------------------------------------------------


def test_airy_stack_against_finite_differences():
    for z in (1.1, -2.5):
        stack = airy_derivative_stack(z, 3)
        f = lambda t: mp_airy(t)[0]
        assert stack[2] == pytest.approx(fd_second(f, z, 0.02), abs=1e-7)
        assert stack[3] == pytest.approx(fd_third(f, z, 0.02), abs=1e-7)


def test_bessel_stack_against_finite_differences():
    x0 = 2.0
    stack = bessel_derivative_stack(1, x0, 3)
    f = lambda t: mp_bessel(1, t)[0]
    assert stack[2] == pytest.approx(fd_second(f, x0, 0.02), abs=1e-8)
    assert stack[3] == pytest.approx(fd_third(f, x0, 0.02), abs=1e-7)


def test_stack_lengths_and_low_orders():
    assert len(airy_derivative_stack(0.5, 0)) == 1
    assert len(airy_derivative_stack(0.5, 1)) == 2
    assert len(airy_derivative_stack(0.5, 7)) == 8
    assert len(bessel_derivative_stack(0, 1.5, 5)) == 6
    ai, aip = airy_seed(0.5)
    assert airy_derivative_stack(0.5, 1) == [ai, aip]


def test_stack_argument_errors():
    with pytest.raises(ValueError):
        bessel_seed(1, 0.0)
    with pytest.raises(ValueError):
        bessel_derivative_stack(0, -1.0, 3)
    with pytest.raises(ValueError):
        airy_derivative_stack(0.0, -1)
    with pytest.raises(ValueError):
        bessel_derivative_stack(0, 1.0, -2)


# --- local Taylor evaluation --------------------------------------------------


def test_evaluate_from_stack_airy():
    # A 40-term stack at z0 reproduces Ai a couple of units away.
    z0 = 3.0
    stack = airy_derivative_stack(z0, 40)
    for dz in (-2.0, -0.7, 0.4, 1.5, 2.0):
        want = mp_airy(z0 + dz)[0]
        got = evaluate_from_stack(stack, z0, z0 + dz)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-14)


def test_evaluate_from_stack_bessel_vectorized():
    x0 = 2.5
    stack = bessel_derivative_stack(1, x0, 40)
    xs = np.array([1.0, 1.8, 2.5, 3.3, 4.2])
    got = evaluate_from_stack(stack, x0, xs)
    want = np.array([mp_bessel(1, x)[0] for x in xs])
    assert np.allclose(got, want, rtol=1e-11, atol=1e-14)
    assert got.shape == xs.shape


def test_evaluate_from_stack_scalar_and_exactness():
    # With a quadratic "stack" the evaluation is exact polynomial arithmetic:
    # stack m! * coefficients of 2 + 3 t + 5 t^2 about t0 = 0.
    got = evaluate_from_stack([2.0, 3.0, 10.0], 0.0, 4.0)
    assert got == pytest.approx(2 + 3 * 4 + 5 * 16, rel=0, abs=0)


def test_evaluate_from_stack_equals_the_out_of_place_loop():
    # the in-place update rounds exactly as acc = acc * dt + term does
    x0 = 2.5
    stack = bessel_derivative_stack(0, x0, 40)
    xs = np.linspace(0.6, 4.4, 257)
    dt = xs - x0
    want = np.zeros_like(dt)
    for m in reversed(range(len(stack))):
        want = want * dt + stack[m] / math.factorial(m)
    assert np.array_equal(evaluate_from_stack(stack, x0, xs), want)
    scalar = evaluate_from_stack(stack, x0, xs[7])
    assert type(scalar) is np.float64 and scalar == want[7]
