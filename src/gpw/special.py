"""Special-function machinery behind the benchmark solutions.

The benchmark solutions are built from the Airy function Ai and integer-order
Bessel functions J_nu.  Three layers:

* Seeds -- point values and first derivatives, summed from the Maclaurin
  (Airy) or ascending (Bessel) series in 50-digit decimal arithmetic.  The
  extra precision absorbs the heavy cancellation the Airy series suffers for
  z of a few units (partial sums reach ~1e4 while Ai(6) ~ 1e-4), so the
  returned floats are correctly rounded on the working range |arg| <= 6.
* Derivative stacks -- all higher derivatives at the seed point follow from
  differentiating the defining ODE, which turns each stack into a two-term
  (Airy) or four-term (Bessel) recurrence in exact coefficient arithmetic.
* ``evaluate_from_stack`` -- a vectorized local Taylor evaluation that turns
  one stack into function values on a whole cloud of nearby points.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

SEED_PRECISION = 50
SEED_MAX_TERMS = 400

# Ai(0) = 3**(-2/3)/Gamma(2/3) and Ai'(0) = -3**(-1/3)/Gamma(1/3), to 45
# digits; these anchor the two fundamental Maclaurin solutions of y'' = z y.
_AIRY_AT_ZERO = Decimal("0.355028053887817239260063186004183176397979174")
_AIRY_SLOPE_AT_ZERO = Decimal("-0.258819403792806798405183560189203963479091138")


def airy_seed(z: float) -> tuple[float, float]:
    """(Ai(z), Ai'(z)) by Maclaurin summation in high-precision decimals.

    The coefficients of y'' = z y obey a_m = a_{m-3} / (m (m-1)), giving two
    interlaced chains seeded by the value and slope at the origin; the series
    for Ai' reuses the same coefficients term by term.
    """
    with localcontext() as ctx:
        ctx.prec = SEED_PRECISION
        zd = Decimal(z)
        # chain[m % 3] holds a_{m-3} on entry to turn m, a_m after the update.
        chain = [_AIRY_AT_ZERO, _AIRY_SLOPE_AT_ZERO, Decimal(0)]
        value = Decimal(0)
        slope = Decimal(0)
        prev_power = Decimal(0)  # z^(m-1)
        power = Decimal(1)  # z^m
        tiny = Decimal("1e-45")
        quiet = 0
        for m in range(SEED_MAX_TERMS):
            if m >= 3:
                chain[m % 3] /= m * (m - 1)
            a = chain[m % 3]
            term = a * power
            value += term
            if m >= 1:
                slope += m * a * prev_power
            prev_power = power
            power *= zd
            scale = abs(value) + abs(slope) + tiny
            if abs(term) < tiny * scale:
                quiet += 1
                if quiet >= 4:
                    break
            else:
                quiet = 0
        return float(value), float(slope)


def bessel_seed(nu: int, x: float) -> tuple[float, float]:
    """(J_nu(x), J_nu'(x)) by ascending-series summation in decimals.

    J_nu(x) = sum_m (-1)^m (x/2)^(2m+nu) / (m! (m+nu)!); x must be positive
    (the recurrence for the higher stack divides by x^2, and the benchmark
    domains keep Bessel arguments strictly positive anyway).  Each term is
    the one before times -(x/2)^2 / (m (m+nu)), and contributes
    (2m+nu)/x times itself to the slope.
    """
    if x <= 0:
        raise ValueError(f"Bessel stack needs x > 0, got {x}")
    with localcontext() as ctx:
        ctx.prec = SEED_PRECISION
        xd = Decimal(x)
        half_sq = (xd / 2) ** 2
        term = (xd / 2) ** nu / math.factorial(nu)
        value = Decimal(0)
        slope = Decimal(0)
        tiny = Decimal("1e-45")
        quiet = 0
        for m in range(SEED_MAX_TERMS):
            if m:
                term = -term * half_sq / (m * (m + nu))
            value += term
            slope += term * (2 * m + nu) / xd
            scale = abs(value) + abs(slope) + tiny
            if abs(term) < tiny * scale:
                quiet += 1
                if quiet >= 4:
                    break
            else:
                quiet = 0
        return float(value), float(slope)


def airy_derivative_stack(z: float, count: int) -> list[float]:
    """[Ai(z), Ai'(z), ..., Ai^(count)(z)].

    Ai'' = z Ai, so differentiating m more times gives
    Ai^(m+2) = z Ai^(m) + m Ai^(m-1).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    ai, aip = airy_seed(z)
    stack = [ai, aip]
    for m in range(count - 1):
        nxt = z * stack[m] + (m * stack[m - 1] if m >= 1 else 0.0)
        stack.append(nxt)
    return stack[: count + 1]


def bessel_derivative_stack(nu: int, x: float, count: int) -> list[float]:
    """[J_nu(x), J_nu'(x), ..., J_nu^(count)(x)].

    Differentiating x^2 y'' + x y' + (x^2 - nu^2) y = 0 m times:
    x^2 y^(m+2) = -[(2m+1) x y^(m+1) + (m^2 + x^2 - nu^2) y^(m)
                    + 2 m x y^(m-1) + m (m-1) y^(m-2)].
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    y0, y1 = bessel_seed(nu, x)
    stack = [y0, y1]
    for m in range(count - 1):
        acc = (2 * m + 1) * x * stack[m + 1] + (m * m + x * x - nu * nu) * stack[m]
        if m >= 1:
            acc += 2 * m * x * stack[m - 1]
        if m >= 2:
            acc += m * (m - 1) * stack[m - 2]
        stack.append(-acc / (x * x))
    return stack[: count + 1]


def evaluate_from_stack(stack: list[float], t0: float, t):
    """Sum the local Taylor series with the given derivative stack at t0.

    Returns sum_m stack[m]/m! (t - t0)^m by Horner's rule; ``t`` may be a
    scalar or a numpy array.  The stacks above belong to entire functions, so
    with ~40 derivatives the truncation error on offsets of a couple of units
    sits far below float64 resolution.
    """
    dt = np.asarray(t, dtype=float) - t0
    acc = np.zeros_like(dt)
    for m in reversed(range(len(stack))):
        acc *= dt
        acc += stack[m] / math.factorial(m)
    return acc[()]  # a scalar t gives a scalar
