"""Separate Taylor-data and disk-value builders for the four exact solutions.

Each case had one builder for its scaled Taylor triangle through order n and
another for its values on points, each with its own derivative stacks: the
Taylor builder's at order n, the value builder's at LOCAL_EXPANSION_ORDER.
``TestCase.expand`` now builds the stacks once for both; these builders are
the reference it must reproduce bit for bit.
"""

import math

import numpy as np

from gpw.bench import LOCAL_EXPANSION_ORDER
from gpw.special import airy_derivative_stack, bessel_derivative_stack, evaluate_from_stack
from gpw.taylor2d import indices


def _triangle(n, cell):
    return np.array([cell(i, j) for i, j in indices(n)], dtype=float)


def airy_taylor(center, n):
    stack = airy_derivative_stack(center[0] + center[1], n)
    return _triangle(
        n, lambda i, j: stack[i + j] / (math.factorial(i) * math.factorial(j))
    )


def airy_values(center, xs, ys):
    z0 = center[0] + center[1]
    stack = airy_derivative_stack(z0, LOCAL_EXPANSION_ORDER)
    return evaluate_from_stack(stack, z0, np.asarray(xs) + np.asarray(ys))


def bessel_cos_taylor(center, n):
    x0, y0 = center
    stack = bessel_derivative_stack(1, x0, n)
    return _triangle(
        n,
        lambda i, j: stack[i] * math.cos(y0 + j * math.pi / 2)
        / (math.factorial(i) * math.factorial(j)),
    )


def bessel_cos_values(center, xs, ys):
    stack = bessel_derivative_stack(1, center[0], LOCAL_EXPANSION_ORDER)
    return evaluate_from_stack(stack, center[0], xs) * np.cos(np.asarray(ys))


def bessel_product_taylor(center, n):
    x0, y0 = center
    stack_x = bessel_derivative_stack(0, x0, n)
    stack_y = bessel_derivative_stack(1, y0, n)
    return _triangle(
        n,
        lambda i, j: stack_x[i] * stack_y[j]
        / (math.factorial(i) * math.factorial(j)),
    )


def bessel_product_values(center, xs, ys):
    stack_x = bessel_derivative_stack(0, center[0], LOCAL_EXPANSION_ORDER)
    stack_y = bessel_derivative_stack(1, center[1], LOCAL_EXPANSION_ORDER)
    return evaluate_from_stack(stack_x, center[0], xs) * evaluate_from_stack(
        stack_y, center[1], ys
    )


def trig_taylor(center, n):
    x0, y0 = center
    return _triangle(
        n,
        lambda i, j: math.cos(x0 + i * math.pi / 2) * math.sin(y0 + j * math.pi / 2)
        / (math.factorial(i) * math.factorial(j)),
    )


def trig_values(center, xs, ys):
    return np.cos(np.asarray(xs)) * np.sin(np.asarray(ys))


ORACLES = {  # case name -> (taylor, values)
    "Ad": (airy_taylor, airy_values),
    "Jc": (bessel_cos_taylor, bessel_cos_values),
    "JJ": (bessel_product_taylor, bessel_product_values),
    "cs": (trig_taylor, trig_values),
}
