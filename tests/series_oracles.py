"""Reference series code that the package itself does not use."""

import math

import numpy as np

from faa_oracle import mi_sort_key
from gpw.taylor2d import (
    TaylorSeries2,
    indices,
    mul_matrices,
    tri_size,
    ts_constant,
    ts_derive,
    ts_from_dict,
    ts_mul,
)


def ts_zero(center, order):
    """The zero series of the given order."""
    return TaylorSeries2(center, order, np.zeros(tri_size(order), dtype=complex))


def term_sum(series, x, y):
    """The Taylor polynomial summed term by term: every coefficient times
    its own dx**i * dy**j.  Slow and independent of the evaluator's
    monomial table."""
    dx = np.asarray(x) - series.center[0]
    dy = np.asarray(y) - series.center[1]
    out = np.zeros(np.broadcast(dx, dy).shape, dtype=complex)
    for (i, j), c in zip(indices(series.order), series.coeffs):
        if c != 0:
            out = out + c * dx**i * dy**j
    return out if out.shape else complex(out)


def term_magnitude(series, x, y):
    """sum |c_ij| |dx|^i |dy|^j: the scale that rounding errors of any
    evaluation order are measured against."""
    dx = np.abs(np.asarray(x) - series.center[0])
    dy = np.abs(np.asarray(y) - series.center[1])
    out = np.zeros(np.broadcast(dx, dy).shape)
    for (i, j), c in zip(indices(series.order), series.coeffs):
        out = out + abs(c) * dx**i * dy**j
    return out


def mul_matrix(a, order: int):
    """Matrix C of multiplication by the single series a, truncated at order:
    C[out, in] = a[out - in], so coeffs[..., :tri_size(order)] @ C.T is the
    product of a (batch of) series with a."""
    if a.coeffs.ndim != 1:
        raise ValueError(f"needs a single series, got a batch of shape {a.coeffs.shape[:-1]}")
    if order > a.order:
        raise ValueError(f"truncation order {order} exceeds input order {a.order}")
    return mul_matrices(a.coeffs, order)


def mi_compare(a, b) -> int:
    """Strict total order on multi-indices; returns -1, 0 or 1.

    a precedes b when |a| < |b|, or the lengths tie and a has the smaller
    x-component.  Equal-length indices of the form "μ1+μ2 = ν1+ν2" are
    compared through μ1 < ν1 (comparing the components of a single index
    against each other would not order anything).
    """
    ka, kb = mi_sort_key(a), mi_sort_key(b)
    return (ka > kb) - (ka < kb)


def ts_power(axis: str, exponent: int, center, order: int):
    """x^k or y^k about the center (exact binomial expansion)."""
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    c0 = center[0] if axis == "x" else center[1]
    values = {}
    for m in range(min(exponent, order) + 1):
        coef = math.comb(exponent, m) * c0 ** (exponent - m)
        values[(m, 0) if axis == "x" else (0, m)] = coef
    return ts_from_dict(center, order, values)


def ts_affine(c0, cx, cy, center, order: int):
    """c0 + cx*x + cy*y about the center."""
    values = {(0, 0): c0 + cx * center[0] + cy * center[1]}
    if order >= 1:
        values[(1, 0)] = cx
        values[(0, 1)] = cy
    return ts_from_dict(center, order, values)


def phase_operator_by_products(op, P, Q: int):
    """L(e^P)/e^P - c_{0,0} through the derivative-ratio recurrence started
    at E_{0,0} = 1, with every product, the coefficient terms included, a
    ts_mul.  ts_mul multiplies through mul_matrices, as residual_series
    does, so this checks the recurrence, not the kernel."""
    dx_phase = ts_derive(P, (1, 0))
    dy_phase = ts_derive(P, (0, 1))
    ratios = {(0, 0): ts_constant(1.0, op.center, P.order)}
    for s in range(1, op.M + 1):
        for k in range(s, -1, -1):
            l = s - k
            if k:
                prev = ratios[(k - 1, l)]
                step = ts_derive(prev, (1, 0)) + ts_mul(dx_phase, prev, order=prev.order - 1)
            else:
                prev = ratios[(0, l - 1)]
                step = ts_derive(prev, (0, 1)) + ts_mul(dy_phase, prev, order=prev.order - 1)
            ratios[(k, l)] = step
    total = None
    for (k, l), series in op.coeffs.items():
        if k + l >= 1:
            term = ts_mul(series, ratios[(k, l)], order=Q)
            total = term if total is None else total + term
    return total


def residual_by_products(op, P, Q: int, table=None):
    """The residual series as the construction computed it before the
    ratio layers were carried: phase_operator_by_products, the whole ratio
    recurrence rerun from layer 0 at every call, plus c_{0,0}.  op may be a
    batch of one operator; table is taken and ignored, so this stands in
    for residual_series inside construct_gpw."""
    (op,) = op if isinstance(op, tuple) else (op,)
    total = phase_operator_by_products(op, P, Q)
    zeroth = op.coeffs.get((0, 0))
    return total if zeroth is None else total + zeroth.with_order(Q)
