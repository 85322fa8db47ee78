"""Truncated bivariate Taylor series about a fixed center.

A function f that is smooth near (x0, y0) is represented by its scaled
Taylor coefficients

    c[i, j] = (d/dx)^i (d/dy)^j f(x0, y0) / (i! j!),

i.e. the coefficients of the Taylor polynomial in X = x - x0, Y = y - y0.
Every operation here works on these scaled coefficients and truncates at a
fixed total degree: a series of order Q carries exactly the triangle
{(i, j) : i + j <= Q}.  Coefficients are stored in a flat complex array,
level by level, with (i, j) at offset (i+j)(i+j+1)/2 + j.

A series may also carry a batch of such triangles: coefficients of shape
(..., tri_size(order)), one row per series.  Products, derivatives,
truncation, sums and differences act on the last axis and broadcast an
unbatched series against a batched one, so a whole basis of phases goes
through the residual recurrence in one pass.  Indexing, evaluation and
ts_exp take a single series.

Multi-indices additionally carry a strict total order: shorter first, ties
broken by the smaller x-component.  Equal-length indices of the form
"μ1+μ2 = ν1+ν2" are compared through μ1 < ν1 (comparing the components of a
single index against each other would not order anything).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Index = tuple[int, int]


def tri_size(order: int) -> int:
    """Number of coefficients carried by a series of the given order."""
    return (order + 1) * (order + 2) // 2


def index_of(i: int, j: int) -> int:
    """Flat storage offset of coefficient (i, j)."""
    s = i + j
    return s * (s + 1) // 2 + j


def mi_compare(a: Index, b: Index) -> int:
    """Strict total order on multi-indices; returns -1, 0 or 1.

    a precedes b when |a| < |b|, or the lengths tie and a has the smaller
    x-component.  Under this order (0, 1) precedes (1, 0).
    """
    ka = (a[0] + a[1], a[0])
    kb = (b[0] + b[1], b[0])
    return (ka > kb) - (ka < kb)


def mi_sort_key(a: Index) -> tuple[int, int]:
    """Sort key realizing the same order as mi_compare."""
    return (a[0] + a[1], a[0])


def indices(order: int) -> list[Index]:
    """All indices of length <= order, in storage (flat-offset) order."""
    return [(s - j, j) for s in range(order + 1) for j in range(s + 1)]


def graded_indices(order: int) -> list[Index]:
    """All indices of length <= order, sorted by mi_compare."""
    return [(i, s - i) for s in range(order + 1) for i in range(s + 1)]


@lru_cache(maxsize=None)
def _triangle_ij(order: int) -> tuple[np.ndarray, np.ndarray]:
    # (i-array, j-array) of the flat layout, for scatter/gather to squares
    ii = np.array([i for i, _ in indices(order)])
    jj = np.array([j for _, j in indices(order)])
    return ii, jj


@lru_cache(maxsize=None)
def _toeplitz_plan(order: int) -> list[np.ndarray]:
    """Gather indices into a flat triangle with one zero appended.

    Entry u is the (m, m) matrix, m = order + 1 - u, whose [v, j] element
    picks (u, j - v) for j >= v and the appended zero below the diagonal:
    the Toeplitz matrix that convolves a row with row u of the series.
    """
    n = order + 1
    square = np.zeros((n, n), dtype=int)
    ii, jj = _triangle_ij(order)
    square[ii, jj] = np.arange(tri_size(order))
    plan = []
    for u in range(n):
        shift = np.arange(n - u) - np.arange(n - u)[:, None]  # [v, j] = j - v
        plan.append(np.where(shift >= 0, square[u, np.maximum(shift, 0)], tri_size(order)))
    return plan


@lru_cache(maxsize=None)
def _derive_plan(order: int, d: Index) -> tuple[np.ndarray, np.ndarray]:
    # source offset and binomial weight of each output cell of ts_derive
    di, dj = d
    q = order - di - dj
    ii, jj = _triangle_ij(q)
    length = ii + di + jj + dj
    src = length * (length + 1) // 2 + jj + dj  # index_of(i + di, j + dj)
    wi = np.array([math.comb(i + di, di) for i in range(q + 1)])
    wj = np.array([math.comb(j + dj, dj) for j in range(q + 1)])
    return src, wi[ii] * wj[jj]


@dataclass(frozen=True, eq=False)
class TaylorSeries2:
    """Dense triangular store of scaled Taylor coefficients.

    coeffs has shape (..., tri_size(order)); leading axes index a batch of
    series sharing center and order.  Immutable after construction; all
    arithmetic returns new instances.
    """

    center: tuple[float, float]
    order: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim == 0 or arr.shape[-1] != tri_size(self.order):
            raise ValueError(
                f"order {self.order} needs {tri_size(self.order)} coefficients, "
                f"got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def __getitem__(self, ij: Index) -> complex:
        _require_single(self)
        i, j = ij
        if i < 0 or j < 0 or i + j > self.order:
            raise IndexError(f"({i},{j}) outside triangle of order {self.order}")
        return complex(self.coeffs[index_of(i, j)])

    def with_order(self, order: int) -> "TaylorSeries2":
        """Truncate, or zero-pad upward.

        Padding is only exact when the series is an exact polynomial of
        degree <= self.order (phase polynomials are); it is the caller's
        business to know that.
        """
        if order == self.order:
            return self
        out = np.zeros(self.coeffs.shape[:-1] + (tri_size(order),), dtype=complex)
        n = min(tri_size(order), tri_size(self.order))
        out[..., :n] = self.coeffs[..., :n]
        return TaylorSeries2(self.center, order, out)

    def _square(self) -> np.ndarray:
        n = self.order + 1
        sq = np.zeros((n, n), dtype=complex)
        ii, jj = _triangle_ij(self.order)
        sq[ii, jj] = self.coeffs
        return sq

    def __add__(self, other: "TaylorSeries2") -> "TaylorSeries2":
        _check_centers(self, other)
        q = min(self.order, other.order)
        n = tri_size(q)
        return TaylorSeries2(self.center, q, self.coeffs[..., :n] + other.coeffs[..., :n])

    def __sub__(self, other: "TaylorSeries2") -> "TaylorSeries2":
        return self + (-other)

    def __neg__(self) -> "TaylorSeries2":
        return TaylorSeries2(self.center, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, TaylorSeries2):
            return ts_mul(self, other)
        return TaylorSeries2(self.center, self.order, self.coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x, y):
        """Evaluate the Taylor polynomial at points (arrays broadcast)."""
        _require_single(self)
        dx = np.asarray(x) - self.center[0]
        dy = np.asarray(y) - self.center[1]
        out = np.zeros(np.broadcast(dx, dy).shape, dtype=complex)
        for (i, j), c in zip(indices(self.order), self.coeffs):
            if c != 0:
                out = out + c * dx**i * dy**j
        return out if out.shape else complex(out)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def _require_single(a: TaylorSeries2) -> None:
    if a.coeffs.ndim != 1:
        raise ValueError(f"needs a single series, got a batch of shape {a.coeffs.shape[:-1]}")


def _check_centers(a: TaylorSeries2, b: TaylorSeries2) -> None:
    if a.center != b.center:
        raise ValueError(f"center mismatch: {a.center} vs {b.center}")


def ts_zero(center: tuple[float, float], order: int) -> TaylorSeries2:
    return TaylorSeries2(center, order, np.zeros(tri_size(order), dtype=complex))


def ts_from_dict(
    center: tuple[float, float], order: int, values: dict[Index, complex]
) -> TaylorSeries2:
    """Series with the given coefficients, zeros elsewhere."""
    arr = np.zeros(tri_size(order), dtype=complex)
    for (i, j), v in values.items():
        if i + j > order:
            raise ValueError(f"coefficient ({i},{j}) beyond order {order}")
        arr[index_of(i, j)] = v
    return TaylorSeries2(center, order, arr)


def ts_mul(a: TaylorSeries2, b: TaylorSeries2, order: int | None = None) -> TaylorSeries2:
    """Product truncated at `order` (default: the smaller input order).

    The (i, j) output coefficient is the convolution
    sum_{u<=i, v<=j} a[i-u, j-v] b[u, v]; it only ever touches input
    coefficients of length <= i + j.  Batch axes broadcast.
    """
    _check_centers(a, b)
    q = min(a.order, b.order) if order is None else order
    if q > min(a.order, b.order):
        raise ValueError(f"truncation order {q} exceeds input orders")
    toeplitz = _toeplitz_plan(q)
    n, size = q + 1, tri_size(q)
    ii, jj = _triangle_ij(q)
    asq = np.zeros(a.coeffs.shape[:-1] + (n, n), dtype=complex)
    asq[..., ii, jj] = a.coeffs[..., :size]
    fb = np.concatenate([b.coeffs[..., :size], np.zeros(b.coeffs.shape[:-1] + (1,))], axis=-1)
    # Row u of b shifts every row of a down by u; along j the shift is a
    # convolution, done as a product with a Toeplitz matrix of that row.
    # Cells past the triangle pick up garbage and are dropped below.
    out = asq @ fb[..., toeplitz[0]]
    for u in range(1, n):
        m = n - u
        block = asq[..., :m, :m] @ fb[..., toeplitz[u]]
        # adding into the strided view of `out` in place would make numpy
        # buffer both operands; this order needs half the temporaries
        block += out[..., u:, :m]
        out[..., u:, :m] = block
    return TaylorSeries2(a.center, q, out[..., ii, jj])


def ts_derive(a: TaylorSeries2, d: Index) -> TaylorSeries2:
    """Scaled derivative: shift by d with binomial weights.

    Output coefficient (i, j) is C(i+di, di) C(j+dj, dj) a[i+di, j+dj] and
    the result order drops to a.order - |d|.
    """
    di, dj = d
    if di < 0 or dj < 0:
        raise ValueError("derivative index must be non-negative")
    if di + dj > a.order:
        raise ValueError(f"derivative order {di + dj} exceeds series order {a.order}")
    src, weight = _derive_plan(a.order, (di, dj))
    return TaylorSeries2(a.center, a.order - di - dj, a.coeffs[..., src] * weight)


def ts_exp(a: TaylorSeries2, order: int | None = None) -> TaylorSeries2:
    """exp of a series with zero constant term, truncated at `order`.

    Coefficients are propagated through d(exp a) = (da) exp(a) level by
    level, never by naive term-by-term exponentiation.
    """
    _require_single(a)
    q = a.order if order is None else order
    if q > a.order:
        raise ValueError(f"truncation order {q} exceeds input order {a.order}")
    if a.coeffs[0] != 0:
        raise ValueError("nonzero constant term; exp propagation needs a(center) = 0")
    asq = a.with_order(q)._square() if a.order != q else a._square()
    # unscaled x/y-derivative coefficient tables of a
    dxa = asq[1:, :] * np.arange(1, q + 1)[:, None]
    dya = asq[:, 1:] * np.arange(1, q + 1)[None, :]
    g = np.zeros((q + 1, q + 1), dtype=complex)
    g[0, 0] = 1.0
    for s in range(1, q + 1):
        for j in range(s + 1):
            i = s - j
            if i >= 1:
                # i * g[i,j] = sum_{u<i, v<=j} dxa[u,v] g[i-1-u, j-v]
                g[i, j] = np.sum(dxa[:i, : j + 1] * g[i - 1 :: -1, j::-1]) / i
            else:
                g[0, j] = np.sum(dya[0, :j] * g[0, j - 1 :: -1]) / j
    ii, jj = _triangle_ij(q)
    return TaylorSeries2(a.center, q, g[ii, jj])


# -- elementary generators used to author coefficient fields -----------------


def ts_constant(value, center, order: int) -> TaylorSeries2:
    arr = np.zeros(tri_size(order), dtype=complex)
    arr[0] = value
    return TaylorSeries2(center, order, arr)


def _check_axis(axis: str) -> None:
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")


def ts_coordinate(axis: str, center, order: int) -> TaylorSeries2:
    """The coordinate function x or y, expanded about the center."""
    return ts_power(axis, 1, center, order)


def ts_power(axis: str, exponent: int, center, order: int) -> TaylorSeries2:
    """x^k or y^k about the center (exact binomial expansion)."""
    _check_axis(axis)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    c0 = center[0] if axis == "x" else center[1]
    values: dict[Index, complex] = {}
    for m in range(min(exponent, order) + 1):
        coef = math.comb(exponent, m) * c0 ** (exponent - m)
        values[(m, 0) if axis == "x" else (0, m)] = coef
    return ts_from_dict(center, order, values)


def _sine_table(c0: float, order: int) -> list[float]:
    # k-th scaled coefficient of sin about c0: sin(c0 + k pi/2) / k!
    return [math.sin(c0 + k * math.pi / 2) / math.factorial(k) for k in range(order + 1)]


def ts_sin(axis: str, center, order: int) -> TaylorSeries2:
    """sin(x) or sin(y) about the center."""
    _check_axis(axis)
    c0 = center[0] if axis == "x" else center[1]
    table = _sine_table(c0, order)
    values = {((k, 0) if axis == "x" else (0, k)): table[k] for k in range(order + 1)}
    return ts_from_dict(center, order, values)


def ts_cos(axis: str, center, order: int) -> TaylorSeries2:
    """cos(x) or cos(y) about the center."""
    _check_axis(axis)
    c0 = center[0] if axis == "x" else center[1]
    table = _sine_table(c0 + math.pi / 2, order)
    values = {((k, 0) if axis == "x" else (0, k)): table[k] for k in range(order + 1)}
    return ts_from_dict(center, order, values)


def ts_affine(c0, cx, cy, center, order: int) -> TaylorSeries2:
    """c0 + cx*x + cy*y about the center."""
    values: dict[Index, complex] = {(0, 0): c0 + cx * center[0] + cy * center[1]}
    if order >= 1:
        values[(1, 0)] = cx
        values[(0, 1)] = cy
    return ts_from_dict(center, order, values)
