"""Truncated bivariate Taylor series about a fixed center.

A function f that is smooth near (x0, y0) is represented by its scaled
Taylor coefficients

    c[i, j] = (d/dx)^i (d/dy)^j f(x0, y0) / (i! j!),

i.e. the coefficients of the Taylor polynomial in X = x - x0, Y = y - y0.
Every operation here works on these scaled coefficients and truncates at a
fixed total degree: a series of order Q carries exactly the triangle
{(i, j) : i + j <= Q}.  Coefficients are stored in a flat complex array,
level by level, with (i, j) at offset (i+j)(i+j+1)/2 + j.  `+` and `-`
take a number on either side and move only the constant coefficient c[0, 0];
`*` by a number scales every coefficient.

A series may also carry a batch of such triangles: coefficients of shape
(..., tri_size(order)), one row per series.  Products, derivatives,
truncation, sums and differences act on the last axis and broadcast an
unbatched series against a batched one, so a whole basis of phases is
differentiated in one call, and ts_exp exponentiates a whole batch at
once.  Series are multiplied by one kernel: mul_matrices gathers the matrix
of multiplication by a series, ts_mul is one product with it, and
residual_series multiplies with its layer rows.  Evaluation takes a batch
too: calling a series is a batched monomial product, one real matrix
product per block of points for all rows.  Indexing takes a single series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Index = tuple[int, int]

# Points per block of the monomial table in __call__: at 2048 the table of a
# degree-4 phase (15 rows, 240 KiB) stays below the 320 KiB that two complex
# work arrays of a 10,280-point Horner evaluation took, and doubling it costs
# peak memory for a few percent of speed.
EVAL_BLOCK = 2048


def tri_size(order: int) -> int:
    """Number of coefficients carried by a series of the given order."""
    return (order + 1) * (order + 2) // 2


def index_of(i: int, j: int) -> int:
    """Flat storage offset of coefficient (i, j)."""
    s = i + j
    return s * (s + 1) // 2 + j


def indices(order: int) -> list[Index]:
    """All indices of length <= order, in storage (flat-offset) order."""
    return [(s - j, j) for s in range(order + 1) for j in range(s + 1)]


def graded_indices(order: int) -> list[Index]:
    """All indices of length <= order: shorter first, ties broken by the
    smaller x-component, so (0, 1) precedes (1, 0)."""
    return [(i, s - i) for s in range(order + 1) for i in range(s + 1)]


@lru_cache(maxsize=None)
def _triangle_ij(order: int) -> tuple[np.ndarray, np.ndarray]:
    # (i-array, j-array) of the flat layout, for scatter/gather to squares
    ii = np.array([i for i, _ in indices(order)])
    jj = np.array([j for _, j in indices(order)])
    return ii, jj


@lru_cache(maxsize=None)
def _mul_matrix_plan(order: int) -> np.ndarray:
    """Gather indices into a flat triangle with one zero appended: [out, in]
    picks out - in when in <= out componentwise, the zero otherwise."""
    ii, jj = _triangle_ij(order)
    di, dj = ii[:, None] - ii, jj[:, None] - jj
    return np.where((di >= 0) & (dj >= 0), (di + dj) * (di + dj + 1) // 2 + dj, tri_size(order))


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
        if self.order < 0:
            raise ValueError(f"series order must be non-negative, got {self.order}")
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

    def __add__(self, other) -> "TaylorSeries2":
        """Sum with a series, truncated at the smaller order, or with a
        number, which only moves the constant coefficient."""
        if not isinstance(other, TaylorSeries2):
            coeffs = self.coeffs.copy()
            coeffs[..., 0] += complex(other)
            return TaylorSeries2(self.center, self.order, coeffs)
        _check_centers(self, other)
        q = min(self.order, other.order)
        n = tri_size(q)
        return TaylorSeries2(self.center, q, self.coeffs[..., :n] + other.coeffs[..., :n])

    def __radd__(self, other) -> "TaylorSeries2":
        return self + other

    def __sub__(self, other) -> "TaylorSeries2":
        return self + (-other)

    def __rsub__(self, other) -> "TaylorSeries2":
        return -self + other

    def __neg__(self) -> "TaylorSeries2":
        return TaylorSeries2(self.center, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, TaylorSeries2):
            return ts_mul(self, other)
        return TaylorSeries2(self.center, self.order, self.coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x, y):
        """Evaluate the Taylor polynomial at points (arrays broadcast).

        A batch is evaluated row by row in one pass; the batch axes lead the
        result, the broadcast shape of the points follows.  The points go
        through in blocks of EVAL_BLOCK.  Per block a real table of the
        monomials dx^i dy^j in the flat layout is built level by level, each
        level from the one below it, and one real matrix product with the
        coefficients viewed as (re, im) float pairs sums every series at
        once.  At the center every monomial but the constant one is zero,
        so the result is c[0, 0] exactly.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape, batch = x.shape, self.coeffs.shape[:-1]
        x, y = x.ravel(), y.ravel()
        size = tri_size(self.order)
        # (size, 2 * rows): column 2r is the real part of row r, 2r+1 its imaginary part
        pairs = np.ascontiguousarray(self.coeffs.reshape(-1, size).T).view(float)
        out = np.empty((x.size, pairs.shape[1]))
        table = np.empty((max(size, 3), min(x.size, EVAL_BLOCK)))  # rows 1, 2: dx, dy
        table[0] = 1.0
        for start in range(0, x.size, EVAL_BLOCK):
            stop = min(start + EVAL_BLOCK, x.size)
            mono = table[:, : stop - start]
            np.subtract(x[start:stop], self.center[0], out=mono[1])  # dx
            np.subtract(y[start:stop], self.center[1], out=mono[2])  # dy
            for s in range(2, self.order + 1):
                lo, hi = index_of(s - 1, 0), index_of(s, 0)
                np.multiply(mono[lo:hi], mono[1], out=mono[hi : hi + s])  # dx * level s-1
                np.multiply(mono[hi - 1], mono[2], out=mono[hi + s])  # dy^s
            np.matmul(mono[:size].T, pairs, out=out[start:stop])
        values = out.view(complex).T.reshape(batch + shape)
        return values if values.shape else complex(values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def _require_single(a: TaylorSeries2) -> None:
    if a.coeffs.ndim != 1:
        raise ValueError(f"needs a single series, got a batch of shape {a.coeffs.shape[:-1]}")


def _check_centers(a: TaylorSeries2, b: TaylorSeries2) -> None:
    if a.center != b.center:
        raise ValueError(f"center mismatch: {a.center} vs {b.center}")


def ts_from_dict(
    center: tuple[float, float], order: int, values: dict[Index, complex]
) -> TaylorSeries2:
    """Series with the given coefficients, zeros elsewhere."""
    arr = np.zeros(tri_size(order), dtype=complex)
    for (i, j), v in values.items():
        if i < 0 or j < 0:
            raise ValueError(f"coefficient ({i},{j}) has a negative index")
        if i + j > order:
            raise ValueError(f"coefficient ({i},{j}) beyond order {order}")
        arr[index_of(i, j)] = v
    return TaylorSeries2(center, order, arr)


def ts_mul(a: TaylorSeries2, b: TaylorSeries2, order: int | None = None) -> TaylorSeries2:
    """Product truncated at `order` (default: the smaller input order).

    The (i, j) output coefficient is the convolution
    sum_{u<=i, v<=j} a[i-u, j-v] b[u, v]; it only ever touches input
    coefficients of length <= i + j.  It is one product with the matrix of
    multiplication by a that mul_matrices gathers, the kernel residual_series
    uses too.  Batch axes broadcast.  When only a is a batch the operands
    swap, so the matrix is gathered from the single series; a product of two
    batches gathers one matrix per row, batch * tri_size(order)**2 complex
    entries.
    """
    _check_centers(a, b)
    q = min(a.order, b.order) if order is None else order
    if q < 0:
        raise ValueError(f"truncation order must be non-negative, got {q}")
    if q > min(a.order, b.order):
        raise ValueError(f"truncation order {q} exceeds input orders")
    if a.coeffs.ndim > 1 and b.coeffs.ndim == 1:
        a, b = b, a
    product = mul_matrices(a.coeffs, q) @ b.coeffs[..., : tri_size(q), None]
    return TaylorSeries2(a.center, q, product[..., 0])


def mul_matrices(rows: np.ndarray, order: int, first_layer: int = 0) -> np.ndarray:
    """Matrix C of multiplication by each row of raw triangular coefficients
    (..., m) with m >= tri_size(order), truncated at order and gathered in
    one step: C[out, in] = row[out - in], so C @ b is the product of the row
    with the series b.  Shape (..., n, n) with n = tri_size(order).  Only the
    output rows of the layers first_layer through order are gathered;
    first_layer = order gives the rows of the top layer, shape
    (..., order + 1, n)."""
    n = tri_size(order)
    padded = np.zeros(rows.shape[:-1] + (n + 1,), dtype=complex)
    padded[..., :n] = rows[..., :n]
    # take, not fancy indexing: its result is C-ordered, so every matrix of
    # the stack reaches BLAS alike, whatever the batch size
    return np.take(padded, _mul_matrix_plan(order)[tri_size(first_layer - 1) :], axis=-1)


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
    level, never by naive term-by-term exponentiation.  A batch is
    exponentiated row by row in one pass, the batch axes leading.
    """
    q = a.order if order is None else order
    if q < 0:
        raise ValueError(f"truncation order must be non-negative, got {q}")
    if q > a.order:
        raise ValueError(f"truncation order {q} exceeds input order {a.order}")
    const = a.coeffs[..., 0]
    if np.any(const):
        row = "" if const.ndim == 0 else f" in row {', '.join(map(str, np.argwhere(const)[0]))}"
        raise ValueError(f"nonzero constant term{row}; exp propagation needs a(center) = 0")
    batch = a.coeffs.shape[:-1]
    ii, jj = _triangle_ij(q)
    asq = np.zeros(batch + (q + 1, q + 1), dtype=complex)
    asq[..., ii, jj] = a.coeffs[..., : tri_size(q)]
    # unscaled x-derivative coefficient table of a, and the y-derivative
    # of its x^0 row (the only one the j-recurrence at i = 0 reads)
    dxa = asq[..., 1:, :] * np.arange(1, q + 1)[:, None]
    dya = asq[..., 0, 1:] * np.arange(1, q + 1)
    g = np.zeros(batch + (q + 1, q + 1), dtype=complex)
    g[..., 0, 0] = 1.0
    for s in range(1, q + 1):
        for j in range(s + 1):
            i = s - j
            if i >= 1:
                # i * g[i,j] = sum_{u<i, v<=j} dxa[u,v] g[i-1-u, j-v]
                terms = dxa[..., :i, : j + 1] * g[..., i - 1 :: -1, j::-1]
                g[..., i, j] = np.sum(terms, axis=(-2, -1)) / i
            else:
                g[..., 0, j] = np.sum(dya[..., :j] * g[..., 0, j - 1 :: -1], axis=-1) / j
    return TaylorSeries2(a.center, q, g[..., ii, jj])


# -- elementary generators used to author coefficient fields -----------------


def ts_constant(value, center, order: int) -> TaylorSeries2:
    arr = np.zeros(tri_size(order), dtype=complex)
    arr[0] = value
    return TaylorSeries2(center, order, arr)


def _along_axis(axis: str, center, order: int, coefficient) -> TaylorSeries2:
    """A function of x or y alone about the center: coefficient(t0, k) is its
    k-th scaled coefficient, t0 the center's coordinate on that axis."""
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    t0 = center[0] if axis == "x" else center[1]
    cells = [(k, 0) if axis == "x" else (0, k) for k in range(order + 1)]
    return ts_from_dict(center, order, {ij: coefficient(t0, k) for k, ij in enumerate(cells)})


def ts_coordinate(axis: str, center, order: int) -> TaylorSeries2:
    """The coordinate function x or y, expanded about the center."""
    return _along_axis(axis, center, order, lambda t0, k: (t0, 1, 0)[min(k, 2)])


def _sine(shift: float):
    # k-th scaled coefficient of sin(t + shift) about t0: sin(t0 + shift + k pi/2) / k!
    return lambda t0, k: math.sin(t0 + shift + k * math.pi / 2) / math.factorial(k)


def ts_sin(axis: str, center, order: int) -> TaylorSeries2:
    """sin(x) or sin(y) about the center."""
    return _along_axis(axis, center, order, _sine(0.0))


def ts_cos(axis: str, center, order: int) -> TaylorSeries2:
    """cos(x) or cos(y) about the center: sin shifted by pi/2."""
    return _along_axis(axis, center, order, _sine(math.pi / 2))
