"""Taylor-coefficient matrices of a wave basis and local matching solves.

Stacking the scaled Taylor coefficients of each basis function up to order n
as a column gives a dense matrix whose range decides what local solution data
the basis can reproduce.  That matrix is kept as the batch of series it comes
from, one row per function: the rows × p matrix is ``waves.coeffs.T``.  The
reference matrix built from plane-wave angles carries the rank analysis; the
matching solve itself is a minimum-norm least squares against the exact
solution's coefficient vector.

Stacked solves go through numpy's own least-squares gufunc, the kernel
behind ``np.linalg.lstsq``, in one call: each system gets the same LAPACK
solve, bit for bit, as its own ``np.linalg.lstsq`` call.  The gufunc is a
private numpy name, looked up once on import.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from gpw.construction import GpwBasis
from gpw.taylor2d import TaylorSeries2, indices, tri_size, ts_exp

RANK_RTOL = 1e-9  # numeric_rank counts singular values above this times the largest

# np.linalg.lstsq's kernel: broadcasts over the leading axes of both operands
_LSTSQ_SIGNATURE = "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"


def _stacked_lstsq() -> np.ufunc:
    try:
        from numpy.linalg import _umath_linalg

        gufunc = _umath_linalg.lstsq
    except (ImportError, AttributeError):
        gufunc = None
    if getattr(gufunc, "signature", None) != _LSTSQ_SIGNATURE:
        raise ImportError(
            f"gpw.interp needs numpy's least-squares gufunc "
            f"numpy.linalg._umath_linalg.lstsq {_LSTSQ_SIGNATURE}, which numpy "
            f"{np.__version__} does not provide; gpw requires numpy >= 2.0"
        )
    return gufunc


_LSTSQ = _stacked_lstsq()


def _raise_nonconvergence(err, flag):
    # the errstate callback np.linalg.lstsq installs around the same gufunc
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


class MatchingOrderWarning(UserWarning):
    """A basis of order q < n - 1 matched to order n: not guaranteed to reach it."""


def least_tangency(n: int) -> int:
    """The smallest q that guarantees matching to order n: max(1, n - 1)."""
    return max(1, n - 1)


def assemble_gpw_matrix(basis: GpwBasis | Sequence[GpwBasis], n: int) -> TaylorSeries2:
    """The order-n series of exp(phase_l), one row per wave of the basis.

    The basis's phase array, zero-padded when its degree is below n (exact:
    phases are polynomials), goes to one batched ts_exp call as it is.  A
    sequence of bases of one size p and one phase degree stacks their phase
    arrays into a (bases, p) batch, labelled with the first basis's center,
    for the same call.  Matching theory wants q >= least_tangency(n); below
    that the matrix still assembles but loses its range guarantee, so warn.
    """
    bases = [basis] if isinstance(basis, GpwBasis) else list(basis)
    if not bases:
        raise ValueError("need at least one basis")
    sizes = sorted({other.p for other in bases})
    if len(sizes) > 1:
        raise ValueError(f"bases of a batch differ in size p: {sizes}")
    degrees = sorted({other.phases.order for other in bases})
    if len(degrees) != 1:
        raise ValueError(f"bases of a batch differ in phase degree: {degrees}")
    q = min(other.operator.q for other in bases)
    if q < least_tangency(n):
        warnings.warn(
            f"basis built with q={q} < n-1={n - 1}: "
            "matching is not guaranteed to reach order n",
            MatchingOrderWarning,
            stacklevel=2,
        )
    if isinstance(basis, GpwBasis):
        phases = basis.phases
    else:
        stacked = np.stack([other.phases.coeffs for other in bases])
        phases = TaylorSeries2(bases[0].operator.center, degrees[0], stacked)
    return ts_exp(phases.with_order(max(n, degrees[0])), order=n)


def assemble_reference_matrix(angles, n: int) -> TaylorSeries2:
    """Closed-form reference: row l is the order-n series of
    exp(x cos(theta_l) + y sin(theta_l)) about the origin, so coefficient
    (k1, k2) is cos^k1(theta_l) sin^k2(theta_l) / (k1! k2!).
    """
    angles = [float(t) for t in angles]
    reduced = [math.fmod(math.fmod(t, 2 * math.pi) + 2 * math.pi, 2 * math.pi) for t in angles]
    if len(set(reduced)) != len(reduced):
        raise ValueError("duplicate angles")
    columns = [(math.cos(t), math.sin(t)) for t in angles]
    coeffs = np.empty((len(columns), tri_size(n)), dtype=complex)
    for row, (k1, k2) in enumerate(indices(n)):
        w = 1.0 / (math.factorial(k1) * math.factorial(k2))
        for col, (a, b) in enumerate(columns):
            coeffs[col, row] = a**k1 * b**k2 * w
    return TaylorSeries2((0.0, 0.0), n, coeffs)


def numeric_rank(mat) -> int:
    """Count of singular values above RANK_RTOL times the largest.  A batch
    of series counts as its rows × p matrix, any other input as an array."""
    entries = mat.coeffs.T if isinstance(mat, TaylorSeries2) else np.asarray(mat)
    s = np.linalg.svd(entries, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


@dataclass(frozen=True, eq=False)
class TaylorMatch:
    """Match coefficients, one row per row of weights when they are stacked,
    and the rows × p matrix and data they were solved against.

    The residual, the norm of the unweighted mismatch, is computed when it
    is first read: a float, or one per row of stacked coefficients.
    """

    coefficients: np.ndarray
    matrix: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @cached_property
    def residual(self) -> float | np.ndarray:
        # one matrix-vector product per solve: a batched matmul would move
        # the last bits of the residual a single solve has always reported
        X = np.atleast_2d(self.coefficients)
        residual = np.array([np.linalg.norm(self.matrix @ x - self.data) for x in X])
        return residual if self.coefficients.ndim == 2 else float(residual[0])


def taylor_match(
    waves: TaylorSeries2,
    F,
    rcond: float | None = 1e-9,
    row_weights=None,
) -> TaylorMatch:
    """Minimum-norm least-squares solve of (waves.coeffs.T) X = F.

    The matrix is rank-deficient by design (rank at most 2n+1 regardless of
    p and rows), so the SVD threshold picks the minimum-norm representative:
    singular values below rcond times the largest count as zero, and
    rcond=None means lstsq's machine-precision cutoff eps · max(rows, p).
    row_weights multiplies each matching condition before the solve:
    weighting row (k1, k2) by h^(k1+k2) calibrates the match to a disk of
    radius h, so mismatches are pushed onto the conditions that matter least
    there.  No weights are weights of one.  Weights of shape (R, rows) stack
    R such solves, one per row, all in one LAPACK call, each bit for bit the
    np.linalg.lstsq solve of its own system.
    """
    # contiguous: a product with the transposed view moves the residual's last bits
    A = np.ascontiguousarray(waves.coeffs.T)
    rows = A.shape[0]
    F = np.asarray(F, dtype=complex).ravel()
    if F.shape[0] != rows:
        raise ValueError(f"F has {F.shape[0]} entries, matrix has {rows} rows")
    w = np.ones(rows) if row_weights is None else np.asarray(row_weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != rows:
        raise ValueError(f"row weights of shape {w.shape} for {rows} rows")
    if rcond is None:
        rcond = np.finfo(float).eps * max(A.shape)
    W = np.atleast_2d(w)
    with np.errstate(
        call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        X = _LSTSQ(A * W[:, :, None], (F * W)[:, :, None], rcond, signature="DDd->Ddid")[0]
    X = X[..., 0]  # (R, p, 1) -> (R, p)
    return TaylorMatch(coefficients=X if w.ndim == 2 else X[0], matrix=A, data=F)
