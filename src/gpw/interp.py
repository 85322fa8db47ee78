"""Taylor-coefficient matrices of a wave basis and local matching solves.

Stacking the scaled Taylor coefficients of each basis function up to order n
as a column gives a dense matrix whose range decides what local solution data
the basis can reproduce.  The reference matrix built from plane-wave angles
carries the rank analysis; the matching solve itself is a minimum-norm least
squares against the exact solution's coefficient vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from gpw.construction import GpwBasis
from gpw.taylor2d import TaylorSeries2, index_of, indices, tri_size, ts_exp


@dataclass(frozen=True)
class TaylorMatrix:
    """Coefficient rows (k1, k2) with k1+k2 <= n, one column per function.

    Row (k1, k2) sits at flat offset (k1+k2)(k1+k2+1)/2 + k2, the same
    triangular layout the series store uses.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != tri_size(self.n):
            raise ValueError(
                f"need {tri_size(self.n)} rows for order {self.n}, got {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]

    def row_of(self, k1: int, k2: int) -> np.ndarray:
        return self.entries[index_of(k1, k2)]


def assemble_gpw_matrix(basis: GpwBasis, n: int) -> TaylorMatrix:
    """Columns are the order-n coefficient vectors of exp(phase_l).

    Phases of degree below n are zero-padded (exact: they are polynomials);
    all p phases are exponentiated in one batched ts_exp call.  Matching
    theory wants q >= n - 1; below that the matrix still assembles but loses
    its range guarantee, so warn.
    """
    if basis.operator.q < n - 1:
        warnings.warn(
            f"basis built with q={basis.operator.q} < n-1={n - 1}: "
            "matching is not guaranteed to reach order n",
            stacklevel=2,
        )
    order = max([n] + [gpw.degree for gpw in basis.functions])
    phases = np.stack([gpw.phase.with_order(order).coeffs for gpw in basis.functions])
    waves = ts_exp(TaylorSeries2(basis.operator.center, order, phases), order=n)
    return TaylorMatrix(n=n, entries=np.ascontiguousarray(waves.coeffs.T))


def assemble_reference_matrix(angles, n: int) -> TaylorMatrix:
    """Closed-form reference matrix: row (k1, k2), column l is
    cos^k1(theta_l) sin^k2(theta_l) / (k1! k2!).
    """
    angles = [float(t) for t in angles]
    reduced = [math.fmod(math.fmod(t, 2 * math.pi) + 2 * math.pi, 2 * math.pi) for t in angles]
    if len(set(reduced)) != len(reduced):
        raise ValueError("duplicate angles")
    columns = [(math.cos(t), math.sin(t)) for t in angles]
    entries = np.empty((tri_size(n), len(columns)), dtype=complex)
    for row, (k1, k2) in enumerate(indices(n)):
        w = 1.0 / (math.factorial(k1) * math.factorial(k2))
        for col, (a, b) in enumerate(columns):
            entries[row, col] = a**k1 * b**k2 * w
    return TaylorMatrix(n=n, entries=entries)


def numeric_rank(mat, tol: float = 1e-9) -> int:
    """Count of singular values above tol times the largest one."""
    entries = mat.entries if isinstance(mat, TaylorMatrix) else np.asarray(mat)
    s = np.linalg.svd(entries, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


@dataclass(frozen=True)
class TaylorMatch:
    """Match coefficients and the unweighted residual norm: one row of
    coefficients and one residual per row of weights when they are stacked."""

    coefficients: np.ndarray
    residual: float | np.ndarray


def taylor_match(
    mat: TaylorMatrix,
    F,
    rcond: float = 1e-9,
    row_weights=None,
) -> TaylorMatch:
    """Minimum-norm least-squares solve of (matrix) X = F.

    The matrix is rank-deficient by design (rank at most 2n+1 regardless of
    p and rows), so the SVD threshold picks the minimum-norm representative.
    row_weights multiplies each matching condition before the solve:
    weighting row (k1, k2) by h^(k1+k2) calibrates the match to a disk of
    radius h, so mismatches are pushed onto the conditions that matter least
    there.  Weights of shape (R, rows) stack R such solves, one per row, each
    the same lstsq as its own call.  The reported residual is always on the
    unweighted system.
    """
    F = np.asarray(F, dtype=complex).ravel()
    if F.shape[0] != mat.rows:
        raise ValueError(f"F has {F.shape[0]} entries, matrix has {mat.rows} rows")
    stacked = row_weights is not None and np.ndim(row_weights) == 2
    if row_weights is None:
        systems = [(mat.entries, F)]
    else:
        w = np.asarray(row_weights, dtype=float)
        w = w if stacked else w.reshape(1, -1)
        if w.shape[-1] != mat.rows:
            raise ValueError(f"{w.shape[-1]} row weights for {mat.rows} rows")
        systems = zip(mat.entries * w[:, :, None], F * w)
    X = np.array([np.linalg.lstsq(A, rhs, rcond=rcond)[0] for A, rhs in systems])
    # one matrix-vector product per solve: a batched matmul would move the
    # last bits of the residual a single call has always reported
    residual = np.array([np.linalg.norm(mat.entries @ x - F) for x in X])
    if stacked:
        return TaylorMatch(coefficients=X, residual=residual)
    return TaylorMatch(coefficients=X[0], residual=float(residual[0]))
