"""Phase polynomial construction for generalized plane waves.

A generalized plane wave for an order-M operator at a center is exp(P) with
P a polynomial of degree M + q - 1 chosen so that applying the operator
leaves a residual vanishing to order q at the center.  Grouping the residual
coefficients (I, J) by level L = I + J couples each level only to phase
coefficients of length at most M + L, and inside level L the unknowns
lambda_{M+I, L-I} appear through a lower-triangular system whose diagonal is
a nonzero multiple of the leading operator coefficient.  Solving level by
level with forward substitution is therefore explicit; everything with
x-degree below M stays free and is fixed by the normalization up front.
The level systems depend on the operator alone, so the waves of a basis are
solved together, with one batched residual evaluation per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from gpw.operators import (
    HypothesisError,
    PdeOperator,
    SymbolFactorization,
    _hyp1_holds,
    check_hypotheses,
    principal_sqrt,
    residual_series,
)
from gpw.taylor2d import (
    Index,
    TaylorSeries2,
    graded_indices,
    index_of,
    tri_size,
)

KAPPA_FALLBACK_TOL = 1e-10  # zeroth coefficient below this: default kappa = 1


def dof_counts(M: int, q: int) -> tuple[int, int, int]:
    """(total phase coefficients, equations solved, normalization-fixed)."""
    n_dof = (M + q) * (M + q + 1) // 2
    n_eqn = q * (q + 1) // 2
    n_fixed = M * (M + 1) // 2 + q * M
    return n_dof, n_eqn, n_fixed


def pi_weight(k: int, I: int, M: int, L: int) -> int:
    """Weight of lambda_{I+k, M+L-I-k} in residual cell (I, L-I)."""
    return (
        math.factorial(k + I)
        * math.factorial(M - k + L - I)
        // (math.factorial(I) * math.factorial(L - I))
    )


def level_matrix(op: PdeOperator, L: int) -> np.ndarray:
    """Square system of level L: identity rows for the fixed layer entries,
    then one weighted row per unknown; lower triangular by construction.
    """
    M = op.M
    n = M + L + 1
    T = np.zeros((n, n), dtype=complex)
    for i in range(M):
        T[i, i] = 1.0
    for I in range(L + 1):
        for k in range(M + 1):
            T[M + I, I + k] = pi_weight(k, I, M, L) * op.coefficient_at_center(k, M - k)
    return T


@dataclass(frozen=True)
class GpwNormalization:
    """Choice of the free phase coefficients.

    The first-order pair comes from the factored symbol: directions
    (cos theta, sin theta) are mapped through D^{-1/2} and A^{-1} and scaled
    by i*kappa, which for the constant Laplacian reduces to the classical
    plane-wave exponent.  fixed_values overrides individual free
    coefficients (x-degree < M), including the first-order pair itself;
    overriding the pair removes any need for a factorization.
    """

    theta: float = 0.0
    kappa: complex = 1.0
    factorization: SymbolFactorization | None = None
    fixed_values: dict[Index, complex] = field(default_factory=dict)

    def first_order_pair(self) -> tuple[complex, complex]:
        if (1, 0) in self.fixed_values and (0, 1) in self.fixed_values:
            return self.fixed_values[(1, 0)], self.fixed_values[(0, 1)]
        if (1, 0) in self.fixed_values or (0, 1) in self.fixed_values:
            raise ValueError("override both first-order coefficients or neither")
        if self.factorization is None or not self.factorization.valid:
            raise ValueError("no valid symbol factorization and no explicit pair")
        if self.kappa == 0:
            raise ValueError("kappa must be nonzero")
        direction = np.array([math.cos(self.theta), math.sin(self.theta)], dtype=complex)
        inv_A, inv_sqrt_D = self.factorization.direction_factors
        # ((i kappa A^-1) D^-1/2) direction, grouped as always: folding
        # i kappa into a cached A^-1 D^-1/2 would move the last bits
        vec = 1j * self.kappa * inv_A @ inv_sqrt_D @ direction
        return complex(vec[0]), complex(vec[1])


@dataclass(frozen=True)
class GpwPolynomial:
    """The constructed phase: exp of this series is the wave function."""

    operator: PdeOperator
    phase: TaylorSeries2
    normalization: GpwNormalization

    @property
    def center(self) -> tuple[float, float]:
        return self.phase.center

    @property
    def degree(self) -> int:
        return self.phase.order

    def __getitem__(self, ij: Index) -> complex:
        return self.phase[ij]

    def first_order_pair(self) -> tuple[complex, complex]:
        return self.phase[(1, 0)], self.phase[(0, 1)]


def construct_gpw(
    op: PdeOperator, norms: Sequence[GpwNormalization]
) -> list[GpwPolynomial]:
    """Fill the free coefficients of each wave from its normalization, then
    solve the levels 0..q-1 in order by forward substitution, all waves at
    once.  Requires only a nonvanishing leading coefficient at the center.

    The level matrix depends on the operator alone, so it is built once per
    level; the waves differ only in their right-hand sides.
    """
    M, q = op.M, op.q
    degree = M + q - 1
    norms = list(norms)
    if not norms:
        raise ValueError("need at least one normalization")
    if not _hyp1_holds(op):
        raise HypothesisError("leading coefficient vanishes at the center")

    arr = np.zeros((len(norms), tri_size(degree)), dtype=complex)
    for row, norm in zip(arr, norms):
        l10, l01 = norm.first_order_pair()
        row[index_of(1, 0)] = l10
        row[index_of(0, 1)] = l01
        for (i, j), value in norm.fixed_values.items():
            if (i, j) in ((1, 0), (0, 1)):
                continue
            if (i, j) == (0, 0):
                raise ValueError("the constant phase coefficient stays zero")
            if i >= M:
                raise ValueError(f"({i},{j}) is solved by the construction, not free")
            if i + j > degree:
                raise ValueError(f"({i},{j}) beyond phase degree {degree}")
            row[index_of(i, j)] = value
    n_fixed = sum(1 for i, _ in graded_indices(degree) if i < M)

    n_dof, n_eqn, n_fixed_expected = dof_counts(M, q)
    assert n_fixed == n_fixed_expected
    assert n_dof == tri_size(degree)

    solved = 0
    for L in range(q):
        T = level_matrix(op, L)
        # Residual cells of level L read phase coefficients of length at most
        # M+L, so the phases truncated there give them exactly; layer M+L
        # holds its fixed entries and zeros where this level's unknowns go.
        partial = TaylorSeries2(op.center, M + L, arr[:, : tri_size(M + L)])
        res = residual_series(op, partial, L)
        rhs = -res.coeffs[:, [index_of(I, L - I) for I in range(L + 1)]]
        # peel off previously substituted unknowns of the same level as we
        # walk down the triangle
        unknowns = np.zeros_like(rhs)
        for I in range(L + 1):
            acc = rhs[:, I]
            for I2 in range(max(0, I - M), I):
                acc = acc - T[M + I, M + I2] * unknowns[:, I2]
            unknowns[:, I] = acc / T[M + I, M + I]
            arr[:, index_of(M + I, L - I)] = unknowns[:, I]
            solved += 1
    assert solved == n_eqn

    return [
        GpwPolynomial(op, TaylorSeries2(op.center, degree, row), norm)
        for row, norm in zip(arr, norms)
    ]


def kappa_from_zeroth(op: PdeOperator) -> complex:
    """Default wavenumber: principal sqrt of minus the zeroth coefficient
    at the center, or 1 when that coefficient (nearly) vanishes.
    """
    a00 = op.coefficient_at_center(0, 0)
    if abs(a00) < KAPPA_FALLBACK_TOL:
        return 1.0 + 0j
    return principal_sqrt(-a00)


@dataclass(frozen=True)
class GpwBasis:
    operator: PdeOperator
    functions: list[GpwPolynomial]
    angles: list[float]
    kappa: complex

    @property
    def p(self) -> int:
        return len(self.functions)


def basis_angles(p: int) -> list[float]:
    """p equispaced directions offset by pi/6."""
    return [math.pi / 6 + 2 * l * math.pi / p for l in range(p)]


def build_basis(
    op: PdeOperator,
    p: int,
    kappa: complex | None = None,
    factorization: SymbolFactorization | None = None,
) -> GpwBasis:
    """Construct the p-member basis with the standard normalization.

    The symbol factorization comes from the hypothesis check for M = 2;
    higher even orders must supply their own.
    """
    if p < 1:
        raise ValueError("p must be positive")
    report = check_hypotheses(op)
    if not report.hyp1:
        raise HypothesisError("leading coefficient vanishes at the center")
    if factorization is None:
        factorization = report.hyp2
    if factorization is None or not factorization.valid:
        raise HypothesisError("no usable symbol factorization")
    if kappa is None:
        kappa = kappa_from_zeroth(op)
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    angles = basis_angles(p)
    functions = construct_gpw(
        op,
        [
            GpwNormalization(theta=theta, kappa=kappa, factorization=factorization)
            for theta in angles
        ],
    )
    return GpwBasis(operator=op, functions=functions, angles=angles, kappa=kappa)


# ---------------------------------------------------------------------------
# text serialization: center, orders, then one coefficient per line in the
# graded order (shorter first, smaller x-degree first)


def serialize_gpw(gpw: GpwPolynomial) -> str:
    lines = [
        f"center {gpw.center[0]!r} {gpw.center[1]!r}",
        f"M {gpw.operator.M}",
        f"q {gpw.operator.q}",
    ]
    for i, j in graded_indices(gpw.degree):
        value = gpw.phase[(i, j)]
        lines.append(f"{i} {j} {value.real!r} {value.imag!r}")
    return "\n".join(lines) + "\n"


def parse_gpw_text(text: str) -> tuple[tuple[float, float], int, int, dict[Index, complex]]:
    """Inverse of serialize_gpw, up to the operator itself: returns
    (center, M, q, coefficient map)."""
    center: tuple[float, float] | None = None
    M = q = None
    values: dict[Index, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "center":
            center = (float(parts[1]), float(parts[2]))
        elif parts[0] == "M":
            M = int(parts[1])
        elif parts[0] == "q":
            q = int(parts[1])
        elif len(parts) == 4:
            i, j = int(parts[0]), int(parts[1])
            values[(i, j)] = complex(float(parts[2]), float(parts[3]))
        else:
            raise ValueError(f"line {lineno}: unrecognized {raw!r}")
    if center is None or M is None or q is None:
        raise ValueError("missing center/M/q header")
    if len(values) != tri_size(M + q - 1):
        raise ValueError(f"expected {tri_size(M + q - 1)} coefficients, got {len(values)}")
    return center, M, q, values
