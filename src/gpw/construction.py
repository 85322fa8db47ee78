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
solved together, into one phase array: a GpwBasis, whose per-wave
GpwPolynomial views are built when read.  Level L needs residual layer L of
the phase truncated at M + L, and the derivative-ratio layers behind it
read only phase layers that earlier levels have fixed, apart from the
newest ones: one residual_series call per level carries the ratio table
from level to level and computes only the layers that level makes new or
final, about (M+L)^3 operations per wave, where rerunning the whole
recurrence cost about (M+L)^4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from gpw.operators import (
    PdeOperator,
    operator_batch,
    principal_sqrt,
    require_hyp1,
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
FIRST_ANGLE = math.pi / 6  # basis_angles starts here; gpw construct's default theta


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


@lru_cache(maxsize=None)
def _pi_weights(M: int, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (row, column, weight) of the weighted cells of level L, indexed [I, k]:
    # row M+I, column I+k, weight pi_weight(k, I, M, L)
    weights = np.array([[pi_weight(k, I, M, L) for k in range(M + 1)] for I in range(L + 1)])
    I, k = np.indices(weights.shape)
    cells = (M + I, I + k, weights)
    for array in cells:
        array.setflags(write=False)  # shared by every caller through the cache
    return cells


def level_matrix(op: PdeOperator | Sequence[PdeOperator], L: int) -> np.ndarray:
    """Square system of level L: identity rows for the fixed layer entries,
    then one weighted row per unknown; lower triangular by construction.
    A sequence of operators (see operator_batch) gives one system per
    operator, stacked along a leading axis.
    """
    ops = operator_batch(op)
    M = ops[0].M
    n = M + L + 1
    T = np.zeros((len(ops), n, n), dtype=complex)
    for i in range(M):
        T[:, i, i] = 1.0
    lead = np.array([[o.coefficient_at_center(k, M - k) for k in range(M + 1)] for o in ops])
    rows, cols, weights = _pi_weights(M, L)
    T[:, rows, cols] = weights * lead[:, None, :]
    return T[0] if isinstance(op, PdeOperator) else T


@dataclass(frozen=True)
class GpwNormalization:
    """Choice of the free phase coefficients.

    construct_gpw maps the direction (cos theta, sin theta) through D^{-1/2}
    and A^{-1} of the operator's factored symbol and scales by i*kappa, which
    for the constant Laplacian gives the classical plane-wave exponent.
    fixed_values overrides individual free coefficients (x-degree < M),
    including the first-order pair itself; overriding the pair removes any
    need for a factorization.
    """

    theta: float = 0.0
    fixed_values: dict[Index, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        for (i, j), value in self.fixed_values.items():
            if i < 0 or j < 0:
                raise ValueError(f"fixed value ({i},{j}) has a negative index")
            if not cmath.isfinite(value):
                raise ValueError(f"fixed value ({i},{j}) must be finite, got {value}")

    def has_explicit_pair(self) -> bool:
        """True when fixed_values sets the first-order pair, False when theta does."""
        given = [ij in self.fixed_values for ij in ((1, 0), (0, 1))]
        if given[0] != given[1]:
            raise ValueError("override both first-order coefficients or neither")
        return given[0]


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


@dataclass(frozen=True, eq=False)
class GpwBasis:
    """The waves of one operator: row l of phases, shape (p, tri_size(M+q-1))
    about the operator's center, is the phase normalized by normalizations[l].
    functions holds the rows as GpwPolynomials, built when first read."""

    operator: PdeOperator
    phases: TaylorSeries2
    normalizations: tuple[GpwNormalization, ...]

    def __post_init__(self) -> None:
        shape, degree = self.phases.coeffs.shape, self.operator.M + self.operator.q - 1
        if len(shape) != 2:
            raise ValueError(f"phases must carry one batch axis, got shape {shape}")
        if shape[0] == 0:
            raise ValueError("phases must hold at least one wave")
        if self.phases.order != degree:
            raise ValueError(f"phases of order {self.phases.order}, expected M+q-1 = {degree}")
        if self.phases.center != tuple(self.operator.center):
            raise ValueError(f"phases centered at {self.phases.center}, not the operator's")
        if len(self.normalizations) != shape[0]:
            raise ValueError(f"{len(self.normalizations)} normalizations for {shape[0]} phases")

    @property
    def p(self) -> int:
        return len(self.normalizations)

    @property
    def angles(self) -> list[float]:
        return [norm.theta for norm in self.normalizations]

    @property
    def kappa(self) -> complex:
        return kappa_from_zeroth(self.operator)

    @cached_property
    def functions(self) -> list[GpwPolynomial]:
        center, degree = self.phases.center, self.phases.order
        return [
            GpwPolynomial(self.operator, TaylorSeries2(center, degree, row), norm)
            for row, norm in zip(self.phases.coeffs, self.normalizations)
        ]


def construct_gpw(
    op: PdeOperator | Sequence[PdeOperator], norms: Sequence[GpwNormalization]
) -> GpwBasis | list[GpwBasis]:
    """Fill the free coefficients of each wave from its normalization, then
    solve the levels 0..q-1 in order by forward substitution, all waves at
    once.  Needs hypothesis 1, and hypothesis 2 only for pairs set by theta.

    The level matrix depends on the operator alone, so it is built once per
    level; the waves differ only in their right-hand sides.  The residual's
    ratio layers are carried from level to level (see residual_series), so
    level L costs about (M+L)^3 per wave.  A sequence of operators of one
    family (see operator_batch) is solved in the same pass and gives one
    GpwBasis per operator.  One operator is a batch of one: every array
    carries the operator axis, and only the result drops it.
    """
    ops = operator_batch(op)
    M, q = ops[0].M, ops[0].q
    degree = M + q - 1
    norms = tuple(norms)
    if not norms:
        raise ValueError("need at least one normalization")
    explicit = [norm.has_explicit_pair() for norm in norms]
    if all(explicit):
        for other in ops:
            require_hyp1(other)
    else:  # hypothesis 2, and with it 1, only when some pair is set by theta
        factorizations = [other.factorization for other in ops]

    arr = np.zeros((len(ops), len(norms), tri_size(degree)), dtype=complex)
    for w, norm in enumerate(norms):
        for (i, j), value in norm.fixed_values.items():  # an explicit pair included
            if (i, j) == (0, 0):
                raise ValueError("the constant phase coefficient stays zero")
            if i >= M:
                raise ValueError(f"({i},{j}) is solved by the construction, not free")
            if i + j > degree:
                raise ValueError(f"({i},{j}) beyond phase degree {degree}")
            arr[..., w, index_of(i, j)] = value
    if not all(explicit):
        pair = [index_of(1, 0), index_of(0, 1)]
        directions = [
            np.array([math.cos(norm.theta), math.sin(norm.theta)], dtype=complex)
            for norm in norms
        ]
        for rows, other, factorization in zip(arr, ops, factorizations):
            # ((i kappa A^-1) D^-1/2) direction, grouped as always: folding
            # i kappa into A^-1 D^-1/2 would move the last bits
            lift = 1j * kappa_from_zeroth(other) * np.linalg.inv(factorization.A)
            lift = lift @ factorization.inverse_sqrt_D()
            for row, direction, explicit_pair in zip(rows, directions, explicit):
                if not explicit_pair:
                    row[pair] = lift @ direction
    n_fixed = sum(1 for i, _ in graded_indices(degree) if i < M)

    n_dof, n_eqn, n_fixed_expected = dof_counts(M, q)
    assert n_fixed == n_fixed_expected
    assert n_dof == tri_size(degree)

    solved = 0
    table: dict = {}  # the ratio layers, carried from level to level
    for L in range(q):
        T = level_matrix(ops, L)
        # Residual cells of level L read phase coefficients of length at most
        # M+L, so the phases truncated there give them exactly; layer M+L
        # holds its fixed entries and zeros where this level's unknowns go.
        # The table recomputes only the layers that read layer M+L-1, solved
        # by the previous level, or the new layer M+L.
        partial = TaylorSeries2(ops[0].center, M + L, arr[..., : tri_size(M + L)])
        res = residual_series(ops, partial, L, table=table)
        rhs = -res.coeffs[..., [index_of(I, L - I) for I in range(L + 1)]]
        # peel off previously substituted unknowns of the same level as we
        # walk down the triangle
        unknowns = np.zeros_like(rhs)
        for I in range(L + 1):
            acc = rhs[..., I]
            for I2 in range(max(0, I - M), I):
                acc = acc - T[..., M + I, M + I2, None] * unknowns[..., I2]
            unknowns[..., I] = acc / T[..., M + I, M + I, None]
            arr[..., index_of(M + I, L - I)] = unknowns[..., I]
            solved += 1
    assert solved == n_eqn

    bases = [
        GpwBasis(other, TaylorSeries2(other.center, degree, rows), norms)
        for rows, other in zip(arr, ops)
    ]
    return bases[0] if isinstance(op, PdeOperator) else bases


def kappa_from_zeroth(op: PdeOperator) -> complex:
    """Default wavenumber: principal sqrt of minus the zeroth coefficient
    at the center, or 1 when that coefficient (nearly) vanishes.
    """
    a00 = op.coefficient_at_center(0, 0)
    if abs(a00) < KAPPA_FALLBACK_TOL:
        return 1.0 + 0j
    return principal_sqrt(-a00)


def basis_angles(p: int) -> list[float]:
    """p equispaced directions offset by FIRST_ANGLE (pi/6)."""
    return [FIRST_ANGLE + 2 * l * math.pi / p for l in range(p)]


def build_basis(
    op: PdeOperator | Sequence[PdeOperator], p: int
) -> GpwBasis | list[GpwBasis]:
    """construct_gpw with the standard normalization: one wave per direction
    of basis_angles(p), its first-order pair taken from the operator's
    symbol factorization and kappa_from_zeroth.
    """
    if p < 1:
        raise ValueError("p must be positive")
    return construct_gpw(op, [GpwNormalization(theta=theta) for theta in basis_angles(p)])


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
    (center, M, q, coefficient map).  Each index of the triangle of order
    M+q-1 appears once, finite, or a ValueError names the line."""
    center: tuple[float, float] | None = None
    M = q = None
    values: dict[Index, complex] = {}
    where: dict[Index, int] = {}  # the line of each coefficient
    for lineno, raw in enumerate(text.splitlines(), 1):
        try:
            match raw.split():
                case ["center", x, y]:
                    center = (float(x), float(y))
                case ["M", order]:
                    M = int(order)
                case ["q", order]:
                    q = int(order)
                case [i, j, real, imag]:
                    ij, value = (int(i), int(j)), complex(float(real), float(imag))
                    if ij in where:
                        raise ValueError(f"{ij} repeats line {where[ij]}")
                    if not cmath.isfinite(value):
                        raise ValueError(f"{ij} is not finite")
                    values[ij], where[ij] = value, lineno
                case [_, *_]:  # any other line but a blank one
                    raise ValueError("unrecognized")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}: {raw!r}") from None
    if center is None or M is None or q is None:
        raise ValueError("missing center/M/q header")
    if min(M, q) < 1:
        raise ValueError(f"M and q must be positive, got M {M}, q {q}")
    degree = M + q - 1
    for (i, j), lineno in where.items():
        if min(i, j) < 0 or i + j > degree:
            raise ValueError(f"line {lineno}: ({i}, {j}) outside the triangle of order {degree}")
    if len(values) != tri_size(degree):
        raise ValueError(f"expected {tri_size(degree)} coefficients, got {len(values)}")
    return center, M, q, values
