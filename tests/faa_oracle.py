"""Partition-based chain rule for derivatives of exp(P), two variables.

Enumerates the multiplicity partitions behind the bivariate higher-order
chain rule: a derivative of order (i, j) applied to e^P expands over
partitions of (i, j) into distinct nonzero multi-indices with positive
multiplicities.  Exponentially slower than the ratio recurrence that the
production path uses, but trivially auditable; each side checks the other.
The package never calls it: it is the test oracle for
`gpw.operators.residual_series` and the construction's right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from gpw.taylor2d import (
    Index,
    TaylorSeries2,
    index_of,
    indices,
    tri_size,
    ts_from_dict,
)

Part = tuple[int, Index]


def mi_sort_key(a: Index) -> tuple[int, int]:
    """Strict total order on multi-indices: shorter first, ties broken by
    the smaller x-component, so (0, 1) precedes (1, 0)."""
    return (a[0] + a[1], a[0])


@dataclass(frozen=True)
class Partition:
    """One term of the chain-rule sum.

    parts is a tuple of (multiplicity, multi-index) with the multi-indices
    strictly increasing and multiplicities positive.
    """

    parts: tuple[Part, ...]

    @property
    def s(self) -> int:
        return len(self.parts)

    @property
    def mu(self) -> int:
        return sum(k for k, _ in self.parts)

    @property
    def target(self) -> Index:
        i = sum(k * ij[0] for k, ij in self.parts)
        j = sum(k * ij[1] for k, ij in self.parts)
        return (i, j)


@lru_cache(maxsize=None)
def _enumerate(target: Index, mu: int) -> tuple[Partition, ...]:
    ti, tj = target
    candidates = sorted(
        ((i, j) for i in range(ti + 1) for j in range(tj + 1) if (i, j) != (0, 0)),
        key=mi_sort_key,
    )
    out: list[Partition] = []

    def rec(start: int, ri: int, rj: int, rmu: int, acc: list[Part]) -> None:
        if ri == 0 and rj == 0:
            if rmu == 0:
                out.append(Partition(tuple(acc)))
            return
        if rmu == 0:
            return
        for pos in range(start, len(candidates)):
            i, j = candidates[pos]
            kmax = rmu
            if i:
                kmax = min(kmax, ri // i)
            if j:
                kmax = min(kmax, rj // j)
            for k in range(1, kmax + 1):
                acc.append((k, (i, j)))
                rec(pos + 1, ri - k * i, rj - k * j, rmu - k, acc)
                acc.pop()

    rec(0, ti, tj, mu, [])
    return tuple(out)


def enumerate_partitions(target: Index, mu: int) -> list[Partition]:
    """All partitions of `target` into distinct parts with Σ multiplicity = mu.

    Deterministic order: parts are listed in increasing multi-index order
    inside a partition, partitions lexicographically by their part lists.
    """
    ti, tj = target
    if ti < 0 or tj < 0 or ti + tj < 1:
        raise ValueError(f"target {target} must have positive length")
    if not 1 <= mu <= ti + tj:
        raise ValueError(f"mu={mu} outside 1..{ti + tj} for target {target}")
    return list(_enumerate(target, mu))


def _ratio_term(P: TaylorSeries2, partition: Partition) -> complex:
    prod = 1.0 + 0j
    for k, ij in partition.parts:
        prod *= P[ij] ** k / math.factorial(k)
    return prod


def faa_di_bruno_exp_derivative(
    P: TaylorSeries2, target: Index, mu: int | None = None
) -> complex:
    """Bare derivative ∂^(i,j) of e^P at the center, divided by e^P(center).

    Expands the chain-rule sum over all partitions (or just those with the
    given total multiplicity `mu`).  Equals i!j! times the scaled ts_exp
    coefficient whenever P has a zero constant term.
    """
    i, j = target
    if i + j > P.order:
        raise ValueError(f"target {target} exceeds series order {P.order}")
    if i == j == 0:
        return 1.0 + 0j if mu is None else (1.0 + 0j if mu == 0 else 0j)
    mus = range(1, i + j + 1) if mu is None else [mu]
    total = 0j
    for m in mus:
        if not 1 <= m <= i + j:
            continue
        for partition in _enumerate(target, m):
            total += _ratio_term(P, partition)
    return math.factorial(i) * math.factorial(j) * total


def _graded_ratio_table(P: TaylorSeries2, order: int) -> dict[Index, dict[int, complex]]:
    # R[(i,j)][mu]: the mu-homogeneous slice of the derivative ratio above
    table: dict[Index, dict[int, complex]] = {(0, 0): {0: 1.0 + 0j}}
    for s in range(1, order + 1):
        for i in range(s + 1):
            ij = (i, s - i)
            fac = math.factorial(i) * math.factorial(s - i)
            table[ij] = {
                m: fac * sum(_ratio_term(P, p) for p in _enumerate(ij, m))
                for m in range(1, s + 1)
            }
    return table


def phase_operator_series_oracle(
    coeffs: dict[Index, TaylorSeries2],
    M: int,
    P: TaylorSeries2,
    Q: int,
    mu_min: int = 0,
    mu_max: int | None = None,
) -> TaylorSeries2:
    """Series of Σ_{1<=k+l<=M} α_{k,l} · ∂^(k,l)(e^P)/e^P, truncated at Q.

    Pure partition arithmetic: the derivative-ratio coefficients come from
    the chain-rule sum applied to P and to -P combined by the Leibniz rule,
    never from the ratio recurrence.  mu_min/mu_max restrict the total
    power of P's coefficients in each retained term, which isolates the
    part of the operator that is linear in the phase (mu = 1) from the
    products (mu >= 2).
    """
    if P.order < Q + M:
        raise ValueError(f"phase order {P.order} < {Q + M}")
    hi = Q + M
    r_pos = _graded_ratio_table(P, hi)
    r_neg = _graded_ratio_table(-1 * P, Q)
    if mu_max is None:
        mu_max = 2 * hi
    out = None
    for (k, l), alpha in coeffs.items():
        if k + l < 1 or k + l > M:
            continue
        # scaled coefficients of E_{k,l} = e^{-P} ∂^(k,l) e^P, grade-filtered
        ecoeffs: dict[Index, complex] = {}
        for a in range(Q + 1):
            for b in range(Q + 1 - a):
                acc = 0j
                for a2 in range(a + 1):
                    for b2 in range(b + 1):
                        w = math.comb(a, a2) * math.comb(b, b2)
                        left = r_neg[(a2, b2)]
                        right = r_pos[(a - a2 + k, b - b2 + l)]
                        for g1, v1 in left.items():
                            for g2, v2 in right.items():
                                if mu_min <= g1 + g2 <= mu_max:
                                    acc += w * v1 * v2
                ecoeffs[(a, b)] = acc / (math.factorial(a) * math.factorial(b))
        term = _mul_exact(alpha, ts_from_dict(P.center, Q, ecoeffs), Q)
        out = term if out is None else out + term
    if out is None:
        raise ValueError("operator has no derivative terms")
    return out


def _mul_exact(alpha: TaylorSeries2, e: TaylorSeries2, Q: int) -> TaylorSeries2:
    # plain truncated convolution, kept local so the oracle path stays
    # independent of ts_mul's flattening trick
    arr = np.zeros(tri_size(Q), dtype=complex)
    for i1, j1 in indices(min(alpha.order, Q)):
        a = alpha[(i1, j1)]
        if a == 0:
            continue
        for i2, j2 in indices(Q):
            if i1 + i2 + j1 + j2 <= Q:
                arr[index_of(i1 + i2, j1 + j2)] += a * e[(i2, j2)]
    return TaylorSeries2(alpha.center, Q, arr)
