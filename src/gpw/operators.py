"""Variable-coefficient linear differential operators of order M >= 2.

An operator is a finite sum of coefficient fields times partial derivatives,
L u = sum_{0 <= k+l <= M} c_{k,l}(x,y) d_x^k d_y^l u.  This module models L
near a point, checks the two structural hypotheses the phase construction
needs (nonvanishing leading coefficient; factorizable order-2 symbol:
`check_hypotheses` returns the factorization or raises `HypothesisError`),
and applies the induced operator on phases,

    P  |->  L(e^P) / e^P - c_{0,0},

as truncated series arithmetic.  The derivative ratios E_{k,l} =
d_x^k d_y^l(e^P)/e^P start at E_{1,0} = d_x P, E_{0,1} = d_y P and satisfy
E_{k+1,l} = d_x E_{k,l} + (d_x P) E_{k,l}; each term c_{k,l} E_{k,l} is then
one matrix product of the ratio rows with the multiplication matrix of
c_{k,l}.  The partition-sum route in the test oracle `tests/faa_oracle.py`
computes the same object combinatorially.
"""

from __future__ import annotations

import ast
import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from gpw.taylor2d import (
    Index,
    TaylorSeries2,
    mul_matrix,
    tri_size,
    ts_constant,
    ts_coordinate,
    ts_cos,
    ts_derive,
    ts_mul,
    ts_sin,
)

HYP1_RTOL = 1e-10  # leading coefficient must clear this times the largest one


class HypothesisError(ValueError):
    """The operator fails hypothesis 1 or 2 at its center.

    A property of the center, not of the arguments: a study may redraw the
    center on this error and on no other.
    """


def principal_sqrt(z: complex) -> complex:
    """Principal square root; a negative real input with imaginary part -0.0
    would otherwise fall on the wrong side of the branch cut.
    """
    z = complex(z)
    if z.imag == 0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


@dataclass(frozen=True)
class PdeOperator:
    """Operator of order M localized at a center, with series coefficients.

    coeffs maps the derivative index (k, l) to the Taylor series of its
    coefficient field about the shared center; absent indices mean zero.
    q is the construction order the operator was instantiated for.
    """

    M: int
    center: tuple[float, float]
    coeffs: dict[Index, TaylorSeries2]
    q: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"operator order {self.M} < 2")
        if self.q < 1:
            raise ValueError(f"construction order {self.q} < 1")
        for (k, l), series in self.coeffs.items():
            if k < 0 or l < 0 or k + l > self.M:
                raise ValueError(f"coefficient index ({k},{l}) outside order {self.M}")
            if series.coeffs.ndim != 1:
                raise ValueError(f"coefficient ({k},{l}) is a batch of shape {series.coeffs.shape}")
            if series.center != self.center:
                raise ValueError(
                    f"coefficient ({k},{l}) centered at {series.center}, "
                    f"operator at {self.center}"
                )

    def coefficient_at_center(self, k: int, l: int) -> complex:
        series = self.coeffs.get((k, l))
        return complex(series.coeffs[0]) if series is not None else 0j

    def principal_at_center(self) -> complex:
        """Value of the (M, 0) coefficient at the center (Hypothesis 1 pivot)."""
        return self.coefficient_at_center(self.M, 0)


@dataclass(frozen=True)
class SymbolFactorization:
    """Congruence factorization gamma = A^T D A, D diagonal with no zero entry."""

    gamma: np.ndarray
    A: np.ndarray
    D: np.ndarray

    def inverse_sqrt_D(self) -> np.ndarray:
        """diag(1/sqrt(mu1), 1/sqrt(mu2)), principal square roots."""
        return np.diag([1 / principal_sqrt(self.D[0, 0]), 1 / principal_sqrt(self.D[1, 1])])


def factor_principal_symbol(gamma: np.ndarray) -> SymbolFactorization:
    """Factor a symmetric 2x2 gamma as A^T D A with D diagonal.

    Branch order is fixed for determinism: complete the square on the first
    variable when gamma[0,0] != 0, on the second when only gamma[1,1] != 0,
    and rotate X = U+V, Y = U-V for a pure cross term.  Raises
    HypothesisError when every entry vanishes or D has a zero diagonal entry.
    """
    gamma = np.asarray(gamma, dtype=complex)
    g1, g3 = gamma[0, 0], gamma[1, 1]
    g2 = gamma[0, 1] + gamma[1, 0]  # full cross coefficient of the form
    if g1 != 0:
        A = np.array([[1, g2 / (2 * g1)], [0, 1]], dtype=complex)
        D = np.diag([g1, g3 - g2**2 / (4 * g1)])
    elif g3 != 0:
        A = np.array([[1, 0], [g2 / (2 * g3), 1]], dtype=complex)
        D = np.diag([g1 - g2**2 / (4 * g3), g3])
    elif g2 != 0:
        # X = U+V, Y = U-V turns g2*XY into g2*U^2 - g2*V^2
        A = np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex)
        D = np.diag([g2, -g2])
    else:
        D = np.zeros((2, 2), dtype=complex)
    if D[0, 0] == 0 or D[1, 1] == 0:
        raise HypothesisError("no usable symbol factorization")
    return SymbolFactorization(gamma, A, D)


def principal_symbol_matrix(op: PdeOperator) -> np.ndarray:
    """Symmetric matrix of the order-2 symbol in the sign convention that
    makes the first-order phase equation read (l1, l2) gamma (l1, l2)^T = -kappa^2.

    The order-M term contributes c_{k,l} (d_x P)^k (d_y P)^l to the constant
    residual coefficient, so the form that must equal -c_{0,0} is built from
    the coefficients directly; moving it across the equation negates it.
    """
    if op.M != 2:
        raise ValueError(f"an operator of order M={op.M} has no order-2 symbol")
    a20 = op.coefficient_at_center(2, 0)
    a11 = op.coefficient_at_center(1, 1)
    a02 = op.coefficient_at_center(0, 2)
    return -np.array([[a20, a11 / 2], [a11 / 2, a02]], dtype=complex)


def check_hypotheses(op: PdeOperator) -> SymbolFactorization:
    """The factorization of the order-2 symbol at the center, or a
    HypothesisError naming the center when hypothesis 1 (require_hyp1) or 2
    (nonzero diagonal of D) fails there.  M != 2 has no order-2 symbol, a
    property of the operator, not of the center: a plain ValueError."""
    require_hyp1(op)
    try:
        return factor_principal_symbol(principal_symbol_matrix(op))
    except HypothesisError as exc:
        raise HypothesisError(f"{exc} at the center {op.center}") from None


def require_hyp1(op: PdeOperator) -> None:
    """HypothesisError unless the (M, 0) coefficient at the center clears
    HYP1_RTOL times the largest coefficient there and that one is nonzero."""
    largest = max(
        (abs(op.coefficient_at_center(k, l)) for (k, l) in op.coeffs), default=0.0
    )
    if not (abs(op.principal_at_center()) > HYP1_RTOL * largest and largest > 0):
        raise HypothesisError(f"leading coefficient vanishes at the center {op.center}")


def operator_batch(op: PdeOperator | Sequence[PdeOperator]) -> list[PdeOperator]:
    """The operators of a batch: [op] for one operator, else the sequence,
    which must be non-empty and share M, q and the coefficient indices in one
    order, so every operator sums its terms alike."""
    if isinstance(op, PdeOperator):
        return [op]
    ops = list(op)
    if not ops:
        raise ValueError("need at least one operator")
    if len({(other.M, other.q, tuple(other.coeffs)) for other in ops}) > 1:
        raise ValueError("operators of a batch differ in M, q or coefficient indices")
    return ops


def _per_operator(op, arrays: list[np.ndarray], ndim: int) -> np.ndarray:
    """Stack one array per operator and pad the stack to ndim axes after the
    operator axis, so it broadcasts against phases with ndim axes (a matrix
    against them under matmul); one operator keeps its array as it is."""
    if isinstance(op, PdeOperator):
        return arrays[0]
    stacked = np.array(arrays)
    return stacked.reshape(stacked.shape[:1] + (1,) * (ndim - stacked.ndim) + stacked.shape[1:])


def apply_phase_operator(
    op: PdeOperator | Sequence[PdeOperator], P: TaylorSeries2, Q: int
) -> TaylorSeries2:
    """Series of L(e^P)/e^P - c_{0,0} about the center, truncated at Q.

    Needs P.order >= Q + M: each derivative ratio E_{k,l} loses k+l orders.
    For a sequence of operators (see operator_batch) the leading axis of P
    runs over them and at least one wave axis follows; row c holds phases
    about the center of operator c, and P is labelled with the first one.
    """
    ops = operator_batch(op)
    first = ops[0]
    if P.center != first.center:
        raise ValueError(f"phase centered at {P.center}, operator at {first.center}")
    if P.order < Q + first.M:
        raise ValueError(f"phase order {P.order} < Q + M = {Q + first.M}")
    if not isinstance(op, PdeOperator) and (P.coeffs.ndim < 3 or len(P.coeffs) != len(ops)):
        raise ValueError(
            f"phases of shape {P.coeffs.shape} for {len(ops)} operators: "
            "need one row of waves per operator"
        )
    for other in ops:
        for (k, l), series in other.coeffs.items():
            if k + l >= 1 and series.order < Q:
                raise ValueError(f"coefficient ({k},{l}) order {series.order} < {Q}")
    dx_phase = ts_derive(P, (1, 0))
    dy_phase = ts_derive(P, (0, 1))
    ratios: dict[Index, TaylorSeries2] = {(1, 0): dx_phase, (0, 1): dy_phase}
    for s in range(2, first.M + 1):
        for k in range(s, -1, -1):
            l = s - k
            if k:
                prev = ratios[(k - 1, l)]
                step = ts_derive(prev, (1, 0)) + ts_mul(dx_phase, prev, order=prev.order - 1)
            else:
                prev = ratios[(0, l - 1)]
                step = ts_derive(prev, (0, 1)) + ts_mul(dy_phase, prev, order=prev.order - 1)
            ratios[(k, l)] = step
    n, total = tri_size(Q), None
    for k, l in first.coeffs:
        if k + l < 1:
            continue
        mats = _per_operator(op, [mul_matrix(o.coeffs[(k, l)], Q) for o in ops], P.coeffs.ndim)
        term = ratios[(k, l)].coeffs[..., :n] @ mats.swapaxes(-1, -2)
        total = term if total is None else total + term
    if total is None:
        raise ValueError("operator has no derivative terms")
    return TaylorSeries2(first.center, Q, total)


def residual_series(
    op: PdeOperator | Sequence[PdeOperator], P: TaylorSeries2, Q: int
) -> TaylorSeries2:
    """L(e^P)/e^P truncated at Q; identically zero iff e^P solves L u = 0.

    The phase P is an order-q quasi-solution exactly when all coefficients
    of length < q vanish here.  Takes a batch of operators as
    apply_phase_operator does.
    """
    out = apply_phase_operator(op, P, Q)
    zeroth = [other.coeffs.get((0, 0)) for other in operator_batch(op)]
    if zeroth[0] is None:
        return out
    lowest = min(series.order for series in zeroth)
    if lowest < Q:
        raise ValueError(f"zeroth coefficient order {lowest} < {Q}")
    added = _per_operator(op, [series.coeffs[: tri_size(Q)] for series in zeroth], P.coeffs.ndim)
    return TaylorSeries2(out.center, Q, out.coeffs + added)


# ---------------------------------------------------------------------------
# coefficient authoring: tiny closed-form expression grammar
#
#   expr := number | x | y | sin(x) | sin(y) | cos(x) | cos(y)
#         | expr + expr | expr - expr | expr * expr | expr ** nonneg_int
#         | -expr | (expr)
#
# parsed through the Python ast so precedence and parentheses behave exactly
# as written; anything outside the whitelist is rejected.

_CALLS = {"sin": ts_sin, "cos": ts_cos}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient expression, instantiable at any center/order."""

    text: str
    tree: ast.Expression = field(repr=False, compare=False)

    def build(self, center: tuple[float, float], order: int) -> TaylorSeries2:
        value = _build(self.tree.body, self.text, center, order)
        if isinstance(value, TaylorSeries2):
            return value
        return ts_constant(value, center, order)


def parse_coefficient(text: str) -> CoefficientExpr:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"unparseable coefficient {text!r}: {exc}") from None
    _build(tree.body, text, (0.0, 0.0), 0)  # validity does not depend on the center
    return CoefficientExpr(text=text, tree=tree)


def _build(node: ast.AST, text: str, center, order: int) -> complex | TaylorSeries2:
    """Check node against the grammar and expand it about the center: a
    number while no x or y enters, a series of the given order after."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):  # bool is an int, not a number here
            raise ValueError(f"non-numeric constant in {text!r}")
        return complex(node.value)
    if isinstance(node, ast.Name):
        if node.id not in ("x", "y"):
            raise ValueError(f"unknown name {node.id!r} in {text!r}")
        return ts_coordinate(node.id, center, order)
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _CALLS):
            raise ValueError(f"only sin/cos calls allowed in {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ValueError(f"{node.func.id} takes one positional argument in {text!r}")
        arg = node.args[0]
        if not (isinstance(arg, ast.Name) and arg.id in ("x", "y")):
            raise ValueError(f"{node.func.id} argument must be x or y in {text!r}")
        return _CALLS[node.func.id](arg.id, center, order)
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ValueError(f"unary {type(node.op).__name__} not allowed in {text!r}")
        value = _build(node.operand, text, center, order)
        return value if isinstance(node.op, ast.UAdd) else -1 * value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        power = node.right
        if not (isinstance(power, ast.Constant) and type(power.value) is int and power.value >= 0):
            raise ValueError(f"exponent must be a non-negative integer literal in {text!r}")
        # binary powering: x**e in about 2 log2(e) products; x**2 is base * base
        square = _build(node.left, text, center, order)
        result: complex | TaylorSeries2 | None = None
        exponent = power.value
        while exponent:
            if exponent & 1:
                result = square if result is None else result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return 1 + 0j if result is None else result
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINARY:
            raise ValueError(f"operator {type(node.op).__name__} not allowed in {text!r}")
        left = _build(node.left, text, center, order)
        return _BINARY[type(node.op)](left, _build(node.right, text, center, order))
    raise ValueError(f"syntax {type(node).__name__} not allowed in {text!r}")


@dataclass(frozen=True)
class OperatorFamily:
    """An operator with coefficients given as expressions in x and y.

    Instantiating at a center produces a PdeOperator whose coefficient
    series are expanded there to the requested order.
    """

    M: int
    terms: dict[Index, str]
    name: str = ""

    def __post_init__(self) -> None:
        parsed = {ij: parse_coefficient(text) for ij, text in self.terms.items()}
        object.__setattr__(self, "_parsed", parsed)

    def instantiate(
        self, center: tuple[float, float], q: int, coeff_order: int | None = None
    ) -> PdeOperator:
        if q < 1:
            raise ValueError(f"q must be at least 1, got {q}")
        if not all(math.isfinite(c) for c in center):
            raise ValueError(f"center must be finite, got {tuple(center)}")
        order = q - 1 if coeff_order is None else coeff_order
        coeffs = {ij: expr.build(center, order) for ij, expr in self._parsed.items()}
        return PdeOperator(M=self.M, center=center, coeffs=coeffs, q=q)
