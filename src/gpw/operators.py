"""Variable-coefficient linear differential operators of order M >= 2.

An operator is a finite sum of coefficient fields times partial derivatives,
L u = sum_{0 <= k+l <= M} c_{k,l}(x,y) d_x^k d_y^l u.  This module models L
near a point, checks the two structural hypotheses the phase construction
needs (nonvanishing leading coefficient; factorizable order-2 symbol:
`check_hypotheses` returns the factorization or raises `HypothesisError`),
and applies the induced operator on phases,

    P  |->  L(e^P) / e^P,

as truncated series arithmetic (`residual_series`).  The derivative ratios
E_{k,l} = d_x^k d_y^l(e^P)/e^P start at E_{1,0} = d_x P, E_{0,1} = d_y P and
satisfy E_{k+1,l} = d_x E_{k,l} + (d_x P) E_{k,l}, and the residual is
sum c_{k,l} E_{k,l} with c_{0,0} added last.  Both are computed one layer
(one total degree t) at a time on raw (rows, tri) arrays: layer t of a
product is one matrix-vector product per row with the layer-t rows of a
multiplication matrix, about t^3/2 operations.  Layer t of a ratio of
length r reads phase layers up to t + r only, so a caller that adds phase
layers one at a time can carry the computed layers in a table from call
to call (relaxed, or online, multiplication of power series: J. van der
Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).
The construction does: its level L costs about (M+L)^3 per wave, where
rerunning the whole recurrence cost about (M+L)^4.  The partition-sum
route in the test oracle `tests/faa_oracle.py` computes the same object
combinatorially.
"""

from __future__ import annotations

import ast
import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from gpw.taylor2d import (
    Index,
    TaylorSeries2,
    mul_matrices,
    tri_size,
    ts_constant,
    ts_coordinate,
    ts_cos,
    ts_derive,
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

    @cached_property
    def factorization(self) -> SymbolFactorization:
        """check_hypotheses(self), computed once and shared by a study's
        redraw check and the construction; a HypothesisError recurs on read."""
        return check_hypotheses(self)


@dataclass(frozen=True, eq=False)
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


class OperatorBatch(tuple):
    """Operators checked once, when the batch is made: non-empty, and sharing
    M, q and the coefficient indices in one order, so every operator sums its
    terms alike.  Passed on, a batch is not checked again."""

    def __new__(cls, ops: Sequence[PdeOperator]) -> OperatorBatch:
        batch = super().__new__(cls, ops)
        if not batch:
            raise ValueError("need at least one operator")
        if len({(other.M, other.q, tuple(other.coeffs)) for other in batch}) > 1:
            raise ValueError("operators of a batch differ in M, q or coefficient indices")
        return batch


def operator_batch(op: PdeOperator | Sequence[PdeOperator]) -> OperatorBatch:
    """The operators of a batch: (op,) for one operator, the batch itself for
    an OperatorBatch, else the sequence, checked as an OperatorBatch."""
    if isinstance(op, OperatorBatch):
        return op
    return OperatorBatch([op] if isinstance(op, PdeOperator) else op)


def residual_series(
    op: PdeOperator | Sequence[PdeOperator], P: TaylorSeries2, Q: int, table: dict | None = None
) -> TaylorSeries2:
    """Series of L(e^P)/e^P about the center, truncated at Q; identically
    zero iff e^P solves L u = 0.

    The phase P is an order-q quasi-solution exactly when all coefficients
    of length < q vanish here.  Needs P.order >= Q + M: each derivative
    ratio E_{k,l} loses k+l orders.  For a sequence of operators (see
    operator_batch) the leading axis of P runs over them and at least one
    wave axis follows; row c holds phases about the center of operator c,
    and P is labelled with the first one.  One operator is a batch of one:
    either way the ratios run on the phases as one flat batch, each
    coefficient term takes them as (operators, waves, tri) rows with one
    matrix per operator, and the result keeps the batch shape of P.

    Everything is computed one layer (one total degree) at a time.  Layer
    t of a ratio of length r reads phase layers up to t + r, its products
    with d_x P and d_y P up to t + r - 1, and the residual's products with
    the coefficients up to t + M - 1.  A dict passed as table keeps those
    product layers for the next call with the same operators and number of
    phase rows: that call recomputes only the products that read a phase
    layer which is new or has changed since, and redoes the sums around
    them, a few elementwise passes.  A caller that adds one phase layer per
    call so computes one product layer per ratio and one of the residual
    per call.  The table never takes the top layer of a call's phases as
    final, since the next call may fill it in.  Every layer is computed the
    same way either way: the result does not depend on the table, bit for
    bit.
    """
    ops = operator_batch(op)
    first = ops[0]
    M = first.M
    if P.center != first.center:
        raise ValueError(f"phase centered at {P.center}, operator at {first.center}")
    if P.order < Q + M:
        raise ValueError(f"phase order {P.order} < Q + M = {Q + M}")
    if not isinstance(op, PdeOperator) and (P.coeffs.ndim < 3 or len(P.coeffs) != len(ops)):
        raise ValueError(
            f"phases of shape {P.coeffs.shape} for {len(ops)} operators: "
            "need one row of waves per operator"
        )
    for other in ops:
        for (k, l), series in other.coeffs.items():
            if series.order < Q:
                name = "zeroth coefficient" if k + l == 0 else f"coefficient ({k},{l})"
                raise ValueError(f"{name} order {series.order} < {Q}")
    terms = [kl for kl in first.coeffs if sum(kl) >= 1]
    if not terms:
        raise ValueError("operator has no derivative terms")
    top = Q + M  # the ratios of length r are needed through layer top - r
    # one batch axis for the ratios: rows are (operator, wave) pairs
    phases = P.coeffs.reshape(-1, P.coeffs.shape[-1])[:, : tri_size(top)]
    if table is None:
        table = {}
    kept = _unchanged_layers(table, ops, phases)
    truncated = TaylorSeries2(first.center, top, phases)
    # ratios[r][l] holds the rows of E_{r-l,l}
    ratios = [None, np.stack([ts_derive(truncated, d).coeffs for d in ((1, 0), (0, 1))])]
    for r in range(2, M + 1):
        lower = ratios[-1]
        # layer t of the products reads phase layers <= t + r - 1
        products = _carried(table, r, (r + 1, len(phases)), top - r, kept - r + 1)
        for t in range(max(kept - r + 1, 0), top - r + 1):
            products[..., tri_size(t - 1) : tri_size(t)] = _ratio_products(ratios[1], lower, t)
        # the derivative parts read one phase layer more: whole arrays, each call
        steps = TaylorSeries2(first.center, top - r + 1, lower)
        ratios.append(
            np.concatenate([ts_derive(steps, (1, 0)).coeffs, ts_derive(steps, (0, 1)).coeffs[-1:]])
            + products
        )
    n = tri_size(Q)
    coefficients = np.array([[other.coeffs[kl].coeffs[:n] for kl in terms] for other in ops])
    # residual layer t = its products with ratio layers < t (they read phase
    # layers <= t + M - 1) + the coefficients at the center times ratio layer t
    res = _carried(table, "residual", (len(phases),), Q, kept - M + 1)
    res[:, 0] = 0.0  # layer 0 meets no lower ratio layer
    for t in range(max(kept - M + 1, 1), Q + 1):
        below = tri_size(t - 1)
        # (operators, 1, terms * below, t+1): each term's rows of layer t
        mats = mul_matrices(coefficients, t, t)[..., :below].swapaxes(-1, -2)
        mats = mats.reshape(len(ops), 1, -1, t + 1)
        rows = np.concatenate([ratios[k + l][l][:, :below] for k, l in terms], axis=-1)
        # one vector-matrix product per wave, so a wave's bits do not depend on
        # how many waves share the call: (operators, waves, 1, t+1)
        layer = rows.reshape(len(ops), -1, 1, rows.shape[-1]) @ mats
        res[:, below : tri_size(t)] = layer.reshape(len(phases), t + 1)
    # the top phase layer may still change (a construction level fills it)
    table.update(ops=ops, phases=phases[:, : tri_size(top - 1)])
    res = res.reshape(len(ops), -1, n)
    for (k, l), at_center in zip(terms, coefficients[..., 0].T):
        res = res + at_center[:, None, None] * ratios[k + l][l][:, :n].reshape(res.shape)
    if (0, 0) in first.coeffs:  # after the derivative terms: the order fixes the last bits
        res = res + np.array([other.coeffs[(0, 0)].coeffs[:n] for other in ops])[:, None]
    return TaylorSeries2(first.center, Q, res.reshape(P.coeffs.shape[:-1] + (n,)))


def _unchanged_layers(table: dict, ops: OperatorBatch, phases: np.ndarray) -> int:
    """How many leading phase layers equal those the table was filled from,
    counting only the layers below that call's top one: the table's layers
    that read no others are still valid.  0 for an empty table."""
    if not table:
        return 0
    if len(table["ops"]) != len(ops) or any(a is not b for a, b in zip(table["ops"], ops)):
        raise ValueError("the table was filled for other operators")
    old = table["phases"]
    if len(old) != len(phases):
        raise ValueError(f"the table holds {len(old)} phase rows, the phases have {len(phases)}")
    n = min(old.shape[-1], phases.shape[-1])
    changed = np.flatnonzero(np.any(old[:, :n] != phases[:, :n], axis=0))
    cell = changed[0] if changed.size else n
    return (math.isqrt(8 * cell + 1) - 1) // 2  # the layer that holds that cell


def _carried(table: dict, key, shape: tuple, order: int, valid: int) -> np.ndarray:
    """A new array of shape (*shape, tri_size(order)) under table[key], with
    its first `valid` layers (at most all of them) copied from the one it
    replaces."""
    new = np.empty(shape + (tri_size(order),), dtype=complex)
    if valid > 0:
        cells = min(tri_size(valid - 1), new.shape[-1])
        new[..., :cells] = table[key][..., :cells]
    table[key] = new
    return new


def _ratio_products(gradient: np.ndarray, lower: np.ndarray, t: int) -> np.ndarray:
    """Layer t of the products in the step from the ratios of length r - 1
    (lower, indexed by l) to those of length r: (d_x P) E_{k-1,l} for
    E_{k,l}, k >= 1, and (d_y P) E_{0,r-1} for E_{0,r}.  gradient holds
    d_x P and d_y P; only their layers and those of lower up to t are read."""
    size = tri_size(t)
    # one product per row for all r x-steps, then one for the y-step; the
    # two gathers of (rows, t+1, size) are made one at a time for memory
    x_steps = mul_matrices(gradient[0], t, t) @ lower[..., :size].transpose(1, 2, 0)
    y_step = mul_matrices(gradient[1], t, t) @ lower[-1, :, :size, None]
    return np.concatenate([x_steps.transpose(2, 0, 1), y_step.transpose(2, 0, 1)])


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

    def __post_init__(self) -> None:
        for k, l in self.terms:
            if k < 0 or l < 0 or k + l > self.M:
                raise ValueError(f"term index ({k},{l}) outside order {self.M}")
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
