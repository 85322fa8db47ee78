import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpw.taylor2d import (
    EVAL_BLOCK,
    TaylorSeries2,
    graded_indices,
    index_of,
    indices,
    mul_matrices,
    mul_matrix,
    tri_size,
    ts_constant,
    ts_coordinate,
    ts_cos,
    ts_derive,
    ts_exp,
    ts_from_dict,
    ts_mul,
    ts_sin,
)
from faa_oracle import mi_sort_key
from series_oracles import mi_compare, term_magnitude, term_sum, ts_affine, ts_power, ts_zero

# ---------------------------------------------------------------------------
# independent oracles


def poly_mul_full(a: dict, b: dict) -> dict:
    """Exact polynomial product on {(i, j): coeff} dicts, no truncation."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def series_to_dict(a: TaylorSeries2) -> dict:
    return {ij: a[ij] for ij in indices(a.order)}


def dict_to_series(d: dict, center, order: int) -> TaylorSeries2:
    kept = {ij: c for ij, c in d.items() if ij[0] + ij[1] <= order}
    return ts_from_dict(center, order, kept)


def exp_partial_sum(a: TaylorSeries2, terms: int = 8) -> TaylorSeries2:
    """sum_{m<=terms} a^m / m! via the exact product oracle, then truncate."""
    da = series_to_dict(a)
    acc = {(0, 0): 1.0 + 0j}
    power = {(0, 0): 1.0 + 0j}
    for m in range(1, terms + 1):
        power = poly_mul_full(power, da)
        for ij, c in power.items():
            acc[ij] = acc.get(ij, 0) + c / math.factorial(m)
    return dict_to_series(acc, a.center, a.order)


def random_series(rng, center, order: int, scale: float = 1.0) -> TaylorSeries2:
    n = tri_size(order)
    arr = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return TaylorSeries2(center, order, arr)


# ---------------------------------------------------------------------------
# index bookkeeping


def test_tri_size():
    assert [tri_size(q) for q in range(5)] == [1, 3, 6, 10, 15]


def test_index_of_layout():
    # level by level, j ascending inside a level
    assert index_of(0, 0) == 0
    assert index_of(1, 0) == 1
    assert index_of(0, 1) == 2
    assert index_of(2, 0) == 3
    assert index_of(1, 1) == 4
    assert index_of(0, 2) == 5
    offsets = [index_of(i, j) for i, j in indices(6)]
    assert offsets == list(range(tri_size(6)))


def test_mi_compare_examples():
    assert mi_compare((0, 1), (1, 0)) == -1
    assert mi_compare((1, 0), (0, 1)) == 1
    assert mi_compare((2, 0), (0, 3)) == -1
    assert mi_compare((1, 1), (1, 1)) == 0


def test_graded_indices_sorted():
    g = graded_indices(5)
    assert g == sorted(g, key=mi_sort_key)
    assert len(g) == tri_size(5)
    assert g[0] == (0, 0)
    assert g[1:3] == [(0, 1), (1, 0)]


@given(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
)
def test_mi_compare_is_total_order(a, b, c):
    # antisymmetry, totality, transitivity
    assert mi_compare(a, b) == -mi_compare(b, a)
    assert (mi_compare(a, b) == 0) == (a == b)
    if mi_compare(a, b) <= 0 and mi_compare(b, c) <= 0:
        assert mi_compare(a, c) <= 0


# ---------------------------------------------------------------------------
# construction and access


def test_constructor_checks_length():
    with pytest.raises(ValueError):
        TaylorSeries2((0.0, 0.0), 2, np.zeros(5))


def test_negative_order_rejected_where_it_enters():
    # tri_size is 0 for orders -1 and -2, so an empty array used to pass
    with pytest.raises(ValueError, match="series order must be non-negative, got -2"):
        TaylorSeries2((0.0, 0.0), -2, [])
    with pytest.raises(ValueError, match="series order must be non-negative, got -1"):
        ts_zero((0.0, 0.0), 3).with_order(-1)


def test_from_dict_rejects_negative_indices():
    # (-1, 1) has the flat offset of (1, 0), and (1, -1) that of the last slot
    for key in [(-1, 1), (1, -1), (0, -2)]:
        with pytest.raises(ValueError, match=rf"coefficient \({key[0]},{key[1]}\) has a negative index"):
            ts_from_dict((0.0, 0.0), 2, {key: 5})


def test_getitem_outside_triangle():
    a = ts_zero((0.0, 0.0), 2)
    with pytest.raises(IndexError):
        a[(2, 1)]


def test_coeffs_read_only():
    a = ts_zero((0.0, 0.0), 2)
    with pytest.raises(ValueError):
        a.coeffs[0] = 1.0


def test_center_mismatch_rejected():
    a = ts_zero((0.0, 0.0), 2)
    b = ts_zero((1.0, 0.0), 2)
    with pytest.raises(ValueError):
        a + b


def test_with_order_truncates_and_pads():
    a = ts_from_dict((0.0, 0.0), 3, {(0, 0): 1, (3, 0): 5})
    t = a.with_order(2)
    assert t.order == 2 and t[(0, 0)] == 1
    p = a.with_order(4)
    assert p[(3, 0)] == 5 and p[(4, 0)] == 0


# ---------------------------------------------------------------------------
# multiplication


def test_mul_one_plus_x_times_one_plus_y():
    c = (0.0, 0.0)
    a = ts_from_dict(c, 2, {(0, 0): 1, (1, 0): 1})
    b = ts_from_dict(c, 2, {(0, 0): 1, (0, 1): 1})
    p = ts_mul(a, b)
    expect = ts_from_dict(c, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    np.testing.assert_allclose(p.coeffs, expect.coeffs)


def test_mul_truncates_high_degrees_to_zero():
    c = (0.0, 0.0)
    a = ts_from_dict(c, 3, {(2, 0): 1})
    b = ts_from_dict(c, 3, {(0, 2): 1})
    p = ts_mul(a, b)
    np.testing.assert_array_equal(p.coeffs, np.zeros(tri_size(3)))


def test_mul_matches_full_product_oracle():
    rng = np.random.default_rng(2024)
    c = (0.4, -1.1)
    a = random_series(rng, c, 4)
    b = random_series(rng, c, 4)
    got = ts_mul(a, b)
    want = dict_to_series(poly_mul_full(series_to_dict(a), series_to_dict(b)), c, 4)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13, atol=1e-13)


def test_mul_output_cell_sees_only_short_inputs():
    # coefficient (i0, j0) of a product must ignore inputs of length > i0+j0
    rng = np.random.default_rng(7)
    c = (0.0, 0.0)
    a = random_series(rng, c, 5)
    b = random_series(rng, c, 5)
    full = ts_mul(a, b)
    # zero out everything of length > 2 in the inputs
    za = np.array(a.coeffs)
    zb = np.array(b.coeffs)
    za[tri_size(2):] = 0
    zb[tri_size(2):] = 0
    short = ts_mul(TaylorSeries2(c, 5, za), TaylorSeries2(c, 5, zb))
    n = tri_size(2)
    np.testing.assert_allclose(short.coeffs[:n], full.coeffs[:n], rtol=1e-13, atol=1e-14)


coeff_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    min_size=tri_size(4),
    max_size=tri_size(4),
)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_commutes(la, lb):
    c = (0.0, 0.0)
    a = TaylorSeries2(c, 4, np.array(la, dtype=complex))
    b = TaylorSeries2(c, 4, np.array(lb, dtype=complex))
    np.testing.assert_allclose(ts_mul(a, b).coeffs, ts_mul(b, a).coeffs, atol=1e-13)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_associates(la, lb, lc):
    c = (0.0, 0.0)
    a = TaylorSeries2(c, 4, np.array(la, dtype=complex))
    b = TaylorSeries2(c, 4, np.array(lb, dtype=complex))
    d = TaylorSeries2(c, 4, np.array(lc, dtype=complex))
    left = ts_mul(ts_mul(a, b), d)
    right = ts_mul(a, ts_mul(b, d))
    np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_truncation_locality(la, lb):
    # multiplying at order 4 then truncating equals multiplying at order 2
    c = (0.0, 0.0)
    a = TaylorSeries2(c, 4, np.array(la, dtype=complex))
    b = TaylorSeries2(c, 4, np.array(lb, dtype=complex))
    low = ts_mul(a, b, order=2)
    high = ts_mul(a, b).with_order(2)
    np.testing.assert_allclose(low.coeffs, high.coeffs, atol=1e-13)


# ---------------------------------------------------------------------------
# differentiation


def test_derive_x2y():
    c = (0.0, 0.0)
    a = ts_from_dict(c, 3, {(2, 1): 1})
    g = ts_derive(a, (1, 0))
    expect = ts_from_dict(c, 2, {(1, 1): 2})
    np.testing.assert_allclose(g.coeffs, expect.coeffs)


def test_derive_constant_is_zero():
    a = ts_constant(3.5, (1.0, 2.0), 4)
    g = ts_derive(a, (0, 1))
    assert g.order == 3
    np.testing.assert_array_equal(g.coeffs, np.zeros(tri_size(3)))


def test_derive_matches_finite_differences():
    # ts_derive(a, d) carries the derivative divided by d!; the stencil
    # quotient approximates the bare derivative.  A third-derivative stencil
    # at step 1e-5 drowns in roundoff unless the polynomial is evaluated
    # exactly, so the oracle runs in rational arithmetic.
    rng = np.random.default_rng(11)
    c = (0.3, -0.7)
    a = random_series(rng, c, 5)
    g = ts_derive(a, (2, 1))

    def eval_exact(coeffs: dict, x: Fraction, y: Fraction) -> Fraction:
        dx = x - Fraction(c[0])
        dy = y - Fraction(c[1])
        return sum(Fraction(v) * dx**i * dy**j for (i, j), v in coeffs.items())

    h = Fraction(1, 10**5)
    px = Fraction(c[0]) + Fraction(1, 20)
    py = Fraction(c[1]) - Fraction(2, 25)
    fd_parts = []
    for part in (np.real, np.imag):
        coeffs = {ij: float(part(a[ij])) for ij in indices(a.order)}

        def d2x(x, y):
            return (
                eval_exact(coeffs, x + h, y)
                - 2 * eval_exact(coeffs, x, y)
                + eval_exact(coeffs, x - h, y)
            ) / h**2

        fd_parts.append(float((d2x(px, py + h) - d2x(px, py - h)) / (2 * h)))
    fd = fd_parts[0] + 1j * fd_parts[1]
    scale = math.factorial(2) * math.factorial(1)
    np.testing.assert_allclose(scale * g(float(px), float(py)), fd, rtol=1e-6)


def test_derive_rejects_overlong_index():
    a = ts_zero((0.0, 0.0), 2)
    with pytest.raises(ValueError):
        ts_derive(a, (2, 1))


# ---------------------------------------------------------------------------
# exponential


def test_exp_of_zero_is_one():
    e = ts_exp(ts_zero((0.0, 0.0), 3))
    expect = ts_constant(1.0, (0.0, 0.0), 3)
    np.testing.assert_allclose(e.coeffs, expect.coeffs)


def test_exp_rejects_nonzero_constant_term():
    a = ts_constant(1.0, (0.0, 0.0), 3)
    with pytest.raises(ValueError):
        ts_exp(a)


def test_exp_of_linear_phase():
    # exp(l1 X + l2 Y) has coefficients l1^i l2^j / (i! j!)
    c = (0.0, 0.0)
    l1, l2 = 0.7 + 1.3j, -0.4 + 0.9j
    a = ts_from_dict(c, 5, {(1, 0): l1, (0, 1): l2})
    e = ts_exp(a)
    for i, j in indices(5):
        want = l1**i * l2**j / (math.factorial(i) * math.factorial(j))
        np.testing.assert_allclose(e[(i, j)], want, rtol=1e-13, atol=1e-15)


def test_exp_matches_partial_sum_oracle():
    rng = np.random.default_rng(5)
    c = (-0.2, 0.6)
    a = random_series(rng, c, 4, scale=0.8)
    arr = np.array(a.coeffs)
    arr[0] = 0.0
    a = TaylorSeries2(c, 4, arr)
    got = ts_exp(a)
    want = exp_partial_sum(a, terms=8)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12, atol=1e-12)


exp_coeffs = st.lists(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    min_size=tri_size(6) - 1,
    max_size=tri_size(6) - 1,
)


@given(exp_coeffs)
@settings(max_examples=40, deadline=None)
def test_exp_derivative_consistency(tail):
    # d/dx exp(a) = (d/dx a) exp(a), both sides as order-5 series
    c = (0.0, 0.0)
    a = TaylorSeries2(c, 6, np.concatenate([[0.0], tail]).astype(complex))
    e = ts_exp(a)
    left = ts_derive(e, (1, 0))
    right = ts_mul(ts_derive(a, (1, 0)), e.with_order(5))
    np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-13)


# ---------------------------------------------------------------------------
# elementary generators


def test_affine_example():
    # 2(x + y) about (1, 1): value 4, slopes 2
    a = ts_affine(0.0, 2.0, 2.0, (1.0, 1.0), 2)
    expect = ts_from_dict((1.0, 1.0), 2, {(0, 0): 4, (1, 0): 2, (0, 1): 2})
    np.testing.assert_allclose(a.coeffs, expect.coeffs, atol=1e-15)


def test_cos_x_at_origin():
    a = ts_cos("x", (0.0, 0.0), 3)
    assert a[(0, 0)] == pytest.approx(1.0)
    assert a[(1, 0)] == pytest.approx(0.0, abs=1e-15)
    assert a[(2, 0)] == pytest.approx(-0.5)
    assert a[(0, 1)] == 0 and a[(1, 1)] == 0


def test_sin_y_at_half_pi():
    c = (math.pi / 2, math.pi / 2)
    a = ts_sin("y", c, 2)
    assert a[(0, 0)] == pytest.approx(1.0, abs=1e-14)
    assert a[(0, 1)] == pytest.approx(0.0, abs=1e-14)
    assert a[(0, 2)] == pytest.approx(-0.5, abs=1e-14)


def test_power_expansion():
    # x^3 about x0 = 2: 8 + 12 X + 6 X^2 + X^3
    a = ts_power("x", 3, (2.0, 0.0), 4)
    assert a[(0, 0)] == 8 and a[(1, 0)] == 12
    assert a[(2, 0)] == 6 and a[(3, 0)] == 1 and a[(4, 0)] == 0


def test_coordinate_is_the_first_power_bit_for_bit():
    for axis in ("x", "y"):
        for order in (0, 1, 4):
            want = ts_power(axis, 1, (0.3, -0.7), order)
            got = ts_coordinate(axis, (0.3, -0.7), order)
            assert np.array_equal(got.coeffs, want.coeffs)


def test_coordinate_evaluates_to_itself():
    a = ts_coordinate("y", (0.5, -2.0), 3)
    np.testing.assert_allclose(a(1.7, 0.9), 0.9, atol=1e-15)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_sin_cos_derivative_relation(axis):
    c = (0.4, 1.3)
    d = (1, 0) if axis == "x" else (0, 1)
    ds = ts_derive(ts_sin(axis, c, 6), d)
    cos5 = ts_cos(axis, c, 5)
    np.testing.assert_allclose(ds.coeffs, cos5.coeffs, atol=1e-14)


def test_generator_rejects_bad_axis():
    with pytest.raises(ValueError):
        ts_sin("z", (0.0, 0.0), 2)


# ---------------------------------------------------------------------------
# evaluation and arithmetic plumbing


def test_evaluate_at_center_gives_constant_term():
    rng = np.random.default_rng(3)
    a = random_series(rng, (1.2, -0.3), 4)
    np.testing.assert_allclose(a(1.2, -0.3), a[(0, 0)])


def test_evaluate_on_arrays():
    a = ts_from_dict((0.0, 0.0), 2, {(1, 0): 1, (0, 1): 2})
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 0.0, 3.0])
    np.testing.assert_allclose(a(x, y), x + 2 * y)


def test_scalar_multiply_and_subtract():
    c = (0.0, 0.0)
    a = ts_from_dict(c, 2, {(1, 0): 1})
    b = ts_from_dict(c, 2, {(1, 0): 3})
    np.testing.assert_allclose((3 * a - b).coeffs, np.zeros(tri_size(2)))


# ---------------------------------------------------------------------------
# batch axis: every batched result equals the row-by-row one


@st.composite
def batched_series(draw, max_order: int = 7):
    """(order, rows): a (p, tri_size(order)) batch of complex series."""
    order = draw(st.integers(0, max_order))
    p = draw(st.integers(1, 4))
    parts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    flat = draw(st.lists(parts, min_size=2 * p * tri_size(order), max_size=2 * p * tri_size(order)))
    arr = np.array(flat[0::2]) + 1j * np.array(flat[1::2])
    return order, arr.reshape(p, tri_size(order))


C0 = (0.5, -0.25)


def _rows(order, arr):
    return [TaylorSeries2(C0, order, row) for row in arr]


@given(batched_series(), batched_series(), st.data())
@settings(max_examples=80, deadline=None)
def test_batched_mul_matches_rows(a, b, data):
    (qa, arr_a), (qb, arr_b) = a, b
    p = min(len(arr_a), len(arr_b))
    arr_a, arr_b = arr_a[:p], arr_b[:p]
    order = data.draw(st.integers(0, min(qa, qb)))
    A, B = TaylorSeries2(C0, qa, arr_a), TaylorSeries2(C0, qb, arr_b)
    single = TaylorSeries2(C0, qa, arr_a[0])
    got = ts_mul(A, B, order=order)
    assert got.coeffs.shape == (p, tri_size(order))
    for r, (ra, rb) in enumerate(zip(_rows(qa, arr_a), _rows(qb, arr_b))):
        want = ts_mul(ra, rb, order=order).coeffs
        np.testing.assert_allclose(got.coeffs[r], want, rtol=1e-13, atol=1e-12)
        # an unbatched series broadcasts against a batch, on either side
        want = ts_mul(single, rb, order=order).coeffs
        np.testing.assert_allclose(ts_mul(single, B, order=order).coeffs[r], want, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(ts_mul(B, single, order=order).coeffs[r], want, rtol=1e-13, atol=1e-12)


@given(batched_series(), st.data())
@settings(max_examples=80, deadline=None)
def test_batched_derive_matches_rows(a, data):
    order, arr = a
    di = data.draw(st.integers(0, order))
    d = (di, data.draw(st.integers(0, order - di)))
    got = ts_derive(TaylorSeries2(C0, order, arr), d)
    for r, row in enumerate(_rows(order, arr)):
        np.testing.assert_array_equal(got.coeffs[r], ts_derive(row, d).coeffs)


@given(batched_series(), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_batched_with_order_matches_rows(a, new_order):
    order, arr = a
    got = TaylorSeries2(C0, order, arr).with_order(new_order)
    for r, row in enumerate(_rows(order, arr)):
        np.testing.assert_array_equal(got.coeffs[r], row.with_order(new_order).coeffs)


@given(batched_series(), batched_series())
@settings(max_examples=60, deadline=None)
def test_batched_add_sub_match_rows(a, b):
    (qa, arr_a), (qb, arr_b) = a, b
    p = min(len(arr_a), len(arr_b))
    A = TaylorSeries2(C0, qa, arr_a[:p])
    B = TaylorSeries2(C0, qb, arr_b[:p])
    single = TaylorSeries2(C0, qb, arr_b[0])
    for r, (ra, rb) in enumerate(zip(_rows(qa, arr_a[:p]), _rows(qb, arr_b[:p]))):
        np.testing.assert_array_equal((A + B).coeffs[r], (ra + rb).coeffs)
        np.testing.assert_array_equal((A - B).coeffs[r], (ra - rb).coeffs)
        np.testing.assert_array_equal((A + single).coeffs[r], (ra + single).coeffs)
        np.testing.assert_array_equal((single - A).coeffs[r], (single - ra).coeffs)


scalars = st.one_of(
    st.integers(-5, 5),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False),
)


@given(batched_series(), st.booleans(), scalars)
@settings(max_examples=80, deadline=None)
def test_number_on_either_side_equals_constant_promotion(a, batched, value):
    order, arr = a
    series = TaylorSeries2(C0, order, arr if batched else arr[0])
    constant = ts_constant(value, C0, order)
    for got, want in [
        (series + value, series + constant),
        (value + series, constant + series),
        (series - value, series - constant),
        (value - series, constant - series),
    ]:
        assert (got.order, got.coeffs.shape) == (want.order, want.coeffs.shape)
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-15, atol=0)


@given(batched_series(), batched_series(), st.data())
@settings(max_examples=80, deadline=None)
def test_mul_matrix_product_matches_ts_mul(a, b, data):
    (qa, arr_a), (qb, arr_b) = a, b
    order = data.draw(st.integers(0, min(qa, qb)))
    single = TaylorSeries2(C0, qa, arr_a[0])
    C = mul_matrix(single, order)
    assert C.shape == (tri_size(order),) * 2
    for B in (TaylorSeries2(C0, qb, arr_b), TaylorSeries2(C0, qb, arr_b[0])):
        got = B.coeffs[..., : tri_size(order)] @ C.T
        want = ts_mul(single, B, order=order).coeffs
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)


def test_mul_matrices_stacks_the_single_matrices():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2, 3, tri_size(4))) + 1j * rng.normal(size=(2, 3, tri_size(4)))
    for order in (0, 2, 4):
        stacked = mul_matrices(rows, order)
        assert stacked.shape == (2, 3, tri_size(order), tri_size(order))
        for index in np.ndindex(2, 3):
            single = mul_matrix(TaylorSeries2(C0, 4, rows[index]), order)
            assert np.array_equal(stacked[index], single)


def test_mul_matrix_rejects_batches_and_high_orders():
    with pytest.raises(ValueError, match="single series"):
        mul_matrix(TaylorSeries2(C0, 2, np.zeros((3, tri_size(2)))), 2)
    with pytest.raises(ValueError, match="exceeds input order"):
        mul_matrix(ts_zero(C0, 2), 3)


def test_single_series_operations_reject_batches():
    batch = TaylorSeries2(C0, 2, np.zeros((3, tri_size(2))))
    with pytest.raises(ValueError, match="single series"):
        batch[(0, 0)]
    with pytest.raises(ValueError):
        TaylorSeries2(C0, 2, np.zeros((3, tri_size(2) + 1)))


@given(batched_series(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_batched_exp_matches_rows(a, drop):
    order, arr = a
    arr = arr.copy()
    arr[:, 0] = 0.0
    q = max(order - drop, 0)
    got = ts_exp(TaylorSeries2(C0, order, arr), order=q)
    assert got.coeffs.shape == (len(arr), tri_size(q))
    for r, row in enumerate(_rows(order, arr)):
        np.testing.assert_array_equal(got.coeffs[r], ts_exp(row, order=q).coeffs)


def test_batched_exp_names_the_row_with_a_constant_term():
    arr = np.zeros((4, tri_size(3)), dtype=complex)
    arr[2, 0] = 0.5
    with pytest.raises(ValueError, match="nonzero constant term in row 2;"):
        ts_exp(TaylorSeries2(C0, 3, arr))
    grid = np.zeros((2, 3, tri_size(3)), dtype=complex)
    grid[1, 0, 0] = 1e-300
    with pytest.raises(ValueError, match="nonzero constant term in row 1, 0;"):
        ts_exp(TaylorSeries2(C0, 3, grid))


# ---------------------------------------------------------------------------
# evaluation against the term-by-term sum


@st.composite
def series_and_points(draw):
    """(series, x, y): a single series of order 0..17 and points given as
    scalars, equal-shape arrays, or a column against a row (broadcast)."""
    order = draw(st.integers(0, 17))
    parts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    flat = draw(st.lists(parts, min_size=2 * tri_size(order), max_size=2 * tri_size(order)))
    center = tuple(draw(st.floats(min_value=-3.0, max_value=3.0)) for _ in range(2))
    series = TaylorSeries2(center, order, np.array(flat[0::2]) + 1j * np.array(flat[1::2]))
    offset = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
    kind = draw(st.sampled_from(["scalar", "array", "broadcast"]))
    if kind == "scalar":
        return series, center[0] + draw(offset), center[1] + draw(offset)
    n = draw(st.integers(1, 6))
    dx = np.array(draw(st.lists(offset, min_size=n, max_size=n)))
    if kind == "array":
        dy = np.array(draw(st.lists(offset, min_size=n, max_size=n)))
    else:
        dx = dx[:, None]
        dy = np.array(draw(st.lists(offset, min_size=1, max_size=5)))
    return series, center[0] + dx, center[1] + dy


@given(series_and_points())
@settings(max_examples=100, deadline=None)
def test_horner_evaluation_matches_term_sum(case):
    series, x, y = case
    got = series(x, y)
    want = term_sum(series, x, y)
    if np.ndim(x) == 0:
        assert isinstance(got, complex)
    else:
        assert got.shape == np.broadcast_shapes(np.shape(x), np.shape(y))
    # both orders of summation round within a few hundred ulps of the sum
    # of term magnitudes at order 17 (171 terms)
    bound = 1e-13 * term_magnitude(series, x, y) + np.finfo(float).tiny
    assert np.all(np.abs(got - want) <= bound)
    # the center itself returns the constant coefficient exactly
    cx, cy = series.center
    assert series(cx, cy) == series.coeffs[0]
    assert series(np.array([cx, cx + 0.5]), cy)[0] == series.coeffs[0]


@st.composite
def batch_and_points(draw):
    """(series, x, y): a batch of shape (1,), (3,) or (2, 2) over orders
    0..17, and points given as a scalar, a short array, or an array of more than
    two EVAL_BLOCKs with the center as its last point."""
    order = draw(st.integers(0, 17))
    batch = draw(st.sampled_from([(1,), (3,), (2, 2)]))
    count = int(np.prod(batch)) * tri_size(order)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    center = tuple(draw(st.floats(min_value=-3.0, max_value=3.0)) for _ in range(2))
    series = TaylorSeries2(center, order, arr.reshape(batch + (tri_size(order),)))
    kind = draw(st.sampled_from(["scalar", "short", "blocks"]))
    if kind == "scalar":
        return series, center[0] + rng.uniform(-1.5, 1.5), center[1] + rng.uniform(-1.5, 1.5)
    n = draw(st.integers(1, 6)) if kind == "short" else 2 * EVAL_BLOCK + 3
    x, y = center[0] + rng.uniform(-1.5, 1.5, n), center[1] + rng.uniform(-1.5, 1.5, n)
    x[-1], y[-1] = center
    return series, x, y


@given(batch_and_points())
@settings(max_examples=60, deadline=None)
def test_batched_evaluation_matches_term_sum_row_by_row(case):
    series, x, y = case
    got = series(x, y)
    batch = series.coeffs.shape[:-1]
    assert got.shape == batch + np.shape(x)
    rows = series.coeffs.reshape(-1, series.coeffs.shape[-1])
    for value, coeffs in zip(got.reshape((len(rows),) + np.shape(x)), rows):
        row = TaylorSeries2(series.center, series.order, coeffs)
        bound = 1e-13 * term_magnitude(row, x, y) + np.finfo(float).tiny
        assert np.all(np.abs(value - term_sum(row, x, y)) <= bound)
        if np.ndim(x):
            assert value[-1] == coeffs[0]
    assert np.all(series(*series.center) == series.coeffs[..., 0])
