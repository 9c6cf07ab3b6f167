"""Quantified invariants, via hypothesis where generation helps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcp import (
    DependenceWindow,
    LagEnergyCurve,
    TraceTable,
    as_series,
    b_aggregate,
    b_matrix,
    build_trace_table,
    classify_errors,
    compute_gram,
    f_vector,
    l_trace,
    select_m,
    variance_estimate,
)
from hdcp import core, engine
from hdcp.core import GramSummary, RowSummary
from hdcp.engine import _plan
from oracles import (
    dense_cross_products,
    naive_gram,
    one_array_split_curve,
    outer_aggregate_values,
    outer_b_matrix,
)


def _window_for(n):
    return DependenceWindow(0 if n < 12 else 1)


small_matrix = st.integers(8, 16).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda p: st.lists(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=p, max_size=p),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(8, 40), t=st.integers(1, 39), m=st.integers(0, 3))
def test_f_split_symmetry(n, t, m):
    if t >= n or n < 2 * (m + 2):
        return
    assert (f_vector(n, t, m) == f_vector(n, n - t, m)).all()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=small_matrix, shift=st.floats(-20, 20, allow_nan=False))
def test_l_trace_translation_invariance(data, shift):
    x = np.asarray(data)
    w = _window_for(x.shape[0])
    base = l_trace(compute_gram(as_series(x)), w)
    moved = l_trace(compute_gram(as_series(x + shift)), w)
    scale = max(1.0, np.abs(base).max())
    np.testing.assert_allclose(moved, base, rtol=1e-10, atol=1e-10 * scale)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=small_matrix)
def test_l_trace_time_reversal(data):
    x = np.asarray(data)
    w = _window_for(x.shape[0])
    fwd = l_trace(compute_gram(as_series(x)), w)
    rev = l_trace(compute_gram(as_series(x[::-1])), w)
    scale = max(1.0, np.abs(fwd).max())
    np.testing.assert_allclose(fwd, rev[::-1], rtol=1e-10, atol=1e-10 * scale)


def test_trace_table_orbit_symmetry():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((16, 3))
    table = build_trace_table(compute_gram(as_series(x)), DependenceWindow(2))
    for h1 in range(-2, 3):
        for h2 in range(-2, 3):
            assert table.est(h1, h2) == table.est(h2, h1)
            assert table.est(h1, h2) == table.est(-h1, -h2)


def test_variance_floor_on_zero_table():
    w = DependenceWindow(0)
    table = TraceTable(m=0, values=np.zeros((1, 1)))
    agg = b_aggregate(10, w)
    result = variance_estimate(agg, table)
    assert result.degenerate
    assert result.value > 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    w0=st.floats(1.0, 100.0),
    rest=st.lists(st.floats(-5.0, 90.0), min_size=1, max_size=8),
    r1=st.floats(0.01, 0.95),
    r2=st.floats(0.01, 0.95),
)
def test_select_m_monotone_in_drop_ratio(w0, rest, r1, r2):
    curve = LagEnergyCurve(len(rest), np.array([w0] + rest))
    lo, hi = sorted((r1, r2))
    assert select_m(curve, hi).value <= select_m(curve, lo).value


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    est=st.lists(st.integers(1, 60), max_size=8),
    truth=st.sets(st.integers(1, 60), max_size=6),
    tol=st.integers(0, 3),
)
def test_classify_errors_count_identities(est, truth, tol):
    truth_sorted = sorted(truth)
    fp, fn, tp = classify_errors(est, truth_sorted, tol)
    assert fp + tp == len(est)
    assert fn + tp == len(truth_sorted)
    assert min(fp, fn, tp) >= 0


@pytest.mark.parametrize("n,p,shift,rtol", [
    (200, 100, 50.0, 1e-10),
    (800, 100, 50.0, 1e-10),
    # the Gram's entries grow ~1e6-fold, so the lag sums, whose
    # centered entries cancel them, keep fewer digits
    (400, 70, 1e3, 1e-5),
])
def test_l_trace_offset_invariant(n, p, shift, rtol):
    # a common offset leaves the split statistic unchanged in exact
    # arithmetic; the curve reads it from the centered Gram
    x = np.random.default_rng(n).standard_normal((n, p))
    window = DependenceWindow(2)
    ref = l_trace(compute_gram(as_series(x)), window)
    got = l_trace(compute_gram(as_series(x + shift)), window)
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def test_l_trace_memory_above_the_gram():
    # the Gram is centered a block of rows at a time, so no n x n array is
    # formed: 0.08 x n^2 float64 here; the whole centered Gram and its
    # n^2 bool mask peaked at 1.15. The series is wide (4p > n).
    n = 800
    gram = compute_gram(as_series(np.random.default_rng(6).standard_normal((n, 300)) + 0.2))
    tracemalloc.start()
    try:
        l_trace(gram, DependenceWindow(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


def test_narrow_l_trace_memory_above_its_rows():
    # a narrow series centers its rows in place into their running sums, one
    # n x p array: 1.14 x n p float64 here, with the n-long block sums
    n, p = 800, 100
    gram = compute_gram(as_series(np.random.default_rng(6).standard_normal((n, p)) + 0.2))
    peak = _traced_peak(l_trace, gram, DependenceWindow(3))
    assert peak <= 1.5 * n * p * 8, f"{peak / (n * p * 8):.2f} x n p float64"


# the n at which the centered Gram is one block of rows exactly
_BLOCK_ROWS = int(np.sqrt(core._BLOCK_ENTRIES))


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 800])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_split_curve_is_bitwise_the_one_array_curve(n, stacked):
    # each row's sums are taken on the row alone, so the row blocks do not
    # change a bit of the curve; under a +50 offset the centering cancels
    # hardest. The series are wide (4p > n), so they hold their Grams.
    assert len(core._row_blocks(n)) == (1 if n <= _BLOCK_ROWS else 2 if n < 800 else 20)
    rng = np.random.default_rng(n)
    p = n // 4 + 1
    grams = [compute_gram(as_series(rng.standard_normal((n, p)) + 50.0)) for _ in range(3)]
    gram = GramSummary.of(np.stack([g.raw for g in grams])) if stacked else grams[0]
    got = engine._split_curve(gram, 2)
    assert got.tobytes() == one_array_split_curve(gram, 2).tobytes()
    if stacked:
        for g, curve in zip(grams, got):
            assert curve.tobytes() == l_trace(g, DependenceWindow(2)).tobytes()


@pytest.mark.parametrize("n", [_BLOCK_ROWS, 800])
def test_narrow_split_curve_matches_the_one_array_curve(n):
    # a narrow series (4p <= n) centers its rows, not its Gram; its curve
    # agrees with the one-array curve of its naive Gram under a +50 offset
    x = np.random.default_rng(n).standard_normal((n, 12)) + 50.0
    raw = naive_gram(x)[0]
    got = engine._split_curve(compute_gram(as_series(x)), 2)
    want = one_array_split_curve(GramSummary.of(raw), 2)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    # the block sums the curve reads agree between the two summaries too;
    # the Gram's cancel its uncentered entries, and the first-rows sums are
    # zero up to that rounding, so their floor scales with a Gram row sum
    from_rows = RowSummary.of(x).block_sums()
    for got, want in zip(from_rows, GramSummary.of(raw).block_sums()):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * raw.sum(axis=1).max())


def _traced_peak(compute, *args):
    tracemalloc.start()
    try:
        compute(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, p, first, stacked", [
    pytest.param(5, 30, 0, False, id="5"),
    pytest.param(64, 30, 0, False, id="64"),
    pytest.param(65, 30, 0, False, id="65"),
    pytest.param(130, 30, 0, False, id="130"),
    pytest.param(800, 30, 0, False, id="800"),
    pytest.param(60, 1, 0, False, id="p1"),
    pytest.param(40, 200, 0, False, id="p-above-n"),
    # a segment: rows of a longer series, as segment_view cuts them
    pytest.param(50, 30, 17, False, id="segment"),
    # a slice of an (R, n, n) stack, as prepare_global fills it
    pytest.param(100, 200, 0, True, id="stack-slice"),
    pytest.param(50, 30, 17, True, id="segment-stack-slice"),
])
def test_gram_product_is_bitwise_the_symmetrized_product(n, p, first, stacked):
    # numpy computes x @ x.T by one triangle and its mirror, so the product
    # is exactly symmetric as it comes and needs no symmetrization
    values = np.random.default_rng(n + p).standard_normal((first + n + 9, p))
    x = values[first : first + n]
    out = np.full((3, n, n), np.nan)[1] if stacked else None
    got = engine._gram_product(n, p, [x], out=out)
    r = x @ x.T
    assert got.tobytes() == ((r + r.T) / 2.0).tobytes()
    assert out is None or got is out


def test_gram_product_memory_above_its_input():
    # the product is the one n x n array: 1.00 x n^2 float64 here; the
    # out-of-place (r + r.T) / 2 peaked at 2.01
    n = 800
    x = np.random.default_rng(8).standard_normal((n, 50))
    peak = _traced_peak(lambda x: engine._gram_product(*x.shape, [x]), x)
    assert peak <= 1.25 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


@pytest.mark.parametrize("m", [0, 1])
def test_b_matrix_is_bitwise_the_outer_formula(m):
    for n in range(max(4, 2 * (m + 2)), 41):
        for t in range(1, n):
            got = b_matrix(n, t, DependenceWindow(m))
            assert got.tobytes() == outer_b_matrix(n, t, m).tobytes(), (n, t)


def test_b_matrix_memory():
    # the mean contrast is filled block by block into the one n x n array:
    # 1.02 x n^2 float64 here; the sum of three outer products peaked at 2.03
    n = 800
    peak = _traced_peak(b_matrix, n, 300, DependenceWindow(2))
    assert peak <= 1.25 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


@pytest.mark.parametrize("n, m", [(6, 1), (100, 2), (101, 3), (800, 2), (800, 10)])
def test_aggregate_values_is_bitwise_the_outer_formula(n, m):
    plan = _plan(n, m)
    got = engine._AggregateContrast(n, plan.design, plan.weights).rows(0, n)
    want = outer_aggregate_values(n, plan.design, plan.weights)
    assert got.tobytes() == want.tobytes()


def test_aggregate_values_memory():
    # each row is built in place: 1.01 x n^2 float64 here; a second outer
    # sum and an n^2 bool mask peaked at 2.16
    n = 800
    plan = _plan(n, 2)
    peak = _traced_peak(lambda: engine._AggregateContrast(n, plan.design, plan.weights).rows(0, n))
    assert peak <= 1.5 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


def test_cold_plan_cross_products_memory():
    # the aggregate contrast is built and reduced a block of rows at a time,
    # so no n x n array is formed: 0.12 x n^2 float64 here; the whole
    # contrast peaked at 1.04
    n = 800
    _plan.cache_clear()
    peak = _traced_peak(lambda: _plan(n, 2).cross)
    assert peak <= 0.25 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


@pytest.mark.parametrize("n, m", [(800, 2), (800, 10), (301, 3)])
def test_plan_cross_products_are_bitwise_the_full_contrast_reducer(n, m):
    # the closed form's row blocks hold B's entries bit for bit, and both go
    # through the one reducer; the dense loop over all of B agrees to
    # rounding. n = 800 is 20 blocks of 40 rows, n = 301 is 108 + 108 + 85.
    B = b_aggregate(n, DependenceWindow(m))
    plan = _plan(n, m)
    assert plan.cross.tobytes() == engine._contrast_cross_products(B, m).tobytes()
    assert plan.mass == engine._contrast_mass(B)
    np.testing.assert_allclose(plan.cross, dense_cross_products(B, m), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(plan.mass, float(np.einsum("ij,ij->", B, B)), rtol=1e-13)
