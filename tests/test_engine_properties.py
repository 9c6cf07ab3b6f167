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
    build_trace_table,
    classify_errors,
    compute_gram,
    f_vector,
    l_trace,
    select_m,
    variance_estimate,
)
from hdcp import engine
from hdcp.engine import _plan
from oracles import outer_aggregate_values


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
    # the centered Gram is the curve's one n x n array; its upper triangle
    # is zeroed through a bool mask of n^2 bytes
    n = 800
    gram = compute_gram(as_series(np.random.default_rng(6).standard_normal((n, 10)) + 0.2))
    tracemalloc.start()
    try:
        l_trace(gram, DependenceWindow(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


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
    got = engine._gram_product(x, out=out)
    r = x @ x.T
    assert got.tobytes() == ((r + r.T) / 2.0).tobytes()
    assert out is None or got is out


def test_gram_product_memory_above_its_input():
    # the product is the one n x n array: 1.00 x n^2 float64 here; the
    # out-of-place (r + r.T) / 2 peaked at 2.01
    n = 800
    x = np.random.default_rng(8).standard_normal((n, 50))
    peak = _traced_peak(engine._gram_product, x)
    assert peak <= 1.25 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


@pytest.mark.parametrize("n, m", [(6, 1), (100, 2), (101, 3), (800, 2), (800, 10)])
def test_aggregate_values_is_bitwise_the_outer_formula(n, m):
    plan = _plan(n, m)
    got = engine._aggregate_values(n, plan.design, plan.weights)
    want = outer_aggregate_values(n, plan.design, plan.weights)
    assert got.tobytes() == want.tobytes()


def test_aggregate_values_memory():
    # the upper triangle is written over in place: 1.03 x n^2 float64
    # here; a second outer sum and an n^2 bool mask peaked at 2.16
    n = 800
    plan = _plan(n, 2)
    peak = _traced_peak(engine._aggregate_values, n, plan.design, plan.weights)
    assert peak <= 1.5 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"
