"""Quantified invariants, via hypothesis where generation helps."""

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


def test_l_trace_offset_invariant_above_extended_precision_threshold():
    # n^2 p = 1.12e7 just crosses the longdouble switch of the prefix sums.
    # A common offset of 1e3 leaves the split statistic unchanged in exact
    # arithmetic but inflates the prefix entries by ~1e6, so float64
    # prefixes miss the tolerance by about 10x.
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("longdouble is no wider than float64 on this platform")
    x = np.random.default_rng(400).standard_normal((400, 70))
    window = DependenceWindow(2)
    shifted = compute_gram(as_series(x + 1e3))
    assert shifted.row_sums.dtype == np.longdouble
    ref = l_trace(compute_gram(as_series(x)), window)
    got = l_trace(shifted, window)
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()
