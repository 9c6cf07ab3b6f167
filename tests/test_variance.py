"""Plug-in variance estimates: reductions, floors, and targeting."""

import numpy as np
import pytest

from hdcp import (
    DependenceWindow,
    LinearProcessSpec,
    TraceTable,
    as_series,
    b_aggregate,
    b_matrix,
    build_trace_table,
    build_coefficients,
    compute_gram,
    generate_series,
    variance_estimate,
)
from hdcp.engine import aggregate_variance
from oracles import naive_variance, oracle_variance


def test_zero_series_floored_degenerate():
    w = DependenceWindow(0)
    g = compute_gram(as_series(np.zeros((10, 2))))
    table = build_trace_table(g, w)
    res = variance_estimate(b_aggregate(10, w), table)
    assert res.degenerate and res.value > 0.0


def test_synthetic_table_reduction_order_zero():
    w = DependenceWindow(0)
    table = TraceTable(m=0, values=np.array([[1.0]]))
    n = 10
    B = b_aggregate(n, w)
    expected = float((B * (B + B.T)).sum()) / n**4
    res = variance_estimate(b_aggregate(n, w), table)
    np.testing.assert_allclose(res.value, expected, rtol=1e-12)


def test_matches_naive_quadruple_loop():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((13, 3)) + 0.5
    g = compute_gram(as_series(x))
    for m in (0, 1, 2):
        w = DependenceWindow(m)
        table = build_trace_table(g, w)
        for contrast in (b_matrix(13, 4, w), b_aggregate(13, w)):
            fast = variance_estimate(contrast, table)
            slow = naive_variance(contrast, table, 13, m)
            if fast.degenerate:
                assert slow <= fast.value
            else:
                np.testing.assert_allclose(fast.value, slow, rtol=1e-9)


def test_null_variance_targets_oracle():
    # mean of the plug-in aggregate variance over replications vs truth
    spec = LinearProcessSpec(n=100, p=200, m_true=0, seed=14)
    model = build_coefficients(spec)
    w = DependenceWindow(0)
    target = oracle_variance("aggregate", model, w)
    reps = 150
    vals = np.empty(reps)
    for r in range(reps):
        x = generate_series(spec, model=model, seed=[14, r])
        g = compute_gram(x)
        vals[r] = variance_estimate(b_aggregate(100, w), build_trace_table(g, w)).value
    assert abs(vals.mean() - target) <= 0.2 * target


@pytest.mark.parametrize(
    "n,m", [(4, 0), (5, 0), (100, 0), (6, 1), (7, 1), (8, 2), (9, 2), (10, 3), (40, 3), (60, 5)]
)
def test_cached_plan_matches_generic_variance(n, m):
    # aggregate_variance reads the (n, M) plan; variance_estimate reduces the
    # n x n aggregate contrast itself. n = 2(M + 2) is the shortest series.
    rng = np.random.default_rng(100 * n + m)
    values = rng.random((2 * m + 1, 2 * m + 1))
    values = values + values.T
    table = TraceTable(m=m, values=values + values[::-1, ::-1])
    cached = aggregate_variance(table, n)
    generic = variance_estimate(b_aggregate(n, DependenceWindow(m)), table)
    assert cached.degenerate == generic.degenerate
    np.testing.assert_allclose(cached.value, generic.value, rtol=1e-12, atol=0.0)
