"""Tests, location estimation, segmentation, and error accounting."""

import numpy as np
import pytest

from hdcp import (
    DependenceWindow,
    InferenceConfig,
    IndexOutOfRange,
    LinearProcessSpec,
    MeanProfile,
    as_series,
    binary_segmentation,
    build_coefficients,
    classify_errors,
    estimate_single,
    generate_series,
)
from hdcp import test_at as split_test
from hdcp import test_global as global_test
from hdcp import engine
from hdcp.engine import _plan, aggregate_variance, build_trace_table, compute_gram, l_trace

W0 = DependenceWindow(0)


def _constant_series(n=12, p=3, value=2.5):
    return as_series(np.full((n, p), value))


def test_global_constant_series_degenerate():
    out = global_test(_constant_series(), W0, InferenceConfig())
    assert out.degenerate and not out.reject
    assert out.statistic == pytest.approx(0.0, abs=1e-10)


def test_at_constant_series_degenerate():
    for t in (1, 6, 11):
        out = split_test(_constant_series(), t, W0, InferenceConfig())
        assert out.degenerate and not out.reject


def test_at_validates_split():
    s = _constant_series()
    with pytest.raises(IndexOutOfRange):
        split_test(s, 0, W0, InferenceConfig())
    with pytest.raises(IndexOutOfRange):
        split_test(s, 12, W0, InferenceConfig())


def test_rejection_monotone_in_alpha():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 10))
    x[20:] += 0.8
    s = as_series(x)
    rejected = [
        global_test(s, W0, InferenceConfig(alpha=a)).reject
        for a in (0.001, 0.01, 0.05, 0.2, 0.5)
    ]
    # once rejected at some level, rejected at every larger level
    assert rejected == sorted(rejected)


def test_estimate_single_step_example():
    assert estimate_single(as_series([[0.0], [0.0], [2.0], [2.0]]), W0) == 2


def test_estimate_single_constant_ties_to_first():
    assert estimate_single(_constant_series(), W0) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        InferenceConfig(alpha=0.0)
    cfg = InferenceConfig(alpha=0.05, fwer_mode=True)
    assert cfg.segment_alpha(150) == pytest.approx(1.0 / (150 * np.log(150)))
    assert InferenceConfig(alpha=0.01).segment_alpha(150) == 0.01
    assert InferenceConfig().segment_alpha(150) == 0.05
    assert InferenceConfig().segment_min_length(DependenceWindow(2)) == 8
    assert InferenceConfig().segment_min_length(W0) == 4


def test_segmentation_constant_series_empty_with_degenerate_trace():
    result = binary_segmentation(_constant_series(16), W0, InferenceConfig())
    assert result.points == ()
    assert any(rec.status == "degenerate" for rec in result.trace)


def test_segmentation_deterministic_and_well_formed():
    spec = LinearProcessSpec(n=90, p=60, m_true=0, seed=44)
    prof = MeanProfile((30, 60), (0.0, 2.0, -1.5), sign_seed=44)
    series = generate_series(spec, prof)
    cfg = InferenceConfig(alpha=0.05)
    a = binary_segmentation(series, W0, cfg)
    b = binary_segmentation(series, W0, cfg)
    assert a == b
    assert list(a.points) == sorted(set(a.points))
    min_len = cfg.segment_min_length(W0)
    for rec in a.trace:
        if rec.status not in ("skipped_short", "skipped_infeasible"):
            assert rec.segment.length >= min_len
        if rec.status == "split":
            assert rec.segment.lo <= rec.argmax < rec.segment.hi


def test_segmentation_recovers_clear_changes():
    spec = LinearProcessSpec(n=120, p=80, m_true=0, seed=45)
    prof = MeanProfile((40, 80), (0.0, 2.5, 0.0), sign_seed=45)
    model = build_coefficients(spec, prof)
    hits = 0
    for rep in range(10):
        series = generate_series(spec, prof, model=model, seed=[45, rep])
        found = binary_segmentation(series, W0, InferenceConfig(fwer_mode=True))
        fp, fn, tp = classify_errors(found, [40, 80], tolerance_pts=2)
        hits += tp == 2 and fp == 0
    assert hits >= 8


def test_segmentation_skips_infeasible_segments():
    # min_segment_len floor 2(M+2) = 8 admits segments too short for the
    # separated sums at M = 2 (which need n >= 10); those are recorded
    rng = np.random.default_rng(10)
    x = rng.standard_normal((9, 4))
    series = as_series(x)
    result = binary_segmentation(series, DependenceWindow(2), InferenceConfig())
    assert result.points == ()
    assert result.trace[0].status == "skipped_infeasible"


def test_classify_errors_examples():
    assert classify_errors([15, 75, 105], [15, 75, 105], 0) == (0, 0, 3)
    assert classify_errors([], [15, 75, 105], 0) == (0, 3, 0)
    assert classify_errors([14, 75], [15, 75, 105], 1) == (0, 1, 2)


def test_classify_errors_greedy_one_to_one():
    # one estimate cannot match two truths, nearest pair wins
    assert classify_errors([10], [9, 11], 1) == (0, 1, 1)
    assert classify_errors([9, 10], [10], 1) == (1, 0, 1)
    with pytest.raises(ValueError):
        classify_errors([5], [3, 3], 0)


def test_global_outcomes_do_not_depend_on_cached_plans():
    # two lengths and two orders, interleaved so each (n, M) plan is
    # reused after calls on other keys; reversing the order changes which
    # call builds each plan. Each call gets a fresh series, because a
    # series keeps its Gram and the Gram its results.
    values = {n: np.random.default_rng(n).standard_normal((n, 15)) + 0.2 for n in (40, 57)}
    calls = [(40, 0), (57, 2), (40, 2), (57, 0), (40, 0), (57, 2), (40, 2), (57, 0)]

    def outcomes(order):
        _plan.cache_clear()
        return {i: global_test(as_series(values[n]), DependenceWindow(m), InferenceConfig())
                for i, (n, m) in order}

    forward = outcomes(list(enumerate(calls)))
    backward = outcomes(list(enumerate(calls))[::-1])
    assert forward == backward
    for i, (n, m) in enumerate(calls):
        assert forward[i] == forward[calls.index((n, m))]


def test_null_plan_is_read_only_and_holds_no_n_by_n_array():
    n, m = 40, 2
    plan = _plan(n, m)
    assert plan.weights.shape == (n - 1, m + 1)
    assert plan.cross.shape == (2 * m + 1, 2 * m + 1)
    for array in (plan.weights, plan.cross, plan.design.matrix):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert _plan(n, m) is plan


def test_cold_l_trace_builds_no_aggregate_cross_products(monkeypatch):
    # l_trace and estimate_single read only the plan's design and boundary
    # weights; the O(n^2 M^2) cross-products of the aggregate contrast wait
    # for the first aggregate variance of the shape
    calls = []
    cross_products = engine._contrast_cross_products

    def counted(*args):
        calls.append(args[1])
        return cross_products(*args)

    monkeypatch.setattr(engine, "_contrast_cross_products", counted)
    _plan.cache_clear()
    n, window = 48, DependenceWindow(3)
    series = as_series(np.random.default_rng(48).standard_normal((n, 6)))
    gram = compute_gram(series)
    l_trace(gram, window)
    estimate_single(as_series(series.values), window)
    assert calls == []
    table = build_trace_table(gram, window)
    first = aggregate_variance(table, n)
    assert calls == [3]
    assert aggregate_variance(table, n) == first and calls == [3]
    plan = _plan(n, 3)
    B = engine._aggregate_values(n, plan.design, plan.weights)
    assert plan.cross.tobytes() == cross_products(B, 3).tobytes()
    assert plan.mass == float(np.einsum("ij,ij->", B, B))
