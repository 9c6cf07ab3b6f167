"""Elbow-based choice of the dependence order."""

import tracemalloc

import numpy as np
import pytest

from hdcp import (
    DependenceWindow,
    DimensionTooSmall,
    LagEnergyCurve,
    NonPositiveBaseline,
    as_series,
    compute_gram,
    lag_energy_curve,
    select_m,
    trace_product_estimate,
)
from hdcp import selector
from hdcp.selector import default_h_max


def test_select_m_rule_examples():
    assert select_m(LagEnergyCurve(3, np.array([100.0, 2, 1.5, 1])), 0.1).value == 0
    picked = select_m(LagEnergyCurve(4, np.array([100.0, 80, 60, 3, 2])), 0.1)
    assert picked.value == 2 and not picked.saturated
    saturated = select_m(LagEnergyCurve(3, np.array([100.0, 50, 40, 30])), 0.1)
    assert saturated.value == 3 and saturated.saturated


def test_select_m_baseline_must_be_positive():
    with pytest.raises(NonPositiveBaseline):
        select_m(LagEnergyCurve(2, np.array([0.0, 1.0, 1.0])))
    with pytest.raises(NonPositiveBaseline):
        select_m(LagEnergyCurve(2, np.array([-3.0, 1.0, 1.0])))


def test_select_m_ratio_bounds():
    curve = LagEnergyCurve(2, np.array([10.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        select_m(curve, 0.0)
    with pytest.raises(ValueError):
        select_m(curve, 1.0)


def test_curve_zero_series_is_all_zero():
    series = as_series(np.zeros((20, 3)))
    curve = lag_energy_curve(series, 2)
    np.testing.assert_array_equal(curve.w_hat, np.zeros(3))
    with pytest.raises(NonPositiveBaseline):
        select_m(curve)


def test_curve_matches_per_lag_estimates():
    rng = np.random.default_rng(15)
    series = as_series(rng.standard_normal((24, 4)))
    curve = lag_energy_curve(series, 3)
    gram = compute_gram(series)
    for h in range(4):
        expected = trace_product_estimate(gram, -h, h, DependenceWindow(h))
        assert curve.w_hat[h] == expected


def test_curve_requires_enough_data():
    series = as_series(np.random.default_rng(0).standard_normal((10, 2)))
    with pytest.raises(DimensionTooSmall):
        lag_energy_curve(series, 4)


def test_curve_rejects_over_deep_probe_before_any_order(monkeypatch):
    # n = 40 hosts M = 13 (n >= 2(M + 2)), but the quadruple term at order
    # 13 needs n >= 3 * 13 + 4 = 43, so the probe must stop before order 0
    calls = []
    monkeypatch.setattr(selector, "trace_product_estimate", lambda *a: calls.append(a))
    series = as_series(np.random.default_rng(1).standard_normal((40, 3)))
    with pytest.raises(DimensionTooSmall, match=r"h_max <= 12\b"):
        lag_energy_curve(series, 13)
    assert calls == []


def test_default_probe_depth():
    assert default_h_max(150) == 10
    assert default_h_max(64) == 8
    assert default_h_max(26) == 5


def test_curve_memory_above_the_gram():
    # one order at a time: its n x n window sums and the O(nM) band arrays
    n = 800
    series = as_series(np.random.default_rng(4).standard_normal((n, 10)) + 0.2)
    compute_gram(series).row_prefix
    tracemalloc.start()
    try:
        lag_energy_curve(series, default_h_max(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"
