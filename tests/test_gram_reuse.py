"""One Gram per series, one result per (Gram, M).

``compute_gram`` keeps the Gram on its series and takes a segment's Gram as
a sub-block of its source's Gram. ``l_trace``, ``build_trace_table`` and
the separated-sum terms are stored on the Gram per separation order M.
These tests pin that the O(n^2 p) product runs once per ``hdcp detect``
call, that stored results are read-only, keyed by M and by Gram, and
bitwise equal to what a fresh Gram gives.
"""

import json

import numpy as np
import pytest

from hdcp import as_series, build_trace_table, compute_gram, l_trace, trace_product_estimate
from hdcp import engine
from hdcp.cli import main
from hdcp.core import DependenceWindow
from hdcp.engine import _SeparatedSums
from hdcp.inference import InferenceConfig, binary_segmentation
from hdcp.inference import test_global as global_test
from hdcp.selector import lag_energy_curve


def _values(n, p, seed, shift=0.0):
    x = np.random.default_rng(seed).standard_normal((n, p)) + 0.3
    x[n // 2 :] += shift
    return x


def _count_products(monkeypatch):
    # shapes of the O(n^2 p) products made from now on
    shapes = []
    product = engine._gram_product

    def counted(x):
        shapes.append(x.shape)
        return product(x)

    monkeypatch.setattr(engine, "_gram_product", counted)
    return shapes


def _tested(segments):
    return sum(rec.outcome is not None for rec in segments)


def test_gram_is_built_once_per_series():
    series = as_series(_values(40, 6, 1))
    gram = compute_gram(series)
    assert compute_gram(series) is gram
    assert compute_gram(as_series(series.values)) is not gram


def test_full_range_view_shares_the_gram_both_ways(monkeypatch):
    products = _count_products(monkeypatch)
    series = as_series(_values(40, 6, 2))
    from_view = compute_gram(series.segment_view(1, 40))
    assert compute_gram(series) is from_view
    other = as_series(_values(40, 6, 3))
    from_source = compute_gram(other)
    assert compute_gram(other.segment_view(1, 40)) is from_source
    assert products == [(40, 6), (40, 6)]


@pytest.mark.parametrize("n,p,lo,hi", [
    (40, 6, 5, 33), (40, 6, 1, 20), (40, 6, 21, 40), (40, 6, 2, 40),
    # a 100-row segment of a wide source
    (130, 600, 16, 115),
])
def test_segment_gram_is_a_sub_block(monkeypatch, n, p, lo, hi):
    values = _values(n, p, n + lo)
    series = as_series(values)
    source = compute_gram(series)
    products = _count_products(monkeypatch)
    sub = compute_gram(series.segment_view(lo, hi))
    assert products == []
    fresh = compute_gram(as_series(values[lo - 1 : hi]))

    assert sub.raw.flags.c_contiguous and not np.shares_memory(sub.raw, source.raw)
    scale = np.abs(fresh.raw).max()
    np.testing.assert_allclose(sub.raw, fresh.raw, rtol=1e-12, atol=1e-12 * scale)
    assert (sub.raw == sub.raw.T).all()
    total = float(np.abs(fresh.raw).sum())
    np.testing.assert_allclose(sub.row_sums, fresh.row_sums, rtol=0, atol=1e-12 * total)


@pytest.mark.parametrize("m", ["1", "auto"])
def test_one_product_per_detect_call(tmp_path, monkeypatch, m):
    path = tmp_path / "series.csv"
    np.savetxt(path, _values(90, 30, 5, shift=1.5), delimiter=",")
    out = tmp_path / "report.json"
    products = _count_products(monkeypatch)
    assert main(["detect", "--input", str(path), "--m", m, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    # the elbow (with auto), the global test and at least three segments
    assert sum(s["outcome"] is not None for s in report["segments"]) >= 3
    assert products == [(90, 30)]


def test_segmentation_of_a_fresh_series_takes_one_product(monkeypatch):
    series = as_series(_values(90, 30, 5, shift=1.5))
    products = _count_products(monkeypatch)
    found = binary_segmentation(series, DependenceWindow(1), InferenceConfig())
    assert _tested(found.trace) >= 3
    assert products == [(90, 30)]


def test_stored_results_are_read_only():
    gram = compute_gram(as_series(_values(40, 6, 4)))
    window = DependenceWindow(2)
    curve = l_trace(gram, window)
    table = build_trace_table(gram, window)
    assert l_trace(gram, window) is curve
    assert build_trace_table(gram, window) is table
    for array in (gram.raw, gram.row_sums, curve, table.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_float_row_sums_are_built_once_per_gram():
    gram = compute_gram(as_series(_values(130, 600, 7)))
    first = _SeparatedSums(gram, 1).row_sums
    second = _SeparatedSums(gram, 2).row_sums
    assert first is second and first is gram.row_sums
    assert first.dtype == np.float64
    assert first.tobytes() == gram.raw.sum(axis=1).tobytes()


def test_stored_results_equal_fresh_grams_bitwise():
    # orders revisited in a mixed sequence: every call after the first at
    # an order is a hit, and must give what a fresh Gram gives at that order
    values = _values(45, 8, 8)
    gram = compute_gram(as_series(values))
    for m in (2, 0, 1, 2, 0, 1):
        window = DependenceWindow(m)
        fresh = compute_gram(as_series(values))
        assert l_trace(gram, window).tobytes() == l_trace(fresh, window).tobytes(), m
        table = build_trace_table(gram, window).values
        assert table.tobytes() == build_trace_table(fresh, window).values.tobytes(), m
        for h1, h2 in ((m, -m), (0, m)):
            got = trace_product_estimate(gram, h1, h2, window)
            want = trace_product_estimate(compute_gram(as_series(values)), h1, h2, window)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (m, h1, h2)


def test_table_at_a_probed_order_reuses_the_quad_and_triple_terms(monkeypatch):
    # and the pair term: the elbow probes (-h, h), the orbit member the
    # table computes
    values = _values(60, 10, 9)
    series = as_series(values)
    gram = compute_gram(series)
    window = DependenceWindow(2)
    lag_energy_curve(series, 2)  # probes h = M = 2 among its orders
    computed = []
    for name in ("_quad", "_triple", "_pair"):
        original = getattr(_SeparatedSums, name)

        def counted(self, *args, _name=name, _original=original):
            computed.append((_name,) + args)
            return _original(self, *args)

        monkeypatch.setattr(_SeparatedSums, name, counted)
    table = build_trace_table(gram, window)
    pairs = sorted(args for name, *args in computed if name == "_pair")
    assert sorted(c for c in computed if c[0] == "_triple") == [("_triple", 0), ("_triple", 1)]
    assert ("_quad",) not in computed
    # one pair per orbit of the 5 x 5 grid, all but the probed one
    assert len(pairs) == 8 and [-2, 2] not in pairs
    assert table.values.tobytes() == build_trace_table(
        compute_gram(as_series(values)), window
    ).values.tobytes()


def test_series_of_one_shape_never_share_results():
    # two series of one shape and two orders, interleaved, as in
    # test_global_outcomes_do_not_depend_on_cached_plans
    values = {seed: _values(40, 15, seed) for seed in (40, 57)}
    series = {seed: as_series(v) for seed, v in values.items()}
    calls = [(40, 0), (57, 2), (40, 2), (57, 0), (40, 0), (57, 2), (40, 2), (57, 0)]
    outcomes = {}
    for seed, m in calls:
        window = DependenceWindow(m)
        outcome = global_test(series[seed], window, InferenceConfig())
        assert outcomes.setdefault((seed, m), outcome) == outcome
        assert outcome == global_test(as_series(values[seed]), window, InferenceConfig())
    for m in (0, 2):
        window = DependenceWindow(m)
        assert outcomes[40, m] != outcomes[57, m]
        curves = [l_trace(compute_gram(series[seed]), window) for seed in (40, 57)]
        assert curves[0].tobytes() != curves[1].tobytes()
