"""One summary per series, one result per (summary, M).

``compute_gram`` keeps the summary of a series' inner products on the
series: its Gram, or, for a narrow series (n >= 4p), its rows. ``segment_view``
returns the series itself for the full range, and cuts any other
segment's summary from its source's when it cuts the segment (a segment of
a segment included): a view of the Gram's sub-block, or the segment's rows
with its diagonals sliced from its source's while the segment is narrow
too. ``l_trace``, ``build_trace_table`` and the separated-sum terms are
stored on the summary per separation order M. These tests pin that the
O(n^2 p) product runs once per ``hdcp detect`` call, and never for a
narrow series; that stored results are read-only, keyed by M and by
summary, and bitwise equal to what a fresh summary gives. The Gram-path
cases are wide (4p > n); each has a narrow counterpart checked against
the naive oracles.
"""

import json
import tracemalloc

import numpy as np
import pytest

from hdcp import (
    LinearProcessSpec,
    as_series,
    build_trace_table,
    compute_gram,
    generate_series,
    l_trace,
    trace_product_estimate,
)
from hdcp import engine
from hdcp.cli import main
from hdcp.core import DependenceWindow, GramSummary, RowSummary
from hdcp.engine import _SeparatedSums
from hdcp.inference import InferenceConfig, binary_segmentation
from hdcp.inference import test_global as global_test
from hdcp.selector import lag_energy_curve
from oracles import naive_gram


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


def test_full_range_view_is_the_series():
    series = as_series(_values(40, 6, 2))
    assert series.segment_view(1, series.n) is series


def test_full_range_view_shares_the_gram_both_ways(monkeypatch):
    products = _count_products(monkeypatch)
    series = as_series(_values(40, 12, 2))
    from_view = compute_gram(series.segment_view(1, 40))
    assert compute_gram(series) is from_view
    other = as_series(_values(40, 12, 3))
    from_source = compute_gram(other)
    assert compute_gram(other.segment_view(1, 40)) is from_source
    assert products == [(40, 12), (40, 12)]


def _assert_summary_matches_naive(gram, x, k_max):
    # the row sums and the diagonals |k| <= k_max against the naive Gram
    raw, _ = naive_gram(x)
    total = float(np.abs(raw).sum())
    np.testing.assert_allclose(gram.row_sums, raw.sum(axis=1), rtol=0, atol=1e-12 * total)
    scale = np.abs(raw).max()
    for k in range(k_max + 1):
        np.testing.assert_allclose(
            gram.diagonal(k), np.diagonal(raw, k), rtol=1e-12, atol=1e-12 * scale, err_msg=k
        )


def test_narrow_full_range_view_shares_the_summary_both_ways(monkeypatch):
    products = _count_products(monkeypatch)
    series = as_series(_values(40, 6, 2))
    from_view = compute_gram(series.segment_view(1, 40))
    assert compute_gram(series) is from_view
    assert isinstance(from_view, RowSummary) and from_view.rows is series.values
    other = as_series(_values(40, 6, 3))
    from_source = compute_gram(other)
    assert compute_gram(other.segment_view(1, 40)) is from_source
    assert products == []
    _assert_summary_matches_naive(from_view, series.values, 6)


@pytest.mark.parametrize("n,p,lo,hi,inner", [
    pytest.param(40, 12, 5, 33, None, id="40-12-5-33"),
    pytest.param(40, 12, 1, 20, None, id="40-12-1-20"),
    pytest.param(40, 12, 21, 40, None, id="40-12-21-40"),
    pytest.param(40, 12, 2, 40, None, id="40-12-2-40"),
    # a 100-row segment of a wide source
    pytest.param(130, 600, 16, 115, None, id="130-600-16-115"),
    # rows 8..25 of the source, cut from its segment 5..33
    pytest.param(40, 12, 5, 33, (4, 21), id="40-12-5-33-view-4-21"),
])
def test_segment_gram_is_a_sub_block(monkeypatch, n, p, lo, hi, inner):
    values = _values(n, p, n + lo)
    series = as_series(values)
    source = compute_gram(series)
    products = _count_products(monkeypatch)
    view = series.segment_view(lo, hi)
    if inner is not None:
        view = view.segment_view(*inner)
        lo, hi = lo - 1 + inner[0], lo - 1 + inner[1]
    sub = compute_gram(view)
    assert products == []
    fresh = compute_gram(as_series(values[lo - 1 : hi]))

    assert np.shares_memory(sub.raw, source.raw)
    scale = np.abs(fresh.raw).max()
    np.testing.assert_allclose(sub.raw, fresh.raw, rtol=1e-12, atol=1e-12 * scale)
    assert (sub.raw == sub.raw.T).all()
    total = float(np.abs(fresh.raw).sum())
    np.testing.assert_allclose(sub.row_sums, fresh.row_sums, rtol=0, atol=1e-12 * total)

    # the strided view gives the bits of a C-ordered copy of its block
    copy = GramSummary.of(np.ascontiguousarray(sub.raw))
    window = DependenceWindow(2)
    assert l_trace(sub, window).tobytes() == l_trace(copy, window).tobytes()
    table = build_trace_table(sub, window).values
    assert table.tobytes() == build_trace_table(copy, window).values.tobytes()


@pytest.mark.parametrize("n,p,lo,hi,inner", [
    pytest.param(40, 6, 5, 33, None, id="40-6-5-33"),
    pytest.param(40, 6, 2, 40, None, id="40-6-2-40"),
    # 20 rows, below 4p = 24: the segment takes its own Gram
    pytest.param(40, 6, 1, 20, None, id="40-6-1-20-short"),
    pytest.param(40, 6, 21, 40, None, id="40-6-21-40-short"),
    # rows 8..25 of the source, cut from its narrow segment 5..33: short
    pytest.param(40, 6, 5, 33, (4, 21), id="40-6-5-33-view-4-21-short"),
    # rows 8..44 of the source, cut from its narrow segment 5..70: narrow
    pytest.param(80, 6, 5, 70, (4, 40), id="80-6-5-70-view-4-40"),
])
def test_narrow_segment_slices_its_sources_diagonals(monkeypatch, n, p, lo, hi, inner):
    # a narrow segment of a narrow source holds its rows, takes its own
    # row sums and slices its diagonals from the source's, with no product;
    # a segment below 4p takes one product of its own rows
    values = _values(n, p, n + lo)
    series = as_series(values)
    source = compute_gram(series)
    products = _count_products(monkeypatch)
    view = series.segment_view(lo, hi)
    if inner is not None:
        view = view.segment_view(*inner)
        lo, hi = lo - 1 + inner[0], lo - 1 + inner[1]
    sub = compute_gram(view)
    length = hi - lo + 1
    x = values[lo - 1 : hi]
    window = DependenceWindow(2)
    if 4 * p <= length:
        assert products == []
        assert isinstance(sub, RowSummary)
        assert np.shares_memory(sub.rows, series.values)
        for k in range(3 * window.m + 1):
            assert np.shares_memory(sub.diagonal(k), source.diagonal(k)), k
    else:
        assert products == [(length, p)]
        assert isinstance(sub, GramSummary) and sub.raw.flags.c_contiguous
    _assert_summary_matches_naive(sub, x, 3 * window.m)

    # the curve and the table against those of the naive Gram
    oracle = GramSummary.of(naive_gram(x)[0])
    got, want = l_trace(sub, window), l_trace(oracle, window)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    got, want = build_trace_table(sub, window).values, build_trace_table(oracle, window).values
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


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


def test_narrow_detect_takes_no_product(tmp_path, monkeypatch):
    # 400 x 10 with a shift at row 201: the elbow, the global test and
    # every segment tested read the rows, and no segment is below 4p
    path = tmp_path / "series.csv"
    np.savetxt(path, _values(400, 10, 6, shift=1.0), delimiter=",")
    out = tmp_path / "report.json"
    products = _count_products(monkeypatch)
    assert main(["detect", "--input", str(path), "--m", "auto", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["change_points"] == [200]
    tested = [s for s in report["segments"] if s["outcome"] is not None]
    assert len(tested) >= 3 and min(s["hi"] - s["lo"] + 1 for s in tested) >= 40
    assert products == []


def test_narrow_detect_holds_no_n_by_n_array(tmp_path):
    # an 800 x 100 series of the lag-2 process, as the benchmark's
    # ``--m auto`` workload draws it: the traced peak of a warm call is
    # 0.60 x n^2 float64 (3.07 MB); with the n x n Gram it was 1.55
    n = 800
    series = generate_series(LinearProcessSpec(n=n, p=100, m_true=2, seed=101))
    path = tmp_path / "series.csv"
    np.savetxt(path, series.values, delimiter=",")
    argv = ["detect", "--input", str(path), "--m", "auto", "--output", str(tmp_path / "r.json")]
    assert main(argv) == 0  # the (n, M) plans are built once per process
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n**2 * 8, f"{peak / (n**2 * 8):.2f} x n^2 float64"


def test_segmentation_of_a_fresh_series_takes_one_product(monkeypatch):
    series = as_series(_values(90, 30, 5, shift=1.5))
    products = _count_products(monkeypatch)
    found = binary_segmentation(series, DependenceWindow(1), InferenceConfig())
    assert _tested(found.trace) >= 3
    assert products == [(90, 30)]


def _assert_stored_results_are_read_only(gram, held):
    window = DependenceWindow(2)
    curve = l_trace(gram, window)
    table = build_trace_table(gram, window)
    assert l_trace(gram, window) is curve
    assert build_trace_table(gram, window) is table
    for array in held + (gram.row_sums, curve, table.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_stored_results_are_read_only():
    gram = compute_gram(as_series(_values(40, 12, 4)))
    _assert_stored_results_are_read_only(gram, (gram.raw,))


def test_narrow_stored_results_are_read_only():
    gram = compute_gram(as_series(_values(40, 6, 4)))
    held = (gram.rows, gram.diagonal(0), gram.diagonal(6))
    _assert_stored_results_are_read_only(gram, held)
    _assert_summary_matches_naive(gram, gram.rows, 6)


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
