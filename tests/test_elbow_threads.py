"""The elbow's orders on a thread pool, in lean separated-sums contexts.

From n = ``selector._THREADED_FROM_N`` on, ``lag_energy_curve`` maps its
orders over ``core._WORKERS`` threads, each with its own workspace.
These tests pin that the worker count changes no bit of the curve, of the
``hdcp detect --m auto`` report or of what the Gram stores, and bound the
memory the threaded curve takes above the Gram.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hdcp import as_series, compute_gram
from hdcp import core, engine, selector
from hdcp.cli import main
from hdcp.selector import default_h_max, lag_energy_curve

N = selector._THREADED_FROM_N


def _series(n, p, seed):
    return np.random.default_rng(seed).standard_normal((n, p)) + 0.2


def _curve_with(monkeypatch, values, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)
    series = as_series(values)
    curve = lag_energy_curve(series, default_h_max(series.n))
    return curve, compute_gram(series)


def test_worker_count_does_not_change_the_curve(monkeypatch):
    values = _series(N, 12, 1)
    threads = set()
    estimate = selector.trace_product_estimate

    def recorded(*args):
        threads.add(threading.get_ident())
        return estimate(*args)

    monkeypatch.setattr(selector, "trace_product_estimate", recorded)
    serial, _ = _curve_with(monkeypatch, values, 1)
    assert threads == {threading.get_ident()}
    threads.clear()
    pooled, _ = _curve_with(monkeypatch, values, 2)
    assert len(threads) == 2 and threading.get_ident() not in threads
    assert pooled.w_hat.tobytes() == serial.w_hat.tobytes()


def test_worker_count_does_not_change_the_auto_report(tmp_path, monkeypatch):
    path = tmp_path / "series.csv"
    values = _series(N + 20, 15, 2)
    values[N // 2 :] += 0.8
    np.savetxt(path, values, delimiter=",")
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", workers)
        out = tmp_path / f"report_{workers}.json"
        assert main(["detect", "--input", str(path), "--m", "auto", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def _stored_bits(gram):
    return {
        key: (np.float64(value).tobytes(), count)
        for key, (value, count) in gram.results.items()
    }


def test_threaded_contexts_store_what_a_serial_run_stores(monkeypatch):
    # more workers than cores and a short switch interval, so that the
    # threads interleave inside the terms; a lost or doubled store, or a
    # second row prefix, would show
    values = _series(N, 8, 3)
    prefixes = []

    class Recorded(engine._SeparatedSums):
        def __init__(self, gram, m, workspace=None):
            super().__init__(gram, m, workspace)
            prefixes.append(self.row_prefix)

    monkeypatch.setattr(engine, "_SeparatedSums", Recorded)
    _, serial = _curve_with(monkeypatch, values, 1)
    prefixes.clear()
    result = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: result.update(gram=_curve_with(monkeypatch, values, 4)[1])
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    pooled = result["gram"]
    assert len(prefixes) == default_h_max(N) + 1
    assert all(prefix is pooled.row_prefix for prefix in prefixes)
    assert _stored_bits(pooled) == _stored_bits(serial)
    assert len(pooled.results) == 3 * (default_h_max(N) + 1)


def test_threaded_curve_memory_above_the_gram(monkeypatch):
    # two workspaces of n^2 float64 each, and the O(nM) band arrays of
    # the two contexts at work
    n = 800
    monkeypatch.setattr(core, "_WORKERS", 2)
    series = as_series(_series(n, 10, 4))
    compute_gram(series).row_prefix
    tracemalloc.start()
    try:
        lag_energy_curve(series, default_h_max(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n**2 * 8, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("workspace", [
    (np.empty((10, 10)),),
    np.empty((11, 11)),
    np.empty((10, 10), dtype=np.float32),
    np.empty((10, 20))[:, ::2],
])
def test_a_workspace_that_does_not_fit_is_refused(workspace):
    gram = compute_gram(as_series(_series(10, 3, 5)))
    with pytest.raises(ValueError):
        engine._SeparatedSums(gram, 1, workspace)
