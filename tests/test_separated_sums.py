"""Exact agreement of the separated pair, triple and quadruple sums with
enumeration.

The grid covers the shortest feasible series 2(M + 2) and one longer, where
windows are clipped at both ends, and lengths at which the windows of two
separated indices still overlap (M < |q - r| <= 2M). M = 10, the elbow's
default depth, runs at its shortest lengths 3M + 4 and 3M + 5. Each term
sums its whole grid and then removes the entries its index rules forbid,
so a series far from mean zero, whose Gram has no small entries, is
checked at the shortest lengths too, where the forbidden entries are most
of the grid.

The shared structures the sums read are checked bitwise: window sums as
slice runs against the gather they replace, the cached (n, M) plan (cold
against warm) and the Gram's row prefix.
"""

import numpy as np
import pytest

from hdcp import as_series, compute_gram
from hdcp.core import DependenceWindow, GramSummary
from hdcp.engine import (
    _plan,
    _SeparatedSums,
    _window_diff,
    _window_runs,
    build_trace_table,
    trace_product_estimate,
)
from hdcp.selector import default_h_max, lag_energy_curve

ORDERS = (0, 1, 2, 3, 5)
CASES = [(n, m) for m in ORDERS for n in sorted({2 * (m + 2), 2 * (m + 2) + 1, 17, 30})]
CASES += [(3 * 10 + 4, 10), (3 * 10 + 5, 10)]
SHIFTED = [(n, m) for m in (0, 2, 10) for n in sorted({2 * (m + 2), 3 * m + 4, 3 * m + 5})]


def _far(a, b, m):
    return np.abs(a - b) > m


def brute_pair(g: np.ndarray, m: int, h1: int, h2: int) -> tuple[float, int]:
    n = g.shape[0]
    s = np.arange(max(0, -h1), min(n, n - h1))[:, None]
    t = np.arange(max(0, -h2), min(n, n - h2))[None, :]
    mask = (
        _far(s, t, m)
        & _far(s, t + h2, m)
        & _far(s + h1, t, m)
        & _far(s + h1, t + h2, m)
    )
    total = float(np.sum(g[t + h2, s] * g[s + h1, t], where=mask))
    return total, int(mask.sum())


def brute_triple(g: np.ndarray, m: int, h: int) -> tuple[float, int]:
    n = g.shape[0]
    r = np.arange(n)[:, None, None]
    s = np.arange(max(0, -h), min(n, n - h))[None, :, None]
    t = np.arange(n)[None, None, :]
    mask = (
        _far(r, s, m)
        & _far(r, s + h, m)
        & _far(r, t, m)
        & _far(t, s, m)
        & _far(t, s + h, m)
    )
    total = float(np.sum(g[r, s] * g[s + h, t], where=mask))
    return total, int(mask.sum())


def brute_quad(g: np.ndarray, m: int) -> tuple[float, int]:
    n = g.shape[0]
    idx = np.arange(n)
    q, r, s, t = np.meshgrid(idx, idx, idx, idx, indexing="ij", sparse=True)
    mask = (
        _far(q, r, m)
        & _far(q, s, m)
        & _far(q, t, m)
        & _far(r, s, m)
        & _far(r, t, m)
        & _far(s, t, m)
    )
    total = float(np.sum(g[q, r] * g[s, t], where=mask))
    return total, int(mask.sum())


def _gram(n: int, m: int, shift: float = 0.7) -> GramSummary:
    rng = np.random.default_rng(1000 * n + m)
    x = rng.standard_normal((n, 3)) + shift
    return compute_gram(as_series(x))


@pytest.mark.parametrize("n,m", CASES)
def test_quad_term_matches_enumeration(n, m):
    gram = _gram(n, m)
    value, count = _SeparatedSums(gram, m).quad_term()
    want_value, want_count = brute_quad(gram.raw, m)
    assert isinstance(count, int)
    assert count == want_count
    np.testing.assert_allclose(value, want_value, rtol=1e-10)


@pytest.mark.parametrize("n,m", CASES)
def test_triple_term_matches_enumeration(n, m):
    gram = _gram(n, m)
    ctx = _SeparatedSums(gram, m)
    for h in range(-m, m + 1):
        value, count = ctx.triple_term(h)
        want_value, want_count = brute_triple(gram.raw, m, h)
        assert isinstance(count, int)
        assert count == want_count, h
        np.testing.assert_allclose(value, want_value, rtol=1e-10, err_msg=f"h={h}")
        assert ctx.triple_term(-h)[1] == count


@pytest.mark.parametrize("n,m", CASES)
def test_pair_term_matches_enumeration(n, m):
    gram = _gram(n, m)
    ctx = _SeparatedSums(gram, m)
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            value, count = ctx.pair_term(h1, h2)
            want_value, want_count = brute_pair(gram.raw, m, h1, h2)
            assert isinstance(count, int)
            assert count == want_count, (h1, h2)
            np.testing.assert_allclose(value, want_value, rtol=1e-10, err_msg=f"h={h1, h2}")


@pytest.mark.parametrize("n,m", SHIFTED)
def test_terms_match_enumeration_far_from_mean_zero(n, m):
    gram = _gram(n, m, shift=50.0)
    ctx = _SeparatedSums(gram, m)
    want = brute_quad(gram.raw, m)
    value, count = ctx.quad_term()
    assert count == want[1]
    np.testing.assert_allclose(value, want[0], rtol=1e-10)
    for h in range(-m, m + 1):
        want = brute_triple(gram.raw, m, h)
        value, count = ctx.triple_term(h)
        assert count == want[1], h
        np.testing.assert_allclose(value, want[0], rtol=1e-10, err_msg=f"h={h}")
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            want = brute_pair(gram.raw, m, h1, h2)
            value, count = ctx.pair_term(h1, h2)
            assert count == want[1], (h1, h2)
            np.testing.assert_allclose(value, want[0], rtol=1e-10, err_msg=f"h={h1, h2}")


def _bits(terms):
    return [(np.float64(value).tobytes(), count) for value, count in terms]


def _all_terms(gram: GramSummary, m: int):
    ctx = _SeparatedSums(gram, m)
    lags = range(-m, m + 1)
    terms = [ctx.quad_term()] + [ctx.triple_term(h) for h in lags]
    terms += [ctx.pair_term(h1, h2) for h1 in lags for h2 in lags]
    return _bits(terms)


def test_window_diff_equals_the_gather():
    # every n in 4..40 and M in 0..n+1: windows clipped at one end, at both
    # ends, and wider than the series
    rng = np.random.default_rng(9)
    for n in range(4, 41):
        cols = rng.standard_normal((3, n + 1)).cumsum(axis=1)
        rows = rng.standard_normal((n + 1, 3)).cumsum(axis=0)
        for m in range(n + 2):
            idx = np.arange(n)
            lo, hi = np.maximum(idx - m, 0), np.minimum(idx + m + 1, n)
            runs = _window_runs(n, m)
            assert len(runs) <= 3
            by_cols = _window_diff(cols, runs, axis=1)
            by_rows = _window_diff(rows, runs, axis=0)
            assert by_cols.flags.c_contiguous and by_rows.flags.c_contiguous
            assert by_cols.tobytes() == (cols[:, hi] - cols[:, lo]).tobytes(), (n, m)
            assert by_rows.tobytes() == (rows[hi] - rows[lo]).tobytes(), (n, m)


@pytest.mark.parametrize("n,m", [(30, 5), (200, 3), (34, 10)])
def test_sums_plan_is_read_only_and_small(n, m):
    _all_terms(_gram(n, m), m)
    plan = _plan(n, m)
    assert len(plan._triples) == m + 1
    assert len(plan._pairs) == (2 * m + 1) ** 2
    # the windows are the only arrays, length n; every term keeps integers
    for array in (plan.lo, plan.hi):
        assert not array.flags.writeable
        assert array.shape == (n,)
    assert all(type(count) is int for count in plan._triples.values())
    for pair in plan._pairs.values():
        assert all(type(field) is int for field in pair)
        # one forbidden interval of at most 4M + 1 differences
        assert 2 * m + 1 <= pair.width <= 4 * m + 1
    assert _plan(n, m) is plan


def test_plan_cache_is_bounded_and_drops_the_least_recent():
    size = _plan.cache_info().maxsize
    assert size is not None
    _plan.cache_clear()
    first = _plan(20, 1)
    kept = _plan(21, 1)
    for n in range(22, 20 + size):
        _plan(n, 1)
    _plan(21, 1)  # now the most recent; (20, 1) is the least
    _plan(20 + size, 1)  # one key too many
    assert _plan.cache_info().currsize == size
    assert _plan(21, 1) is kept
    assert _plan(20, 1) is not first


def test_elbow_builds_no_lag_design():
    # the elbow's orders read only the separated sums of their plans
    _plan.cache_clear()
    series = as_series(np.random.default_rng(90).standard_normal((90, 8)))
    h_max = default_h_max(series.n)
    lag_energy_curve(series, h_max)
    for h in range(h_max + 1):
        plan = _plan(series.n, h)
        assert "design" not in plan.__dict__ and "weights" not in plan.__dict__, h
    # every plan read above is one the curve built
    assert _plan.cache_info().currsize == h_max + 1


def test_terms_do_not_depend_on_cached_plans():
    # cold: every shape right after a cache clear; warm: all shapes one
    # after another, then again in reverse, so each plan is reused after
    # calls on other shapes. Each call gets a fresh Gram, because a Gram
    # keeps its terms.
    cold = {}
    for n, m in CASES:
        _plan.cache_clear()
        cold[n, m] = _all_terms(_gram(n, m), m)
    _plan.cache_clear()
    for n, m in CASES + CASES[::-1]:
        assert _all_terms(_gram(n, m), m) == cold[n, m], (n, m)


def test_row_prefix_is_built_once_per_gram():
    gram = _gram(30, 2)
    assert "row_prefix" not in gram.__dict__
    _SeparatedSums(gram, 2)
    prefix = gram.__dict__["row_prefix"]
    want = np.concatenate([np.zeros((30, 1)), np.cumsum(gram.raw, axis=1)], axis=1)
    assert prefix.shape == (30, 31)
    assert prefix.tobytes() == want.tobytes()
    assert not prefix.flags.writeable
    _SeparatedSums(gram, 3)
    assert gram.row_prefix is prefix


def test_lag_energy_curve_equals_fresh_contexts():
    # the curve shares one row prefix across its orders; a fresh Gram per
    # order builds its own
    values = np.random.default_rng(120).standard_normal((120, 30)) + 0.4
    series = as_series(values)
    h_max = default_h_max(series.n)
    curve = lag_energy_curve(series, h_max)
    fresh = [
        trace_product_estimate(compute_gram(as_series(values)), -h, h, DependenceWindow(h))
        for h in range(h_max + 1)
    ]
    assert curve.w_hat.tobytes() == np.array(fresh).tobytes()


@pytest.mark.parametrize("n,m", [(30, 2), (34, 10), (60, 3)])
def test_terms_do_not_depend_on_their_order_in_one_workspace(n, m):
    # the quadruple term overwrites the window sums that the triple terms
    # read; one context, terms in a mixed order
    lags = range(-m, m + 1)
    gram = _gram(n, m)
    ctx = _SeparatedSums(gram, m)
    terms = {("triple", h): ctx.triple_term(h) for h in lags if h < 0}
    terms[("pair", m, -m)] = ctx.pair_term(m, -m)
    terms["quad"] = ctx.quad_term()
    terms.update({("triple", h): ctx.triple_term(h) for h in lags if h >= 0})
    fresh = _SeparatedSums(_gram(n, m), m)
    want = {"quad": fresh.quad_term(), ("pair", m, -m): fresh.pair_term(m, -m)}
    want.update({("triple", h): fresh.triple_term(h) for h in lags})
    assert {k: _bits([v]) for k, v in terms.items()} == {k: _bits([v]) for k, v in want.items()}


def _term_bits(gram: GramSummary) -> dict:
    return {
        key: (np.float64(term[0]).tobytes(), term[1])
        for key, term in gram.results.items()
        if key[0] in ("pair", "triple", "quad")
    }


@pytest.mark.parametrize("n,m", [(30, 2), (60, 3)])
def test_table_stores_the_terms_it_would_find_stored(n, m):
    # a table built first, then single estimates; and single estimates
    # first, as the elbow runs them, then the table
    values = np.random.default_rng(n + m).standard_normal((n, 4)) + 50.0
    window = DependenceWindow(m)
    lags = [(h1, h2) for h1 in range(-m, m + 1) for h2 in range(-m, m + 1)]
    table_first = compute_gram(as_series(values))
    build_trace_table(table_first, window)
    before = _term_bits(table_first)
    for h1, h2 in lags:
        trace_product_estimate(table_first, h1, h2, window)
    table_last = compute_gram(as_series(values))
    for h1, h2 in lags[::-1]:
        trace_product_estimate(table_last, h1, h2, window)
    build_trace_table(table_last, window)
    stored = _term_bits(table_first)
    assert {key: stored[key] for key in before} == before
    assert _term_bits(table_last) == stored
