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

Every whole-grid sum is read from the Gram's lag-grid products
A(a, b) = sum_{s,t} G[s + a, t] G[s, t + b], which are checked against a
double loop, stored once per orbit and computed once per Gram. The cached
(n, M) plan is checked bitwise, cold against warm.

A narrow series (4p <= n) is summarized by its rows: it takes its
lag-grid products from its p x p lag cross-products and its diagonals
from row dots, and forms no Gram. Any other series takes both from its
Gram. So each enumeration gate runs on two sources of one (n, M): a
narrow one, p = 3, which takes the rows from n = 12 on, and a wide one,
p = n, which never does; the wide cases carry the id suffix ``-wide``.
The enumeration reads the inner products ``x @ x.T`` of the source. The
lag products are also checked on a segment's Gram, a strided view of its
source's Gram (ids ``-cut``).
"""

import tracemalloc

import numpy as np
import pytest

from hdcp import as_series, compute_gram, core
from hdcp.core import DependenceWindow, GramSummary, RowSummary
from hdcp.engine import (
    _plan,
    _SeparatedSums,
    build_trace_table,
    trace_product_estimate,
)
from hdcp.selector import default_h_max, lag_energy_curve

from oracles import naive_lag_product

ORDERS = (0, 1, 2, 3, 5)
CASES = [(n, m) for m in ORDERS for n in sorted({2 * (m + 2), 2 * (m + 2) + 1, 17, 30})]
CASES += [(3 * 10 + 4, 10), (3 * 10 + 5, 10)]
SHIFTED = [(n, m) for m in (0, 2, 10) for n in sorted({2 * (m + 2), 3 * m + 4, 3 * m + 5})]


def _sourced(cases):
    # each (n, M) from a narrow source (p = 3) and from a wide one (p = n)
    narrow = [pytest.param(n, m, 3, id=f"{n}-{m}") for n, m in cases]
    return narrow + [pytest.param(n, m, n, id=f"{n}-{m}-wide") for n, m in cases]


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


def _source(n: int, m: int, shift: float = 0.7, p: int = 3) -> tuple:
    # the summary of a seeded series and its inner products, for enumeration
    rng = np.random.default_rng(1000 * n + m)
    x = rng.standard_normal((n, p)) + shift
    return compute_gram(as_series(x)), x @ x.T


def _gram(n: int, m: int, shift: float = 0.7, p: int = 3):
    return _source(n, m, shift, p)[0]


@pytest.mark.parametrize("n,m,p", _sourced(CASES))
def test_quad_term_matches_enumeration(n, m, p):
    gram, raw = _source(n, m, p=p)
    value, count = _SeparatedSums(gram, m).quad_term()
    want_value, want_count = brute_quad(raw, m)
    assert isinstance(count, int)
    assert count == want_count
    np.testing.assert_allclose(value, want_value, rtol=1e-10)


@pytest.mark.parametrize("n,m,p", _sourced(CASES))
def test_triple_term_matches_enumeration(n, m, p):
    gram, raw = _source(n, m, p=p)
    ctx = _SeparatedSums(gram, m)
    for h in range(-m, m + 1):
        value, count = ctx.triple_term(h)
        want_value, want_count = brute_triple(raw, m, h)
        assert isinstance(count, int)
        assert count == want_count, h
        np.testing.assert_allclose(value, want_value, rtol=1e-10, err_msg=f"h={h}")
        assert ctx.triple_term(-h)[1] == count


@pytest.mark.parametrize("n,m,p", _sourced(CASES))
def test_pair_term_matches_enumeration(n, m, p):
    gram, raw = _source(n, m, p=p)
    ctx = _SeparatedSums(gram, m)
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            value, count = ctx.pair_term(h1, h2)
            want_value, want_count = brute_pair(raw, m, h1, h2)
            assert isinstance(count, int)
            assert count == want_count, (h1, h2)
            np.testing.assert_allclose(value, want_value, rtol=1e-10, err_msg=f"h={h1, h2}")


@pytest.mark.parametrize("n,m,p", _sourced(SHIFTED))
def test_terms_match_enumeration_far_from_mean_zero(n, m, p):
    gram, raw = _source(n, m, shift=50.0, p=p)
    ctx = _SeparatedSums(gram, m)
    want = brute_quad(raw, m)
    value, count = ctx.quad_term()
    assert count == want[1]
    np.testing.assert_allclose(value, want[0], rtol=1e-10)
    for h in range(-m, m + 1):
        want = brute_triple(raw, m, h)
        value, count = ctx.triple_term(h)
        assert count == want[1], h
        np.testing.assert_allclose(value, want[0], rtol=1e-10, err_msg=f"h={h}")
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            want = brute_pair(raw, m, h1, h2)
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


def test_lag_energy_curve_equals_fresh_contexts():
    # the curve shares the Gram's lag-grid products across its orders; a
    # fresh Gram per order computes its own
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
    # one context, terms in a mixed order, against a fresh context that
    # takes the quadruple term first
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


def _lag_keys(gram: GramSummary) -> list:
    return sorted(key[1:] for key in gram.results if key[0] == "lag")


def _cut_gram(n: int, m: int) -> GramSummary:
    # rows 8..n + 7 of a wide series of n + 14 rows, cut by segment_view
    # after the source's Gram: the segment's Gram is a strided view of it
    x = np.random.default_rng(1000 * n + m).standard_normal((n + 14, n + 14)) + 0.7
    source = as_series(x)
    compute_gram(source)
    gram = compute_gram(source.segment_view(8, n + 7))
    assert np.shares_memory(gram.raw, source._gram.raw) and not gram.raw.flags.c_contiguous
    return gram


# p = None: the Gram of a segment cut from a longer wide series (``_cut_gram``)
CUT = [pytest.param(n, m, None, id=f"{n}-{m}-cut") for n, m in [(17, 2), (30, 3), (34, 10)]]


@pytest.mark.parametrize("n,m,p", _sourced(CASES + SHIFTED) + CUT)
def test_lag_products_match_enumeration(n, m, p):
    if p is None:
        gram = _cut_gram(n, m)
        raw = gram.raw
    else:
        gram, raw = _source(n, m, shift=50.0 if (n, m) in SHIFTED else 0.7, p=p)
    _all_terms(gram, m)
    assert all(max(abs(a), abs(b)) <= m for a, b in _lag_keys(gram))
    ctx = _SeparatedSums(gram, m)
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            orbit = [ctx.lag_product(*ab) for ab in ((a, b), (b, a), (-a, -b), (-b, -a))]
            assert len({np.float64(v).tobytes() for v in orbit}) == 1, (a, b)
            np.testing.assert_allclose(
                orbit[0], naive_lag_product(raw, a, b), rtol=1e-10, err_msg=f"A{a, b}"
            )
    # one stored product per orbit of the lags |a|, |b| <= M
    assert len(_lag_keys(gram)) == (m + 1) ** 2


def test_narrow_lag_products_match_the_gram_path():
    # tr(Γ(a) Γ(b)) from the lag cross-products of a narrow series, against
    # the dots over its Gram, which a Gram of inner products alone takes
    x = np.random.default_rng(92).standard_normal((200, 20)) + 0.5
    gram = compute_gram(as_series(x))
    narrow = _SeparatedSums(gram, 10)
    wide = _SeparatedSums(GramSummary.of(x @ x.T), 10)
    assert isinstance(narrow.gram, RowSummary) and isinstance(wide.gram, GramSummary)
    for a in range(-10, 11):
        for b in range(-10, 11):
            np.testing.assert_allclose(
                narrow.lag_product(a, b), wide.lag_product(a, b), rtol=1e-12, err_msg=f"A{a, b}"
            )
    # Γ(0), Γ(1), ..., Γ(10), each one p x p array
    crosses = sorted(key for key in gram.results if key[0] == "lag_cross")
    assert crosses == [("lag_cross", k) for k in range(11)]
    assert all(gram.results[key].shape == (20, 20) for key in crosses)


def test_curve_computes_each_lag_product_once(monkeypatch):
    # the curve to h_max reaches every orbit of |a|, |b| <= h_max once; a
    # table at an order it probed reads them all from the Gram. A narrow
    # series (p = 8) takes them from its h_max + 1 lag cross-products, a
    # wide one (p = 30) takes none.
    computed, crosses = [], []
    cross_product = core._lag_cross_product

    def counted_in(summary):
        original = summary.lag_product

        def counted(self, a, b):
            computed.append((a, b))
            return original(self, a, b)

        monkeypatch.setattr(summary, "lag_product", counted)

    def counted_cross(x, k):
        crosses.append(k)
        return cross_product(x, k)

    counted_in(GramSummary)
    counted_in(RowSummary)
    monkeypatch.setattr(core, "_lag_cross_product", counted_cross)
    for p, want_crosses in ((8, list(range(default_h_max(90) + 1))), (30, [])):
        computed.clear()
        crosses.clear()
        series = as_series(np.random.default_rng(91).standard_normal((90, p)) + 0.3)
        h_max = default_h_max(series.n)
        lag_energy_curve(series, h_max)
        assert len(computed) == (h_max + 1) ** 2, p
        assert len(set(computed)) == len(computed), p
        assert crosses == want_crosses, p
        gram = compute_gram(series)
        for m in (0, 2, h_max):
            build_trace_table(gram, DependenceWindow(m))
        assert len(computed) == (h_max + 1) ** 2, p
        assert crosses == want_crosses, p


def _table_peak(n: int, p: int) -> float:
    # the traced peak of a fresh M = 2 table, in n x n float64
    gram = compute_gram(as_series(np.random.default_rng(5).standard_normal((n, p))))
    tracemalloc.start()
    try:
        build_trace_table(gram, DependenceWindow(2))
        return tracemalloc.get_traced_memory()[1] / (n**2 * 8)
    finally:
        tracemalloc.stop()


def test_trace_table_memory_above_the_gram():
    # the table forms no n x n array, only O(nM) band arrays: at n = 800,
    # M = 2 about 0.07 n^2 float64 on a wide series (4p > n), so one n x n
    # array would break the bound
    peak = _table_peak(800, 300)
    assert peak < 0.25, f"{peak:.3f} x n^2 float64"


def test_narrow_trace_table_memory():
    # a narrow series adds its M + 1 lag cross-products, p x p each: about
    # 0.12 n^2 float64 at n = 800, p = 100
    peak = _table_peak(800, 100)
    assert peak < 0.25, f"{peak:.3f} x n^2 float64"
