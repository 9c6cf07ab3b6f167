"""Exact agreement of the separated pair, triple and quadruple sums with
enumeration.

The grid covers the shortest feasible series 2(M + 2) and one longer, where
windows are clipped at both ends, and lengths at which the windows of two
separated indices still overlap (M < |q - r| <= 2M). M = 10, the elbow's
default depth, runs at its shortest lengths 3M + 4 and 3M + 5.
"""

import numpy as np
import pytest

from hdcp import as_series, compute_gram
from hdcp.engine import _SeparatedSums

ORDERS = (0, 1, 2, 3, 5)
CASES = [(n, m) for m in ORDERS for n in sorted({2 * (m + 2), 2 * (m + 2) + 1, 17, 30})]
CASES += [(3 * 10 + 4, 10), (3 * 10 + 5, 10)]


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


def _gram(n: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * n + m)
    x = rng.standard_normal((n, 3)) + 0.7
    return compute_gram(as_series(x)).raw


@pytest.mark.parametrize("n,m", CASES)
def test_quad_term_matches_enumeration(n, m):
    g = _gram(n, m)
    value, count = _SeparatedSums(g, m).quad_term()
    want_value, want_count = brute_quad(g, m)
    assert isinstance(count, int)
    assert count == want_count
    np.testing.assert_allclose(value, want_value, rtol=1e-10)


@pytest.mark.parametrize("n,m", CASES)
def test_triple_term_matches_enumeration(n, m):
    g = _gram(n, m)
    ctx = _SeparatedSums(g, m)
    for h in range(-m, m + 1):
        value, count = ctx.triple_term(h)
        want_value, want_count = brute_triple(g, m, h)
        assert isinstance(count, int)
        assert count == want_count, h
        np.testing.assert_allclose(value, want_value, rtol=1e-10, err_msg=f"h={h}")
        assert ctx.triple_term(-h)[1] == count


@pytest.mark.parametrize("n,m", CASES)
def test_pair_term_matches_enumeration(n, m):
    g = _gram(n, m)
    ctx = _SeparatedSums(g, m)
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            value, count = ctx.pair_term(h1, h2)
            want_value, want_count = brute_pair(g, m, h1, h2)
            assert isinstance(count, int)
            assert count == want_count, (h1, h2)
            np.testing.assert_allclose(value, want_value, rtol=1e-10, err_msg=f"h={h1, h2}")
