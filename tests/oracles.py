"""Naive direct-from-data reference implementations.

Everything here recomputes the statistics from first principles: explicit
loops, literal index enumeration, and plain matrix inverses. These are the
oracles the optimized Gram-based engine is tested against; they must stay
independent of the implementation paths they check. The process oracles
(``coefficients`` through ``oracle_variance``) give the exact moments of a
``simulator.OracleModel``, read from its coefficient groups.
"""

from __future__ import annotations

import numpy as np

from hdcp import DependenceWindow, as_series, compute_gram, engine, simulator
from hdcp import (
    F_matrix,
    V_vector,
    b_aggregate,
    b_matrix,
    build_trace_table,
    f_vector,
    l_trace,
    trace_product_estimate,
    variance_estimate,
)


def naive_gram(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[0]
    raw = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            raw[i, j] = float(x[i] @ x[j])
    xc = x - x.mean(axis=0)
    cen = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cen[i, j] = float(xc[i] @ xc[j])
    return raw, cen


def naive_f(n: int, t: int, m: int) -> np.ndarray:
    f = np.zeros(m + 1)
    f[0] = 1.0
    for i in range(2, m + 2):
        a = (n - t) * (t - i + 1) / (n * t) if t + 1 > i else 0.0
        b = t * (n - t - i + 1) / (n * (n - t)) if n - t + 1 > i else 0.0
        c = 0.0
        for l in range(1, i):
            if t >= l and n - t >= i - l:
                c += 1.0
        f[i - 1] = 2.0 * (a + b - c / n)
    return f


def naive_F(n: int, m: int) -> np.ndarray:
    F = np.zeros((m + 1, m + 1))
    for i in range(1, m + 2):
        for j in range(1, m + 2):
            val = (1 - (i - 1) / n) * (1.0 if i == j else 0.0)
            val += (1 - (i - 1) / n) * (1 - (j - 1) / n) * (2 - (1.0 if j == 1 else 0.0)) / n
            acc = 0
            for a in range(1, n - i + 2):
                for b in range(1, n + 1):
                    if abs(a - b) + 1 == j:
                        acc += 1
                    if abs(a + i - 1 - b) + 1 == j:
                        acc += 1
            F[i - 1, j - 1] = val - acc / n**2
    return F


def naive_v(x: np.ndarray, m: int) -> np.ndarray:
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    v = np.zeros(m + 1)
    for i in range(1, m + 2):
        v[i - 1] = sum(float(xc[h] @ xc[h + i - 1]) for h in range(n - i + 1)) / n
    return v


def naive_l_t(x: np.ndarray, t: int, m: int) -> float:
    n = x.shape[0]
    lead = x[:t].mean(axis=0)
    tail = x[t:].mean(axis=0)
    diff = lead - tail
    term1 = t * (n - t) / n**2 * float(diff @ diff)
    correction = naive_f(n, t, m) @ np.linalg.inv(naive_F(n, m)) @ naive_v(x, m) / n
    return term1 - correction


def naive_b(n: int, t: int, m: int) -> np.ndarray:
    g = naive_f(n, t, m) @ np.linalg.inv(naive_F(n, m))
    B = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            val = 0.0
            if i <= t and j <= t:
                val += (n - t) / t
            if i <= t and j > t:
                val -= 2.0
            if i > t and j > t:
                val += t / (n - t)
            for h in range(m + 1):
                ind = 1.0 if i - j == h else 0.0
                cols = (1.0 if j >= h + 1 else 0.0) + (1.0 if j <= n - h else 0.0)
                val -= g[h] * (ind - cols / n + (n - h) / n**2)
            B[i - 1, j - 1] = val
    return B


def outer_aggregate_values(n: int, design, weights: np.ndarray) -> np.ndarray:
    """``engine._aggregate_values`` from two whole outer sums and a mask.

    The triangle below and on the diagonal, and the one above it, are each
    formed as a full n x n outer sum; the upper one is copied in through an
    n x n bool mask. The lag terms are the engine's own. The engine must
    match this bitwise.
    """
    g_sum = design.solve_transposed(weights.sum(axis=0))
    harm = np.zeros(n, dtype=np.float64)
    harm[1:] = np.cumsum(1.0 / np.arange(1, n))
    k = np.arange(1, n + 1)
    upper = n * (harm[n - 1] - harm[k - 1]) - (n - k)
    lower = n * (harm[n - 1] - harm[n - k]) - (k - 1)
    B = np.add.outer(upper, lower)
    np.copyto(B, np.add.outer(lower + 2 * k, upper - 2 * k), where=k[:, None] < k)
    engine._apply_lag_terms(B, g_sum, n)
    return B


def one_array_split_curve(gram, m: int) -> np.ndarray:
    """``engine._split_curve`` from the whole centered Gram as one n x n array.

    The Gram is centered in one piece per Gram, its row totals and diagonal
    read, and its upper triangle zeroed through an n x n mask. The engine,
    which centers a block of rows at a time, must match this bitwise.
    """
    n = gram.n
    plan = engine._plan(n, m)
    x = plan.design.solve(V_vector(gram, m))
    a = gram.row_sums / n
    gc = gram.raw - a[..., None]
    gc -= a[..., None, :]
    gc += (a.sum(axis=-1) / n)[..., None, None]
    prefix = np.zeros(a.shape[:-1] + (n + 1,), dtype=np.float64)
    np.cumsum(gc.sum(axis=-1), axis=-1, out=prefix[..., 1:])
    diagonal = np.diagonal(gc, 0, -2, -1).copy()
    gc *= np.tri(n, n, -1, dtype=bool)
    block = np.cumsum(2 * gc.sum(axis=-1) + diagonal, axis=-1)
    ptt = block[..., :-1]
    ptn = prefix[..., 1:n]
    pnn = prefix[..., n:]
    t = np.arange(1, n, dtype=np.float64)
    nt = n - t
    n2 = float(n) ** 2
    term1 = (nt / (t * n2)) * ptt - (2.0 / n2) * (ptn - ptt) + (t / (nt * n2)) * (pnn - 2 * ptn + ptt)
    return term1 - (plan.weights @ x[..., None])[..., 0] / n


def dense_cross_products(B: np.ndarray, m: int) -> np.ndarray:
    """``engine._contrast_cross_products`` as one einsum per lag pair over all of B.

    Entry (h1, h2) sums B(i, j) {B(i + h2, j - h1) + B(j - h1, i + h2)}
    over the whole grid, zero outside it, with B.T read in place.
    """
    n = B.shape[0]
    out = np.zeros((2 * m + 1, 2 * m + 1))
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            r0, r1 = max(0, -h2), n - max(0, h2)
            c0, c1 = max(0, h1), n - max(0, -h1)
            for other in (B, B.T):
                out[h1 + m, h2 + m] += np.einsum(
                    "ij,ij->", B[r0:r1, c0:c1], other[r0 + h2 : r1 + h2, c0 - h1 : c1 - h1]
                )
    return out


def _far(a, b, m):
    return np.abs(a - b) > m


def naive_lag_product(G: np.ndarray, a: int, b: int) -> float:
    """Sum of G[s + a, t] * G[s, t + b] over every (s, t), G zero outside its grid.

    A literal double loop with an explicit bounds test per term.
    """
    n = G.shape[0]
    total = 0.0
    for s in range(n):
        for t in range(n):
            if 0 <= s + a < n and 0 <= t + b < n:
                total += float(G[s + a, t]) * float(G[s, t + b])
    return total


def naive_t_est(x: np.ndarray, m: int, h1: int, h2: int) -> float:
    """Enumeration of the four separated sums over full O(n^4) index grids.

    The group-separation conditions are written out verbatim per tuple; no
    prefix sums or band decompositions, so this is independent of the
    engine's evaluation strategy.
    """
    n = x.shape[0]
    G = x @ x.T
    idx = np.arange(1, n + 1)

    def g(i, j):
        # zero-padded 1-based lookup; indices are pre-masked to be valid
        return G[np.clip(i, 1, n) - 1, np.clip(j, 1, n) - 1]

    s, t = np.meshgrid(idx, idx, indexing="ij")
    valid = (s + h1 >= 1) & (s + h1 <= n) & (t + h2 >= 1) & (t + h2 <= n)
    sep = (
        _far(s, t, m)
        & _far(s, t + h2, m)
        & _far(s + h1, t, m)
        & _far(s + h1, t + h2, m)
    )
    mask1 = valid & sep
    t1 = float(np.sum(g(t + h2, s) * g(s + h1, t) * mask1))
    c1 = int(mask1.sum())

    def triple(h):
        r, s, t = np.meshgrid(idx, idx, idx, indexing="ij")
        valid = (s + h >= 1) & (s + h <= n)
        sep = (
            _far(r, s, m)
            & _far(r, s + h, m)
            & _far(r, t, m)
            & _far(t, s, m)
            & _far(t, s + h, m)
        )
        mask = valid & sep
        return float(np.sum(g(r, s) * g(s + h, t) * mask)), int(mask.sum())

    t2, c2 = triple(h1)
    t3, c3 = triple(h2)

    q, r, s, t = np.meshgrid(idx, idx, idx, idx, indexing="ij")
    mask4 = (
        _far(q, r, m)
        & _far(q, s, m)
        & _far(q, t, m)
        & _far(r, s, m)
        & _far(r, t, m)
        & _far(s, t, m)
    )
    t4 = float(np.sum(g(q, r) * g(s, t) * mask4))
    c4 = int(mask4.sum())

    assert min(c1, c2, c3, c4) > 0, "oracle called on an infeasible instance"
    return t1 / c1 - t2 / c2 - t3 / c3 + t4 / c4


def naive_variance(B: np.ndarray, table, n: int, m: int) -> float:
    def ext(i, j):
        if 1 <= i <= n and 1 <= j <= n:
            return float(B[i - 1, j - 1])
        return 0.0

    total = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for h1 in range(-m, m + 1):
                for h2 in range(-m, m + 1):
                    total += (
                        float(B[i - 1, j - 1])
                        * (ext(i + h2, j - h1) + ext(j - h1, i + h2))
                        * table.est(h1, h2)
                    )
    return total / n**4


def coefficients(model) -> list:
    """Q_0 .. Q_{lag_support} of a ``simulator.OracleModel``, one matrix per lag.

    Lag l's matrix is its group's matrix over the lag's divisor, a new
    array for every lag, even where lags share a group; None marks a lag
    in no group, whose coefficient is zero.
    """
    qs = [None] * (model.lag_support + 1)
    for matrix, lags in model.groups:
        for l, d in lags:
            qs[l] = matrix / d
    return qs


def per_lag_series(spec, model, seed=None) -> np.ndarray:
    """x_t = mu_t + sum_l Q_l eps_{t-l}, one product per lag ``l``.

    The innovations are those ``generate_series`` draws for ``seed``; each
    non-None ``coefficients(model)[l]`` takes its own product, however many
    lags share a matrix.
    """
    burn = model.lag_support
    eps = simulator._innovations(spec, spec.n + burn, spec.seed if seed is None else seed)
    x = model.means.copy()
    for l, q in enumerate(coefficients(model)):
        if q is not None:
            x += eps[burn - l : burn - l + spec.n] @ q.T
    return x


def autocovariance(model, h: int) -> np.ndarray:
    """C(h) = sum_l Q_l Q_{l+h}^T of the model's unit-variance process.

    C(h) vanishes beyond the model's lag support, and C(-h) is C(h)
    transposed.
    """
    if abs(h) > model.lag_support:
        return np.zeros((model.p, model.p))
    if h < 0:
        return autocovariance(model, -h).T
    qs = coefficients(model)
    acc = np.zeros((model.p, model.p))
    for l, q in enumerate(qs):
        mate = qs[l + h] if l + h < len(qs) else None
        if q is None or mate is None:
            continue
        acc += q @ mate.T
    return acc


def trace_product(model, h1: int, h2: int) -> float:
    """tr{C(h1) C(h2)}, the quantity the trace table estimates."""
    if abs(h1) > model.lag_support or abs(h2) > model.lag_support:
        return 0.0
    return float(np.sum(autocovariance(model, h1) * autocovariance(model, h2).T))


def oracle_mean_l(t: int, model, window: DependenceWindow) -> float:
    """Expected split statistic at t under the model, leading terms only.

    Evaluates the mean contrast of the two halves minus the lag correction
    applied to the demeaned mean products. Zero for all t under a constant
    mean; under a single change it is maximized exactly at the change point.
    """
    n = model.n
    mu = model.means
    diff = mu[:t].mean(axis=0) - mu[t:].mean(axis=0)
    term1 = t * (n - t) / n**2 * float(diff @ diff)
    dev = mu - mu.mean(axis=0)
    m = window.m
    v_b = np.array(
        [float(np.sum(dev[: n - k] * dev[k:])) / n for k in range(m + 1)]
    )
    design = F_matrix(n, m)
    term2 = float(f_vector(n, t, m) @ design.solve(v_b)) / n
    return term1 - term2


def oracle_variance(t, model, window: DependenceWindow) -> float:
    """Exact leading-order variance of the split statistic at t (or of the
    sum, at t = "aggregate").

    Combines the trace term over the lag window with the mean-dependent
    term over every lag the generator supports, using zero-extended
    contrast lookups. With Gaussian innovations and a generator whose
    dependence dies inside the window this is the exact variance.
    """
    n, m = model.n, window.m
    B = b_aggregate(n, window) if t == "aggregate" else b_matrix(n, int(t), window)
    cross = engine._contrast_cross_products(B, m)
    trace_term = 0.0
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            trace_term += cross[h1 + m, h2 + m] * trace_product(model, h1, h2)

    mean_term = 0.0
    if np.any(model.means):
        mu = model.means
        r = B + B.T
        support = min(model.lag_support, n - 1)
        for h in range(-support, support + 1):
            r0, r1 = max(0, -h), n - max(0, h)
            lag_products = r[r0:r1].T @ r[r0 + h : r1 + h]
            weights = mu @ autocovariance(model, h) @ mu.T
            mean_term += float(np.sum(lag_products * weights))
    return (trace_term + mean_term) / float(n) ** 4


def random_instance(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Draw a (series, order) pair small enough for the naive oracles."""
    m = int(rng.integers(0, 3))
    n = int(rng.integers(4 * m + 6, 21))
    p = int(rng.integers(1, 6))
    x = rng.standard_normal((n, p))
    if rng.random() < 0.5:
        x += rng.standard_normal(p)  # common nonzero mean
    if rng.random() < 0.3:
        x[int(rng.integers(1, n)) :] += rng.standard_normal(p) * 0.5  # mean shift
    return x, m


def assert_instance_matches(x: np.ndarray, m: int, rtol: float = 1e-8) -> None:
    """Full Gram-vs-naive comparison on one instance."""
    n = x.shape[0]
    series = as_series(x)
    gram = compute_gram(series)
    window = DependenceWindow(m)

    raw, _ = naive_gram(x)
    np.testing.assert_allclose(gram.raw, raw, rtol=rtol, atol=1e-10)

    np.testing.assert_allclose(
        V_vector(gram, m), naive_v(x, m), rtol=rtol, atol=1e-12
    )
    fast_l = l_trace(gram, window)
    for t in range(1, n):
        np.testing.assert_allclose(
            fast_l[t - 1], naive_l_t(x, t, m), rtol=rtol, atol=1e-10
        )

    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            np.testing.assert_allclose(
                trace_product_estimate(gram, h1, h2, window),
                naive_t_est(x, m, h1, h2),
                rtol=rtol,
                atol=1e-9,
            )

    table = build_trace_table(gram, window)
    mid = max(1, n // 2)
    for t in (1, mid, n - 1):
        contrast = b_matrix(n, t, window)
        np.testing.assert_allclose(contrast, naive_b(n, t, m), rtol=rtol, atol=1e-10)
        fast = variance_estimate(contrast, table)
        slow = naive_variance(contrast, table, n, m)
        if not fast.degenerate:
            np.testing.assert_allclose(fast.value, slow, rtol=rtol)
    agg = b_aggregate(n, window)
    fast = variance_estimate(agg, table)
    slow = naive_variance(agg, table, n, m)
    if not fast.degenerate:
        np.testing.assert_allclose(fast.value, slow, rtol=rtol)
