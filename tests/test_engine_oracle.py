"""Gram-optimized engine vs naive direct-from-data implementations."""

import numpy as np

from hdcp import DependenceWindow, as_series, b_matrix, compute_gram, l_trace
from oracles import assert_instance_matches, random_instance


def test_randomized_instances_match_naive():
    rng = np.random.default_rng(20240809)
    for _ in range(12):
        x, m = random_instance(rng)
        assert_instance_matches(x, m)


def test_quadratic_form_identity():
    # the per-split statistic equals its contrast quadratic form exactly
    rng = np.random.default_rng(3)
    for m in (0, 1, 2):
        x = rng.standard_normal((15, 3)) + 1.0
        g = compute_gram(as_series(x))
        w = DependenceWindow(m)
        curve = l_trace(g, w)
        n = 15
        for t in (1, 7, 14):
            quad = float((b_matrix(n, t, w) * (x @ x.T)).sum()) / n**2
            np.testing.assert_allclose(curve[t - 1], quad, rtol=1e-10, atol=1e-12)
