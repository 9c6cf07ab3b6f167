"""Exact hand-computed values and closed-form identities for the engine."""

import numpy as np
import pytest

from hdcp import (
    DependenceWindow,
    DimensionTooSmall,
    IndexOutOfRange,
    F_matrix,
    V_vector,
    as_series,
    b_aggregate,
    b_matrix,
    compute_gram,
    f_vector,
    l_trace,
)
from oracles import naive_F, naive_f, naive_gram

W0 = DependenceWindow(0)


def test_f_vector_hand_values():
    np.testing.assert_allclose(f_vector(10, 5, 1), [1.0, 1.4], atol=1e-12)
    np.testing.assert_allclose(f_vector(10, 1, 1), [1.0, -1.0 / 45.0], atol=1e-12)


def test_f_vector_first_entry_and_range():
    for n, t, m in [(12, 3, 2), (20, 19, 3), (9, 4, 0)]:
        assert f_vector(n, t, m)[0] == 1.0
    with pytest.raises(IndexOutOfRange):
        f_vector(10, 0, 1)
    with pytest.raises(IndexOutOfRange):
        f_vector(10, 10, 1)


def test_f_vector_split_symmetry_exact():
    # exact equality, not approximate: term layout makes t <-> n - t bitwise equal
    for n in range(8, 21):
        for m in range(0, 3):
            for t in range(1, n):
                a = f_vector(n, t, m)
                b = f_vector(n, n - t, m)
                assert (a == b).all(), (n, t, m)


def test_f_vector_matches_naive():
    for n in (9, 14, 20):
        for m in (0, 1, 2):
            for t in range(1, n):
                np.testing.assert_allclose(
                    f_vector(n, t, m), naive_f(n, t, m), rtol=1e-12
                )


def test_F_matrix_hand_values():
    np.testing.assert_allclose(F_matrix(10, 0).matrix, [[0.9]], atol=1e-12)
    np.testing.assert_allclose(F_matrix(10, 1).matrix[0, 1], -0.18, atol=1e-12)


def test_F_matrix_order_zero_closed_form():
    for n in range(4, 41):
        np.testing.assert_allclose(F_matrix(n, 0).matrix, [[1 - 1 / n]], rtol=1e-14)


def test_F_matrix_matches_naive_counts():
    for n in (8, 11, 16):
        for m in (0, 1, 2):
            if n < 2 * (m + 2):
                continue
            np.testing.assert_allclose(F_matrix(n, m).matrix, naive_F(n, m), rtol=1e-12)


def test_F_matrix_requires_enough_data():
    with pytest.raises(DimensionTooSmall):
        F_matrix(7, 2)


def test_b_matrix_hand_values():
    B = b_matrix(4, 2, W0)
    assert abs(B[0, 0]) < 1e-12
    np.testing.assert_allclose(B[0, 2], -5.0 / 3.0, rtol=1e-12)


def test_gram_two_point_example():
    g = compute_gram(as_series([[0.0], [2.0], [1.0], [1.0]]))
    np.testing.assert_allclose(g.raw[:2, :2], [[0.0, 0.0], [0.0, 4.0]], atol=1e-14)


def test_gram_centering_and_symmetry():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 4)) * 3 + 2
    g = compute_gram(as_series(x))
    np.testing.assert_array_equal(g.raw, g.raw.T)
    assert g.row_sums.tobytes() == g.raw.sum(axis=1).tobytes()
    # the lag sums are the diagonals of the demeaned Gram over n
    _, cen = naive_gram(x)
    np.testing.assert_allclose(
        V_vector(g, 3), [np.trace(cen, offset=k) / 12 for k in range(4)], rtol=1e-12
    )


@pytest.mark.parametrize("n,p", [(40, 6), (130, 600)])
def test_gram_row_sum_dtype_and_lag_sums(n, p):
    # n^2 p = 9.6e3 and 1.0e7: one float64 path at every size
    x = np.random.default_rng(n).standard_normal((n, p)) + 0.5
    window = DependenceWindow(3)
    gram = compute_gram(as_series(x))
    assert gram.row_sums.dtype == np.float64

    raw = gram.raw
    row_sums = raw.sum(axis=1)
    scaled = row_sums / n
    centered = (raw - (scaled[:, None] + scaled[None, :])) + float(row_sums.sum()) / n**2
    np.testing.assert_allclose(
        V_vector(gram, window.m),
        [np.trace(centered, offset=k) / n for k in range(window.m + 1)],
        rtol=1e-12,
    )


def test_gram_constant_series_centered_zero():
    g = compute_gram(as_series(np.full((7, 3), 4.2)))
    assert np.abs(V_vector(g, 2)).max() < 1e-12 * np.abs(g.raw).max()


def test_v_vector_values():
    x = np.array([[0.0], [0.0], [2.0], [2.0]])
    g = compute_gram(as_series(x))
    np.testing.assert_allclose(V_vector(g, 0), [1.0], rtol=1e-12)
    np.testing.assert_allclose(
        V_vector(g, 1)[0], np.trace(naive_gram(x)[1]) / 4, rtol=1e-12
    )
    gc = compute_gram(as_series(np.full((6, 2), 3.0)))
    np.testing.assert_array_equal(V_vector(gc, 1), [0.0, 0.0])


def test_v_vector_lag_zero_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = compute_gram(as_series(rng.standard_normal((8, 3))))
        assert V_vector(g, 0)[0] >= 0.0


def test_l_trace_step_example():
    g = compute_gram(as_series([[0.0], [0.0], [2.0], [2.0]]))
    np.testing.assert_allclose(l_trace(g, W0), [0.0, 2.0 / 3.0, 0.0], atol=1e-12)


def test_l_trace_constant_series_zero():
    g = compute_gram(as_series(np.full((9, 4), -1.5)))
    np.testing.assert_allclose(l_trace(g, DependenceWindow(1)), 0.0, atol=1e-12)


def test_b_aggregate_equals_naive_sum():
    for n, m in [(4, 0), (10, 0), (12, 1), (14, 2)]:
        w = DependenceWindow(m)
        agg = b_aggregate(n, w)
        naive = sum(b_matrix(n, t, w) for t in range(1, n))
        np.testing.assert_allclose(agg, naive, rtol=1e-10, atol=1e-10)


def test_b_aggregate_finite_at_scale():
    vals = b_aggregate(100, DependenceWindow(2))
    assert np.isfinite(vals).all()
