import numpy as np
import pytest

from hdcp import (
    ChangePointSet,
    DependenceWindow,
    DimensionTooSmall,
    IndexOutOfRange,
    NonFiniteEntry,
    Segment,
    SeriesMatrix,
    as_series,
    validate_input,
)


def test_validate_accepts_large_instance():
    series = as_series(np.ones((100, 200)))
    window = DependenceWindow(0)
    out = validate_input(series, window)
    assert out == (series, window)


def test_validate_rejects_short_series_for_order():
    series = as_series(np.arange(12, dtype=float).reshape(6, 2))
    with pytest.raises(DimensionTooSmall, match="n >= 8"):
        validate_input(series, DependenceWindow(2))


def test_nonfinite_entry_reported_with_location():
    bad = np.ones((5, 3))
    bad[2, 1] = np.nan
    with pytest.raises(NonFiniteEntry, match="row 3, column 2"):
        as_series(bad)


def test_series_minimum_shape():
    with pytest.raises(DimensionTooSmall):
        as_series(np.ones((3, 2)))
    with pytest.raises(DimensionTooSmall):
        as_series(np.ones((4, 0)))
    with pytest.raises(DimensionTooSmall):
        as_series(np.ones(8))


def test_validate_is_idempotent_and_pure():
    series = as_series(np.random.default_rng(0).standard_normal((10, 2)))
    window = DependenceWindow(1)
    before = series.values.copy()
    for _ in range(3):
        validate_input(series, window)
    np.testing.assert_array_equal(series.values, before)


def test_series_values_are_read_only():
    series = as_series(np.ones((4, 2)))
    with pytest.raises(ValueError):
        series.values[0, 0] = 5.0


def test_series_copies_the_callers_array():
    arr = np.random.default_rng(1).standard_normal((6, 3))
    series = SeriesMatrix(arr)
    assert not np.shares_memory(series.values, arr)
    assert arr.flags.writeable
    arr[0, 0] = 7.0
    assert series.values[0, 0] != 7.0


def test_adopted_series_holds_the_array_itself():
    arr = np.random.default_rng(2).standard_normal((6, 3))
    series = SeriesMatrix._adopt(arr)
    assert series.values is arr and not arr.flags.writeable
    np.testing.assert_array_equal(series.values, SeriesMatrix(arr).values)


@pytest.mark.parametrize("bad, error, message", [
    (np.ones(8), DimensionTooSmall, "expected a 2-D matrix, got ndim=1"),
    (np.ones((3, 2)), DimensionTooSmall, "need at least 4 time points, got n=3"),
    (np.ones((4, 0)), DimensionTooSmall, r"need at least one coordinate \(p >= 1\)"),
    (np.where(np.eye(5, 3) > 0, np.inf, 1.0), NonFiniteEntry, "non-finite entry at row 1, column 1"),
])
def test_adopt_checks_as_the_constructor_does(bad, error, message):
    for build in (SeriesMatrix, SeriesMatrix._adopt):
        with pytest.raises(error, match=f"^{message}$"):
            build(bad.copy())


def test_window_bounds():
    w = DependenceWindow(2)
    assert w.min_length() == 8
    with pytest.raises(IndexOutOfRange):
        DependenceWindow(-1)


def test_segment_view_and_bounds():
    series = as_series(np.arange(20, dtype=float).reshape(10, 2))
    sub = series.segment_view(3, 7)
    assert sub.n == 5
    np.testing.assert_array_equal(sub.values, series.values[2:7])
    with pytest.raises(IndexOutOfRange):
        series.segment_view(0, 5)
    with pytest.raises(IndexOutOfRange):
        series.segment_view(5, 11)


def test_segment_and_changepointset_invariants():
    assert Segment(2, 2).length == 1
    with pytest.raises(IndexOutOfRange):
        Segment(5, 4)
    with pytest.raises(IndexOutOfRange):
        ChangePointSet((3, 3))
    assert ChangePointSet((1, 5, 9)).points == (1, 5, 9)
