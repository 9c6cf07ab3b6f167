"""Shared domain types, validation, and index conventions.

Time indices are 1-based everywhere in the public API: observation ``t``
means row ``t - 1`` of the underlying array. Lookups that a formula pushes
outside ``[1, n]`` are defined to be zero; see the contrast matrices in
:mod:`hdcp.engine`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class HdcpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionTooSmall(HdcpError):
    """Series too short for the requested dependence order or segment."""


class NonFiniteEntry(HdcpError):
    """Input matrix contains NaN or infinite entries, or its float64 sums overflow."""


class IndexOutOfRange(HdcpError):
    """Time index outside the admissible range."""


class SingularDesign(HdcpError):
    """Lag design matrix is numerically singular (n too small relative to M)."""


class EmptySumRange(HdcpError):
    """A separated index sum has no admissible tuples for this (n, M)."""


class NonPositiveBaseline(HdcpError):
    """Lag-zero energy estimate is not positive; elbow selection undefined."""


@dataclass(frozen=True)
class SeriesMatrix:
    """n observations of dimension p, one observation per row, time-ordered.

    Entries must be finite and ``n >= 4``. The array is copied and made
    read-only so instances are safe to share across workers, and the
    caller's array is never aliased. ``_adopt`` holds a new array that
    nothing else writes to, such as a parsed input, without that copy.

    A series keeps the Gram that :func:`hdcp.engine.compute_gram` built for
    it, so the Gram lives as long as the series. A proper segment cut by
    ``segment_view`` from a series with a Gram gets its Gram when it is
    cut, as a view of the source Gram's sub-block, so segmenting a series
    copies no Gram.
    """

    values: np.ndarray
    # Not a dataclass field: the Gram kept on the series, set through
    # object.__setattr__ and never compared.
    _gram = None

    def __post_init__(self) -> None:
        self._hold(_checked(np.asarray(self.values, dtype=np.float64)).copy())

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "SeriesMatrix":
        """The series of ``arr`` itself, made read-only, not of a copy.

        The checks and their messages are those of ``SeriesMatrix(arr)``.
        Only for an array that nothing else writes to; a float64 array in
        C order is held as it is.
        """
        series = object.__new__(cls)
        series._hold(np.ascontiguousarray(_checked(np.asarray(arr, dtype=np.float64))))
        return series

    def _hold(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def segment_view(self, lo: int, hi: int) -> "SeriesMatrix":
        """Sub-series for 1-based inclusive bounds, skipping re-validation.

        The full range ``(1, n)`` returns this series itself (it is
        frozen), Gram included. Any other range cut from a series with a
        Gram gets its Gram now: a view of the sub-block, not a copy, with
        its row sums taken again, holding the segment's row view of the
        series. The statistics read a strided Gram in place and give the
        bits of a C-ordered copy of it. One cut before the source has a
        Gram takes its own product in ``compute_gram``.
        """
        if not (1 <= lo <= hi <= self.n):
            raise IndexOutOfRange(f"segment [{lo}, {hi}] outside [1, {self.n}]")
        if (lo, hi) == (1, self.n):
            return self
        sub = object.__new__(SeriesMatrix)
        object.__setattr__(sub, "values", self.values[lo - 1 : hi])
        if self._gram is not None:
            raw = self._gram.raw[lo - 1 : hi, lo - 1 : hi]
            object.__setattr__(sub, "_gram", GramSummary.of(raw, (sub.values,)))
        return sub


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr``, after the checks every series passes: 2-D, n >= 4, p >= 1, finite."""
    if arr.ndim != 2:
        raise DimensionTooSmall(f"expected a 2-D matrix, got ndim={arr.ndim}")
    n, p = arr.shape
    if n < 4:
        raise DimensionTooSmall(f"need at least 4 time points, got n={n}")
    if p < 1:
        raise DimensionTooSmall("need at least one coordinate (p >= 1)")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise NonFiniteEntry(f"non-finite entry at row {i + 1}, column {j + 1}")
    return arr


@dataclass(frozen=True)
class DependenceWindow:
    """Lag-truncation order M: serial dependence is modelled up to lag M."""

    m: int

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 0:
            raise IndexOutOfRange(f"dependence order must be a nonnegative integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    def min_length(self) -> int:
        """Smallest series length this window can be paired with."""
        return 2 * (self.m + 2)


@dataclass(frozen=True)
class GramSummary:
    """All inner products of a series, with their row sums.

    Every statistic downstream is a function of this reduction. Fields:

    - ``raw[i, j]``  inner product of observations i and j, float64 and
      exactly symmetric; any strided array, such as a segment's view of
      its source's Gram,
    - ``row_sums``  ``raw.sum(axis=-1)``, float64; divided by n they are the
      inner products of each observation with the series mean, which is
      what centering the Gram subtracts.

    The fields may carry leading axes: ``raw`` (R, n, n) and ``row_sums``
    (R, n) hold the Grams of R series of one length, which
    :func:`hdcp.engine.prepare_global` reduces in one pass. Every member
    below then has the same leading axes, and each Gram's slice of it is
    bitwise what that Gram alone would hold.

    ``raw`` and ``row_sums`` are read-only, so nothing cached from them can
    go stale. ``results``, built on first read and then cached, holds what
    :mod:`hdcp.engine` computed from this Gram, keyed by kind: the split
    curve and the trace table of each separation order M (read-only
    arrays), the value and count of each separated-sum term of each M, and
    the lag-grid products that those terms share across every M (scalars,
    or one entry per Gram). A repeated call with the same Gram and M
    returns the stored result.

    A Gram built from a series also holds, without a copy, the series'
    n x p array: one per Gram in ``_values``, which is not a field. A
    narrow series (see :mod:`hdcp.engine`) has its lag-grid products taken
    from its p x p lag cross-products, which ``results`` then stores too.
    A Gram built from inner products alone holds no arrays there.

    A Gram lives as long as the series that holds it (see
    ``SeriesMatrix``). At n = 800 the two fields hold 5.1 MB, and a
    segment's Gram only its row sums, as its ``raw`` is a view; the cached
    results are O(n) per M, and the lag cross-products of a narrow series
    p^2 per lag.
    """

    raw: np.ndarray
    row_sums: np.ndarray
    # Not a dataclass field: the arrays of the series whose Grams ``raw``
    # holds, one per Gram, set through object.__setattr__ and never compared.
    _values = ()

    def __post_init__(self) -> None:
        self.raw.flags.writeable = False
        self.row_sums.flags.writeable = False

    @classmethod
    def of(cls, raw: np.ndarray, values: tuple = ()) -> "GramSummary":
        """The summary of ``raw``, with its row sums taken along the last axis.

        ``values`` are the arrays of the series whose Grams ``raw`` holds,
        one per Gram, or none.
        """
        gram = cls(raw=raw, row_sums=raw.sum(axis=-1))
        object.__setattr__(gram, "_values", values)
        return gram

    @property
    def n(self) -> int:
        return self.raw.shape[-1]

    @functools.cached_property
    def results(self) -> dict:
        return {}


@dataclass(frozen=True)
class Segment:
    """1-based inclusive time bounds of a contiguous stretch."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise IndexOutOfRange(f"invalid segment bounds [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class TestOutcome:
    """Result of one mean-change test.

    ``degenerate`` marks outcomes where the variance estimate had to be
    floored; those never reject.
    """

    statistic: float
    variance: float
    zscore: float
    pvalue: float
    reject: bool
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "variance": self.variance,
            "zscore": self.zscore,
            "pvalue": self.pvalue,
            "reject": self.reject,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class SegmentRecord:
    """One entry of a segmentation trace.

    ``status`` is one of ``"split"``, ``"no_reject"``, ``"degenerate"``,
    ``"skipped_short"``, ``"skipped_infeasible"``. ``argmax`` is the global
    1-based location of the within-segment maximum when the segment was
    tested, else None.
    """

    segment: Segment
    status: str
    outcome: Optional[TestOutcome] = None
    argmax: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "lo": self.segment.lo,
            "hi": self.segment.hi,
            "status": self.status,
            "outcome": None if self.outcome is None else self.outcome.to_dict(),
            "argmax": self.argmax,
        }


@dataclass(frozen=True)
class ChangePointSet:
    """Sorted estimated change points plus the full per-segment trace."""

    points: tuple[int, ...]
    trace: tuple[SegmentRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        pts = tuple(int(t) for t in self.points)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise IndexOutOfRange(f"change points must be strictly increasing, got {pts}")
        object.__setattr__(self, "points", pts)


def validate_input(
    series: SeriesMatrix, window: DependenceWindow
) -> tuple[SeriesMatrix, DependenceWindow]:
    """Check that a series and a dependence window can be paired.

    Returns the pair unchanged. Raises ``DimensionTooSmall`` when
    ``n < 2(M + 2)``; finiteness was already enforced when the series was
    built, so this is idempotent and side-effect free.
    """
    need = window.min_length()
    if series.n < need:
        raise DimensionTooSmall(
            f"n={series.n} too small for M={window.m} (needs n >= {need})"
        )
    return series, window


def as_series(values: Sequence | np.ndarray) -> SeriesMatrix:
    """Build a SeriesMatrix from any 2-D array-like."""
    return SeriesMatrix(np.asarray(values, dtype=np.float64))
