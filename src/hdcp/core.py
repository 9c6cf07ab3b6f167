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

    A series keeps the summary of its inner products that
    :func:`hdcp.engine.compute_gram` built for it (a ``GramSummary``, or a
    ``RowSummary`` when the series is narrow), so the summary lives as long
    as the series. A proper segment cut by ``segment_view`` from a series
    with a summary gets its own when it is cut, without a new product
    (see ``segment_view``).
    """

    values: np.ndarray
    # Not a dataclass field: the summary kept on the series, set through
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
        frozen), summary included. Any other range cut from a series with a
        summary gets its own now. From a Gram it is a view of the
        sub-block, not a copy, with its row sums taken again; the
        statistics read a strided Gram in place and give the bits of a
        C-ordered copy of it. From a narrow series' rows it is the
        segment's rows, with its own row sums and its diagonals sliced from
        the source's, while the segment is narrow too. A shorter segment,
        or one cut before the source has a summary, takes its own in
        ``compute_gram``.
        """
        if not (1 <= lo <= hi <= self.n):
            raise IndexOutOfRange(f"segment [{lo}, {hi}] outside [1, {self.n}]")
        if (lo, hi) == (1, self.n):
            return self
        sub = object.__new__(SeriesMatrix)
        object.__setattr__(sub, "values", self.values[lo - 1 : hi])
        if self._gram is not None:
            object.__setattr__(sub, "_gram", self._gram.segment(lo, hi))
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


# A series is narrow when _NARROW_RATIO * p <= n (``_is_narrow``). Its
# summary is then its rows (``RowSummary``), not its n x n Gram, and its
# lag-grid products are traces of its p x p lag cross-products, not O(n^2)
# sums over the Gram. All orbits of |a|, |b| <= K at n = 800, Gram vs lag
# cross-products, in process on a 2-vCPU host (medians of 21):
#   K = 0:  p = 50 0.27 vs 0.16 ms, 100 0.25 vs 0.31, 200 0.25 vs 0.69;
#   K = 2:  p = 100 2.3 vs 1.1 ms, 150 2.4 vs 1.8, 200 2.3 vs 2.6, 250 2.4 vs 3.8;
#   K = 10: p = 200 34 vs 14 ms, 300 35 vs 30, 400 37 vs 67.
# So the crossover is near n / 10 at K = 0, n / 4.3 at K = 2 and n / 2.5
# at K = 10. The rule serves the elbow (K = h_max, 10 by default); a
# table at a small fixed M on a narrow series pays at most about 0.5 ms.
_NARROW_RATIO = 4


def _is_narrow(n: int, p: int) -> bool:
    """Whether a series of n observations of dimension p is summarized by
    its rows (``RowSummary``) rather than its Gram: n >= 4p."""
    return _NARROW_RATIO * p <= n


@dataclass(frozen=True)
class GramSummary:
    """All inner products of a series, with their row sums.

    The summary of a series that is not narrow (n < 4p, see
    ``_is_narrow``); a narrow one has a ``RowSummary``. Fields:

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

    A Gram lives as long as the series that holds it (see
    ``SeriesMatrix``). At n = 800 the two fields hold 5.1 MB, and a
    segment's Gram only its row sums, as its ``raw`` is a view; the cached
    results are O(n) per M.
    """

    raw: np.ndarray
    row_sums: np.ndarray

    def __post_init__(self) -> None:
        self.raw.flags.writeable = False
        self.row_sums.flags.writeable = False

    @classmethod
    def of(cls, raw: np.ndarray) -> "GramSummary":
        """The summary of ``raw``, with its row sums taken along the last axis."""
        return cls(raw=raw, row_sums=raw.sum(axis=-1))

    @property
    def n(self) -> int:
        return self.raw.shape[-1]

    @functools.cached_property
    def results(self) -> dict:
        return {}

    def diagonal(self, k: int) -> np.ndarray:
        """The inner products x_i'x_{i+k}, i < n - k, k >= 0, read-only."""
        return np.diagonal(self.raw, k, -2, -1)

    def segment(self, lo: int, hi: int) -> "GramSummary":
        """The Gram of rows lo..hi (1-based, inclusive): a view of the sub-block."""
        return GramSummary.of(self.raw[lo - 1 : hi, lo - 1 : hi])


@dataclass(frozen=True)
class RowSummary:
    """The inner products of a narrow series (n >= 4p), held as its rows.

    Every statistic reads the inner products through four things: their
    row sums, their diagonals |k| <= 3M, the centered block sums of the
    split curve, and the lag-grid products. From the rows each costs O(n p), and
    the lag-grid products come from the p x p lag cross-products, so no
    n x n array is formed. Fields:

    - ``rows``  the series' n x p array itself, not a copy, read-only,
    - ``row_sums``  x_i' sum_j x_j, float64: the Gram's row sums.

    ``diagonal(k)`` gives the inner products x_i'x_{i+k}, one row dot each,
    computed once per summary and stored in ``results`` with everything
    :mod:`hdcp.engine` computes from the summary (as for a ``GramSummary``)
    and the lag cross-products. A segment's summary (``segment``) takes its
    own row sums and lag cross-products, and slices its diagonals from its
    source's. It holds O(n p + p^2 h) for lags up to h.
    """

    rows: np.ndarray
    row_sums: np.ndarray
    # Not a dataclass field: (source summary, first row) of a segment, whose
    # diagonals are slices of its source's; None for a whole series. Set
    # through object.__setattr__ and never compared.
    _cut = None

    def __post_init__(self) -> None:
        self.rows.flags.writeable = False
        self.row_sums.flags.writeable = False

    @classmethod
    def of(cls, rows: np.ndarray, cut: Optional[tuple] = None) -> "RowSummary":
        """The summary of ``rows``, with its row sums taken from the column sums."""
        # not warned about: compute_gram raises a non-finite sum as NonFiniteEntry
        with np.errstate(over="ignore", invalid="ignore"):
            summary = cls(rows=rows, row_sums=rows @ rows.sum(axis=0))
        object.__setattr__(summary, "_cut", cut)
        return summary

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @functools.cached_property
    def results(self) -> dict:
        return {}

    def diagonal(self, k: int) -> np.ndarray:
        """The inner products x_i'x_{i+k}, i < n - k, k >= 0, read-only."""
        if self._cut is not None:
            source, first = self._cut
            return source.diagonal(k)[first : first + self.n - k]
        diagonal = self.results.get(("diagonal", k))
        if diagonal is None:
            rows = self.rows
            with np.errstate(over="ignore", invalid="ignore"):
                diagonal = np.einsum("ij,ij->i", rows[: self.n - k], rows[k:])
            diagonal.flags.writeable = False
            self.results[("diagonal", k)] = diagonal
        return diagonal

    def segment(self, lo: int, hi: int) -> Optional["RowSummary"]:
        """The summary of rows lo..hi (1-based, inclusive), or None when they
        are not narrow: such a segment takes its own Gram."""
        rows = self.rows[lo - 1 : hi]
        if not _is_narrow(*rows.shape):
            return None
        source, first = self._cut if self._cut is not None else (self, 0)
        return RowSummary.of(rows, (source, first + lo - 1))


# the summary of a series' inner products: its Gram, or a narrow series' rows
Summary = GramSummary | RowSummary


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
