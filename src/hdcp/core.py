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


# entries per Gram in one row block of an n x n array (256 KiB of float64):
# ``GramSummary.block_sums`` centers the Gram and the engine reduces the
# aggregate contrast a block of rows at a time (see ``_row_blocks``)
_BLOCK_ENTRIES = 1 << 15


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """The row ranges [lo, hi) that cover an n x n array in blocks of
    ``_BLOCK_ENTRIES`` entries, one row at least."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]


def _shift_dot(
    src: np.ndarray, dst: np.ndarray, dr: int, dc: int, by_row: bool = False
) -> float:
    """Sum over i, j of ``src[i, j] * dst[i + dr, j + dc]``, zero outside
    ``dst``'s rows and outside the columns.

    ``einsum`` reads the two strided slices in place (``np.vdot`` would
    copy both and run threaded BLAS). It takes slices that are each one
    contiguous stretch as one sum, and others row by row, so its rounding
    depends on the strides. With ``by_row`` each row is summed on its own
    and then the row sums, so equal entries give equal bits in any layout.
    """
    n = src.shape[1]
    r0, r1 = max(0, -dr), min(src.shape[0], dst.shape[0] - dr)
    c0, c1 = max(0, -dc), n - max(0, dc)
    if r0 >= r1 or c0 >= c1:
        return 0.0
    x, y = src[r0:r1, c0:c1], dst[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    if by_row:
        return float(np.einsum("ij,ij->i", x, y).sum())
    return float(np.einsum("ij,ij->", x, y))


def _lag_cross_product(x: np.ndarray, k: int) -> np.ndarray:
    # Γ(k) = x[k:]' x[:n - k] = sum_s x_{s+k} x_s', one BLAS product; at
    # k = 0 numpy takes x' x by syrk, so Γ(0) is exactly symmetric
    return np.matmul(x[k:].T, x[: x.shape[0] - k])


class _Stored:
    """What :mod:`hdcp.engine` computes from a summary, stored on it.

    ``results``, built on first read and then cached, holds it keyed by
    kind: the split curve and the trace table of each separation order M
    (read-only arrays), the value and count of each separated-sum term of
    each M, and the lag-grid products that those terms share across every
    M (scalars, or one entry per Gram of a stack), with what the summary
    itself stores there. A repeated call with the same summary and M
    returns the stored result. A plain mixin, so a summary's dataclass
    fields stay the arrays it holds.
    """

    @functools.cached_property
    def results(self) -> dict:
        return {}

    def stored(self, key: tuple, compute, *args):
        """``compute(*args)`` once per summary and key; later calls return that result.

        Floating-point overflow inside ``compute`` is not warned about: a
        non-finite result is raised as ``NonFiniteEntry`` where it is read.
        """
        results = self.results
        value = results.get(key)
        if value is None:
            with np.errstate(over="ignore", invalid="ignore"):
                value = results[key] = compute(*args)
        return value


@dataclass(frozen=True)
class GramSummary(_Stored):
    """All inner products of a series, with their row sums.

    The summary of a series that is not narrow (n < 4p, see
    ``_is_narrow``); a narrow one has a ``RowSummary``. One O(n^2 p) pass
    builds the n x n Gram, and every statistic afterwards reads it,
    regardless of p. Fields:

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
    bitwise what that Gram alone would hold. No sum over a Gram depends on
    its strides, so a view gives the bits of a C-ordered copy of its block.

    ``raw`` and ``row_sums`` are read-only, so nothing cached from them can
    go stale (``results``). A Gram lives as long as the series that holds
    it (see ``SeriesMatrix``). At n = 800 the two fields hold 5.1 MB, and a
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

    def diagonal(self, k: int) -> np.ndarray:
        """The inner products x_i'x_{i+k}, i < n - k, k >= 0, read-only."""
        return np.diagonal(self.raw, k, -2, -1)

    def block_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """``(prefix, leading)`` of the centered Gram: the sums over its first
        t rows, t = 0..n, and over its leading t x t block, t = 1..n - 1.

        The centered Gram gc[i, j] = raw[i, j] - a_i - a_j + sum(a) / n,
        with a = row_sums / n, is formed a block of at most
        ``_BLOCK_ENTRIES`` entries per Gram at a time, so it adds no n x n
        array to the Gram. Each row gives its total, its diagonal entry
        and, once its upper part is zeroed, its strictly-lower sum, taken on
        the row alone, so the sums do not depend on the block size.
        """
        n = self.n
        a = self.row_sums / n
        mean_sq = (a.sum(axis=-1) / n)[..., None, None]
        totals, diagonal, lower = (np.empty(a.shape, dtype=np.float64) for _ in range(3))
        for lo, hi in _row_blocks(n):
            gc = self.raw[..., lo:hi, :] - a[..., lo:hi, None]
            gc -= a[..., None, :]
            gc += mean_sq
            totals[..., lo:hi] = gc.sum(axis=-1)
            diagonal[..., lo:hi] = np.diagonal(gc, lo, -2, -1)
            gc *= np.tri(hi - lo, n, lo - 1, dtype=bool)
            lower[..., lo:hi] = gc.sum(axis=-1)
            del gc  # before the next block is built
        prefix = np.zeros(a.shape[:-1] + (n + 1,), dtype=np.float64)
        np.cumsum(totals, axis=-1, out=prefix[..., 1:])
        # the leading block grows by row t's lower part twice plus gc[t, t]
        block = np.cumsum(2 * lower + diagonal, axis=-1)
        return prefix, block[..., :-1]

    def lag_product(self, a: int, b: int) -> np.ndarray:
        """A(a, b) = sum over s, t of raw[s + a, t] * raw[s, t + b], raw zero
        outside: one O(n^2) shifted sum per Gram, one entry per Gram.

        The Gram against itself moved a rows and -b columns, summed by rows,
        so a view and a C-ordered copy give the same bits. Each Gram of a
        stack is summed on its own, as it would be alone.
        """
        raw, n = self.raw, self.n
        sums = [_shift_dot(g, g, a, -b, by_row=True) for g in raw.reshape((-1, n, n))]
        return np.array(sums).reshape(raw.shape[:-2])

    def segment(self, lo: int, hi: int) -> "GramSummary":
        """The Gram of rows lo..hi (1-based, inclusive): a view of the sub-block."""
        return GramSummary.of(self.raw[lo - 1 : hi, lo - 1 : hi])


@dataclass(frozen=True)
class RowSummary(_Stored):
    """The inner products of a narrow series (n >= 4p), held as its rows.

    Every statistic reads the inner products through four things: their
    row sums, their diagonals |k| <= 3M, the centered block sums of the
    split curve, and the lag-grid products. From the rows each of the first
    three costs O(n p), and the lag-grid products come from the p x p lag
    cross-products, O(n p^2) per lag and O(p^2) per product, so no n x n
    array is formed. Fields:

    - ``rows``  the series' n x p array itself, not a copy, read-only,
    - ``row_sums``  x_i' sum_j x_j, float64: the Gram's row sums.

    ``diagonal(k)`` gives the inner products x_i'x_{i+k}, one row dot each,
    computed once per summary and stored in ``results``, as are the lag
    cross-products. A segment's summary (``segment``) takes its own row
    sums and lag cross-products, and slices its diagonals from its
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

    def diagonal(self, k: int) -> np.ndarray:
        """The inner products x_i'x_{i+k}, i < n - k, k >= 0, read-only."""
        if self._cut is not None:
            source, first = self._cut
            return source.diagonal(k)[first : first + self.n - k]
        return self.stored(("diagonal", k), self._row_dots, k)

    def _row_dots(self, k: int) -> np.ndarray:
        rows = self.rows
        diagonal = np.einsum("ij,ij->i", rows[: self.n - k], rows[k:])
        diagonal.flags.writeable = False
        return diagonal

    def block_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """``(prefix, leading)`` of the centered Gram, from the rows: the sums
        over its first t rows, t = 0..n, and over its leading t x t block,
        t = 1..n - 1.

        The centered Gram is y y' for the centered rows y, so with the running
        sums s_t = y_1 + ... + y_t the first t rows sum to s_t's' s_n and the
        leading block to s_t's' s_t: one n x p array, O(n p).
        """
        rows = self.rows
        running = rows - rows.mean(axis=0)
        np.cumsum(running, axis=0, out=running)
        prefix = np.zeros(rows.shape[0] + 1, dtype=np.float64)
        np.matmul(running, running[-1], out=prefix[1:])
        return prefix, np.einsum("ij,ij->i", running[:-1], running[:-1])

    def lag_product(self, a: int, b: int) -> float:
        """A(a, b) = sum over s, t of x_{s+a}'x_t x_s'x_{t+b} = tr(Γ(a) Γ(b)),
        exactly, with Γ(k) = sum_s x_{s+k} x_s' and Γ(-k) = Γ(k)'.

        A sum of p^2 products, read with the subscripts that transpose a
        negative lag's Γ. Each Γ(k), k >= 0, is one BLAS product, stored
        once per summary.
        """
        subscripts = ("ij" if a >= 0 else "ji") + "," + ("ji" if b >= 0 else "ij") + "->"
        ga, gb = (
            self.stored(("lag_cross", k), _lag_cross_product, self.rows, k)
            for k in (abs(a), abs(b))
        )
        return np.einsum(subscripts, ga, gb)

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
