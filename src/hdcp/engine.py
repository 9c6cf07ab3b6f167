"""Statistics for dependence-adjusted mean-change detection.

Everything here is computed from the summary of a series' inner products
(``compute_gram``), and every statistic reads it through four things: the
row sums, the diagonals x_i'x_{i+k} (``diagonal``), the centered block
sums of the split curve (``block_sums``) and the lag-grid products of the
separated sums (``lag_product``). How the summary holds them, and what
each costs, is its own concern: a series with n < 4p has a
:class:`~hdcp.core.GramSummary`, a narrow one a
:class:`~hdcp.core.RowSummary`, and no statistic asks which.

The per-split statistic ``l_trace`` contrasts the mean before and after each
candidate split and subtracts a correction that removes the bias caused by
serial correlation up to lag M. Both parts are invariant to a constant
offset of the series, so both are read from the centered Gram, in float64,
which no summary forms whole (see ``block_sums``). Its null variance
involves the unknown trace products tr{C(h1) C(h2)} of the lag-h
autocovariances, estimated by a four-term U-statistic over index tuples
forced to be more than M apart (``trace_product_estimate``).

What depends on the shape (n, M) alone is built once per process and
shared: ``_plan(n, M)`` holds it, with at most ``_PLAN_CACHE_SIZE`` (32)
keys kept, least recently used first out. Its arrays are read-only,
because every caller with the same key gets the same plan. The windows
of the separated sums come with the plan (O(n)); every other part is
built on its first read: the exact tuple counts of the separated sums
(integers); the checked lag design ``F_matrix`` and the boundary weights
of every split, which ``l_trace`` reads; and the cross-product table and
squared mass of the aggregated contrast ``b_aggregate``, which
``aggregate_variance`` reads. No part is n x n, and the n x n contrast
is never formed: its closed form is built and reduced a block of rows at
a time. So the global test of a series of a
seen length pays O(M^2) for its variance after the trace table, and the
elbow's orders never build a lag design.

The separated sums share work the same way. Every whole-grid sum they
take is a sum of the lag-grid products A(a, b) = sum_{s,t} raw[s + a, t]
raw[s, t + b], which do not depend on M: the summary computes each
(``lag_product``) and stores it once, under one member of its orbit
{(a, b), (b, a), (-a, -b), (-b, -a)}. Order M reads the (M + 1)^2 orbits
of |a|, |b| <= M, so the elbow's orders 0..h_max take (h_max + 1)^2
products in all, and a trace table at an order the elbow probed takes
none. A context per (summary, M) then corrects the O(nM) entries near the
diagonal from the 6M + 1 middle diagonals, which it keeps as rows of one
small array. No context forms an n x n array.

Results live on the object that owns them, with no module-level cache.
``compute_gram`` keeps the summary on its series, and ``segment_view``
cuts a segment's summary from its source's when it cuts the segment: a
view of the Gram's sub-block, or the segment's rows with its own row sums
and its diagonals sliced from its source's (a segment below 4p takes one
product of its own rows). So one series costs at most one O(n^2 p) pass
and one n x n array, and a narrow one none, however often the elbow, the
global test and binary segmentation ask for it. Per (summary, M),
``results`` keeps the split curve of ``l_trace``, the table of
``build_trace_table`` (both read-only) and the value and count of each
separated-sum term, and per summary its lag-grid products, beside what
the summary itself stores there; the context arrays behind the terms are
not kept. So the table at the order the elbow chose reuses the elbow's
quadruple, triple and pair terms, and a repeated test of the same summary
and M returns the stored result.

Series of one shape can share a pass. ``prepare_global`` builds the Grams
of R series into the slices of one (R, n, n) stack and wraps it in one
``GramSummary`` with a leading axis, then runs the split curve and the
separated sums once over the stack. Every kernel takes leading axes, and
a single Gram is the case without any, so each kernel has one copy. Each
Gram's curve and trace table are stored under the keys ``l_trace`` and
``build_trace_table`` read, so a later ``test_global`` of the series
finds them. They equal the single-series results bit for bit: each
lag-grid product is taken one Gram at a time, as that Gram alone would
take it. Narrow series hold no Gram to stack, and each takes its own pass.

Conventions, fixed for the whole package:

- indicator I(a, b) is 1 iff a == b; I(predicate) is 1 iff it holds;
- any contrast-matrix lookup outside [1, n] evaluates to zero;
- in the separated sums, the indices of a term form groups (a base index
  together with its shifted mate), and every pair of indices from
  different groups must be more than M apart in absolute value; shifted
  subscripts must also stay inside [1, n]. Group members themselves are at
  most M apart by definition, which is why they are exempt.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    DependenceWindow,
    DimensionTooSmall,
    EmptySumRange,
    GramSummary,
    IndexOutOfRange,
    NonFiniteEntry,
    RowSummary,
    SeriesMatrix,
    SingularDesign,
    Summary,
    _is_narrow,
    _row_blocks,
    _shift_dot,
    validate_input,
)

_COND_LIMIT = 1e12
# distinct (n, M) shape plans kept per process; one entry is O(nM + M^2)
# floats, so even the full cache is small next to one Gram
_PLAN_CACHE_SIZE = 32


@dataclass(frozen=True)
class DependenceDesign:
    """(M+1) x (M+1) lag design matrix for a series of length n.

    Invertibility is verified at construction; each system is solved by
    ``np.linalg.solve`` on the matrix (or its transpose), never through an
    explicit inverse.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        cond = np.linalg.cond(self.matrix)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularDesign(
                f"lag design matrix numerically singular (cond={cond:.3e}); "
                "n is too small relative to M"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side, or for each of a stack (..., M + 1)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        return np.linalg.solve(self.matrix, rhs[..., None])[..., 0]

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix.T, np.asarray(rhs, dtype=np.float64))


@dataclass(frozen=True)
class TraceTable:
    """Estimated tr{C(h1) C(h2)} on the lag grid, mirrored across orbits.

    By construction ``est(h1, h2) == est(h2, h1) == est(-h1, -h2)``: one
    representative per orbit is computed, the rest are copies.
    """

    m: int
    values: np.ndarray

    def est(self, h1: int, h2: int) -> float:
        if abs(h1) > self.m or abs(h2) > self.m:
            raise IndexOutOfRange(f"lag pair ({h1}, {h2}) outside window M={self.m}")
        return float(self.values[h1 + self.m, h2 + self.m])


class VarianceResult(NamedTuple):
    value: float
    degenerate: bool


def compute_gram(series: SeriesMatrix) -> Summary:
    """Reduce a series to the summary of its inner products, in float64.

    A narrow series (n >= 4p, ``core._is_narrow``) is summarized by its
    rows (``RowSummary``), any other by its Gram (``GramSummary``). A
    segment's summary holds the segment's own products, so everything
    derived from it (centering included) is segment-local.

    The summary is built once per series and kept on it: a second call
    returns the same object. A segment cut by ``segment_view`` from a
    series that already had a summary holds its own from the cut, so this
    call only returns it.

    Raises ``NonFiniteEntry`` when the inner products or their row sums
    overflow float64.
    """
    if series._gram is None:
        values = series.values
        # an overflow is raised below as NonFiniteEntry, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if _is_narrow(*values.shape):
                gram = RowSummary.of(values)
            else:
                gram = GramSummary.of(_gram_product(values))
        _check_finite(gram)
        object.__setattr__(series, "_gram", gram)
    return series._gram


def _check_finite(gram: Summary) -> None:
    # an inf or NaN anywhere in a Gram reaches its row's sum, and by
    # Cauchy-Schwarz no inner product outgrows the largest x_i'x_i
    if not (np.isfinite(gram.row_sums).all() and np.isfinite(gram.diagonal(0)).all()):
        raise NonFiniteEntry("the inner products overflow float64; rescale the series")


def _gram_product(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The one O(n^2 p) pass, into ``out`` when given. For ``x @ x.T`` numpy
    # calls BLAS syrk, which computes one triangle and mirrors it, so the
    # product is exactly symmetric as it comes.
    return np.matmul(x, x.T, out=out)


def _f_columns(n: int, t: np.ndarray, m: int) -> np.ndarray:
    """Boundary weights for an array of splits t; shape (len(t), m + 1)."""
    t = np.asarray(t, dtype=np.int64)
    out = np.ones((t.shape[0], m + 1), dtype=np.float64)
    nt = n - t
    for i in range(2, m + 2):
        a = np.where(t + 1 > i, nt * (t - i + 1) / (n * t), 0.0)
        b = np.where(nt + 1 > i, t * (nt - i + 1) / (n * nt), 0.0)
        # count of l in [1, i-1] with l <= t and i - l <= n - t
        lo = np.maximum(1, i - nt)
        hi = np.minimum(i - 1, t)
        cnt = np.maximum(0, hi - lo + 1)
        out[:, i - 1] = 2.0 * (a + b - cnt / n)
    return out


def f_vector(n: int, t: int, m: int) -> np.ndarray:
    """Boundary weight vector for split t in a series of length n.

    Parameters
    ----------
    n : series length
    t : candidate split, 1 <= t <= n - 1
    m : dependence order

    Returns
    -------
    np.ndarray
        Length m + 1; first entry exactly 1, the others shrink near the
        series boundary. Satisfies
        ``f_vector(n, t, m) == f_vector(n, n - t, m)`` entrywise.
    """
    if not 1 <= t <= n - 1:
        raise IndexOutOfRange(f"split t={t} outside [1, {n - 1}]")
    return _f_columns(n, np.array([t]), m)[0]


def _count_absdiff(a_max: int, n: int, d: int) -> int:
    # pairs (a, b) with a in [1, a_max], b in [1, n], |a - b| == d
    if d == 0:
        return a_max
    return max(0, a_max - d) + max(0, min(a_max, n - d))


def _count_shifted(i: int, n: int, d: int) -> int:
    # pairs (a, b) with a in [i, n], b in [1, n], |a - b| == d
    if d == 0:
        return n - i + 1
    below = max(0, n - max(i, d + 1) + 1)  # b = a - d >= 1
    above = max(0, n - d - i + 1)          # b = a + d <= n
    return below + above


def F_matrix(n: int, m: int) -> DependenceDesign:
    """Lag design matrix coupling the boundary weights to the lag sums.

    Requires ``n >= 2(m + 2)``. For m = 0 this reduces to the 1 x 1 matrix
    ``[1 - 1/n]`` exactly. The pair-count sums in each entry are evaluated
    in closed form, so construction is O(m^2).
    """
    if n < 2 * (m + 2):
        raise DimensionTooSmall(f"n={n} too small for M={m} (needs n >= {2 * (m + 2)})")
    F = np.zeros((m + 1, m + 1), dtype=np.float64)
    for i in range(1, m + 2):
        for j in range(1, m + 2):
            d = j - 1
            counts = _count_absdiff(n - i + 1, n, d) + _count_shifted(i, n, d)
            F[i - 1, j - 1] = (
                (1 - (i - 1) / n) * (1.0 if i == j else 0.0)
                + (1 - (i - 1) / n) * (1 - (j - 1) / n) * (2 - (1.0 if j == 1 else 0.0)) / n
                - counts / n**2
            )
    return DependenceDesign(F)


def V_vector(gram: Summary, m: int) -> np.ndarray:
    """Centered lag sums: entry k averages products at lag k, k = 0..m.

    Entry k is the k-th diagonal sum of the centered Gram over n. The
    centered Gram gc[i, j] = raw[i, j] - a_i - a_j + sum(a) / n, with
    a = row_sums / n, holds the inner products of the observations less
    the series mean. Its entries are taken one by one from the summary's
    diagonals, so the m + 1 diagonals cost O(n M) and a constant offset of
    the series cancels entry by entry. A stack of Grams (see
    ``prepare_global``) gives one row of sums per Gram.
    """
    n = gram.n
    if m >= n:
        raise DimensionTooSmall(f"lag order M={m} needs n > M, got n={n}")
    a = gram.row_sums / n
    mean_sq = (a.sum(axis=-1) / n)[..., None]
    vals = [
        (gram.diagonal(k) - a[..., : n - k] - a[..., k:] + mean_sq).sum(axis=-1) / n
        for k in range(m + 1)
    ]
    return np.stack(vals, axis=-1)


def l_trace(gram: Summary, window: DependenceWindow) -> np.ndarray:
    """Dependence-corrected split statistics for every t in 1..n-1.

    Entry t - 1 contrasts the means of the first t and last n - t
    observations and subtracts the serial-correlation correction. A
    constant offset of the series leaves both unchanged, so the statistic
    is read from the centered Gram (see ``V_vector``), whose entries
    carry no offset to cancel. It needs three block sums per split: the
    leading t x t block, the first t rows, and the whole matrix. They come
    from the summary's O(n) running sums (``block_sums``), all float64,
    and no n x n array is added; the lag design system is solved once. The
    checked design and the boundary weights of all splits come from the
    (n, M) plan, so only the first call for a shape builds them; the plan's
    O(n^2 M^2) aggregate cross-products wait for ``aggregate_variance``.

    The curve is computed once per (Gram, M) and returned read-only.
    """
    return gram.stored(("l_trace", window.m), _split_curve, gram, window.m)


def _split_curve(gram: Summary, m: int) -> np.ndarray:
    # every array below has the Gram's leading axes, if it has any
    n = gram.n
    plan = _plan(n, m)
    x = plan.design.solve(V_vector(gram, m))

    # P[t, n] (``prefix``) and P[t, t] (``ptt``), the sums of the centered
    # Gram over its first t rows and over its leading t x t block
    prefix, ptt = gram.block_sums()
    ptn = prefix[..., 1:n]
    # P[n, n] from the same running sum as P[t, n], so that their rounding
    # cancels in P[n, n] - 2 P[t, n] + P[t, t]; the centered rows sum to
    # zero only up to rounding, so all three blocks are kept
    pnn = prefix[..., n:]
    within_lo = ptt
    cross = ptn - ptt
    within_hi = pnn - 2 * ptn + ptt
    t = np.arange(1, n, dtype=np.float64)
    nt = n - t
    n2 = float(n) ** 2
    term1 = (nt / (t * n2)) * within_lo - (2.0 / n2) * cross + (t / (nt * n2)) * within_hi

    curve = term1 - (plan.weights @ x[..., None])[..., 0] / n
    curve.flags.writeable = False
    return curve


def _contrast_block(n: int, t: int) -> np.ndarray:
    # the mean contrast of split t: one constant on each of the four blocks
    B = np.empty((n, n), dtype=np.float64)
    B[:t, :t] = (n - t) / t
    B[:t, t:] = -2.0
    B[t:, :t] = 0.0
    B[t:, t:] = t / (n - t)
    return B


def _apply_lag_terms(B: np.ndarray, coeff: np.ndarray, n: int) -> None:
    # subtracts sum_h coeff[h] * {I(i-j==h) - (I(j>=h+1)+I(j<=n-h))/n + (n-h)/n^2}
    for h, c in enumerate(coeff):
        rows = np.arange(h, n)
        B[rows, rows - h] -= c
    # every lag's column term in one pass over B
    B += _lag_columns(coeff, n)


def _lag_columns(coeff: np.ndarray, n: int) -> np.ndarray:
    # sum_h coeff[h] * {(I(j>=h+1)+I(j<=n-h))/n - (n-h)/n^2}, for j = 1..n
    j = np.arange(1, n + 1)
    columns = np.zeros(n, dtype=np.float64)
    for h, c in enumerate(coeff):
        col_term = ((j >= h + 1).astype(np.float64) + (j <= n - h)) / n
        columns += c * col_term - c * (n - h) / n**2
    return columns


def b_matrix(n: int, t: int, window: DependenceWindow) -> np.ndarray:
    """Quadratic-form coefficients of the split-t statistic.

    ``l_trace`` at split t equals exactly (1/n^2) * sum_{i,j} B(i, j) x_i'x_j,
    which is the identity the variance calculus rests on. The matrix is not
    symmetric: the lag indicators run one-sided.
    """
    if not 1 <= t <= n - 1:
        raise IndexOutOfRange(f"split t={t} outside [1, {n - 1}]")
    g = F_matrix(n, window.m).solve_transposed(f_vector(n, t, window.m))
    B = _contrast_block(n, t)
    _apply_lag_terms(B, g, n)
    return B


def b_aggregate(n: int, window: DependenceWindow) -> np.ndarray:
    """Elementwise sum of the split contrast matrices over t = 1..n-1.

    Accumulated in closed form: the three block terms reduce to harmonic
    number differences in max(i, j) and min(i, j), and the lag terms factor
    through the summed boundary weights, so the whole matrix costs
    O(n^2 (M+1)) instead of n - 1 full constructions.
    """
    plan = _plan(n, window.m)
    return _AggregateContrast(n, plan.design, plan.weights).rows(0, n)


class _AggregateContrast:
    """The n x n aggregate contrast B of ``b_aggregate``, any rows at a time.

    Entry (i, j) is a block term in max(i, j) and min(i, j), less the lag
    coefficient g[h] on the diagonal i - j = h <= M, plus a column term, so
    ``rows`` builds any rows of B, or of its transpose, from O(n) vectors.
    Each entry takes the same operations whichever rows are asked for.
    """

    def __init__(self, n: int, design: DependenceDesign, weights: np.ndarray):
        self.shape = (n, n)
        self.g = design.solve_transposed(weights.sum(axis=0))
        harm = np.zeros(n, dtype=np.float64)
        harm[1:] = np.cumsum(1.0 / np.arange(1, n))
        k = np.arange(1, n + 1)
        # the block terms at max(i, j) = k and at min(i, j) = k: on and below
        # the diagonal max(i, j) = i and the cross term is zero; above it
        # max(i, j) = j, and -2(j - i) splits between the two
        self.upper = n * (harm[n - 1] - harm[k - 1]) - (n - k)
        self.lower = n * (harm[n - 1] - harm[n - k]) - (k - 1)
        self.above, self.below = self.lower + 2 * k, self.upper - 2 * k
        self.columns = _lag_columns(self.g, n)

    def rows(self, lo: int, hi: int, transposed: bool = False) -> np.ndarray:
        """``B[lo:hi]``, or ``B.T[lo:hi]`` when ``transposed``, as a new array.

        Built row by row, each row in place: the block is the one array of
        this call, with no broadcast buffers beside it.
        """
        n = self.shape[0]
        g = self.g
        out = np.empty((hi - lo, n), dtype=np.float64)
        for r in range(lo, hi):
            row = out[r - lo]
            if transposed:  # column r of B: B[j, r] for j < r is above the diagonal
                np.add(self.below[r], self.above[:r], out=row[:r])
                np.add(self.lower[r], self.upper[r:], out=row[r:])
                k = min(g.shape[0], n - r)
                row[r : r + k] -= g[:k]  # B[r + h, r] -= g[h]
                row += self.columns[r]
            else:
                np.add(self.upper[r], self.lower[: r + 1], out=row[: r + 1])
                np.add(self.above[r], self.below[r + 1 :], out=row[r + 1 :])
                k = min(g.shape[0], r + 1)
                row[r + 1 - k : r + 1] -= g[k - 1 :: -1]  # B[r, r - h] -= g[h]
                row += self.columns
        return out


def _offset_pairs(rows: int, offsets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, i + d) for i < rows and d in offsets, kept inside [0, n).

    Ordered by i, then as in ``offsets``.
    """
    j = np.arange(rows)[:, None] + offsets
    keep = (j >= 0) & (j < n)
    return np.nonzero(keep)[0], j[keep]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of vectors along the last axis, for each leading index.

    Each product is the one ``a @ b`` makes for a single pair of vectors.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class _PairPlan(NamedTuple):
    """Shape-only parts of the pair term at one (h1, h2).

    The forbidden differences d = s - t form the one interval
    ``[top - width + 1, top]``: the four bands |d - c| <= M, c in
    {0, h2, -h1, h2 - h1}, overlap, as neighbouring centres are at most
    M apart.
    """

    count: int
    top: int
    width: int


class _ShapePlan:
    """What the statistics need that depends on the shape (n, M) alone.

    Built by ``_plan(n, M)`` once per shape and shared by every caller of
    that shape, so its arrays are read-only. No array of it is larger than
    n x (M + 1) or (2M + 1) x (2M + 1). With the plan come the windows
    ``lo``/``hi`` of the separated sums (O(n)) and the quadruple count.
    The rest is built on first read, so a caller pays only for what it
    reads:

    - for the separated sums, the triple count of each |h| and the pair
      count and forbidden interval of each (h1, h2);
    - for ``l_trace`` and ``b_aggregate``, ``design`` (``F_matrix(n, M)``,
      condition checked) and ``weights`` (``_f_columns(n, 1..n-1, M)``,
      shape (n - 1, M + 1));
    - for ``aggregate_variance``, ``cross``, the aggregate contrast's
      (2M + 1) x (2M + 1) cross-products, and ``mass``, the sum of its
      squared entries. They cost O(n^2 M^2). The n x n aggregate contrast
      is never formed: its closed form gives a block of rows at a time,
      with an M-row halo, and the matching rows of its transpose.

    So the elbow's orders, which read only the separated sums, never
    build a lag design.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        idx = np.arange(n)
        self.lo = np.maximum(idx - m, 0)
        self.hi = np.minimum(idx + m + 1, n)
        k = n - 3 * m
        self.quad_count = k * (k - 1) * (k - 2) * (k - 3) if k >= 4 else 0
        for a in (self.lo, self.hi):
            a.flags.writeable = False
        self._triples: dict[int, int] = {}
        self._pairs: dict[tuple[int, int], _PairPlan] = {}

    def triple_count(self, h: int) -> int:
        """Exact number of admissible (r, s, t) of the triple term at h >= 0."""
        count = self._triples.get(h)
        if count is None:
            count = self._triples[h] = self._triple_count(h)
        return count

    def _triple_count(self, h: int) -> int:
        # sum over admissible (s, t) of own_cnt[s] - wlen[t], by rows; t is
        # forbidden on [band_lo[s], band_hi[s]); the overlap bands
        # -2M <= t - s < -M and h + M < t - s <= h + 2M add back the
        # indices r that both windows exclude
        n, m = self.n, self.m
        lo, hi = self.lo, self.hi
        ns = n - h
        if ns <= 0:
            return 0
        s = np.arange(ns)
        own_cnt = n - (hi[h:] - lo[:ns])
        band_lo, band_hi = np.maximum(s - m, 0), np.minimum(s + h + m + 1, n)
        wlen_pre = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=wlen_pre[1:])
        count = int(np.sum(own_cnt * (n - (band_hi - band_lo))))
        count -= int(np.sum(wlen_pre[n] - (wlen_pre[band_hi] - wlen_pre[band_lo])))
        offsets = np.concatenate([np.arange(-2 * m, -m), np.arange(h + m + 1, h + 2 * m + 1)])
        sb, tb = _offset_pairs(ns, offsets, n)
        left = tb < sb
        count += int(np.sum(hi[np.where(left, tb, sb + h)] - lo[np.where(left, sb, tb)]))
        return count

    def pair(self, h1: int, h2: int) -> _PairPlan:
        """Count and forbidden interval of the pair term at (h1, h2)."""
        plan = self._pairs.get((h1, h2))
        if plan is None:
            plan = self._pairs[(h1, h2)] = self._pair_plan(h1, h2)
        return plan

    def _pair_plan(self, h1: int, h2: int) -> _PairPlan:
        n, m = self.n, self.m
        s0, s1 = max(0, -h1), min(n, n - h1)
        t0, t1 = max(0, -h2), min(n, n - h2)
        centres = (0, h2, -h1, h2 - h1)
        bottom, top = min(centres) - m, max(centres) + m
        # entries (s, t = s - d) of the rows x cols grid on each forbidden d
        forbidden = sum(
            max(0, min(s1, t1 + d) - max(s0, t0 + d)) for d in range(bottom, top + 1)
        )
        count = max(0, s1 - s0) * max(0, t1 - t0) - forbidden
        return _PairPlan(count, top, top - bottom + 1)

    @functools.cached_property
    def design(self) -> DependenceDesign:
        design = F_matrix(self.n, self.m)
        design.matrix.flags.writeable = False
        return design

    @functools.cached_property
    def weights(self) -> np.ndarray:
        weights = _f_columns(self.n, np.arange(1, self.n), self.m)
        weights.flags.writeable = False
        return weights

    @functools.cached_property
    def _contrast(self) -> tuple[np.ndarray, float]:
        B = _AggregateContrast(self.n, self.design, self.weights)
        cross = _contrast_cross_products(B, self.m)
        cross.flags.writeable = False
        return cross, _contrast_mass(B)

    @property
    def cross(self) -> np.ndarray:
        return self._contrast[0]

    @property
    def mass(self) -> float:
        return self._contrast[1]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(n: int, m: int) -> _ShapePlan:
    return _ShapePlan(n, m)


class _SeparatedSums:
    """The separated trace-product sums of one summary at one separation M.

    One instance serves every (h1, h2) pair of a lag window. Counts are
    exact integers: the quadruple count in closed form, the pair count as
    the grid size minus the forbidden diagonals, the triple count from O(n)
    int64 sums (below n^3).

    Windows are 0-based and half-open: index i excludes the indices in
    ``[lo[i], hi[i])``, its neighbours at distance <= M clipped to the
    series. What depends on (n, M) alone (windows, counts, forbidden
    intervals) comes from the cached ``_plan(n, M)``; the float64 row sums,
    the diagonals and the lag-grid products come from the summary, shared
    across separations. Below, raw[i, j] = x_i'x_j, whichever summary
    holds the inner products.

    Every whole-grid sum of the three terms is a sum of one quantity of
    the summary, the lag-grid product
    ``A(a, b) = sum_{s,t} raw[s + a, t] raw[s, t + b]`` (raw zero outside
    the series; see ``lag_product``): the pair term's is A(h1, h2), the
    triple term's is A(h, b) summed over |b| <= M, and the quadruple
    term's is A summed over the (2M + 1) x (2M + 1) grid. Each A(a, b) is
    computed once per summary and orbit and stored, so a separation order
    pays only for the orbits its smaller orders did not reach. Each term
    then removes or adds the O(nM) entries near the diagonal that its index
    rules treat apart. Those entries are read from ``band``: the summary's
    diagonals ``raw[i, i + k]``, |k| <= 3M, as rows of a (6M + 1) x n
    array, zero where i + k falls outside the series, with their running
    sums over k.
    A sum of row i over any stretch of offsets is then a difference of two
    of those rows, so clipped windows at the series ends need no case of
    their own, and no term forms index pairs. The corrections are:

    - pair: the products on the forbidden diagonals, one ``einsum`` over
      rows of ``band``;
    - triple: one ``einsum`` over the band -2M <= t - s <= h + 2M that
      takes back the forbidden pairs and adds the r both windows exclude;
    - quadruple: the 4M + 1 middle diagonals of the window sums, where they
      differ from the masked Gram's (see ``quad_term``).

    No context forms an n x n array: ``band`` is O(nM) and the stored
    products are scalars. Each term's value and count is stored on the
    summary per M (``results``), so every context of one (summary, M)
    computes a term once.

    A Gram with leading axes (see ``prepare_global``) gives every array
    those axes too, and each term's value is then an array with one entry
    per Gram.
    """

    def __init__(self, gram: Summary, m: int):
        self.n = n = gram.n
        self.m = m
        self.gram = gram
        self.plan = _plan(n, m)
        self.row_sums = gram.row_sums
        self._band: tuple[np.ndarray, np.ndarray] | None = None

    def band(self) -> tuple[np.ndarray, np.ndarray]:
        """``(diag, prefix)``: the Gram's diagonals |k| <= 3M and their running sums.

        ``diag[3M + k, i] = raw[i, i + k]``, zero where i + k is outside
        [0, n); ``prefix[j]`` sums rows ``diag[:j]``, so
        ``prefix[3M + b + 1, i] - prefix[3M + a, i]`` sums raw[i, i + a:i + b + 1]
        clipped to the series. Built on first use from the summary's
        diagonals, O(nM).
        """
        if self._band is None:
            n, k_max = self.n, 3 * self.m
            lead = self.row_sums.shape[:-1]
            diag = np.zeros(lead + (2 * k_max + 1, n), dtype=np.float64)
            for k in range(min(k_max, n - 1) + 1):
                # raw is symmetric: diagonal -k is diagonal k moved k columns on
                values = self.gram.diagonal(k)
                diag[..., k_max + k, : n - k] = values
                diag[..., k_max - k, k:] = values
            prefix = np.zeros(lead + (2 * k_max + 2, n), dtype=np.float64)
            np.cumsum(diag, axis=-2, out=prefix[..., 1:, :])
            self._band = diag, prefix
        return self._band

    def lag_product(self, a: int, b: int) -> np.ndarray:
        """A(a, b) = sum over s, t of raw[s + a, t] * raw[s, t + b], raw zero outside.

        By the symmetry of the Gram A(a, b) = A(b, a), and shifting s and t
        gives A(a, b) = A(-a, -b). So the orbit {(a, b), (b, a), (-a, -b),
        (-b, -a)} shares one value, which the summary computes and stores
        once under its least member: it does not depend on M, and the
        (h + 1)^2 orbits of the lags |a|, |b| <= h serve every order up to h.
        """
        key = min((a, b), (b, a), (-a, -b), (-b, -a))
        return self.gram.stored(("lag",) + key, self.gram.lag_product, *key)

    def _box(self) -> np.ndarray:
        # A summed over |a|, |b| <= M, one ring max(|a|, |b|) = k at a time:
        # by the orbit symmetry the ring holds A(k, b), |b| < k, four times
        # and A(k, k) and A(k, -k) twice each
        box = self.lag_product(0, 0)
        for k in range(1, self.m + 1):
            inner = sum(self.lag_product(k, b) for b in range(1 - k, k))
            box = box + 4 * inner + 2 * self.lag_product(k, k) + 2 * self.lag_product(k, -k)
        return box

    def pair_term(self, h1: int, h2: int) -> tuple[float, int]:
        """sum of x_{t+h2}'x_s * x_{s+h1}'x_t over separated groups, with count.

        The groups {s, s+h1} and {t, t+h2} must be more than M apart
        elementwise; with d = s - t that forbids |d|, |d - h2|, |d + h1|
        and |d + h1 - h2| from being <= M.
        """
        return self.gram.stored(("pair", self.m, h1, h2), self._pair, h1, h2)

    def _pair(self, h1: int, h2: int) -> tuple[float, int]:
        plan = self.plan.pair(h1, h2)
        if plan.count == 0:
            return 0.0, 0
        n, k_max = self.n, 3 * self.m
        s0, s1 = max(0, -h1), min(n, n - h1)
        # on a forbidden d = s - t the factors are raw[s, s - d + h2] and
        # raw[s + h1, s - d], rows k_max + h2 - d and k_max - h1 - d of diag;
        # outside the grid one of them is zero
        diag = self.band()[0]
        a = k_max + h2 - plan.top
        b = k_max - h1 - plan.top
        forbidden = np.einsum(
            "...ij,...ij->...",
            diag[..., a : a + plan.width, s0:s1],
            diag[..., b : b + plan.width, s0 + h1 : s1 + h1],
        )
        return self.lag_product(h1, h2) - forbidden, plan.count

    def triple_term(self, h: int) -> tuple[float, int]:
        """sum of x_r'x_s * x_{s+h}'x_t over separated groups {r}, {s, s+h}, {t}.

        Swapping r <-> t and using the symmetry of the Gram maps the sum at
        -h onto the sum at h, with the same count, so each |h| is computed
        once per (Gram, M).
        """
        h = abs(h)
        return self.gram.stored(("triple", self.m, h), self._triple, h)

    def _triple(self, h: int) -> tuple[float, int]:
        # For each admissible (s, t) the inner r-sum is own[s], the row sum
        # of s outside the s-group's windows [lo[s], hi[s + h]), minus the
        # window sum ws[s, t] = sum(raw[s, lo[t]:hi[t]]), plus the part of
        # window t that the s-group's windows also exclude, which is
        # nonempty only on the bands -2M <= t - s < -M and
        # h + M < t - s <= h + 2M. The forbidden -M <= t - s <= h + M is
        # one band of diagonals. So the sum is the whole grid's,
        # own . rowsum - <raw[h:], ws> with <raw[h:], ws> = sum_b A(h, b),
        # corrected on the band -2M <= t - s <= h + 2M by one einsum with
        # weights per offset.
        count = self.plan.triple_count(h)
        if count == 0:
            return 0.0, 0
        n, m, k = self.n, self.m, 3 * self.m
        ns = n - h
        diag, prefix = self.band()
        pre = prefix[..., :ns]
        own = self.row_sums[..., :ns] - (pre[..., k + h + m + 1, :] - pre[..., k - m, :])
        windows = sum(self.lag_product(h, b) for b in range(-m, m + 1))
        full = _dot(own, self.row_sums[..., h:]) - windows
        # weight[j, s] for t - s = j - 2M; the outer factor raw[s + h, t] is
        # diag[k + t - s - h, s + h]
        weight = np.empty(own.shape[:-1] + (h + 4 * m + 1, ns), dtype=np.float64)
        # overlap left of the s-group: raw[s, lo[s]:hi[t]]
        np.subtract(pre[..., k - m + 1 : k + 1, :], pre[..., k - m, None, :], out=weight[..., :m, :])
        # forbidden: the pair was counted with own[s] - ws[s, t]; take it back
        forbidden = weight[..., m : h + 3 * m + 1, :]
        np.subtract(
            pre[..., k + 1 : k + h + 2 * m + 2, :], pre[..., k - 2 * m : k + h + 1, :], out=forbidden
        )
        forbidden -= own[..., None, :]
        # overlap right of the s-group: raw[s, lo[t]:hi[s + h]]
        np.subtract(
            pre[..., k + h + m + 1, None, :],
            pre[..., k + h + 1 : k + h + m + 1, :],
            out=weight[..., h + 3 * m + 1 :, :],
        )
        band = np.einsum("...ij,...ij->...", diag[..., k - 2 * m - h : k + 2 * m + 1, h:], weight)
        return full + band, count

    def quad_term(self) -> tuple[float, int]:
        """sum over pairwise-separated (q, r, s, t) of x_q'x_r * x_s'x_t.

        Sorted, such a tuple is four increasing values of [1, n - 3M]
        spread apart by M each, so there are 24 * C(n - 3M, 4) of them.

        With W the Gram masked to pairs more than M apart, each pair (q, r)
        admits the W mass outside F = win(q) u win(r) on both axes. With
        A = win(q), B = win(r) and O their overlap, 1_F = 1_A + 1_B - 1_O,
        so that mass is

            T - 2 (rho[q] + rho[r]) + kappa[q] + kappa[r] + 2 box[q, r]
              + 2 rows(O) - 2 W(A x O) - 2 W(B x O),

        where rows and T are W's row sums and total, rho and kappa its
        window row sums and window blocks, and box[q, r] = W(A x B); W is
        zero on O x O, whose indices are at most M apart. Summed against
        W[q, r], the box term is <W, box> = trace(V V), with
        V[i, r] = W(i, win(r)) the window sums of W. V equals the Gram's
        window sums ``ws`` off the 4M + 1 diagonals |i - r| <= 2M, and
        trace(ws ws) is the lag-grid product A summed over |a|, |b| <= M.
        So trace(V V) is that sum with the middle diagonals' products
        ws[i, r] ws[r, i] swapped for V[i, r] V[r, i]; both are
        differences of two rows of ``band``'s running sums (O(nM) entries),
        and no n x n array is formed. kappa sums V's 2M + 1 middle
        diagonals. O is nonempty only on the band M < |q - r| <= 2M, where
        W(A x O) and W(B x O) are sums of V's diagonals 1 <= |k| <= M and
        rows(O) a difference of W's row prefix, each weighted by sums of
        raw[q, r] over the band read from ``band``: O(nM) work in all.
        """
        return self.gram.stored(("quad", self.m), self._quad)

    def _quad(self) -> tuple[float, int]:
        plan = self.plan
        count = plan.quad_count
        if count == 0:
            return 0.0, 0
        n, m, k = self.n, self.m, 3 * self.m
        prefix = self.band()[1]
        # the Gram's window sum of row i over its own window, ws[i, i]
        own = prefix[..., k + m + 1, :] - prefix[..., k - m, :]
        rows = self.row_sums - own
        total = rows.sum(axis=-1)
        row_pre = np.zeros(rows.shape[:-1] + (n + 1,), dtype=np.float64)
        np.cumsum(rows, axis=-1, out=row_pre[..., 1:])
        rho = row_pre[..., plan.hi] - row_pre[..., plan.lo]
        kappa = np.zeros(rows.shape, dtype=np.float64)
        # on the middle diagonal V[i, i] = 0 and ws[i, i] = own[i]
        box = self._box() - _dot(own, own)
        # over the band M < r - q <= 2M: raw[q, r] (W(A x O) + W(B x O) - rows(O))
        overlap = 0.0
        for e in range(1, 2 * m + 1):
            # at column i < n - e: V[i, i + e] = raw[i, i + M + 1:i + M + e + 1]
            # and V[i + e, i] = raw[i + e, i - M:i + e - M], then the Gram's
            # ws[i, i + e] and ws[i + e, i]
            top, bottom = prefix[..., :, : n - e], prefix[..., :, e:]
            upper = top[..., k + m + 1 + e, :] - top[..., k + m + 1, :]
            lower = bottom[..., k - m, :] - bottom[..., k - m - e, :]
            mirrored = _dot(upper, lower)
            gram_pair = _dot(
                top[..., k + m + 1 + e, :] - top[..., k - m + e, :],
                bottom[..., k + m + 1 - e, :] - bottom[..., k - m - e, :],
            )
            # the pair at e and the pair at -e
            box = box + 2 * (mirrored - gram_pair)
            if e <= m:
                kappa[..., e:] += upper
                kappa[..., : n - e] += lower
                # the overlap weights V[i + e, i] by raw[i, i + M + 1:i + M + e + 1],
                # which is V[i, i + e], and V[i, i + e] by V[i + e, i]
                overlap += 2 * mirrored
        # rows(O) = row_pre[q + M + 1] - row_pre[r - M]
        reach = prefix[..., k + 2 * m + 1, : n - m - 1] - prefix[..., k + m + 1, : n - m - 1]
        overlap -= _dot(reach, row_pre[..., m + 1 : n])
        overlap += _dot(prefix[..., k - m, m:] - prefix[..., k - 2 * m, m:], row_pre[..., : n - m])
        out = total * total - 4 * _dot(rows, rho) + 2 * _dot(rows, kappa) + 2 * box - 4 * overlap
        return out, count


def _combine_terms(
    parts: tuple[tuple[float, int], ...], h1: int, h2: int
) -> float:
    names = ("pair", "first triple", "second triple", "quadruple")
    signs = (1.0, -1.0, -1.0, 1.0)
    est = 0.0
    for (value, count), sign, name in zip(parts, signs, names):
        if count == 0:
            raise EmptySumRange(
                f"{name} term of the trace-product estimator has no admissible "
                f"index tuples at (h1={h1}, h2={h2}); the series is too short "
                "for this separation"
            )
        est += sign * value / count
    return est


def trace_product_estimate(
    gram: Summary, h1: int, h2: int, window: DependenceWindow
) -> float:
    """Estimate tr{C(h1) C(h2)} from the raw inner products, mean not removed.

    Four averaged sums over index tuples more than M apart: the pair term
    carries the signal, the two triple terms remove first-moment
    contamination, and the quadruple term adds back the squared-mean mass.
    The estimate is unbiased for constant means but can be negative in
    finite samples.

    Raises ``EmptySumRange`` when any term has no admissible tuples.
    """
    m = window.m
    if abs(h1) > m or abs(h2) > m:
        raise IndexOutOfRange(f"lags ({h1}, {h2}) outside window M={m}")
    ctx = _SeparatedSums(gram, m)
    parts = (
        ctx.pair_term(h1, h2),
        ctx.triple_term(h1),
        ctx.triple_term(h2),
        ctx.quad_term(),
    )
    return float(_combine_terms(parts, h1, h2))


def build_trace_table(gram: Summary, window: DependenceWindow) -> TraceTable:
    """Fill the lag grid of trace-product estimates.

    Only canonical orbit representatives are computed; the mirrors
    (h2, h1) and (-h1, -h2) are copied, so the table is symmetric by
    construction. Shared sums are reused across the grid.

    The table is built once per (Gram, M), and its values are read-only.
    Its terms come from the same per-(Gram, M) store as those of
    ``trace_product_estimate``, so a table at an order the elbow probed
    reuses that probe's quadruple, triple and pair terms, and every term
    reads the Gram's stored lag-grid products, so a table at an order no
    larger than one the elbow probed computes none.
    """
    return gram.stored(("table", window.m), _trace_table, gram, window.m)


def _trace_table(gram: Summary, m: int) -> TraceTable:
    return TraceTable(m=m, values=_table_values(gram, m))


def _table_values(gram: Summary, m: int) -> np.ndarray:
    # the (2M + 1) x (2M + 1) grid, with the Gram's leading axes
    ctx = _SeparatedSums(gram, m)
    quad = ctx.quad_term()
    triples = [ctx.triple_term(h) for h in range(m + 1)]
    values = np.full(gram.row_sums.shape[:-1] + (2 * m + 1, 2 * m + 1), np.nan)
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            orbit = ((h1, h2), (h2, h1), (-h1, -h2), (-h2, -h1))
            if (h1, h2) != min(orbit):
                continue
            est = _combine_terms(
                (ctx.pair_term(h1, h2), triples[abs(h1)], triples[abs(h2)], quad),
                h1,
                h2,
            )
            for a, b in orbit:
                values[..., a + m, b + m] = est
    values.flags.writeable = False
    return values


def prepare_global(series: Sequence[SeriesMatrix], window: DependenceWindow) -> None:
    """Reduce series of one shape and take what their global tests read, in
    one stacked pass.

    Each series gets the summary that ``compute_gram`` would keep on it,
    and each summary the split curve and trace table at ``window`` that
    ``l_trace`` and ``build_trace_table`` would store on it; a later
    ``test_global`` of the series reads them. The R Grams are built into
    the slices of one (R, n, n) stack, which one ``GramSummary`` with a
    leading axis holds, and each series' ``GramSummary`` is a view of its
    slice. The curves and tables are computed over the whole stack; every
    Gram's results are those of the single-series calls, bit for bit.
    Narrow series hold no Gram to stack: each is summarized and takes its
    curve and table on its own, through those calls.

    Raises ``ValueError`` unless the series share one shape and none holds
    a Gram yet, ``DimensionTooSmall`` as ``validate_input`` does,
    ``NonFiniteEntry`` when a Gram overflows float64 and ``EmptySumRange``
    when a separated sum has no admissible tuples.
    """
    shape = series[0].values.shape
    if any(s.values.shape != shape or s._gram is not None for s in series):
        raise ValueError("prepare_global takes series of one shape that hold no Gram yet")
    validate_input(series[0], window)
    if _is_narrow(*shape):
        for s in series:
            gram = compute_gram(s)
            l_trace(gram, window)
            build_trace_table(gram, window)
        return
    m = window.m
    raw = np.empty((len(series), shape[0], shape[0]), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, out in zip(series, raw):
            _gram_product(s.values, out=out)
        stack = GramSummary.of(raw)
        _check_finite(stack)
        curves = _split_curve(stack, m)
        tables = _table_values(stack, m)
    for s, view, sums, curve, table in zip(series, stack.raw, stack.row_sums, curves, tables):
        gram = GramSummary(raw=view, row_sums=sums)
        gram.results[("l_trace", m)] = curve
        gram.results[("table", m)] = TraceTable(m=m, values=table)
        object.__setattr__(s, "_gram", gram)


def _contrast_rows(values, lo: int, hi: int, transposed: bool = False) -> np.ndarray:
    # rows lo:hi of the contrast B, or of B.T, C-ordered; B is an n x n array
    # or the closed form of the aggregate contrast
    if isinstance(values, _AggregateContrast):
        return values.rows(lo, hi, transposed)
    return np.ascontiguousarray((values.T if transposed else values)[lo:hi])


def _contrast_cross_products(values, m: int) -> np.ndarray:
    """For each lag pair, sum_{i,j} B(i,j) {B(i+h2, j-h1) + B(j-h1, i+h2)}.

    ``values`` is the n x n contrast B, or an ``_AggregateContrast``. B is
    read a row block at a time (``_row_blocks``): the block's rows with M
    rows either side, of B and of B.T, so no further n x n array is formed
    and B.T is read in row order. The sums depend only on B's entries, so the
    array and the closed form of one contrast give the same bits.
    """
    n = values.shape[0]
    out = np.zeros((2 * m + 1, 2 * m + 1), dtype=np.float64)
    for lo, hi in _row_blocks(n):
        e0, e1 = max(0, lo - m), min(n, hi + m)
        rows, cols = _contrast_rows(values, e0, e1), _contrast_rows(values, e0, e1, True)
        own = rows[lo - e0 : hi - e0]
        for h1 in range(-m, m + 1):
            for h2 in range(-m, m + 1):
                dr = lo - e0 + h2
                out[h1 + m, h2 + m] += _shift_dot(own, rows, dr, -h1) + _shift_dot(
                    own, cols, dr, -h1
                )
        del rows, cols, own  # before the next block is built
    return out


def _contrast_mass(values) -> float:
    # the sum of B's squared entries, a row block at a time
    mass = 0.0
    for lo, hi in _row_blocks(values.shape[0]):
        rows = _contrast_rows(values, lo, hi)
        mass += float(np.einsum("ij,ij->", rows, rows))
        del rows  # before the next block is built
    return mass


def _floored_variance(
    cross: np.ndarray, mass: float, table: TraceTable, n: int
) -> VarianceResult:
    value = float((cross * table.values).sum()) / float(n) ** 4
    if not np.isfinite(value):
        raise NonFiniteEntry(
            "the trace-product estimates overflow float64; rescale the series"
        )
    floor = 1e-12 * (mass / float(n) ** 4 + 1.0)
    if value <= floor:
        return VarianceResult(floor, True)
    return VarianceResult(value, False)


def variance_estimate(B: np.ndarray, table: TraceTable) -> VarianceResult:
    """Plug-in null variance of a split statistic (or of their sum).

    Pass the n x n contrast of one split (``b_matrix``) for a per-split
    variance, or the aggregate (``b_aggregate``) for the variance of the
    summed statistic; n is read from ``B`` and M from ``table``. Out-of-grid
    contrast lookups are zero; cost is O(n^2 M^2).

    The trace-product estimates can be negative in finite samples, so the
    result is floored at a tiny positive epsilon scaled by the contrast
    mass; a floored value is flagged degenerate rather than raised, and
    downstream tests report non-rejection.
    """
    cross = _contrast_cross_products(B, table.m)
    return _floored_variance(cross, _contrast_mass(B), table, B.shape[0])


def aggregate_variance(table: TraceTable, n: int) -> VarianceResult:
    """``variance_estimate(b_aggregate(n, DependenceWindow(table.m)), table)``.

    The contrast cross-products and mass come from the cached (n, M) plan,
    which builds them on the first call per (n, M); later calls cost
    O(M^2).
    """
    plan = _plan(n, table.m)
    return _floored_variance(plan.cross, plan.mass, table, n)
