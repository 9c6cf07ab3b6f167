"""Hypothesis tests, change point location, and binary segmentation.

The global test sums the per-split statistics over every candidate split,
normalizes by a plug-in null variance, and compares to an upper normal
quantile. When it rejects, the change point is located at the argmax of the
per-split curve, and multiple change points are found by recursing on the
two halves with every statistic recomputed from the half's own data.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    ChangePointSet,
    DependenceWindow,
    DimensionTooSmall,
    EmptySumRange,
    IndexOutOfRange,
    Segment,
    SegmentRecord,
    SeriesMatrix,
    Summary,
    TestOutcome,
    validate_input,
)
from .engine import (
    aggregate_variance,
    b_matrix,
    build_trace_table,
    compute_gram,
    l_trace,
    variance_estimate,
)


@dataclass(frozen=True)
class InferenceConfig:
    """Tuning of the tests and the segmentation recursion.

    The per-segment level is ``alpha``, or 1 / (n log n) when ``fwer_mode``
    is set, which keeps the family-wise error rate controlled.
    ``min_segment_len`` defaults to max(4, 2(M + 2)), the shortest segment
    every statistic is defined on.
    """

    alpha: float = 0.05
    min_segment_len: Optional[int] = None
    fwer_mode: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def segment_alpha(self, n: int) -> float:
        if self.fwer_mode:
            return 1.0 / (n * math.log(n))
        return self.alpha

    def segment_min_length(self, window: DependenceWindow) -> int:
        floor = window.min_length()
        if self.min_segment_len is None:
            return max(4, floor)
        if self.min_segment_len < floor:
            raise DimensionTooSmall(
                f"min_segment_len={self.min_segment_len} below the feasibility "
                f"floor 2(M+2)={floor}"
            )
        return self.min_segment_len


def _outcome_from(statistic: float, variance: float, degenerate: bool, alpha: float) -> TestOutcome:
    z = statistic / math.sqrt(variance)
    pvalue = 0.5 * math.erfc(z * math.sqrt(0.5))  # standard normal upper tail
    reject = (not degenerate) and z > -statistics.NormalDist().inv_cdf(alpha)
    return TestOutcome(
        statistic=float(statistic),
        variance=float(variance),
        zscore=float(z),
        pvalue=pvalue,
        reject=reject,
        degenerate=degenerate,
    )


def _global_test_core(
    gram: Summary, window: DependenceWindow, alpha: float
) -> tuple[TestOutcome, np.ndarray]:
    curve = l_trace(gram, window)
    statistic = math.fsum(curve.tolist())
    table = build_trace_table(gram, window)
    var = aggregate_variance(table, gram.n)
    return _outcome_from(statistic, var.value, var.degenerate, alpha), curve


def test_global(
    series: SeriesMatrix, window: DependenceWindow, cfg: InferenceConfig
) -> TestOutcome:
    """Test for any mean change, aggregating all candidate splits.

    Rejects when the summed statistic exceeds its estimated null standard
    deviation times the upper alpha normal quantile. A degenerate (floored)
    variance never rejects.
    """
    validate_input(series, window)
    gram = compute_gram(series)
    outcome, _ = _global_test_core(gram, window, cfg.alpha)
    return outcome


def test_at(
    series: SeriesMatrix, t: int, window: DependenceWindow, cfg: InferenceConfig
) -> TestOutcome:
    """Test the mean contrast at one fixed split t, 1 <= t <= n - 1.

    Exposed for diagnostics: the z-scores are asymptotically standard
    normal at every split, including t = 1 and t = n - 1.
    """
    validate_input(series, window)
    n = series.n
    if not 1 <= t <= n - 1:
        raise IndexOutOfRange(f"split t={t} outside [1, {n - 1}]")
    gram = compute_gram(series)
    statistic = float(l_trace(gram, window)[t - 1])
    table = build_trace_table(gram, window)
    var = variance_estimate(b_matrix(n, t, window), table)
    return _outcome_from(statistic, var.value, var.degenerate, cfg.alpha)


def estimate_single(series: SeriesMatrix, window: DependenceWindow) -> int:
    """Location estimate: argmax of the per-split curve, smallest t on ties.

    A curve that is zero up to rounding (constant series) counts as an
    exact tie everywhere, so the smallest split is returned.
    """
    validate_input(series, window)
    gram = compute_gram(series)
    curve = l_trace(gram, window)
    noise_floor = 1e-12 * (gram.diagonal(0).sum() / gram.n + 1.0)
    if np.abs(curve).max() <= noise_floor:
        return 1
    return int(np.argmax(curve)) + 1


def binary_segmentation(
    series: SeriesMatrix, window: DependenceWindow, cfg: InferenceConfig
) -> ChangePointSet:
    """Recursive test-and-split search for multiple change points.

    Each pending segment is tested with the aggregated statistic computed
    from the segment's own data (inner products, centering, lag sums and
    trace products are all segment-local). A rejecting segment is split at
    its local argmax and both halves are revisited; recursion stops when no
    segment rejects or segments fall under the minimum length. Segments too
    short to test, and segments where the separated sums are infeasible,
    are recorded in the trace as skipped.

    The root segment is the series itself, so it shares the series' Gram
    and any curve and trace table already computed at this order. The
    root is reduced first, so every other segment's Gram is cut from that
    Gram with the segment, and the p columns are read once.
    """
    validate_input(series, window)
    n = series.n
    alpha_seg = cfg.segment_alpha(n)
    min_len = cfg.segment_min_length(window)

    points: list[int] = []
    records: list[SegmentRecord] = []
    stack: list[tuple[int, int]] = [(1, n)]
    while stack:
        lo, hi = stack.pop()
        seg = Segment(lo, hi)
        if seg.length < min_len:
            records.append(SegmentRecord(seg, "skipped_short"))
            continue
        sub = series.segment_view(lo, hi)
        try:
            gram = compute_gram(sub)
            outcome, curve = _global_test_core(gram, window, alpha_seg)
        except EmptySumRange:
            records.append(SegmentRecord(seg, "skipped_infeasible"))
            continue
        split_at = lo - 1 + (int(np.argmax(curve)) + 1)
        if outcome.degenerate:
            records.append(SegmentRecord(seg, "degenerate", outcome, split_at))
        elif outcome.reject:
            records.append(SegmentRecord(seg, "split", outcome, split_at))
            points.append(split_at)
            stack.append((split_at + 1, hi))
            stack.append((lo, split_at))
        else:
            records.append(SegmentRecord(seg, "no_reject", outcome, split_at))
    return ChangePointSet(tuple(sorted(points)), tuple(records))


def classify_errors(
    estimated: ChangePointSet | Iterable[int],
    truth: Sequence[int],
    tolerance_pts: int = 0,
) -> tuple[int, int, int]:
    """Count (FP, FN, TP) by greedy nearest one-to-one matching.

    An estimate matches an unmatched true point within ``tolerance_pts``;
    pairs are taken closest first. Unmatched estimates are false positives,
    unmatched truths false negatives. Always satisfies FP + TP = number of
    estimates and FN + TP = number of truths.
    """
    est = list(estimated.points) if isinstance(estimated, ChangePointSet) else list(estimated)
    truths = list(truth)
    if sorted(set(truths)) != truths:
        raise ValueError("truth must be sorted and distinct")
    candidates = sorted(
        (abs(e - t), ei, ti)
        for ei, e in enumerate(est)
        for ti, t in enumerate(truths)
        if abs(e - t) <= tolerance_pts
    )
    used_e: set[int] = set()
    used_t: set[int] = set()
    tp = 0
    for _, ei, ti in candidates:
        if ei in used_e or ti in used_t:
            continue
        used_e.add(ei)
        used_t.add(ti)
        tp += 1
    return len(est) - tp, len(truths) - tp, tp
