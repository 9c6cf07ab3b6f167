"""Data-driven choice of the dependence order M.

Serial dependence at lag h leaves energy in tr{C(h) C(h)'}. The curve of
those estimates collapses once h passes the true order, so M is read off
as the last lag before the collapse. The visual elbow is automated as a
relative-drop rule against the lag-zero energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DependenceWindow,
    DimensionTooSmall,
    NonFiniteEntry,
    NonPositiveBaseline,
    SeriesMatrix,
)
from .engine import compute_gram, trace_product_estimate


@dataclass(frozen=True)
class LagEnergyCurve:
    """Estimated lag-energy values for h = 0..h_max."""

    h_max: int
    w_hat: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w_hat, dtype=np.float64)
        if w.shape != (self.h_max + 1,):
            raise ValueError(f"curve length {w.shape} does not match h_max={self.h_max}")
        if not np.isfinite(w).all():
            # from a finite Gram only float64 overflow in the separated sums
            # gets here
            raise NonFiniteEntry(
                "lag-energy curve contains non-finite values: the separated sums "
                "overflow float64; rescale the series"
            )
        object.__setattr__(self, "w_hat", w)


@dataclass(frozen=True)
class SelectedOrder:
    """Chosen order plus a flag set when the probe range never collapsed."""

    value: int
    saturated: bool


def default_h_max(n: int) -> int:
    """Probe depth min(10, floor(sqrt(n)), (n - 4) // 3).

    Orders beyond sqrt(n) are unstable, and the quadruple term at order h
    needs four indices pairwise more than h apart, so n >= 3h + 4 keeps
    every separated sum of the curve non-empty.
    """
    return min(10, int(math.isqrt(n)), (n - 4) // 3)


def lag_energy_curve(series: SeriesMatrix, h_max: int) -> LagEnergyCurve:
    """Estimate tr{C(h) C(h)'} for h = 0..h_max.

    Each lag h is probed with the trace-product estimator at lag pair
    (-h, h), the member of its orbit that ``build_trace_table`` computes,
    using separation order h itself: while h is still a candidate order,
    nearer index pairs cannot be trusted to be independent.

    The orders run one after another. Each forms one n x n float64 array,
    its window sums, which is freed before the next order starts.

    Raises ``DimensionTooSmall`` before any order is probed when
    n < 3 h_max + 4, where the deepest order's separated sums are empty,
    and ``NonFiniteEntry`` when the separated sums overflow float64.
    """
    if h_max < 0:
        raise ValueError(f"h_max must be nonnegative, got {h_max}")
    n = series.n
    if n < 3 * h_max + 4:
        raise DimensionTooSmall(
            f"n={n} too small for h_max={h_max} (needs n >= 3 h_max + 4, "
            f"so h_max <= {(n - 4) // 3})"
        )
    gram = compute_gram(series)
    w = [trace_product_estimate(gram, -h, h, DependenceWindow(h)) for h in range(h_max + 1)]
    return LagEnergyCurve(h_max=h_max, w_hat=np.array(w))


def select_m(curve: LagEnergyCurve, drop_ratio: float = 0.02) -> SelectedOrder:
    """Pick the smallest order after which the curve falls below
    ``drop_ratio`` times the lag-zero energy.

    Returns ``h_max`` with ``saturated=True`` when no lag in range collapses.
    Larger ratios never select a larger order.
    """
    if not 0.0 < drop_ratio < 1.0:
        raise ValueError(f"drop_ratio must be in (0, 1), got {drop_ratio}")
    w = curve.w_hat
    if w[0] <= 0.0:
        raise NonPositiveBaseline(f"lag-zero energy estimate {w[0]} is not positive")
    threshold = drop_ratio * w[0]
    for h in range(curve.h_max):
        if w[h + 1] < threshold:
            return SelectedOrder(value=h, saturated=False)
    return SelectedOrder(value=curve.h_max, saturated=True)
