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

from . import core
from .core import DependenceWindow, DimensionTooSmall, NonPositiveBaseline, SeriesMatrix
from .engine import _workspace, compute_gram, trace_product_estimate


# the orders run on core._WORKERS threads, as numpy releases the GIL in
# the O(n^2) passes of each order; below this length an order is too
# short for threads to pay for their start, their hand-offs of the GIL and
# the BLAS thread that still spins after the Gram product. Timed inside
# `hdcp detect --m auto` (p = 100, h_max = 10, 2-vCPU host, alternating
# calls, medians of 24-56), the elbow took on one and two threads:
# 0.020 and 0.023 s at n = 400, 0.040 and 0.041 s at n = 600, 0.056 and
# 0.053 s at n = 700, 0.067-0.072 and 0.063-0.073 s at n = 800
_THREADED_FROM_N = 600


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
            raise ValueError("lag-energy curve contains non-finite values")
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

    From n = ``_THREADED_FROM_N`` on, the orders run on ``core._WORKERS``
    threads (at most two), each with its own workspace, an n x n float64
    buffer; shorter series run them one after another in one workspace.
    Each order is computed the same way on either path, so the curve does
    not depend on the path.

    Raises ``DimensionTooSmall`` before any order is probed when
    n < 3 h_max + 4, where the deepest order's separated sums are empty.
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
    workers = core._WORKERS if gram.n >= _THREADED_FROM_N else 1
    # the orders share the Gram's lazily built members; build them here,
    # because functools.cached_property has no lock from Python 3.12 on
    gram.results, gram.row_prefix, gram.float_row_sums

    def probe(orders: range, work) -> list[float]:
        return [trace_product_estimate(gram, -h, h, DependenceWindow(h), work) for h in orders]

    # every order costs about the same O(n^2), so worker k takes the orders
    # k, k + workers, ... in its own workspace
    shares = [range(k, h_max + 1, workers) for k in range(workers)]
    spaces = [_workspace(gram.n) for _ in shares]
    if workers == 1:
        parts = [probe(shares[0], spaces[0])]
    else:
        # imported here, not at the top: with logging and queue it took
        # 7-9 ms of every start of hdcp on a 2-vCPU host
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(probe, shares, spaces))
    w = np.empty(h_max + 1, dtype=np.float64)
    for share, values in zip(shares, parts):
        w[share.start :: workers] = values
    return LagEnergyCurve(h_max=h_max, w_hat=w)


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
