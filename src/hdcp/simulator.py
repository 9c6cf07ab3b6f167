"""Seeded synthetic data and experiment runners.

Data come from a multivariate linear process: each observation adds a mean
vector to a moving average of i.i.d. innovations over lags 0..M+2, with
banded Toeplitz coefficient matrices and, for M > 0, a pair of small sparse
perturbation matrices at the last two lags. Innovations are drawn for a
pre-sample window so the first observation is already stationary.

Every runner is a pure function of its design and master seed:
per-replication generators are derived counter-style, so serial and
parallel executions agree bit for bit.

The size/power runner takes its replications in chunks of ``_CHUNK``,
cut from the replication index: chunk k holds replications
k R .. k R + R - 1, and the last may be shorter. A chunk draws its R series,
takes their Grams, split curves and trace tables in one stacked engine
pass (``engine.prepare_global``), then runs ``test_global`` on each
series, which reads what the pass stored. Worker processes take whole
chunks, so the chunks, and with them the results, are the same for any
``HDCP_WORKERS``; each outcome also equals that of the series tested
alone.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Literal, Optional

import numpy as np

from .core import DependenceWindow, SeriesMatrix, TestOutcome
from .engine import prepare_global
from .inference import InferenceConfig, binary_segmentation, classify_errors, estimate_single, test_global
from .selector import LagEnergyCurve, lag_energy_curve, select_m

# Seed-stream tags: coefficients, mean pattern, innovations.
_STREAM_COEFF = 0
_STREAM_MEANS = 1
_STREAM_INNOV = 2


def _rng(entropy, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(stream,)))


@dataclass(frozen=True, kw_only=True)
class ProcessParams:
    """Linear-process parameters shared by every simulation design.

    The one list of the process keys of an ``hdcp simulate`` config, with
    their defaults; invalid values raise ``ValueError`` at construction.
    The config keys of a design (see ``DESIGNS``) are its dataclass fields:
    a field is required when it has no default, and a field whose
    ``metadata["key"]`` is set is read from that key instead of its name.

    - ``n``, ``p`` (required): length and dimension of each series;
    - ``rho`` (0.6): Toeplitz coefficient decay rho^|i-j|, in (0, 1);
    - ``perturb_sparsity`` (0.05): share of nonzero entries per row of the
      sparse matrix at the two trailing lags, in [0, 1];
    - ``perturb_scale`` (0.05): upper end of those entries' uniform draws,
      finite and nonnegative, and small enough that p (nnz scale)^2, with
      nnz = floor(perturb_sparsity p) entries per row, is finite: above
      that even unit innovations overflow the Gram;
    - ``innovation`` ("gaussian"): or "student_t", scaled to unit variance;
    - ``t_dof`` (8.0): Student-t degrees of freedom, finite and above 2;
    - ``seed`` (0): nonnegative master seed of every random stream.
    """

    n: int
    p: int
    rho: float = 0.6
    perturb_sparsity: float = 0.05
    perturb_scale: float = 0.05
    innovation: Literal["gaussian", "student_t"] = "gaussian"
    t_dof: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be positive, got n={self.n}, p={self.p}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 <= self.perturb_sparsity <= 1.0:
            raise ValueError("perturb_sparsity must be in [0, 1]")
        if not 0.0 <= self.perturb_scale < math.inf:
            raise ValueError(
                f"perturb_scale must be finite and nonnegative, got {self.perturb_scale}"
            )
        row_mass = math.floor(self.perturb_sparsity * self.p) * self.perturb_scale
        if not math.isfinite(self.p * row_mass * row_mass):
            raise ValueError(
                f"perturb_scale {self.perturb_scale} is too large for p = {self.p}: "
                "p (floor(perturb_sparsity p) perturb_scale)^2 would overflow float64"
            )
        if self.innovation not in ("gaussian", "student_t"):
            raise ValueError(f"unknown innovation {self.innovation!r}")
        if self.innovation == "student_t" and not 2.0 < self.t_dof < math.inf:
            raise ValueError(f"student_t innovations need a finite t_dof > 2, got {self.t_dof}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, kw_only=True)
class LinearProcessSpec(ProcessParams):
    """A process with ``m_true``, the dependence order of the generator
    (the analysis window may use a different order)."""

    m_true: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.m_true < 0:
            raise ValueError(f"m_true must be nonnegative, got {self.m_true}")


@dataclass(frozen=True)
class MeanProfile:
    """Piecewise-constant mean description.

    ``deltas`` has one magnitude per regime (len(change_points) + 1
    entries); the mean of regime k is ``deltas[k]`` times a sparse sign
    pattern on ``support_size`` coordinates (default floor(p^0.7)) drawn
    without replacement. Each regime draws its own support and signs from
    the ``sign_seed`` stream, so distinct nonzero regimes are nearly
    orthogonal mean vectors. Every magnitude must be finite, and
    ``check_within`` also bounds it by the dimension.
    """

    change_points: tuple[int, ...] = ()
    deltas: tuple[float, ...] = (0.0,)
    support_size: Optional[int] = None
    sign_seed: int = 0

    def __post_init__(self) -> None:
        cps = tuple(int(c) for c in self.change_points)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("change points must be strictly increasing")
        if len(self.deltas) != len(cps) + 1:
            raise ValueError(
                f"need {len(cps) + 1} regime deltas for {len(cps)} change points, "
                f"got {len(self.deltas)}"
            )
        deltas = tuple(float(d) for d in self.deltas)
        if not all(math.isfinite(d) for d in deltas):
            raise ValueError(f"regime deltas must be finite, got {deltas}")
        object.__setattr__(self, "change_points", cps)
        object.__setattr__(self, "deltas", deltas)

    def check_within(self, n: int, p: int) -> None:
        """Raise ``ValueError`` unless the profile fits a series of n x p:
        every change point in 1..n - 1, and p delta^2 finite for every
        regime magnitude delta, since a larger mean overflows the Gram."""
        for cp in self.change_points:
            if not 1 <= cp <= n - 1:
                raise ValueError(f"change point {cp} outside {{1, ..., {n - 1}}}")
        for delta in self.deltas:
            if not math.isfinite(p * delta * delta):
                raise ValueError(
                    f"regime magnitude {delta} is too large for p = {p}: "
                    "p delta^2 would overflow float64"
                )


def null_profile() -> MeanProfile:
    return MeanProfile()


def single_change_profile(tau: int, delta: float, sign_seed: int = 0,
                          support_size: Optional[int] = None) -> MeanProfile:
    return MeanProfile((tau,), (0.0, delta), support_size, sign_seed)


def mean_matrix(profile: Optional[MeanProfile], n: int, p: int) -> np.ndarray:
    """Materialize the n x p mean matrix of a profile."""
    means = np.zeros((n, p), dtype=np.float64)
    if profile is None or all(d == 0.0 for d in profile.deltas):
        return means
    profile.check_within(n, p)
    size = profile.support_size
    if size is None:
        size = int(math.floor(p**0.7))
    size = max(1, min(size, p))
    rng = _rng(profile.sign_seed, _STREAM_MEANS)
    bounds = (0,) + profile.change_points + (n,)
    for k, delta in enumerate(profile.deltas):
        # one pattern per regime, drawn unconditionally to keep the
        # stream aligned whatever the delta values are
        support = rng.choice(p, size=size, replace=False)
        signs = rng.choice(np.array([-1.0, 1.0]), size=size)
        pattern = np.zeros(p, dtype=np.float64)
        pattern[support] = signs
        means[bounds[k] : bounds[k + 1], :] = delta * pattern
    return means


@dataclass
class OracleModel:
    """Exactly known generating process: coefficient matrices and means.

    ``groups`` holds each distinct coefficient matrix once, as
    ``(matrix, ((lag, divisor), ...))``: lag l's coefficient is the matrix
    divided by the divisor, and a lag in no group has a zero coefficient.
    The generator takes one product per group. ``lag_support``, m_true + 2,
    is the largest lag a group may name: the generator draws that many
    pre-sample innovations, and the process's autocovariances vanish
    beyond it.
    """

    n: int
    p: int
    m_true: int
    means: np.ndarray
    groups: tuple[tuple[np.ndarray, tuple[tuple[int, int], ...]], ...]

    @property
    def lag_support(self) -> int:
        return self.m_true + 2


def build_coefficients(
    spec: LinearProcessSpec, profile: Optional[MeanProfile] = None
) -> OracleModel:
    """Construct the coefficient matrices and means.

    Lags 0..m_true get the Toeplitz matrices rho^|i-j| / (m_true - l + 1);
    the two trailing lags share one sparse random matrix (zero when
    m_true = 0, which makes the sequence independent). Each row of the
    sparse matrix draws its own support. The model holds rho^|i-j| and,
    for m_true > 0, the sparse matrix, each once, in two groups:
    rho^|i-j| with divisors m_true + 1 .. 1, and the sparse matrix with
    divisor 1 at both trailing lags.
    """
    p, m = spec.p, spec.m_true
    decay = spec.rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    groups = [(decay, tuple((l, m - l + 1) for l in range(m + 1)))]
    if m > 0:
        rng = _rng(spec.seed, _STREAM_COEFF)
        nnz = int(math.floor(spec.perturb_sparsity * p))
        perturb = np.zeros((p, p))
        if nnz > 0:
            for row in range(p):
                cols = rng.choice(p, size=nnz, replace=False)
                perturb[row, cols] = rng.uniform(0.0, spec.perturb_scale, size=nnz)
        groups.append((perturb, ((m + 1, 1), (m + 2, 1))))
    means = mean_matrix(profile, spec.n, spec.p)
    return OracleModel(n=spec.n, p=spec.p, m_true=m, means=means, groups=tuple(groups))


def generate_series(
    spec: LinearProcessSpec,
    profile: Optional[MeanProfile] = None,
    *,
    model: Optional[OracleModel] = None,
    seed=None,
) -> SeriesMatrix:
    """Draw one series from the linear process.

    Innovations are indexed from 1 - (m_true + 2) so the first observation
    is exactly stationary. Each of the model's groups sums its lags'
    innovation rows, divided by their divisors, and takes one n x p by
    p x p product: two per series for a model of ``build_coefficients``
    with m_true > 0, one at m_true = 0. ``model`` lets runners reuse fixed
    coefficients across replications while ``seed`` (any SeedSequence
    entropy) varies only the innovations; both default to the pure-spec
    behavior. A given ``model`` supplies the means, so it must match
    ``spec``'s (n, p) and, when ``profile`` is passed too, that profile's
    mean matrix; otherwise ``ValueError`` is raised.

    The means are added into the first product's array, which the series
    then holds itself (``SeriesMatrix._adopt``), so no n x p array is
    copied.
    """
    if model is None:
        model = build_coefficients(spec, profile)
    elif (spec.n, spec.p) != (model.n, model.p):
        raise ValueError(
            f"spec has (n, p) = ({spec.n}, {spec.p}) but the model was built "
            f"for ({model.n}, {model.p})"
        )
    elif profile is not None and not np.array_equal(
        mean_matrix(profile, spec.n, spec.p), model.means
    ):
        raise ValueError("profile's mean matrix differs from the model's means")
    burn = model.lag_support
    eps = _innovations(spec, spec.n + burn, spec.seed if seed is None else seed)

    def rows(lag: int) -> np.ndarray:
        return eps[burn - lag : burn - lag + spec.n]

    x = None
    for q, lags in model.groups:
        (l, d), *rest = lags
        # a lone lag of divisor 1 is used as drawn, so its product is eps @ q.T;
        # otherwise the sum starts from a new array and grows in place
        summed = rows(l) if not rest and d == 1 else rows(l) / d
        for l, d in rest:
            summed += rows(l) if d == 1 else rows(l) / d
        product = summed @ q.T
        if x is None:  # the first product's array becomes the series
            x = np.add(model.means, product, out=product)
        else:
            x += product
    if x is None:  # a model without coefficient groups is its means
        x = model.means.copy()
    return SeriesMatrix._adopt(x)  # x is this call's own array


def _innovations(spec: ProcessParams, rows: int, seed) -> np.ndarray:
    """``rows`` x p unit-variance innovations of ``spec``'s law, from ``seed``."""
    rng = _rng(seed, _STREAM_INNOV)
    shape = (rows, spec.p)
    if spec.innovation == "gaussian":
        return rng.standard_normal(shape)
    return rng.standard_t(spec.t_dof, size=shape) / math.sqrt(spec.t_dof / (spec.t_dof - 2.0))


# ---------------------------------------------------------------------------
# Monte Carlo runners. Workers read the payload that _map_replications sets
# for the run; HDCP_WORKERS > 1 switches on a fork-based process pool, whose
# workers inherit it.
# ---------------------------------------------------------------------------

_PAYLOAD = None
# replications of a size/power chunk, whose Grams, split curves and trace
# tables take one stacked pass (engine.prepare_global). At Table 1's shape
# (n = 100, p = 200, M = 2) the rate levels off from 4: 364, 430, 512 and
# 494 reps/s at 1, 2, 4 and 8 (medians of 8 interleaved rounds on 2 vCPUs,
# two generator products per replication), and each replication of a
# chunk adds 0.42 MB to the traced peak
_CHUNK = 4


def worker_count() -> int:
    """Worker processes from ``HDCP_WORKERS`` (default 1).

    Raises ``ValueError`` unless the variable is a positive integer.
    """
    raw = os.environ.get("HDCP_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HDCP_WORKERS must be a positive integer, got {raw!r}")
    return workers


def _map_replications(worker, tasks, payload):
    global _PAYLOAD
    # no more processes than tasks, and none for a single task
    workers = min(worker_count(), len(tasks))
    _PAYLOAD = payload
    try:
        if workers <= 1:
            return [worker(task) for task in tasks]
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(worker, tasks)
    finally:
        _PAYLOAD = None


def _binomial_se(rate: float, reps: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / reps)


def _check_run(reps: int, name: str, order: int, n: int, min_n: int) -> None:
    """Shared design checks: reps >= 1, and 0 <= order with n >= min_n."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if order < 0:
        raise ValueError(f"{name} must be nonnegative, got {order}")
    if n < min_n:
        raise ValueError(f"n={n} too short for {name}={order} (needs n >= {min_n})")


@dataclass(frozen=True, kw_only=True)
class SizePowerDesign(LinearProcessSpec):
    """One cell of a size/power experiment.

    ``delta = 0`` runs the null; otherwise a single change of magnitude
    ``delta`` sits at ``tau``. ``m_used`` is the analysis window and may
    deliberately differ from ``m_true``; the global test needs
    n >= 3 m_used + 4.
    """

    m_used: int
    reps: int
    alpha: float = 0.05
    delta: float = 0.0
    tau: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_run(self.reps, "m_used", self.m_used, self.n, 3 * self.m_used + 4)
        self.inference_config()  # checks alpha
        self.profile().check_within(self.n, self.p)

    def inference_config(self) -> InferenceConfig:
        return InferenceConfig(alpha=self.alpha)

    def profile(self) -> MeanProfile:
        if self.delta == 0.0:
            return null_profile()
        if self.tau is None:
            raise ValueError("tau is required when delta != 0")
        return single_change_profile(self.tau, self.delta, sign_seed=self.seed)


@dataclass(frozen=True)
class SizePowerResult:
    design: SizePowerDesign
    rejection_rate: float
    std_error: float
    degenerate_count: int

    def to_dict(self) -> dict:
        return {
            "design": asdict(self.design),
            "rejection_rate": self.rejection_rate,
            "std_error": self.std_error,
            "degenerate_count": self.degenerate_count,
        }

    def summary_lines(self) -> list[str]:
        return [
            f"rejection rate {self.rejection_rate:.4f} "
            f"(se {self.std_error:.4f}, reps {self.design.reps})"
        ]


def _size_power_chunk(start: int) -> list[TestOutcome]:
    design, model, cfg = _PAYLOAD
    window = DependenceWindow(design.m_used)
    series = [
        generate_series(design, model=model, seed=[design.seed, rep])
        for rep in range(start, min(start + _CHUNK, design.reps))
    ]
    prepare_global(series, window)
    return [test_global(s, window, cfg) for s in series]


def _size_power_outcomes(design: SizePowerDesign) -> list[TestOutcome]:
    model = build_coefficients(design, design.profile())
    chunks = _map_replications(
        _size_power_chunk,
        range(0, design.reps, _CHUNK),
        (design, model, design.inference_config()),
    )
    return [outcome for chunk in chunks for outcome in chunk]


def run_size_power(design: SizePowerDesign) -> SizePowerResult:
    """Rejection rate of the global test over seeded replications."""
    outcomes = _size_power_outcomes(design)
    rate = float(np.array([o.reject for o in outcomes], dtype=bool).mean())
    return SizePowerResult(
        design=design,
        rejection_rate=rate,
        std_error=_binomial_se(rate, design.reps),
        degenerate_count=sum(o.degenerate for o in outcomes),
    )


@dataclass(frozen=True, kw_only=True)
class MultiCpDesign(LinearProcessSpec):
    """Binary segmentation experiment with a piecewise-constant mean."""

    m_used: int
    reps: int
    change_points: tuple[int, ...] = ()
    deltas: tuple[float, ...] = (0.0,)
    alpha: float = 0.05
    fwer_mode: bool = field(default=False, metadata={"key": "fwer"})
    tolerance_pts: int = 0
    min_segment_len: Optional[int] = field(default=None, metadata={"key": "min_seg"})

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_run(self.reps, "m_used", self.m_used, self.n, 2 * self.m_used + 4)
        if self.tolerance_pts < 0:
            raise ValueError(f"tolerance_pts must be nonnegative, got {self.tolerance_pts}")
        self.inference_config().segment_min_length(DependenceWindow(self.m_used))
        self.profile().check_within(self.n, self.p)

    def inference_config(self) -> InferenceConfig:
        return InferenceConfig(
            alpha=self.alpha,
            fwer_mode=self.fwer_mode,
            min_segment_len=self.min_segment_len,
        )

    def profile(self) -> MeanProfile:
        return MeanProfile(self.change_points, self.deltas, sign_seed=self.seed)


@dataclass(frozen=True)
class MultiCpResult:
    design: MultiCpDesign
    fp_mean: float
    fp_sd: float
    fn_mean: float
    fn_sd: float
    tp_mean: float
    tp_sd: float

    def to_dict(self) -> dict:
        return {
            "design": asdict(self.design),
            "fp": {"mean": self.fp_mean, "sd": self.fp_sd},
            "fn": {"mean": self.fn_mean, "sd": self.fn_sd},
            "tp": {"mean": self.tp_mean, "sd": self.tp_sd},
        }

    def summary_lines(self) -> list[str]:
        return [
            f"FP {self.fp_mean:.3f} (sd {self.fp_sd:.3f})",
            f"FN {self.fn_mean:.3f} (sd {self.fn_sd:.3f})",
            f"TP {self.tp_mean:.3f} (sd {self.tp_sd:.3f})",
        ]


def _multi_cp_rep(rep: int):
    design, model, cfg = _PAYLOAD
    series = generate_series(design, model=model, seed=[design.seed, rep])
    found = binary_segmentation(series, DependenceWindow(design.m_used), cfg)
    return classify_errors(found, list(design.change_points), design.tolerance_pts)


def run_multi_cp(design: MultiCpDesign) -> MultiCpResult:
    """Mean and standard deviation of (FP, FN, TP) over replications."""
    model = build_coefficients(design, design.profile())
    rows = np.array(
        _map_replications(
            _multi_cp_rep, range(design.reps), (design, model, design.inference_config())
        ),
        dtype=np.float64,
    )
    ddof = 1 if design.reps > 1 else 0
    means = rows.mean(axis=0)
    sds = rows.std(axis=0, ddof=ddof)
    return MultiCpResult(
        design=design,
        fp_mean=float(means[0]), fp_sd=float(sds[0]),
        fn_mean=float(means[1]), fn_sd=float(sds[1]),
        tp_mean=float(means[2]), tp_sd=float(sds[2]),
    )


@dataclass(frozen=True, kw_only=True)
class BoundaryDesign(LinearProcessSpec):
    """Detection-probability sweep for a single change at a fixed location."""

    m_used: int
    tau: int
    deltas: tuple[float, ...]
    reps: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_run(self.reps, "m_used", self.m_used, self.n, 2 * self.m_used + 4)
        if not self.deltas:
            raise ValueError("deltas needs at least one value")
        for delta in self.deltas:
            single_change_profile(self.tau, delta).check_within(self.n, self.p)


@dataclass(frozen=True)
class BoundaryResult:
    design: BoundaryDesign
    probabilities: tuple[float, ...]
    std_errors: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "design": asdict(self.design),
            "deltas": list(self.design.deltas),
            "detection_probability": list(self.probabilities),
            "std_error": list(self.std_errors),
        }

    def summary_lines(self) -> list[str]:
        return [
            f"delta {d:g}: detection {pr:.3f} (se {se:.3f})"
            for d, pr, se in zip(self.design.deltas, self.probabilities, self.std_errors)
        ]


def _boundary_rep(task: tuple[int, int]):
    delta_index, rep = task
    design, models = _PAYLOAD
    series = generate_series(
        design, model=models[delta_index], seed=[design.seed, delta_index, rep]
    )
    return estimate_single(series, DependenceWindow(design.m_used)) == design.tau


def run_boundary_curve(design: BoundaryDesign) -> BoundaryResult:
    """Probability that the argmax estimator hits the change point exactly."""
    models = [
        build_coefficients(design, single_change_profile(design.tau, d, sign_seed=design.seed))
        for d in design.deltas
    ]
    tasks = [(di, rep) for di in range(len(design.deltas)) for rep in range(design.reps)]
    hits = _map_replications(_boundary_rep, tasks, (design, models))
    hits = np.array(hits, dtype=bool).reshape(len(design.deltas), design.reps)
    probs = hits.mean(axis=1)
    return BoundaryResult(
        design=design,
        probabilities=tuple(float(pr) for pr in probs),
        std_errors=tuple(_binomial_se(float(pr), design.reps) for pr in probs),
    )


@dataclass(frozen=True, kw_only=True)
class ElbowDesign(ProcessParams):
    """Lag-energy curves and order recovery for one or more true orders.

    The curves probe h = 0..h_max, which needs n >= 3 h_max + 4. Without
    ``deltas`` every regime between the change points has mean zero.
    """

    m_true_values: tuple[int, ...] = field(metadata={"key": "m_true"})
    reps: int
    h_max: int
    drop_ratio: float = 0.02
    change_points: tuple[int, ...] = ()
    deltas: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.deltas is None:
            object.__setattr__(self, "deltas", (0.0,) * (len(self.change_points) + 1))
        _check_run(self.reps, "h_max", self.h_max, self.n, 3 * self.h_max + 4)
        if not self.m_true_values:
            raise ValueError("m_true needs at least one order")
        for m in self.m_true_values:
            self.with_order(m)  # checks m_true >= 0
        if not 0.0 < self.drop_ratio < 1.0:
            raise ValueError(f"drop_ratio must be in (0, 1), got {self.drop_ratio}")
        self.profile().check_within(self.n, self.p)

    def with_order(self, m_true: int) -> LinearProcessSpec:
        """The process of this design with dependence order ``m_true``."""
        params = {f.name: getattr(self, f.name) for f in fields(ProcessParams)}
        return LinearProcessSpec(**params, m_true=m_true)

    def profile(self) -> MeanProfile:
        return MeanProfile(self.change_points, self.deltas, sign_seed=self.seed)


@dataclass(frozen=True)
class ElbowResult:
    design: ElbowDesign
    mean_curves: tuple[tuple[float, ...], ...]
    selected: tuple[tuple[int, ...], ...]
    recovery_fractions: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "design": asdict(self.design),
            "curves": [
                {
                    "m_true": m,
                    "h": list(range(self.design.h_max + 1)),
                    "w_hat_mean": list(curve),
                    "selected": list(sel),
                    "recovery_fraction": frac,
                }
                for m, curve, sel, frac in zip(
                    self.design.m_true_values,
                    self.mean_curves,
                    self.selected,
                    self.recovery_fractions,
                )
            ],
        }

    def summary_lines(self) -> list[str]:
        return [
            f"m_true {m}: recovery {frac:.2f}"
            for m, frac in zip(self.design.m_true_values, self.recovery_fractions)
        ]


def _elbow_rep(task: tuple[int, int]):
    m_index, rep = task
    design, specs, models = _PAYLOAD
    series = generate_series(
        specs[m_index], model=models[m_index], seed=[design.seed, m_index, rep]
    )
    curve = lag_energy_curve(series, design.h_max)
    chosen = select_m(curve, design.drop_ratio)
    return tuple(curve.w_hat), chosen.value


def run_elbow_curve(design: ElbowDesign) -> ElbowResult:
    """Replicated lag-energy curves plus order-recovery fractions."""
    profile = design.profile()
    specs = [design.with_order(m) for m in design.m_true_values]
    models = [build_coefficients(spec, profile) for spec in specs]
    tasks = [
        (mi, rep) for mi in range(len(design.m_true_values)) for rep in range(design.reps)
    ]
    rows = _map_replications(_elbow_rep, tasks, (design, specs, models))
    curves = []
    selections = []
    fractions = []
    per_m = design.reps
    for mi, m in enumerate(design.m_true_values):
        chunk = rows[mi * per_m : (mi + 1) * per_m]
        w = np.array([c for c, _ in chunk], dtype=np.float64)
        sel = tuple(int(s) for _, s in chunk)
        curves.append(tuple(float(v) for v in w.mean(axis=0)))
        selections.append(sel)
        fractions.append(float(np.mean([s == m for s in sel])))
    return ElbowResult(
        design=design,
        mean_curves=tuple(curves),
        selected=tuple(selections),
        recovery_fractions=tuple(fractions),
    )


# The ``hdcp simulate`` designs by config name: the design type, whose
# fields are the config keys, and the runner that takes it.
DESIGNS = {
    "size_power": (SizePowerDesign, run_size_power),
    "multi_cp": (MultiCpDesign, run_multi_cp),
    "boundary_curve": (BoundaryDesign, run_boundary_curve),
    "elbow_curve": (ElbowDesign, run_elbow_curve),
}
