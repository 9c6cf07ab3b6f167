"""Generator correctness, oracle formulas, and runner reproducibility."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hdcp import (
    DependenceWindow,
    ElbowDesign,
    LinearProcessSpec,
    MeanProfile,
    OracleModel,
    SeriesMatrix,
    SizePowerDesign,
    as_series,
    build_coefficients,
    compute_gram,
    generate_series,
    l_trace,
    mean_matrix,
    run_size_power,
    single_change_profile,
    simulator,
)
from hdcp import test_global as global_test
from hdcp.cli import build_design, parse_config
from hdcp.engine import prepare_global
from oracles import (
    autocovariance,
    coefficients,
    oracle_mean_l,
    oracle_variance,
    per_lag_series,
    trace_product,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIZE_POWER_CONFIGS = (
    "table1_size_m2",
    "table1_size_m0",
    "table1_size_m2_misused",
    "table1_power_m0",
)


def test_independent_process_has_no_lagged_covariance():
    spec = LinearProcessSpec(n=20, p=2, m_true=0, rho=0.6, seed=1)
    model = build_coefficients(spec)
    qs = coefficients(model)
    assert qs[1] is None and qs[2] is None
    np.testing.assert_allclose(
        autocovariance(model, 0), [[1.36, 1.2], [1.2, 1.36]], rtol=1e-12
    )
    for h in (1, 2, 3):
        np.testing.assert_array_equal(autocovariance(model, h), np.zeros((2, 2)))


def test_autocovariance_transpose_identity():
    spec = LinearProcessSpec(n=30, p=6, m_true=2, seed=3)
    model = build_coefficients(spec)
    for h in range(0, model.lag_support + 1):
        np.testing.assert_allclose(
            autocovariance(model, -h), autocovariance(model, h).T, rtol=1e-12
        )


def test_perturbation_rows_have_requested_sparsity():
    spec = LinearProcessSpec(n=30, p=40, m_true=1, perturb_sparsity=0.1, seed=5)
    model = build_coefficients(spec)
    q, lags = model.groups[1]
    assert lags == ((2, 1), (3, 1))  # the two trailing lags share one matrix
    nnz = (q != 0).sum(axis=1)
    assert (nnz == 4).all()
    assert q.max() <= 0.05 and q.min() >= 0.0


def test_zero_coefficients_reproduce_means_exactly():
    profile = MeanProfile((5,), (0.0, 1.0), support_size=3, sign_seed=9)
    means = mean_matrix(profile, 12, 4)
    model = OracleModel(n=12, p=4, m_true=0, means=means, groups=())
    spec = LinearProcessSpec(n=12, p=4, m_true=0, seed=2)
    x = generate_series(spec, profile, model=model)
    np.testing.assert_array_equal(x.values, means)
    # the series holds its own array: the model's means stay apart and writeable
    assert not np.shares_memory(x.values, means) and means.flags.writeable


@pytest.mark.parametrize("innovation", ["gaussian", "student_t"])
@pytest.mark.parametrize("m_true", [0, 1, 2, 3])
def test_generator_matches_the_per_lag_reference(m_true, innovation):
    # one product per distinct matrix agrees with one per lag; at
    # m_true = 0 there is one lag, so the same product and the same bits
    spec = LinearProcessSpec(n=40, p=30, m_true=m_true, innovation=innovation,
                             perturb_sparsity=0.2, seed=17)
    model = build_coefficients(spec, single_change_profile(20, 1.0, sign_seed=17))
    for seed in (None, [17, 3]):
        got = generate_series(spec, model=model, seed=seed).values
        want = per_lag_series(spec, model, seed)
        if m_true == 0:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_coefficient_groups_hold_each_matrix_once():
    # the model is its means and its coefficient groups, nothing more: one
    # p x p array at m_true = 0 (the Toeplitz matrix), and two at m_true >= 1
    # (the Toeplitz and the sparse matrix)
    names = [f.name for f in dataclasses.fields(OracleModel)]
    assert names == ["n", "p", "m_true", "means", "groups"]
    for m_true in (0, 1, 2, 3):
        spec = LinearProcessSpec(n=20, p=8, m_true=m_true, perturb_sparsity=0.25, seed=4)
        held = {id(a) for a in _arrays(list(vars(build_coefficients(spec)).values()))
                if a.shape == (8, 8)}
        assert len(held) == (1 if m_true == 0 else 2)
    # lags 0..m_true share the Toeplitz matrix, lags m_true + 1 and
    # m_true + 2 the sparse one; the reference's lag-l matrix is the
    # group's matrix over the divisor
    spec = LinearProcessSpec(n=20, p=8, m_true=2, perturb_sparsity=0.25, seed=4)
    model = build_coefficients(spec)
    (decay, decay_lags), (perturb, perturb_lags) = model.groups
    assert decay_lags == ((0, 3), (1, 2), (2, 1))
    assert perturb_lags == ((3, 1), (4, 1))
    qs = coefficients(model)
    for l, d in decay_lags:
        assert (decay / d).tobytes() == qs[l].tobytes()
    assert qs[3].tobytes() == qs[4].tobytes() == perturb.tobytes()
    # a model of one-lag groups takes one product per lag, as the reference
    hand = OracleModel(
        n=20, p=8, m_true=2, means=model.means,
        groups=tuple((q, ((l, 1),)) for l, q in enumerate(qs)),
    )
    got = generate_series(spec, model=hand).values
    assert got.tobytes() == per_lag_series(spec, hand).tobytes()


def test_generate_series_rejects_a_profile_the_model_was_not_built_with():
    spec = LinearProcessSpec(n=12, p=4, m_true=0, seed=2)
    built_with = MeanProfile((5,), (0.0, 1.0), support_size=3, sign_seed=9)
    other = MeanProfile((5,), (0.0, 2.0), support_size=3, sign_seed=9)
    model = build_coefficients(spec, built_with)
    generate_series(spec, built_with, model=model)
    with pytest.raises(ValueError, match="profile"):
        generate_series(spec, other, model=model)


def test_generate_series_rejects_a_model_of_another_shape():
    model = build_coefficients(LinearProcessSpec(n=12, p=4, m_true=0, seed=2))
    for n, p in ((13, 4), (12, 5)):
        with pytest.raises(ValueError, match=r"\(n, p\)"):
            generate_series(LinearProcessSpec(n=n, p=p, m_true=0, seed=2), model=model)


def test_generation_is_seed_deterministic():
    spec = LinearProcessSpec(n=25, p=7, m_true=2, seed=11)
    a = generate_series(spec)
    b = generate_series(spec)
    np.testing.assert_array_equal(a.values, b.values)
    c = generate_series(spec, seed=[11, 1])
    assert not np.array_equal(a.values, c.values)


def test_student_t_innovations_standardized():
    spec = LinearProcessSpec(n=4000, p=2, m_true=0, innovation="student_t", t_dof=8, seed=13)
    model = build_coefficients(spec)
    x = generate_series(spec, model=model)
    # var of each coordinate should match the Gaussian-case diagonal of C(0)
    np.testing.assert_allclose(x.values.var(axis=0), np.diag(autocovariance(model, 0)), rtol=0.15)
    with pytest.raises(ValueError):
        LinearProcessSpec(n=10, p=2, m_true=0, innovation="student_t", t_dof=2.0)


def test_sample_covariance_approaches_model():
    spec = LinearProcessSpec(n=2000, p=10, m_true=0, seed=21)
    model = build_coefficients(spec)
    x = generate_series(spec, model=model).values
    emp = np.cov(x, rowvar=False)
    c0 = autocovariance(model, 0)
    rel = np.linalg.norm(emp - c0) / np.linalg.norm(c0)
    assert rel < 0.2


def test_mean_profile_layout_and_bounds():
    profile = MeanProfile((3, 7), (0.0, 2.0, -1.0), support_size=2, sign_seed=4)
    means = mean_matrix(profile, 10, 6)
    assert np.array_equal(means[:3], np.zeros((3, 6)))
    assert (np.abs(means[3:7]).sum(axis=1) == 4.0).all()
    assert (np.abs(means[7:]).sum(axis=1) == 2.0).all()
    with pytest.raises(ValueError):
        mean_matrix(MeanProfile((12,), (0.0, 1.0)), 10, 6)
    with pytest.raises(ValueError):
        MeanProfile((3,), (0.0,))
    with pytest.raises(ValueError):
        MeanProfile((5, 3), (0.0, 1.0, 2.0))


def test_default_support_size():
    means = mean_matrix(single_change_profile(5, 1.0), 10, 200)
    assert (np.abs(means[5:]) > 0).sum(axis=1)[0] == int(200**0.7)


def test_oracle_mean_null_zero_and_peak_at_change():
    w = DependenceWindow(0)
    spec = LinearProcessSpec(n=40, p=10, m_true=0, seed=6)
    null_model = build_coefficients(spec)
    assert all(oracle_mean_l(t, null_model, w) == 0.0 for t in (1, 20, 39))
    prof = single_change_profile(12, 1.5, sign_seed=6)
    model = build_coefficients(spec, prof)
    vals = [oracle_mean_l(t, model, w) for t in range(1, 40)]
    assert int(np.argmax(vals)) + 1 == 12


def test_oracle_mean_hand_value():
    # four points, jump of size 2 in one coordinate after t = 2:
    # contrast term 1, lag correction (1/4)(4/3)(1) = 1/3
    means = np.zeros((4, 1))
    means[2:] = 2.0
    model = OracleModel(n=4, p=1, m_true=0, means=means, groups=())
    got = oracle_mean_l(2, model, DependenceWindow(0))
    np.testing.assert_allclose(got, 2.0 / 3.0, rtol=1e-12)


def test_oracle_mean_equals_statistic_of_mean_matrix():
    # the expectation formula is the statistic evaluated at the means
    prof = MeanProfile((6, 14), (0.0, 1.0, -0.5), support_size=4, sign_seed=8)
    means = mean_matrix(prof, 20, 9)
    model = OracleModel(n=20, p=9, m_true=1, means=means, groups=())
    w = DependenceWindow(1)
    curve = l_trace(compute_gram(as_series(means)), w)
    for t in (1, 7, 13, 19):
        np.testing.assert_allclose(
            oracle_mean_l(t, model, w), curve[t - 1], rtol=1e-9, atol=1e-12
        )


def test_oracle_variance_mean_term_vanishes_under_null():
    spec = LinearProcessSpec(n=30, p=5, m_true=1, seed=7)
    null_model = build_coefficients(spec)
    w = DependenceWindow(1)
    v_null = oracle_variance(10, null_model, w)
    shifted = build_coefficients(spec, single_change_profile(15, 1.0, sign_seed=7))
    assert oracle_variance(10, shifted, w) > v_null > 0.0


def test_oracle_variance_independence_reduction():
    # temporal independence + null: max_t n^2 var_t approaches 2 tr C(0)^2
    spec = LinearProcessSpec(n=100, p=50, m_true=0, seed=1)
    model = build_coefficients(spec)
    w = DependenceWindow(0)
    vmax = max(100**2 * oracle_variance(t, model, w) for t in range(1, 100))
    target = 2.0 * trace_product(model, 0, 0)
    assert abs(vmax - target) <= 0.05 * target


def test_oracle_variance_small_case_matches_monte_carlo():
    spec = LinearProcessSpec(n=10, p=2, m_true=0, seed=5)
    model = build_coefficients(spec)
    w = DependenceWindow(0)
    target = oracle_variance(5, model, w)
    reps = 8000  # the sample variance of a heavy-tailed quadratic form converges slowly
    vals = np.empty(reps)
    for r in range(reps):
        x = generate_series(spec, model=model, seed=[5, r])
        vals[r] = l_trace(compute_gram(x), w)[4]
    assert abs(vals.var(ddof=1) - target) <= 0.10 * target


def _shipped_design(name: str, reps: int) -> SizePowerDesign:
    _, design = build_design(parse_config(str(CONFIGS / f"{name}.cfg")))
    return dataclasses.replace(design, reps=reps)


def _assert_same_outcome(got, want):
    assert abs(got.zscore - want.zscore) <= 1e-12 * abs(want.zscore)
    assert (got.reject, got.degenerate) == (want.reject, want.degenerate)


@pytest.mark.parametrize("name", SIZE_POWER_CONFIGS)
def test_chunked_replications_match_single_series_tests(name):
    # 2R + 1 replications: two whole chunks and a last chunk of one
    design = _shipped_design(name, 2 * simulator._CHUNK + 1)
    outcomes = simulator._size_power_outcomes(design)
    assert len(outcomes) == design.reps
    model = build_coefficients(design, design.profile())
    window = DependenceWindow(design.m_used)
    for rep, got in enumerate(outcomes):
        x = generate_series(design, model=model, seed=[design.seed, rep]).values
        _assert_same_outcome(got, global_test(SeriesMatrix(x), window, design.inference_config()))


def test_outcome_does_not_depend_on_position_in_a_chunk():
    # every replication alone, and in chunks whose cuts move by one place
    # at a time, so that it takes each position of a whole chunk
    chunk = simulator._CHUNK
    design = _shipped_design("table1_size_m2", 2 * chunk + 1)
    model = build_coefficients(design, design.profile())
    window = DependenceWindow(design.m_used)
    cfg = design.inference_config()
    values = [
        generate_series(design, model=model, seed=[design.seed, rep]).values
        for rep in range(design.reps)
    ]

    def run(reps):
        series = [SeriesMatrix(values[rep]) for rep in reps]
        prepare_global(series, window)
        return [global_test(s, window, cfg) for s in series]

    alone = [run([rep])[0] for rep in range(design.reps)]
    for offset in range(chunk):
        cuts = [0] + list(range(offset or chunk, design.reps, chunk)) + [design.reps]
        chunked = [o for lo, hi in zip(cuts, cuts[1:]) for o in run(range(lo, hi))]
        for got, want in zip(chunked, alone):
            _assert_same_outcome(got, want)


def _traced_peak(design: SizePowerDesign) -> int:
    run_size_power(design)  # the (n, M) plans are built once per process
    tracemalloc.start()
    try:
        run_size_power(design)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_size_power_memory_per_chunk(monkeypatch):
    # The traced peak of a chunk run is set in the split curve, which holds
    # one centered Gram per replication; the separated sums form no n x n
    # array. A chunk of R then holds, beyond a chunk of one at that stage,
    # R - 1 more of each per-replication array: the series (n p), its Gram
    # slice (n^2), its centered Gram (n^2), the split curve's n-long
    # vectors (the Gram's row sums, the centered row sums and their prefix,
    # the diagonal, the block sums and the curve's terms: about 10 n) and
    # its Python objects (series, Gram summary, array headers: counted as
    # 1 KiB). At n = 100, p = 200, M = 2, R = 4 that is 987,072 bytes. A
    # chunk of one peaks about 0.25 MB higher than its split curve, in the
    # generator (a group's row sum and one more n p array sit beside the
    # innovations and the result), so tracemalloc measured an excess of
    # only 702,093 bytes (numpy 2.4, Python 3.11).
    n, p, m, chunk = 100, 200, 2, simulator._CHUNK
    design = SizePowerDesign(n=n, p=p, m_true=2, m_used=m, reps=2 * chunk, seed=20240812)
    peak = _traced_peak(design)
    monkeypatch.setattr(simulator, "_CHUNK", 1)
    single = _traced_peak(design)
    floats = n * p + 2 * n * n + 10 * n
    bound = (chunk - 1) * (floats * 8 + 1024)
    assert peak <= single + bound, (peak, single)


def test_run_size_power_reproducible_across_workers(monkeypatch):
    # whole chunks and a short last one, mapped over three workers
    design = SizePowerDesign(
        n=40, p=20, m_true=0, m_used=0, reps=2 * simulator._CHUNK + 3, seed=99
    )
    base = run_size_power(design)
    monkeypatch.setenv("HDCP_WORKERS", "3")
    parallel = run_size_power(design)
    assert base == parallel


def test_run_size_power_requires_tau_with_delta():
    with pytest.raises(ValueError):
        run_size_power(
            SizePowerDesign(n=40, p=20, m_true=0, m_used=0, reps=2, delta=0.5)
        )


def test_elbow_design_without_deltas_has_zero_means():
    design = ElbowDesign(n=40, p=10, m_true_values=(0,), reps=1, h_max=2, change_points=(20,))
    assert design.deltas == (0.0, 0.0)
    assert not mean_matrix(design.profile(), design.n, design.p).any()
