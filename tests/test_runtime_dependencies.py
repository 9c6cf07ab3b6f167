"""The package runs on numpy alone; scipy serves only as a test reference.

The lag design solve and the normal tail of the aggregated statistic use
numpy and the standard library. These tests pin them to the scipy routines
that computed them before, and check that importing the package and its
command line loads no scipy module, and the command line no simulator.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.stats import norm

import hdcp
from hdcp.engine import F_matrix, _f_columns
from hdcp.inference import _outcome_from

_TINY = np.finfo(np.float64).tiny


def test_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the imports above
    code = (
        "import sys, hdcp, hdcp.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hdcp.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_command_line_imports_no_simulator():
    # hdcp detect needs neither the simulator nor multiprocessing, which
    # only the simulator imports; the package's simulator names still
    # resolve, on first access
    code = (
        "import sys, hdcp.cli\n"
        "print([m for m in ('hdcp.simulator', 'multiprocessing') if m in sys.modules])\n"
        "from hdcp import generate_series, simulator\n"
        "print(generate_series is simulator.generate_series)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hdcp.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hdcp.no_such_name


def test_pvalue_matches_scipy_normal_tail():
    z = np.linspace(-8.0, 38.0, 4601)
    pvalues = np.array([_outcome_from(float(v), 1.0, False, 0.05).pvalue for v in z])
    ref = norm.sf(z)
    # a relative bound means nothing below the smallest normal float, where
    # scipy flushes the tail to zero (from z ~ 37.7) and erfc goes subnormal
    normal = ref >= _TINY
    assert normal.sum() > 4500
    np.testing.assert_allclose(pvalues[normal], ref[normal], rtol=1e-12, atol=0)
    assert np.all(pvalues[~normal] < _TINY)


def test_rejection_threshold_matches_scipy_quantile():
    # the per-segment levels: alpha, or 1 / (n log n) in fwer mode
    for alpha in [0.05, 0.01] + [1.0 / (n * math.log(n)) for n in range(8, 3001)]:
        threshold = float(norm.isf(alpha))
        assert _outcome_from(threshold * (1 + 1e-14), 1.0, False, alpha).reject
        assert not _outcome_from(threshold * (1 - 1e-14), 1.0, False, alpha).reject


@pytest.mark.parametrize("n", [12, 100, 800])
def test_design_solves_match_scipy_lu(n):
    rng = np.random.default_rng(n)
    for m in range(min(10, n // 2 - 2) + 1):  # F_matrix needs n >= 2(M + 2)
        design = F_matrix(n, m)
        lu = lu_factor(design.matrix)
        for rhs in rng.standard_normal((5, m + 1)):
            assert np.array_equal(design.solve(rhs), lu_solve(lu, rhs))
        # the transposed solve builds the aggregate contrast from these weights
        weights = _f_columns(n, np.arange(1, n), m).sum(axis=0)
        for rhs in [*rng.standard_normal((5, m + 1)), weights]:
            np.testing.assert_allclose(
                design.solve_transposed(rhs), lu_solve(lu, rhs, trans=1), rtol=1e-12, atol=0
            )
