import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covercount.errors import InsufficientData, SingularReference
from covercount.stats import (chi2_gof, chi2_sf, clt_check, ks_test, normal_cdf,
                              plateau_deviation, trend_test)


def test_ks_uniform_grid_high_p():
    grid = (np.arange(1, 1000) - 0.5) / 999.0
    p = ks_test(grid, lambda x: x)
    assert p > 0.99


def test_ks_detects_shifted_sample():
    rngvals = np.random.default_rng(0).normal(size=500) + 1.0
    assert ks_test(rngvals, normal_cdf) < 1e-6


def test_ks_insufficient_data():
    with pytest.raises(InsufficientData):
        ks_test(np.arange(5), lambda x: x)


def test_chi2_textbook_quantile():
    # df = 3 has the closed-form tail 2(1 - Phi(sqrt(x))) + sqrt(2x/pi) e^{-x/2}
    x = 7.815
    oracle = 2.0 * (1.0 - normal_cdf(math.sqrt(x))) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    assert_allclose(chi2_sf(x, 3), oracle, atol=1e-12)
    assert abs(chi2_sf(x, 3) - 0.05) < 1e-3


def test_chi2_gof_null():
    obs = np.array([10.0, 10.0, 10.0, 10.0])
    stat, p = chi2_gof(obs, obs)
    assert stat == 0.0 and p == 1.0


def test_trend_strictly_decreasing():
    assert trend_test(np.linspace(5.0, 1.0, 12)) < 1e-3


def test_trend_strictly_increasing_high_p():
    assert trend_test(np.linspace(1.0, 5.0, 12)) > 0.999


def test_trend_insufficient():
    with pytest.raises(InsufficientData):
        trend_test([3.0, 2.0, 1.0])


def test_plateau_deviation():
    assert plateau_deviation([5.0, 1.0, 1.1, 1.05]) == pytest.approx(0.1, abs=1e-12)


def test_clt_check_self_test():
    # samples drawn from the exact reference must look Gaussian in >= 98/100 seeds
    ref = np.array([[2.5]])
    ok = 0
    for seed in range(100):
        z = np.random.default_rng(seed).normal(0.0, math.sqrt(2.5), size=5000)
        chk = clt_check(z, ref)
        ok += chk.min_ks_p() > 0.01
    assert ok >= 98


def test_clt_check_rejects_degenerate():
    chk = clt_check(np.zeros(2000), np.array([[1.0]]))
    assert chk.min_ks_p() < 1e-6


def test_clt_check_multivariate_chi2():
    rng = np.random.default_rng(42)
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    z = rng.multivariate_normal([0, 0], cov, size=4000)
    chk = clt_check(z, cov)
    assert chk.min_ks_p() > 0.01
    assert chk.chi2_p > 0.01
    assert_allclose(chk.covariance, cov, atol=0.15)


def test_clt_whitening_invariance():
    rng = np.random.default_rng(3)
    cov = np.array([[1.5, -0.4], [-0.4, 0.9]])
    z = rng.multivariate_normal([0, 0], cov, size=3000)
    L = np.linalg.cholesky(cov)
    white = np.linalg.solve(L, z.T).T
    a = clt_check(z, cov)
    b = clt_check(white, np.eye(2))
    assert_allclose(a.ks_p, b.ks_p, atol=1e-10)
    assert_allclose(a.chi2_p, b.chi2_p, atol=1e-10)


def test_clt_check_rejects_singular_reference():
    with pytest.raises(SingularReference):
        clt_check(np.random.default_rng(0).normal(size=2000),
                  np.array([[0.0]]))


def test_clt_check_needs_samples():
    with pytest.raises(InsufficientData):
        clt_check(np.zeros(10), np.array([[1.0]]))


def test_p_values_monotone_in_statistic():
    chis = [chi2_sf(x, 3) for x in (1.0, 3.0, 7.0, 12.0)]
    assert all(a > b for a, b in zip(chis, chis[1:]))
    # a larger KS deviation gives a smaller p
    grid = (np.arange(1, 500) - 0.5) / 499.0
    p_small = ks_test(grid, lambda x: np.clip(x - 0.01, 0, 1))
    p_big = ks_test(grid, lambda x: np.clip(x - 0.08, 0, 1))
    assert p_big < p_small
