import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from covercount import stats as st
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


# scipy.special is the oracle for the kit's closed forms and series.  The
# tolerances are the worst differences measured on these grids (scipy 1.17),
# rounded up; against 40-digit mpmath the ports are the closer side each time.


def test_kolmogorov_matches_scipy():
    # ks_test reaches lam in (0, sqrt(n)]; the tail underflows past lam ~ 19
    lam = np.linspace(0.02, 3.0, 2981)
    err = [abs(st._kolmogorov(x) - special.kolmogorov(x)) for x in lam]
    assert max(err) <= 6e-15
    lam = np.linspace(1.0, 18.0, 1701)  # down to p ~ 1e-281
    rel = [abs(st._kolmogorov(x) / special.kolmogorov(x) - 1.0) for x in lam]
    assert max(rel) <= 4.5e-16


def test_erf_matches_scipy_to_three_ulp():
    # the whitened samples of clt_check, scaled by 1/sqrt(2) in normal_cdf
    y = np.random.default_rng(0).normal(size=20000) * 2.0
    ours = np.asarray(st._erf(y), dtype=float)
    ulps = np.abs(ours.view(np.int64) - special.erf(y).view(np.int64))
    assert ulps.max() <= 3
    assert_allclose(normal_cdf(y, 0.5, 2.0),
                    0.5 * (1.0 + special.erf((y - 0.5) / (2.0 * math.sqrt(2.0)))),
                    rtol=0, atol=4e-16)
    assert normal_cdf(0.0) == 0.5


@pytest.mark.parametrize("df", range(1, 20))
def test_chi2_sf_matches_scipy(df):
    # chi2_gof reaches df = bins - 1 = 9; the clt statistics stay below 300
    for x in np.linspace(0.0, 300.0, 1501):
        ref = special.gammaincc(df / 2.0, x / 2.0)
        if ref >= 1e-300:
            assert chi2_sf(x, df) == pytest.approx(ref, rel=4e-14, abs=0)


@pytest.mark.parametrize("df", range(1, 60))
def test_t_tail_matches_scipy(df):
    # trend_test's I_x(df/2, 1/2) at x = df / (df + t^2), with the small
    # tail summed directly down to scipy's underflow
    t = np.geomspace(1e-3, 1e4, 200)
    for x in df / (df + t * t):
        ref = special.betainc(df / 2.0, 0.5, x)
        if ref >= 1e-300:
            assert st._t_beta(df, x) == pytest.approx(ref, rel=4e-14, abs=0)


@pytest.mark.parametrize("df", [1, 2, 3, 4])
def test_chi2_deciles_match_scipy(df):
    for q in np.arange(1, 10) / 10.0:
        assert st._chi2_quantile(q, df) == pytest.approx(
            2.0 * special.gammaincinv(df / 2.0, q), rel=5e-15, abs=0)


def test_trend_p_matches_scipy_student_t():
    # the one-sided p of trend_test against scipy's t distribution
    from scipy.stats import t as student_t
    rng = np.random.default_rng(5)
    for n in (5, 8, 12, 30):
        y = np.sort(rng.normal(size=n))[::-1] + rng.normal(scale=2.0, size=n)
        r = np.corrcoef(np.arange(n), np.argsort(np.argsort(y)))[0, 1]
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        assert trend_test(y) == pytest.approx(student_t.cdf(t, n - 2), rel=1e-12)
