"""Statistical test kit: one-sample KS, chi-square tails, Spearman trend tests,
plateau diagnostics, and the multivariate Gaussian check for the homology
cocycle.

Every shape the kit meets is an integer or a half-integer, so each distribution
function is a closed form or a short series in `math`: the Kolmogorov tail by
its alternating series for lam >= 1 and its theta-function dual below
(Marsaglia, Tsang & Wang, J. Stat. Softw. 8(18), 2003); the normal cdf by
`math.erf`; the chi-square tail by the finite sums of Abramowitz & Stegun
26.4.4-26.4.5, and its quantiles by bisection on them; the Student t tail
I_x(nu/2, 1/2) by the positive series of DLMF 8.17.8 on the fast side of the
mean and the symmetry 8.17.4 on the other, so a small tail is summed itself,
never found as 1 - (1 - p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientData, SingularReference


def ks_test(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov p-value (asymptotic, Stephens correction)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 20:
        raise InsufficientData(f"KS needs >= 20 samples, got {n}")
    F = np.asarray(cdf(x), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    lo = np.max(F - np.arange(0, n) / n)
    D = max(up, lo)
    rt = math.sqrt(n)
    lam = (rt + 0.12 + 0.11 / rt) * D
    return float(min(max(_kolmogorov(lam), 0.0), 1.0))


def _kolmogorov(lam: float) -> float:
    """P(K > lam) for the limiting Kolmogorov distribution."""
    # at lam = 1 the first term left out is e^-70 (e^-99 in the dual) of the first
    if lam >= 1.0:
        v = math.exp(-2.0 * lam * lam)
        return 2.0 * sum((-1) ** (k - 1) * v ** (k * k) for k in range(1, 6))
    w = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
    return 1.0 - math.sqrt(2.0 * math.pi) / lam * sum(w ** (k * k) for k in (1, 3, 5, 7))


_erf = np.frompyfunc(math.erf, 1, 1)


def normal_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    y = (np.asarray(x, dtype=float) - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + np.asarray(_erf(y), dtype=float))


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square distribution with integer df >= 1."""
    h = stat / 2.0
    if df % 2:
        shape, total = 1.5, math.erfc(math.sqrt(h))
        term = 2.0 * math.sqrt(h / math.pi) * math.exp(-h)
    else:
        shape, total, term = 1.0, 0.0, math.exp(-h)
    while shape <= df / 2.0:  # term = h^(shape-1) e^-h / Gamma(shape)
        total += term
        term *= h / shape
        shape += 1.0
    return total


def chi2_gof(observed: Sequence[float], expected: Sequence[float]) -> tuple[float, float]:
    """Goodness-of-fit statistic and p over fixed bins (df = bins - 1)."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if np.any(exp <= 0):
        raise InsufficientData("expected bin counts must be positive")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, chi2_sf(stat, len(obs) - 1)


def trend_test(series: Sequence[float]) -> float:
    """One-sided Spearman test that the series decreases with its index.

    Small p supports a decreasing trend; used for the |ratio - 1| -> 0 census
    acceptance checks where the paper gives no rate.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 5:
        raise InsufficientData(f"trend test needs >= 5 points, got {n}")
    rank_x = np.arange(1, n + 1, dtype=float)
    order = np.argsort(np.argsort(y))
    rank_y = order + 1.0
    # midrank ties
    vals, inv, counts = np.unique(y, return_inverse=True, return_counts=True)
    if np.any(counts > 1):
        sums = np.zeros(len(vals))
        np.add.at(sums, inv, rank_y)
        rank_y = sums[inv] / counts[inv]
    rx = rank_x - rank_x.mean()
    ry = rank_y - rank_y.mean()
    denom = math.sqrt(float(np.sum(rx * rx) * np.sum(ry * ry)))
    if denom == 0.0:
        return 0.5
    r = float(np.sum(rx * ry)) / denom
    r = min(1.0, max(-1.0, r))
    if r <= -1.0:
        return 0.0
    if r >= 1.0:
        return 1.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    # one-sided P(T <= t) under the null, via the regularized incomplete beta
    df = n - 2
    tail = 0.5 * _t_beta(df, df / (df + t * t))
    return float(tail if t < 0 else 1.0 - tail)


def _t_beta(df: int, x: float) -> float:
    """I_x(df/2, 1/2), the two-sided Student t tail at t^2 = df (1 - x) / x."""
    a = df / 2.0
    beta, s = (math.pi, 0.5) if df % 2 else (2.0, 1.0)  # B(s, 1/2), raised to B(a, 1/2)
    while s < a:
        beta *= s / (s + 0.5)
        s += 1.0
    if x > (a + 1.0) / (a + 2.5):
        return 1.0 - _beta_series(0.5, a, 1.0 - x) / beta
    return _beta_series(a, 0.5, x) / beta


def _beta_series(a: float, b: float, x: float) -> float:
    """B(a, b) I_x(a, b) as x^a (1-x)^b / a sum_k (a+b)_k / (a+1)_k x^k."""
    total, term, k = 0.0, 1.0, 0
    while term > 1e-17 * total:
        total += term
        term *= (a + b + k) / (a + 1.0 + k) * x
        k += 1
    return math.pow(x, a) * math.pow(1.0 - x, b) / a * total


def plateau_deviation(values: Sequence[float]) -> float:
    """Max pairwise relative deviation across the last three checkpoints."""
    v = np.asarray(values, dtype=float)[-3:]
    if v.size < 2 or np.any(v <= 0):
        raise InsufficientData("plateau needs >= 2 positive trailing values")
    return float(v.max() / v.min() - 1.0)


@dataclass
class GaussianCheck:
    covariance: np.ndarray
    ks_p: tuple
    chi2_p: float

    def min_ks_p(self) -> float:
        return min(self.ks_p)


def clt_check(samples, reference) -> GaussianCheck:
    """Compare vector samples (already normalized, e.g. f_n / sqrt(tau_n))
    against N(0, reference): per-coordinate KS after whitening, plus a
    chi-square test of the Mahalanobis radii against chi2_d deciles."""
    z = np.asarray(samples, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    n, d = z.shape
    if n < 1000:
        raise InsufficientData(f"clt_check needs >= 1000 samples, got {n}")
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    if ref.shape != (d, d):
        raise SingularReference(f"reference shape {ref.shape} does not match d={d}")
    eigs = np.linalg.eigvalsh((ref + ref.T) / 2)
    if eigs.min() <= 0:
        raise SingularReference(f"reference covariance eigenvalues {eigs}")
    L = np.linalg.cholesky(ref)
    white = np.linalg.solve(L, z.T).T
    ks_ps = tuple(ks_test(white[:, i], normal_cdf) for i in range(d))
    maha = np.sum(white * white, axis=1)
    edges = np.array([_chi2_quantile(q / 10.0, d) for q in range(1, 10)])
    counts = np.histogram(maha, bins=np.concatenate(([0.0], edges, [np.inf])))[0]
    stat, chi2_p = chi2_gof(counts, np.full(10, n / 10.0))
    return GaussianCheck(covariance=np.cov(z.T).reshape(d, d), ks_p=ks_ps, chi2_p=chi2_p)


def _chi2_quantile(q: float, df: int) -> float:
    """The x with P(chi2_df <= x) = q, bisected to the last bit."""
    lo, hi = 0.0, float(df)
    while chi2_sf(hi, df) > 1.0 - q:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if chi2_sf(mid, df) > 1.0 - q:
            lo = mid
        else:
            hi = mid
    return hi
