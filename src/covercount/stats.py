"""Statistical test kit: one-sample KS, chi-square tails, Spearman trend tests,
plateau diagnostics, and the multivariate Gaussian check for the homology
cocycle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

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
    return float(min(max(special.kolmogorov(lam), 0.0), 1.0))


def normal_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    return 0.5 * (1.0 + special.erf((np.asarray(x) - mu) / (sigma * math.sqrt(2.0))))


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square distribution."""
    return float(special.gammaincc(df / 2.0, stat / 2.0))


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
    xbeta = df / (df + t * t)
    tail = 0.5 * special.betainc(df / 2.0, 0.5, xbeta)
    return float(tail if t < 0 else 1.0 - tail)


def plateau_deviation(values: Sequence[float], last: int = 3) -> float:
    """Max pairwise relative deviation across the final checkpoints."""
    v = np.asarray(values, dtype=float)[-last:]
    if v.size < 2 or np.any(v <= 0):
        raise InsufficientData("plateau needs >= 2 positive trailing values")
    return float(v.max() / v.min() - 1.0)


@dataclass
class GaussianCheck:
    count: int
    mean: np.ndarray
    covariance: np.ndarray
    reference: np.ndarray
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
    return GaussianCheck(count=n, mean=z.mean(axis=0), covariance=np.cov(z.T).reshape(d, d),
                         reference=ref, ks_p=ks_ps, chi2_p=chi2_p)


def _chi2_quantile(q: float, df: int) -> float:
    return float(2.0 * special.gammaincinv(df / 2.0, q))
