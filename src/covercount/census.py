"""Censuses: binned orbit/geodesic statistics compared against the predicted
asymptotics (local-mixing orbit law, prime geodesic theorem with homology,
holonomy equidistribution, vector-orbit counting).  Each census enumerates up
to its last checkpoint (_checkpoints sorts and checks them) and bins one
schottky enumerator's record values there (_tally); the orbit and geodesic
censuses share their per-class core (_by_class).  Laws take d from the
group."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import schottky as sk
from . import hyperbolic as hyp
from .errors import InsufficientData, ValidationError
from .schottky import SchottkyGroup


@dataclass
class CensusReport:
    kind: str
    checkpoints: np.ndarray
    counts: dict                      # class key -> cumulative counts
    predictions: dict                 # class key -> predicted reals
    totals: np.ndarray
    meta: dict = field(default_factory=dict)

    @cached_property
    def ratios(self) -> dict:
        """Class key -> observed / predicted, for every predicted class; a
        class without records counts 0."""
        zeros = np.zeros_like(self.totals)
        return {key: _safe_ratio(self.counts.get(key, zeros), pr)
                for key, pr in self.predictions.items()}


def checkpoints_linear(t_min: float, t_max: float, count: int) -> np.ndarray:
    """Equal steps in T, i.e. geometric spacing of the expected counts e^T."""
    if count < 2 or not -math.inf < t_min < t_max < math.inf:
        raise ValidationError("need at least two increasing checkpoints, all finite")
    return np.linspace(t_min, t_max, count)


def _checkpoints(checkpoints: Sequence[float]) -> np.ndarray:
    """The checkpoints, sorted; the last is the census's cut-off."""
    cps = np.sort(np.asarray(checkpoints, dtype=float))
    if not (cps.size and np.isfinite(cps).all()):
        raise ValidationError(f"need finite checkpoints, got {cps.tolist()}")
    return cps


def _positive(**constants) -> None:
    """Refuse a growth-law constant (delta, sigma) that is not > 0, NaN included."""
    for name, x in constants.items():
        if not x > 0:
            raise ValidationError(f"census needs {name} > 0, got {x}")


def _safe_ratio(counts, preds):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(preds > 0, counts / np.where(preds > 0, preds, 1.0), np.nan)
    return out


def _tally(cps, values, weights=None):
    """Cumulative tally of one census's records at the sorted checkpoints cps:
    entry i counts the records with value <= cps[i], or sums their complex
    weights; records past the last checkpoint count nowhere.  Each bin adds
    the weights' parts in record order, so the sums keep their bits."""
    bins = np.searchsorted(cps, np.asarray(values, dtype=float), side="left")
    kept = bins < len(cps)
    part = lambda w=None: np.cumsum(np.bincount(bins[kept], w, minlength=len(cps)))
    if weights is None:
        return part()
    out = part(weights.real[kept]).astype(complex)
    out.imag = part(weights.imag[kept])
    return out


def _by_class(cps, enumerate_, group, budget, sink):
    """Per-class cumulative counts at the sorted checkpoints cps, and their
    total, of the records that the schottky enumerator enumerate_ emits on
    group up to cps[-1].  sink, if given, receives every record, in
    enumeration order."""
    values: dict = {}  # class -> record values, in record order

    def take(rec):
        if sink is not None:
            sink(rec)
        # field 1 is the record's value: an orbit displacement or a class length
        values.setdefault(rec.homology, []).append(rec[1])

    enumerate_(group, float(cps[-1]), emit=take, budget=budget)
    by_class = {key: _tally(cps, v) for key, v in values.items()}
    return by_class, sum(by_class.values(), np.zeros(len(cps), dtype=np.int64))


def _fit_constant(checkpoints, counts, law) -> float:
    """One multiplicative constant, least squares in log space on the first
    half of the checkpoints (falling back to all of them for sparse classes)."""
    n = len(checkpoints)

    def window_logs(idx):
        return [math.log(counts[i] / law(checkpoints[i]))
                for i in idx if counts[i] > 0 and law(checkpoints[i]) > 0]

    logs = window_logs(range(n // 2))
    if not logs:
        logs = window_logs(range(n))
    if not logs:
        raise InsufficientData("no positive counts to calibrate against")
    return math.exp(sum(logs) / len(logs))


def orbit_by_homology(group: SchottkyGroup, delta: float, checkpoints: Sequence[float],
                      classes: Optional[Sequence[tuple]] = None,
                      budget: Optional[int] = None,
                      sink: Optional[Callable[[sk.OrbitRecord], None]] = None) -> CensusReport:
    """N_xi(T) for the requested homology classes vs c e^{delta T} / T^{d/2},
    d = group.d, with the orbit enumerated up to the last checkpoint.  With
    classes None, counts holds every class that has a record; a requested
    class must have d entries.

    sink, if given, receives every enumerated record, in enumeration order.
    """
    if group.d < 1:
        raise ValidationError("orbit census by homology needs d >= 1")
    _positive(delta=delta)
    cps = _checkpoints(checkpoints)
    wanted = None if classes is None else [tuple(int(x) for x in c) for c in classes]
    for c in wanted or ():
        if len(c) != group.d:
            raise ValidationError(f"homology class {c} has {len(c)} entries, but d = {group.d}")
    by_class, totals = _by_class(cps, sk.enumerate_orbit, group, budget, sink)

    d = group.d
    law = lambda T: math.exp(delta * T) / T ** (d / 2.0) if T > 0 else 0.0
    counts, preds = {}, {}
    for key in sorted(by_class) if wanted is None else wanted:
        cts = counts[key] = by_class.get(key, np.zeros_like(totals))
        c = _fit_constant(cps, cts, law)
        preds[key] = np.array([c * law(T) for T in cps])
    meta = {"delta": delta, "d": d, "constant_mode": "UpToConstant",
            "group": group.fingerprint()}
    return CensusReport("OrbitByHomology", cps, counts, preds, totals, meta)


def geodesics_by_homology(group: SchottkyGroup, delta: float, sigma: float,
                          checkpoints: Sequence[float],
                          budget: Optional[int] = None,
                          sink: Optional[Callable[[sk.GeodesicRecord], None]] = None
                          ) -> CensusReport:
    """Primitive-class counts: the trivial class against the absolute law
    e^{delta L} / ((2 pi sigma)^{d/2} delta L^{d/2+1}), d = group.d, with
    every class that has a record in counts; for d = 0 the total count
    against e^{delta L} / (delta L).  Classes are enumerated up to the last
    checkpoint.

    sink, if given, receives every enumerated record, in enumeration order.
    """
    _positive(delta=delta, sigma=sigma)
    cps = _checkpoints(checkpoints)
    by_class, totals = _by_class(cps, sk.primitive_classes, group, budget, sink)

    d = group.d
    if d == 0:
        law = lambda L: math.exp(delta * L) / (delta * L)
    else:
        coef = (2.0 * math.pi * sigma) ** (d / 2.0)
        law = lambda L: math.exp(delta * L) / (coef * delta * L ** (d / 2.0 + 1.0))
    key = (0,) * d
    preds = {key: np.array([law(L) for L in cps])}
    counts = dict(by_class) if d else {key: totals.copy()}
    meta = {"delta": delta, "sigma": sigma, "d": d, "constant_mode": "Absolute",
            "group": group.fingerprint()}
    return CensusReport("GeodesicByHomology", cps, counts, preds, totals, meta)


def holonomy_equidistribution(group: SchottkyGroup, p_list: Sequence[int],
                              checkpoints: Sequence[float],
                              budget: Optional[int] = None) -> CensusReport:
    """Normalized character sums |sum e^{i p theta_C}| / #classes per
    checkpoint; class functions with zero mean must equidistribute to 0.
    Classes are enumerated up to the last checkpoint."""
    if group.model != hyp.Model.H3:
        raise ValidationError("holonomy census needs the H3 model")
    cps = _checkpoints(checkpoints)
    lengths, theta = [], []

    def take(rec: sk.GeodesicRecord):
        lengths.append(rec.length)
        theta.append(rec.holonomy)

    sk.primitive_classes(group, float(cps[-1]), emit=take, budget=budget)
    theta = np.array(theta, dtype=float)
    totals = _tally(cps, lengths)
    counts, preds = {}, {}
    for p in sorted({int(p) for p in p_list}):
        counts[p] = np.abs(_tally(cps, lengths, np.exp(1j * p * theta)))
        preds[p] = totals.astype(float)
    meta = {"group": group.fingerprint(), "p_list": sorted(int(p) for p in p_list)}
    return CensusReport("HolonomyHistogram", cps, counts, preds, totals, meta)


def vector_orbit(group: SchottkyGroup, delta: float, w0: Sequence[float],
                 checkpoints: Sequence[float], norm: str = "euclidean",
                 budget: Optional[int] = None) -> CensusReport:
    """#{v in w0 Gamma : ||v|| <= T} for the kernel subgroup (f = 0 words)
    under the adjoint SO(2,1) action, vs c T^delta / (log T)^{d/2}, d = group.d.

    Words are enumerated out to an exact displacement cap.  A definite w0
    (Q(w0) = v1^2 - 4 v0 v2 < 0) is +-c F_p, with c = sqrt(-Q) / 2 and
    F_p = (1, -2x, x^2 + y^2) / y the form of the point p = x + iy; so
    cosh d(o, p) = |w0[0] + w0[2]| / 2c.  Precomposing F_p with g gives
    F_{g^-1 p}, so v = w0 @ adjoint(g) = (A, B, C) has

        |A + C| = 2c cosh d(o, g^-1 p) >= 2c cosh(d(o, g o) - d(o, p)),

    while |A + C| <= kappa ||v|| with kappa = sqrt(2) for the euclidean norm
    and 2 for the sup norm.  Every ||v|| <= T therefore comes from a word
    with d(o, g o) <= acosh(kappa T / 2c) + d(o, p), the cap used with T the
    last checkpoint; for w0 = (1, 0, 1) it is acosh(T / sqrt(2)).  An
    indefinite or degenerate w0 has no such bound and is rejected.

    No vector is deduplicated: v = +-c F_{g^-1 p} determines g^-1 p, and no
    element but I of a Schottky group fixes p (its stabilizer in a discrete
    group is finite, and a free group has no torsion, -I included), so
    distinct reduced words give distinct vectors.
    """
    if group.model != hyp.Model.H2:
        raise ValidationError("vector orbit census needs the H2 model")
    _positive(delta=delta)
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (3,):
        raise ValidationError("w0 must be a 3-vector")
    q0 = hyp.so21_form(w0)
    if not q0 < 0.0:
        raise ValidationError(f"w0 must be a definite form (v1^2 - 4 v0 v2 < 0), got {q0}")
    cps = _checkpoints(checkpoints)
    by_norm = {"euclidean": (math.sqrt(2.0), lambda v: float(np.linalg.norm(v))),
               "sup": (2.0, lambda v: float(np.max(np.abs(v))))}
    if norm not in by_norm:
        raise ValidationError(f"unknown norm {norm!r}; choose from {sorted(by_norm)}")
    kappa, norm_fn = by_norm[norm]
    two_c = math.sqrt(-q0)
    disp_cap = (math.acosh(max(kappa * cps[-1] / two_c, 1.0))
                + math.acosh(max(abs(w0[0] + w0[2]) / two_c, 1.0)))
    norms = []  # of the kernel words' vectors; _tally drops those past cps[-1]

    def take(rec: sk.OrbitRecord):
        if not any(rec.homology):
            norms.append(norm_fn(w0 @ hyp.adjoint_so21(rec.matrix)))

    sk.enumerate_orbit(group, disp_cap, emit=take, budget=budget)
    counts_arr = _tally(cps, norms)
    d = group.d
    law = lambda T: T ** delta / (math.log(T) ** (d / 2.0)) if T > 1.0 else 0.0
    try:
        c = _fit_constant(cps, counts_arr, law)
    except InsufficientData:
        c = 0.0  # nothing in range (e.g. all checkpoints below ||w0||)
    key = "vectors"
    preds = {key: np.array([c * law(T) for T in cps])}
    meta = {"delta": delta, "d": d, "norm": norm, "w0": w0.tolist(), "disp_cap": disp_cap,
            "constant_mode": "UpToConstant", "group": group.fingerprint()}
    return CensusReport("VectorNorm", cps, {key: counts_arr}, preds, counts_arr, meta)


FIT_POINTS = 5  # the fewest checkpoints a growth fit takes


def fit_growth(xs: Sequence[float], counts: Sequence[float],
               fix_log_power: float) -> float:
    """Exponent of the least-squares fit log N = const + exponent * x +
    fix_log_power * log x, with the log power pinned, over the top half of
    the points, and at least FIT_POINTS of them."""
    if len(xs) < FIT_POINTS:
        raise InsufficientData(f"growth fits need >= {FIT_POINTS} checkpoints, got {len(xs)}")
    start = min(len(xs) // 2, len(xs) - FIT_POINTS)
    xs = np.asarray(xs, dtype=float)[start:]
    counts = np.asarray(counts, dtype=float)[start:]
    if np.any(counts <= 0):
        raise InsufficientData("growth fits need positive counts")
    if np.any(xs <= 0):
        raise InsufficientData("growth fits need positive checkpoints")
    y = np.log(counts) - fix_log_power * np.log(xs)
    sol, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(xs), xs]), y, rcond=None)
    return float(sol[1])
