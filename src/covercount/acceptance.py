"""The acceptance suite: one named check per criterion, each returning its
id, name, pass/fail and measured values; run_criterion times it into a
result record.  Both the pytest suite and `covercount verify-all` run these."""

from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import census as cen
from . import schottky as sk
from . import shift as sh
from . import stats as st
from . import transfer as tr
from .errors import CovercountError
from .groupfile import load_any, load_group
from .hyperbolic import geodesic_invariants
from .reporting import ReportWriter, census_csv_rows


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict
    seconds: float


class Workspace:
    """Lazy fixture data that two or more criteria share."""

    def __init__(self, seed: int = 1):
        self.seed = seed

    @cached_property
    def toy2_spec(self):
        return tr.OperatorSpec(load_any("fixture:toy2"))

    @cached_property
    def group_b(self):
        return load_group("fixture:b")

    @cached_property
    def surface_b(self):
        return tr.pressure_surface(tr.OperatorSpec(sh.from_schottky(self.group_b),
                                                   nodes_per_disk=24))

    @cached_property
    def surface_c(self):
        return tr.pressure_surface(tr.OperatorSpec(sh.from_schottky(load_group("fixture:c")),
                                                   nodes_per_disk=20))


def c01_toy_closed_forms(ws: Workspace) -> tuple:
    spec = ws.toy2_spec
    surf = tr.pressure_surface(spec)
    d_err = abs(surf.delta - math.log(2.0))
    p_err = max(abs(tr.pressure(spec, [u]) - math.log(2.0 * math.cosh(u)))
                for u in np.linspace(-1.0, 1.0, 9))
    s_err = abs(surf.sigma - 1.0)
    c_err = abs(surf.c0 - math.sqrt(2.0 * math.pi))
    passed = d_err < 1e-12 and p_err < 1e-10 and s_err < 1e-6 and c_err < 1e-6
    return ("C1", "toy closed forms (delta, P, sigma, C0)", passed,
            {"delta_err": d_err, "pressure_err": p_err,
             "sigma_err": s_err, "c0_err": c_err})


def c02_coding_correctness(ws: Workspace) -> tuple:
    group = ws.group_b
    letters = [sk.letter_of_index(i) for i in range(group.n_symbols)]
    worst, n_classes, max_len = 0.0, 0, 8
    for n in range(1, max_len + 1):
        for word in itertools.product(letters, repeat=n):
            if not sk.is_cyclically_reduced(word):
                continue
            if word != sk.canonical_rotation(word) or not sk.is_primitive(word):
                continue
            n_classes += 1
            ell = geodesic_invariants(group.evaluate(word)).length
            worst = max(worst, abs(sh.cycle_roof_sum(group, word).real - ell))
    return ("C2", "roof sums equal translation lengths", worst < 1e-6,
            {"max_error": worst, "classes_checked": n_classes,
             "max_word_length": max_len})


def _orbit_report(group, delta, T):
    cps = cen.checkpoints_linear(5.0, T, 12)
    return cps, cen.orbit_by_homology(group, delta, cps)


def c03_two_method_delta(ws: Workspace) -> tuple:
    details = {}
    passed = True
    for tag, group, delta in (("b", ws.group_b, ws.surface_b.delta),
                              ("c", load_group("fixture:c"), ws.surface_c.delta)):
        cps, rep = _orbit_report(group, delta, 12.5)
        slope = cen.fit_growth(cps, rep.totals, fix_log_power=0.0)
        err = abs(slope - delta)
        details[f"delta_{tag}"] = delta
        details[f"slope_{tag}"] = slope
        details[f"err_{tag}"] = err
        passed = passed and err < 2e-2
    return ("C3", "transfer delta vs orbit-growth slope", passed, details)


def c04_pressure_structure(ws: Workspace) -> tuple:
    details = {}
    passed = True
    for tag, surf in (("b", ws.surface_b), ("c", ws.surface_c)):
        spec = surf.spectral.spec
        lam_err = abs(surf.spectral.lam - 1.0)
        grad_inf = float(np.max(np.abs(surf.gradient)))
        spd = float(np.min(np.linalg.eigvalsh(surf.hessian)))
        d = spec.shift.d
        sym_err = 0.0
        for u in np.eye(d) * 0.4:
            sym_err = max(sym_err, abs(tr.pressure(spec, u) - tr.pressure(spec, -u)))
        if d > 1:
            u = np.full(d, 0.3)
            sym_err = max(sym_err, abs(tr.pressure(spec, u) - tr.pressure(spec, -u)))
        ok = lam_err < 1e-8 and grad_inf < 1e-4 and spd > 0 and sym_err < 1e-8
        details[tag] = {"lambda_err": lam_err, "grad_inf": grad_inf,
                        "hessian_min_eig": spd, "pressure_symmetry_err": sym_err,
                        "sigma": surf.sigma}
        passed = passed and ok
    return ("C4", "pressure surface structure and symmetry", passed, details)


def c05_spectral_gap_scan(ws: Workspace) -> tuple:
    spec48 = tr.OperatorSpec(sh.from_schottky(ws.group_b), nodes_per_disk=48)
    delta = tr.critical_exponent(spec48)
    t_grid = np.linspace(0.05, 5.0, 25)
    v_grid = [[x] for x in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]
    rep = tr.spectral_radius_scan(spec48, delta, t_grid, v_grid, p_list=[0])
    gap_ok = rep.max_abs_lambda() <= 1.0 - 1e-3 and not rep.violations
    # arithmetic positive control: constant roof c = 1 must be flagged at 2 pi / c
    toy_delta = tr.critical_exponent(ws.toy2_spec)
    control = tr.spectral_radius_scan(ws.toy2_spec, toy_delta,
                                      [2.0 * math.pi], [[0.0]], p_list=[0])
    flagged = any(abs(r.t - 2.0 * math.pi) < 1e-12 and r.violation for r in control.rows)
    return ("C5", "spectral gap scan + arithmetic control", gap_ok and flagged,
            {"max_abs_lambda": rep.max_abs_lambda(),
             "violations": len(rep.violations),
             "control_flagged": flagged})


def c06_local_mixing_counts(ws: Workspace) -> tuple:
    T = 13.0
    delta = ws.surface_b.delta
    cps, rep = _orbit_report(ws.group_b, delta, T)
    c0 = rep.counts[(0,)]
    plateau = st.plateau_deviation(c0 * np.exp(-delta * cps) * np.sqrt(cps))
    symmetric = all(np.array_equal(cts, rep.counts[tuple(-x for x in key)])
                    for key, cts in rep.counts.items())
    return ("C6", "local-mixing orbit law and count symmetry", plateau < 0.10 and symmetric,
            {"plateau": plateau, "symmetric": symmetric,
             "N0_top": int(c0[-1]), "T_max": T})


def c07_prime_geodesic_theorem(ws: Workspace) -> tuple:
    L = 18.5
    delta, sigma = ws.surface_b.delta, ws.surface_b.sigma
    cps = cen.checkpoints_linear(6.0, L, 16)
    rep = cen.geodesics_by_homology(ws.group_b, delta, sigma, cps)
    ratios = rep.ratios[(0,)]
    top_ok = 0.7 <= ratios[-1] <= 1.3
    trend_p = st.trend_test(np.abs(ratios - 1.0))
    # d = 0 control: same disks, trivial cover, classical e^{dL}/(dL) law
    group0 = sk.SchottkyGroup(ws.group_b.generators,
                              [ws.group_b.disks[sk.sym_index(-(i + 1))] for i in range(ws.group_b.g)],
                              [ws.group_b.disks[sk.sym_index(i + 1)] for i in range(ws.group_b.g)],
                              [], ws.group_b.model)
    rep0 = cen.geodesics_by_homology(group0, delta, 1.0, cps)
    control = float(rep0.ratios[()][-1])
    control_ok = 0.7 <= control <= 1.3
    passed = top_ok and trend_p < 0.05 and control_ok
    return ("C7", "prime geodesic theorem with homology (absolute constant)", passed,
            {"top_ratio": float(ratios[-1]), "trend_p": float(trend_p),
             "d0_control_ratio": control, "N0_top": int(rep.counts[(0,)][-1]),
             "sigma": sigma, "L_max": L})


def c08_clt_homology_cocycle(ws: Workspace) -> tuple:
    n_traj, steps = 10_000, 10_000
    tau, f = sh.sample_cocycle_batch(ws.surface_b.spectral, steps, n_traj, ws.seed)
    z = f[:, 0] / np.sqrt(tau)
    sigma = ws.surface_b.sigma
    var_err = abs(float(z.var()) / sigma - 1.0)
    chk = st.clt_check(z, np.array([[sigma]]))
    passed = var_err < 0.10 and chk.min_ks_p() > 0.01
    return ("C8", "CLT for the homology cocycle", passed,
            {"var_rel_err": var_err, "ks_p": chk.min_ks_p(),
             "chi2_p": chk.chi2_p, "trajectories": n_traj,
             "steps": steps, "sigma": sigma})


def c09_holonomy_equidistribution(ws: Workspace) -> tuple:
    L = 17.0
    cps = cen.checkpoints_linear(9.0, L, 8)
    rep = cen.holonomy_equidistribution(load_group("fixture:d0"), [1, 2, 3], cps)
    tops = {p: float(rep.ratios[p][-1]) for p in (1, 2, 3)}
    passed = all(v < 0.1 for v in tops.values())
    return ("C9", "holonomy character sums equidistribute", passed,
            {"top_ratios": tops, "classes": int(rep.totals[-1]), "L_max": L})


def c10_vector_orbit(ws: Workspace) -> tuple:
    delta = ws.surface_b.delta
    cps = np.exp(np.linspace(6.0, 13.5, 12))
    rep = cen.vector_orbit(ws.group_b, delta, [1.0, 0.0, 1.0], cps)
    cts = rep.counts["vectors"]
    exponent = cen.fit_growth(np.log(cps), cts, fix_log_power=-0.5)
    exp_err = abs(exponent - delta)
    plateau = st.plateau_deviation(cts * cps ** (-delta) * np.sqrt(np.log(cps)))
    passed = exp_err < 0.05 and plateau < 0.15
    return ("C10", "vector-orbit counting exponent and plateau", passed,
            {"exponent": exponent, "exponent_err": exp_err,
             "plateau": plateau, "top_count": int(cts[-1])})


def c11_determinism(ws: Workspace) -> tuple:
    hashes = []
    with tempfile.TemporaryDirectory(prefix="covercount-det-") as base:
        for run in ("run1", "run2"):
            w = ReportWriter(f"{base}/{run}", "determinism-probe", {"seed": ws.seed})
            sr = tr.spectral_at_delta(tr.OperatorSpec(load_any("fixture:toy2")),
                                      want_measure=True)
            delta = sr.s
            tau, f = sh.sample_cocycle_batch(sr, 500, 64, ws.seed)
            group = load_group("fixture:b")
            cps = cen.checkpoints_linear(4.0, 8.0, 6)
            rep = cen.orbit_by_homology(group, delta, cps)
            w.write_json("summary.json", {
                "delta": delta,
                "tau_head": tau[:8].tolist(),
                "f_head": f[:8, 0].tolist(),
                "totals": rep.totals.tolist(),
            })
            w.write_csv("orbit.csv", *census_csv_rows(rep))
            manifest = w.finish({"group": group.fingerprint()})
            hashes.append(manifest["manifest_sha256"])
    passed = hashes[0] == hashes[1]
    return ("C11", "byte-identical report manifests across reruns", passed, {"hashes": hashes})


ALL_CRITERIA: list[Callable[[Workspace], tuple]] = [
    c01_toy_closed_forms,
    c02_coding_correctness,
    c03_two_method_delta,
    c04_pressure_structure,
    c05_spectral_gap_scan,
    c06_local_mixing_counts,
    c07_prime_geodesic_theorem,
    c08_clt_homology_cocycle,
    c09_holonomy_equidistribution,
    c10_vector_orbit,
    c11_determinism,
]


def run_criterion(fn: Callable[[Workspace], tuple], ws: Workspace) -> CriterionResult:
    """fn(ws), timed; a CovercountError fails the criterion, not its caller."""
    t0 = time.time()
    try:
        cid, name, passed, details = fn(ws)
    except CovercountError as exc:
        cid, name, passed = f"C{ALL_CRITERIA.index(fn) + 1}", fn.__name__, False
        details = {"error": f"{type(exc).__name__}: {exc}"}
    # bool: a numpy bool would not encode in the report files
    return CriterionResult(cid, name, bool(passed), details, round(time.time() - t0, 3))


def run_all(seed: int = 1, progress: Optional[Callable[[CriterionResult], None]] = None
            ) -> list[CriterionResult]:
    """Run every criterion; an exception fails that criterion, not the suite."""
    ws = Workspace(seed=seed)
    results = []
    for fn in ALL_CRITERIA:
        results.append(run_criterion(fn, ws))
        if progress is not None:
            progress(results[-1])
    return results
