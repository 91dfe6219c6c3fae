"""Per-layer metrics derived from the spans of one traced pass.

A span's self time is its duration minus the durations of its child spans.
Time an enumerator spent in its ``emit`` callback is moved from the
enumerator to its caller, so a census's self time is its binning and
callback cost with the enumerator's own work excluded.
"""

from __future__ import annotations

import statistics

COMMANDS = ("delta", "pressure", "scan", "count-orbit", "count-geodesics",
            "holonomy", "count-vectors", "clt")
GRID_NODES = (24, 48, 96)
CENSUS = ("orbit_by_homology", "geodesics_by_homology",
          "holonomy_equidistribution", "vector_orbit")

# name -> (unit, better); every one is reported by a traced run.
METRICS = {
    **{f"cli.{c}.s": ("s", "lower") for c in COMMANDS},
    "transfer.leading_eigenvalue.calls": ("count", "lower"),
    "transfer.leading_eigenvalue.self_s": ("s", "lower"),
    "transfer.leading_eigenvalue.p50_ms": ("ms", "lower"),
    "transfer.leading_eigenvalue.p90_ms": ("ms", "lower"),
    "transfer.build_matrix.calls": ("count", "lower"),
    "transfer.build_matrix.self_s": ("s", "lower"),
    "transfer.eig_per_root": ("ratio", "lower"),
    "transfer.critical_exponent.s": ("s", "lower"),
    "transfer.pressure_surface.s": ("s", "lower"),
    "transfer.scan_points_per_s": ("1/s", "higher"),
    "transfer.scan_points_per_s.blas_default": ("1/s", "higher"),
    "transfer.grid_build.calls": ("count", "lower"),
    "transfer.grid_build.self_s": ("s", "lower"),
    **{f"transfer.grid_build.n{n}.ms": ("ms", "lower") for n in GRID_NODES},
    "transfer.interp_values.calls": ("count", "lower"),
    "transfer.interp_values.self_s": ("s", "lower"),
    "schottky.enumerate_orbit.calls": ("count", "lower"),
    "schottky.enumerate_orbit.records": ("count", "higher"),
    "schottky.enumerate_orbit.records_per_s": ("1/s", "higher"),
    "schottky.enumerate_orbit.self_s": ("s", "lower"),
    "schottky.primitive_classes.calls": ("count", "lower"),
    "schottky.primitive_classes.classes": ("count", "higher"),
    "schottky.primitive_classes.classes_per_s": ("1/s", "higher"),
    "schottky.primitive_classes.self_s": ("s", "lower"),
    **{f"census.{c}.self_s": ("s", "lower") for c in CENSUS},
    "shift.sample_cocycle_batch.self_s": ("s", "lower"),
    "shift.traj_steps_per_s": ("1/s", "higher"),
    "shift.sample_trajectory.self_s": ("s", "lower"),
    "shift.dump_steps_per_s": ("1/s", "higher"),
    "shift.parry_chain.s": ("s", "lower"),
    "stats.clt_check.s": ("s", "lower"),
    "reporting.write.self_s": ("s", "lower"),
    "reporting.bytes": ("bytes", "lower"),
    "groupfile.load.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def self_times(spans: list) -> list[float]:
    selfs = [s[2] - s[1] - s[4] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1] - s[4]
    return selfs


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def pass_metrics(jobs: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced pass; jobs carry command, main_s, spans.

    Layers a workload never calls read 0.  trace.overhead_s and the
    default-BLAS scan rate are filled in by the runner.
    """
    m = {name: 0.0 for name in METRICS}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    info: dict[str, float] = {}
    eig_ms: list[float] = []
    grid_ms: dict[int, list[float]] = {n: [] for n in GRID_NODES}
    eig_in_root = roots = 0
    for job in jobs:
        m[f"cli.{job['command']}.s"] += job["main_s"]
        spans = job["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, dur = span[0], span[2] - span[1]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + dur
            if span[5] is not None:
                info[name] = info.get(name, 0) + span[5]
            if name == "transfer.grid_build" and span[5] in grid_ms:
                grid_ms[span[5]].append(1e3 * own)
            if name in ("transfer.critical_exponent", "transfer.pressure"):
                roots += 1
            if name == "transfer.leading_eigenvalue":
                eig_ms.append(1e3 * dur)
                p = span[3]
                while p >= 0 and spans[p][0] not in ("transfer.critical_exponent",
                                                      "transfer.pressure"):
                    p = spans[p][3]
                eig_in_root += p >= 0

    for short in ("leading_eigenvalue", "build_matrix", "grid_build", "interp_values"):
        m[f"transfer.{short}.calls"] = calls.get(f"transfer.{short}", 0)
        m[f"transfer.{short}.self_s"] = self_s.get(f"transfer.{short}", 0.0)
    if eig_ms:
        m["transfer.leading_eigenvalue.p50_ms"] = statistics.median(eig_ms)
        m["transfer.leading_eigenvalue.p90_ms"] = (
            statistics.quantiles(eig_ms, n=10)[-1] if len(eig_ms) > 1 else eig_ms[0])
    m["transfer.eig_per_root"] = eig_in_root / roots if roots else 0.0
    for short in ("critical_exponent", "pressure_surface"):
        m[f"transfer.{short}.s"] = total_s.get(f"transfer.{short}", 0.0)
    m["transfer.scan_points_per_s"] = _rate(info.get("transfer.spectral_radius_scan", 0),
                                            total_s.get("transfer.spectral_radius_scan", 0.0))
    for n, values in grid_ms.items():
        m[f"transfer.grid_build.n{n}.ms"] = statistics.median(values) if values else 0.0

    for short, work in (("enumerate_orbit", "records"), ("primitive_classes", "classes")):
        name = f"schottky.{short}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.{work}"] = info.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.{work}_per_s"] = _rate(info.get(name, 0), self_s.get(name, 0.0))
    for short in CENSUS:
        m[f"census.{short}.self_s"] = self_s.get(f"census.{short}", 0.0)

    m["shift.sample_cocycle_batch.self_s"] = self_s.get("shift.sample_cocycle_batch", 0.0)
    m["shift.traj_steps_per_s"] = _rate(info.get("shift.sample_cocycle_batch", 0),
                                        total_s.get("shift.sample_cocycle_batch", 0.0))
    m["shift.sample_trajectory.self_s"] = self_s.get("shift.sample_trajectory", 0.0)
    m["shift.dump_steps_per_s"] = _rate(info.get("shift.sample_trajectory", 0),
                                        total_s.get("shift.sample_trajectory", 0.0))
    m["shift.parry_chain.s"] = total_s.get("shift.parry_chain", 0.0)
    m["stats.clt_check.s"] = total_s.get("stats.clt_check", 0.0)
    m["reporting.write.self_s"] = self_s.get("reporting.write", 0.0)
    m["reporting.bytes"] = info.get("reporting.write", 0)
    m["groupfile.load.s"] = total_s.get("groupfile.load", 0.0)
    return m
