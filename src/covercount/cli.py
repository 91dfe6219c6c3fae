"""Command-line entry point: validation, spectral computations, censuses, and
the acceptance suite.  Reports land under out/<command>-<confighash>/ with a
manifest; identical configs and seeds give byte-identical outputs."""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from . import census as cen
from . import shift as sh
from . import stats as st
from . import transfer as tr
from .errors import CovercountError, ValidationError
from .groupfile import load_any, load_group
from .hyperbolic import frob2
from .reporting import ReportWriter, census_csv_rows, scan_csv_rows

EXIT_OK, EXIT_COMPUTE, EXIT_ACCEPT, EXIT_CONFIG = 0, 1, 2, 3


def _color(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _parse_vec(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _spec_for(source, nodes):
    obj = load_any(source)
    if isinstance(obj, sh.MarkovShift):
        return tr.OperatorSpec(obj)
    return tr.OperatorSpec(sh.from_schottky(obj), nodes_per_disk=nodes)


def cmd_validate(args) -> int:
    group = load_group(args.group)  # construction validates; raises on failure
    print(f"group ok: model={group.model.value} generators={group.g} d={group.d}")
    print(f"fingerprint: {group.fingerprint()}")
    n = group.n_symbols
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(group.disks[i].center - group.disks[j].center) \
                - group.disks[i].radius - group.disks[j].radius
            print(f"disk gap [{i},{j}]: {gap:.6f}")
    print(f"min cycle step: {group.min_cycle_step():.6f}")
    return EXIT_OK


def cmd_delta(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    res = tr.spectral_at_delta(spec)
    delta = res.s
    print(f"delta = {delta:.12f}   |lambda(delta)-1| = {abs(res.lam - 1.0):.3e}")
    writer = ReportWriter(args.out, "delta", vars_config(args))
    writer.write_json("summary.json", {"delta": delta, "lambda_residual": res.residual,
                                       "abs_lambda_err": abs(res.lam - 1.0)})
    writer.finish({"input": spec.fingerprint()})
    return EXIT_OK


def cmd_pressure(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    surf = tr.pressure_surface(spec)
    print(f"delta = {surf.delta:.12f}")
    print(f"grad P(0) = {surf.gradient.tolist()}")
    print(f"hess P(0) = {surf.hessian.tolist()}")
    print(f"sigma = {surf.sigma:.12f}   C(0) = {surf.c0:.12f}")
    d = spec.shift.d
    rows = [[0.0] * d + [surf.delta]]
    extras = {}
    for text in args.u:
        u = _parse_vec(text)
        extras[text] = tr.pressure(spec, u)
        rows.append(u + [extras[text]])
        print(f"P({text}) = {extras[text]:.12f}")
    writer = ReportWriter(args.out, "pressure", vars_config(args))
    writer.write_csv("pressure.csv", [f"u_{i}" for i in range(d)] + ["P"], rows)
    writer.write_json("summary.json", {
        "delta": surf.delta, "gradient": surf.gradient, "hessian": surf.hessian,
        "sigma": surf.sigma, "c0": surf.c0, "extra": extras})
    writer.finish({"input": spec.fingerprint()})
    return EXIT_OK


def cmd_scan(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    delta = tr.critical_exponent(spec)
    t_grid = np.linspace(args.t_min, args.t_max, args.t_count)
    d = spec.shift.d
    if d > 0:
        axis = np.linspace(0.0, 2.0 * math.pi, args.v_count, endpoint=False)
        v_grid = [[x] + [0.0] * (d - 1) for x in axis]
    else:
        v_grid = [[]]
    rep = tr.spectral_radius_scan(spec, delta, t_grid, v_grid,
                                  p_list=args.p, margin=args.margin)
    print(f"delta = {delta:.12f}; max |lambda| on grid = {rep.max_abs_lambda():.8f}")
    print(f"violations: {len(rep.violations)}")
    for r in rep.violations[:10]:
        print(f"  flagged t={r.t:.6f} v={r.v} p={r.p} |lambda|={r.abs_lambda:.8f}")
    writer = ReportWriter(args.out, "scan", vars_config(args))
    writer.write_csv("scan.csv", *scan_csv_rows(rep))
    writer.write_json("summary.json", {"delta": delta,
                                       "max_abs_lambda": rep.max_abs_lambda(),
                                       "violations": len(rep.violations)})
    writer.finish({"input": spec.fingerprint()})
    return EXIT_OK


def _emit_census(args, command, rep, extra=None, records=None) -> None:
    """Write census.csv, summary.json and, given (header, rows), records.csv."""
    writer = ReportWriter(args.out, command, vars_config(args))
    writer.write_csv("census.csv", *census_csv_rows(rep))
    if records is not None:
        writer.write_csv("records.csv", *records)
    summary = {"kind": rep.kind, "checkpoints": rep.checkpoints,
               "totals": rep.totals, "meta": rep.meta}
    if extra:
        summary.update(extra)
    writer.write_json("summary.json", summary)
    writer.finish({"group": rep.meta.get("group", "")})


def vars_config(args) -> dict:
    """The manifest config of every command: its parsed options, so that the
    manifest's config fed back as --config reproduces the run."""
    skip = {"func", "out", "command"}  # the run directory is not configuration
    return {k: v for k, v in vars(args).items() if k not in skip}


def _group_prediction(args, group, use_sigma: bool = False):
    """delta of the group's operator; sigma from its pressure surface when
    use_sigma, else 1 (sigma enters only the absolute geodesic law)."""
    spec = tr.OperatorSpec(sh.from_schottky(group), nodes_per_disk=args.nodes)
    if use_sigma:
        surf = tr.pressure_surface(spec)
        return cen.Prediction(delta=surf.delta, sigma=surf.sigma)
    return cen.Prediction(delta=tr.critical_exponent(spec), sigma=1.0)


def cmd_count_orbit(args) -> int:
    group = load_group(args.group)
    pred = _group_prediction(args, group)
    cps = cen.checkpoints_linear(args.t_min, args.t_max, args.checkpoints)
    classes = [tuple(int(x) for x in c.split(",")) for c in args.classes] if args.classes else None
    records, sink = None, None
    if args.dump_records:
        rows = []
        records = (["word_len", "displacement"] + [f"xi_{i}" for i in range(group.d)], rows)
        sink = lambda r: rows.append([len(r.word), r.displacement, *r.homology])
    rep = cen.orbit_by_homology(group, pred, args.t_max, cps, classes=classes,
                                budget=args.budget_cap, sink=sink)
    for key in sorted(rep.counts):
        print(f"class {key}: N(T_max) = {rep.counts[key][-1]}, ratio = {rep.ratios[key][-1]:.4f}")
    _emit_census(args, "count-orbit", rep, {"delta": pred.delta}, records)
    return EXIT_OK


def cmd_count_geodesics(args) -> int:
    group = load_group(args.group)
    pred = _group_prediction(args, group, use_sigma=group.d >= 1)
    cps = cen.checkpoints_linear(args.l_min, args.l_max, args.checkpoints)
    records, sink = None, None
    if args.dump_records:
        rows = []
        records = (["word_len", "displacement"] + [f"xi_{i}" for i in range(group.d)]
                   + ["length", "holonomy"], rows)

        def sink(r):
            disp = math.acosh(max(frob2(r.matrix) / 2.0, 1.0))  # d(o, g o) of the record
            rows.append([len(r.word), disp, *r.homology, r.length, r.holonomy])
    rep = cen.geodesics_by_homology(group, pred, args.l_max, cps, budget=args.budget_cap,
                                    sink=sink)
    key = (0,) * group.d
    print(f"primitive classes <= {args.l_max}: {rep.totals[-1]}")
    print(f"trivial-class ratio to the absolute law: {rep.ratios[key][-1]:.4f}")
    _emit_census(args, "count-geodesics", rep, {"delta": pred.delta, "sigma": pred.sigma},
                 records)
    return EXIT_OK


def cmd_count_vectors(args) -> int:
    group = load_group(args.group)
    pred = _group_prediction(args, group)
    cps = np.exp(np.linspace(math.log(args.t_min), math.log(args.t_max), args.checkpoints))
    rep = cen.vector_orbit(group, pred, _parse_vec(args.w0), args.t_max, cps,
                           norm=args.norm, budget=args.budget_cap)
    cts = rep.counts["vectors"]
    print(f"vectors with norm <= {args.t_max:.3e}: {cts[-1]}")
    half = len(cps) // 2
    exponent = cen.fit_growth(np.log(cps)[half:], cts[half:], fix_log_power=-group.d / 2.0)
    print(f"fitted exponent {exponent:.4f} (delta = {pred.delta:.4f})")
    _emit_census(args, "count-vectors", rep,
                 {"delta": pred.delta, "fitted_exponent": exponent})
    return EXIT_OK


def cmd_holonomy(args) -> int:
    group = load_group(args.group)
    cps = cen.checkpoints_linear(args.l_min, args.l_max, args.checkpoints)
    rep = cen.holonomy_equidistribution(group, args.l_max, args.p, cps,
                                        budget=args.budget_cap)
    for p in sorted(rep.ratios):
        print(f"p={p}: |char sum|/count at L_max = {rep.ratios[p][-1]:.5f}")
    _emit_census(args, "holonomy", rep)
    return EXIT_OK


def cmd_clt(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    shift = spec.shift
    if shift.d < 1:
        raise ValidationError("CLT check needs homology dimension d >= 1")
    surf = tr.pressure_surface(spec)
    delta, sr = surf.delta, surf.spectral
    chain = sh.parry_chain(shift, sr)
    tau, f = sh.sample_cocycle_batch(chain, shift, args.steps, args.traj,
                                     args.seed, spectral=sr)
    z = f / np.sqrt(tau)[:, None]
    print(f"delta = {delta:.9f}, Cov reference = {surf.hessian.tolist()}")
    chk = st.clt_check(z, surf.hessian) if args.traj >= 1000 else None
    # np.cov's shape, a scalar when d = 1; undefined below 2 trajectories
    cov = (chk.covariance.squeeze() if chk is not None
           else np.cov(z.T) if args.traj >= 2 else None)
    summary = {
        "delta": delta, "sigma": surf.sigma, "hessian": surf.hessian,
        "empirical_mean": z.mean(axis=0), "empirical_cov": cov,
        "gaussian_check": None,
        "sample_head": {"tau": tau[:8], "f": f[:8, 0]}}
    if chk is not None:
        print(f"empirical covariance = {chk.covariance.tolist()}")
        print(f"ks_p = {chk.ks_p}, chi2_p = {chk.chi2_p:.4f}")
        summary["gaussian_check"] = {"ks_p": list(chk.ks_p), "chi2_p": chk.chi2_p}
    elif cov is not None:
        print(f"empirical covariance = {cov.tolist()} "
              f"(too few trajectories for p-values)")
    else:
        print("empirical covariance undefined (fewer than 2 trajectories)")
    writer = ReportWriter(args.out, "clt", vars_config(args))
    writer.write_json("summary.json", summary)
    if args.dump_trajectory:
        rows = sh.sample_trajectory(chain, shift, args.dump_trajectory,
                                    args.seed, spectral=sr)
        header = ["step", "symbol", "tau_cum"] + [f"f_cum_{i}" for i in range(shift.d)]
        writer.write_csv("trajectory.csv", header, rows)
    writer.finish({"input": spec.fingerprint()})
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from .acceptance import run_all

    rows = []

    def show(res):
        mark = _color("PASS", "32") if res.passed else _color("FAIL", "31")
        print(f"[{mark}] {res.cid:>4} {res.name}  ({res.seconds:.1f}s)")
        for k, v in res.details.items():
            print(f"         {k} = {v}")
        rows.append(res)

    results = run_all(budget=args.budget, seed=args.seed, progress=show)
    n_fail = sum(not r.passed for r in results)
    writer = ReportWriter(args.out, "verify-all", vars_config(args))
    # timings go to stdout only; report files must be bitwise reproducible
    writer.write_json("summary.json", [
        {"cid": r.cid, "name": r.name, "passed": r.passed,
         "details": r.details} for r in results])
    writer.write_csv("results.csv", ["cid", "name", "passed"],
                     [[r.cid, r.name, int(r.passed)] for r in results])
    manifest = writer.finish()
    print(f"\n{len(results) - n_fail}/{len(results)} criteria passed; "
          f"manifest {manifest['manifest_sha256'][:12]} in {writer.dir}")
    return EXIT_OK if n_fail == 0 else EXIT_ACCEPT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="covercount",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out", help="output directory root")
    sub = ap.add_subparsers(dest="command", required=True)

    ap._command_parsers = {}

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        ap._command_parsers[name] = p
        return p

    p = add("validate", cmd_validate, help="check a group definition file")
    p.add_argument("--group")

    p = add("delta", cmd_delta, help="critical exponent via the transfer operator")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=24)

    p = add("pressure", cmd_pressure, help="pressure surface: gradient, Hessian, sigma, C0")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--u", action="append", default=[],
                   help="extra twist point, e.g. '0.3' or '0.3,0.1'")

    p = add("scan", cmd_scan, help="spectral radius scan on the critical line")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=48)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-count", type=int, default=25)
    p.add_argument("--v-count", type=int, default=16)
    p.add_argument("--p", type=int, nargs="*", default=[0])
    p.add_argument("--margin", type=float, default=1e-3)

    p = add("count-orbit", cmd_count_orbit, help="orbit census by homology class")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--t-min", type=float, default=5.0)
    p.add_argument("--t-max", type=float, default=12.0)
    p.add_argument("--checkpoints", type=int, default=12)
    p.add_argument("--classes", nargs="*", help="homology classes like '0' '1' '-1'")
    p.add_argument("--budget-cap", type=int, default=5_000_000)
    p.add_argument("--dump-records", action="store_true",
                   help="also write the raw record stream CSV")

    p = add("count-geodesics", cmd_count_geodesics,
            help="primitive closed geodesics vs the absolute law")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--l-min", type=float, default=8.0)
    p.add_argument("--l-max", type=float, default=16.0)
    p.add_argument("--checkpoints", type=int, default=10)
    p.add_argument("--budget-cap", type=int, default=5_000_000)
    p.add_argument("--dump-records", action="store_true",
                   help="also write the raw record stream CSV")

    p = add("count-vectors", cmd_count_vectors, help="vector orbit counting in R^3")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--w0", default="1,0,1")
    p.add_argument("--t-min", type=float, default=math.e ** 6)
    p.add_argument("--t-max", type=float, default=math.e ** 13)
    p.add_argument("--checkpoints", type=int, default=12)
    p.add_argument("--norm", choices=["euclidean", "sup"], default="euclidean")
    p.add_argument("--budget-cap", type=int, default=5_000_000)

    p = add("holonomy", cmd_holonomy, help="holonomy character sums over classes")
    p.add_argument("--group")
    p.add_argument("--l-min", type=float, default=9.0)
    p.add_argument("--l-max", type=float, default=17.0)
    p.add_argument("--checkpoints", type=int, default=8)
    p.add_argument("--p", type=int, nargs="*", default=[1, 2, 3])
    p.add_argument("--budget-cap", type=int, default=5_000_000)

    p = add("clt", cmd_clt, help="Gaussian check for the homology cocycle")
    p.add_argument("--group")
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--traj", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--dump-trajectory", type=int, default=0, metavar="STEPS",
                   help="write one trajectory dump of this many steps")

    p = add("verify-all", cmd_verify_all, help="run the full acceptance suite")
    p.add_argument("--budget", choices=["small", "smoke"], default="small")
    p.add_argument("--seed", type=int)

    return ap


def main(argv=None) -> int:
    import json
    # the modules imported so far live as long as the job: keep the cyclic
    # collector's full passes, which a census's allocations trigger, off them
    gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    if "--config" in argv:
        i = argv.index("--config")
        try:
            with open(argv[i + 1]) as fh:
                cfg = json.load(fh)
        except (IndexError, OSError, json.JSONDecodeError) as e:
            print(f"error: bad --config: {e}", file=sys.stderr)
            return EXIT_CONFIG
        del argv[i:i + 2]
        if not isinstance(cfg, dict):
            print("error: bad --config: not a JSON object", file=sys.stderr)
            return EXIT_CONFIG
        defaults = {k.replace("-", "_"): v for k, v in cfg.items()}
        known = {a.dest for p in (ap, *ap._command_parsers.values()) for a in p._actions}
        unknown = sorted(set(defaults) - known)
        if unknown:
            print(f"error: bad --config: unknown keys {unknown}", file=sys.stderr)
            return EXIT_CONFIG
        # each parser takes only its own keys, so one file can serve every command
        for p in (ap, *ap._command_parsers.values()):
            p.set_defaults(**{k: v for k, v in defaults.items()
                              if any(k == a.dest for a in p._actions)})
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    if getattr(args, "group", "set") is None:
        print("error: --group is required (flag or config file)", file=sys.stderr)
        return EXIT_CONFIG
    if args.command in ("clt", "verify-all") and getattr(args, "seed", 1) is None:
        print("error: sampling commands require --seed", file=sys.stderr)
        return EXIT_CONFIG
    for cap_name in ("budget_cap", "traj", "steps", "checkpoints", "t_count", "v_count"):
        if (getattr(args, cap_name, 1) or 0) <= 0:
            print(f"error: --{cap_name.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_CONFIG
    if args.command == "scan" and not args.p:
        print("error: --p needs at least one holonomy character", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "count-vectors" and not args.t_min > 0:
        print("error: --t-min must be positive (checkpoints are log-spaced)", file=sys.stderr)
        return EXIT_CONFIG
    if (getattr(args, "dump_trajectory", 0) or 0) < 0:
        print("error: --dump-trajectory must be >= 0", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG if args.command != "validate" else EXIT_COMPUTE
    except CovercountError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
