"""Command-line entry point: validation, spectral computations, censuses, and
the acceptance suite.  Reports land under out/<command>-<confighash>/ with a
manifest; identical configs and seeds give byte-identical outputs."""

from __future__ import annotations

import argparse
import gc
import itertools
import json
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
from .hyperbolic import displacement
from .reporting import ReportWriter, census_csv_rows, scan_csv_rows

EXIT_OK, EXIT_COMPUTE, EXIT_ACCEPT, EXIT_CONFIG = 0, 1, 2, 3


def _color(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _parse_vec(text: str, kind=float) -> list:
    return [kind(x) for x in text.split(",") if x.strip() != ""]


def _rule(name, parse, ok=lambda value: True, keep_text=False):
    """An argparse type: parse(text), refused as "invalid <name> value" unless ok(value)."""
    def check(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return text if keep_text else value
    check.__name__ = name
    return check


_POSITIVE_INT = _rule("positive int", int, lambda n: n > 0)
_NATURAL = _rule("non-negative int", int, lambda n: n >= 0)
_FINITE = _rule("finite float", float, math.isfinite)
_POSITIVE = _rule("positive finite float", float, lambda x: 0 < x < math.inf)
# number lists stay text, so that manifests and run directories keep their bytes
_FLOATS = _rule("finite float list", _parse_vec, lambda v: np.isfinite(v).all(), keep_text=True)
_INTS = _rule("int list", lambda text: _parse_vec(text, int), keep_text=True)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its errors and reads the --config options
    of its own flags, through the flags' actions, before the flags: a file
    value gets the flag's checks, and a flag overrides it."""
    config: dict = {}

    def error(self, message):
        raise argparse.ArgumentError(None, message)

    def parse_known_args(self, args=None, namespace=None):
        namespace = namespace or argparse.Namespace()
        filed = [(a, self._from_config(a, self.config[a.dest])) for a in self._actions
                 if a.option_strings and self.config.get(a.dest) is not None]
        for a, value in filed:  # a repeated flag would append to the file's list: hold it
            setattr(namespace, a.dest, None if isinstance(a, argparse._AppendAction) else value)
        namespace, extras = super().parse_known_args(args, namespace)
        for a, value in filed:  # still None: no repeated flag came, so the file's list stands
            if getattr(namespace, a.dest) is None:
                setattr(namespace, a.dest, value)
        return namespace, extras

    def _from_config(self, action, value):
        """value as its flag gives it: a switch takes a JSON bool, a list or
        repeated option a JSON list, any other a JSON number or string; the
        text of each item then gets the flag's type and choices."""
        repeated = isinstance(action, argparse._AppendAction)
        items = value if isinstance(value, list) else [value]
        if action.nargs == 0:
            want, ok = "bool", isinstance(value, bool)
        elif repeated or action.nargs in ("*", "+"):
            want = "non-empty list" if action.nargs == "+" else "list"
            ok = isinstance(value, list) and (value or action.nargs != "+")
        else:
            want, ok = "number or string", not isinstance(value, (bool, list))
        if not (ok and all(isinstance(x, (str, int, float)) for x in items)):
            raise argparse.ArgumentError(action, f"expected a JSON {want}, got {json.dumps(value)}")
        if want == "bool":
            return value
        texts = [x if isinstance(x, str) else repr(x) for x in items]
        return ([self._get_values(action, [text]) for text in texts] if repeated
                else self._get_values(action, texts))


def _spec_for(source, nodes):
    obj = load_any(source)
    if isinstance(obj, sh.MarkovShift):
        return tr.OperatorSpec(obj)
    return tr.OperatorSpec(sh.from_schottky(obj), nodes_per_disk=nodes)


def cmd_validate(args) -> int:
    group = load_group(args.group)  # construction validates; raises on failure
    print(f"group ok: model={group.model.value} generators={group.g} d={group.d}")
    print(f"fingerprint: {group.fingerprint()}")
    for i, j in itertools.combinations(range(group.n_symbols), 2):
        a, b = group.disks[i], group.disks[j]
        print(f"disk gap [{i},{j}]: {abs(a.center - b.center) - a.radius - b.radius:.6f}")
    print(f"min cycle step: {group.min_cycle_step():.6f}")
    return EXIT_OK


def cmd_delta(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    res = tr.spectral_at_delta(spec)
    print(f"delta = {res.s:.12f}   |lambda(delta)-1| = {abs(res.lam - 1.0):.3e}")
    writer = _writer(args)
    writer.write_json("summary.json", {"delta": res.s, "lambda_residual": res.residual,
                                       "abs_lambda_err": abs(res.lam - 1.0)})
    writer.finish({"input": spec.shift.fingerprint()})
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
    writer = _writer(args)
    writer.write_csv("pressure.csv", [f"u_{i}" for i in range(d)] + ["P"], rows)
    writer.write_json("summary.json", {
        "delta": surf.delta, "gradient": surf.gradient, "hessian": surf.hessian,
        "sigma": surf.sigma, "c0": surf.c0, "extra": extras})
    writer.finish({"input": spec.shift.fingerprint()})
    return EXIT_OK


def cmd_scan(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    delta = tr.critical_exponent(spec)
    t_grid = np.linspace(args.t_min, args.t_max, args.t_count)
    d = spec.shift.d
    axis = np.linspace(0.0, 2.0 * math.pi, args.v_count, endpoint=False)
    v_grid = [[x] + [0.0] * (d - 1) for x in axis] if d > 0 else [[]]
    rep = tr.spectral_radius_scan(spec, delta, t_grid, v_grid, p_list=args.p, margin=args.margin)
    print(f"delta = {delta:.12f}; max |lambda| on grid = {rep.max_abs_lambda():.8f}")
    print(f"violations: {len(rep.violations)}")
    for r in rep.violations[:10]:
        print(f"  flagged t={r.t:.6f} v={r.v} p={r.p} |lambda|={r.abs_lambda:.8f}")
    writer = _writer(args)
    writer.write_csv("scan.csv", *scan_csv_rows(rep))
    writer.write_json("summary.json", {"delta": delta, "max_abs_lambda": rep.max_abs_lambda(),
                                       "violations": len(rep.violations)})
    writer.finish({"input": spec.shift.fingerprint()})
    return EXIT_OK


def _emit_census(args, rep, extra=None, records=None) -> None:
    """Write census.csv, summary.json and, given (header, rows), records.csv."""
    writer = _writer(args)
    writer.write_csv("census.csv", *census_csv_rows(rep))
    if records is not None:
        writer.write_csv("records.csv", *records)
    writer.write_json("summary.json", {"kind": rep.kind, "checkpoints": rep.checkpoints,
                                       "totals": rep.totals, "meta": rep.meta, **(extra or {})})
    writer.finish({"group": rep.meta.get("group", "")})


def _writer(args) -> ReportWriter:
    """The command's run directory.  Its manifest config is the parsed options,
    so that the config fed back as --config reproduces the run."""
    skip = {"func", "out", "command"}  # the run directory is not configuration
    config = {k: v for k, v in vars(args).items() if k not in skip}
    return ReportWriter(args.out, args.command, config)


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
    cps = cen.checkpoints_linear(args.t_min, args.t_max, args.checkpoints)
    pred = _group_prediction(args, group)
    classes = [tuple(_parse_vec(c, int)) for c in args.classes] if args.classes else None
    records, sink = None, None
    if args.dump_records:
        rows = []
        records = (["word_len", "displacement"] + [f"xi_{i}" for i in range(group.d)], rows)
        sink = lambda r: rows.append([len(r.word), r.displacement, *r.homology])
    rep = cen.orbit_by_homology(group, pred, cps, classes=classes, budget=args.budget_cap,
                                sink=sink)
    for key in sorted(rep.counts):
        print(f"class {key}: N(T_max) = {rep.counts[key][-1]}, ratio = {rep.ratios[key][-1]:.4f}")
    _emit_census(args, rep, {"delta": pred.delta}, records)
    return EXIT_OK


def cmd_count_geodesics(args) -> int:
    group = load_group(args.group)
    cps = cen.checkpoints_linear(args.l_min, args.l_max, args.checkpoints)
    pred = _group_prediction(args, group, use_sigma=group.d >= 1)
    records, sink = None, None
    if args.dump_records:
        rows = []
        records = (["word_len", "displacement"] + [f"xi_{i}" for i in range(group.d)]
                   + ["length", "holonomy"], rows)

        def sink(r):
            rows.append([len(r.word), displacement(r.matrix), *r.homology, r.length,
                         r.holonomy])
    rep = cen.geodesics_by_homology(group, pred, cps, budget=args.budget_cap, sink=sink)
    key = (0,) * group.d
    print(f"primitive classes <= {args.l_max}: {rep.totals[-1]}")
    print(f"trivial-class ratio to the absolute law: {rep.ratios[key][-1]:.4f}")
    _emit_census(args, rep, {"delta": pred.delta, "sigma": pred.sigma}, records)
    return EXIT_OK


def cmd_count_vectors(args) -> int:
    group = load_group(args.group)
    cps = np.exp(cen.checkpoints_linear(math.log(args.t_min), math.log(args.t_max),
                                        args.checkpoints))
    pred = _group_prediction(args, group)
    rep = cen.vector_orbit(group, pred, _parse_vec(args.w0), cps, norm=args.norm,
                           budget=args.budget_cap)
    cts = rep.counts["vectors"]
    print(f"vectors with norm <= {args.t_max:.3e}: {cts[-1]}")
    half = len(cps) // 2
    exponent = cen.fit_growth(np.log(cps)[half:], cts[half:], fix_log_power=-group.d / 2.0)
    print(f"fitted exponent {exponent:.4f} (delta = {pred.delta:.4f})")
    _emit_census(args, rep, {"delta": pred.delta, "fitted_exponent": exponent})
    return EXIT_OK


def cmd_holonomy(args) -> int:
    group = load_group(args.group)
    cps = cen.checkpoints_linear(args.l_min, args.l_max, args.checkpoints)
    rep = cen.holonomy_equidistribution(group, args.p, cps, budget=args.budget_cap)
    for p in sorted(rep.ratios):
        print(f"p={p}: |char sum|/count at L_max = {rep.ratios[p][-1]:.5f}")
    _emit_census(args, rep)
    return EXIT_OK


def cmd_clt(args) -> int:
    spec = _spec_for(args.group, args.nodes)
    shift = spec.shift
    if shift.d < 1:
        raise ValidationError("CLT check needs homology dimension d >= 1")
    surf = tr.pressure_surface(spec)
    delta, sr = surf.delta, surf.spectral
    tau, f = sh.sample_cocycle_batch(sr, args.steps, args.traj, args.seed)
    z = f / np.sqrt(tau)[:, None]
    print(f"delta = {delta:.9f}, Cov reference = {surf.hessian.tolist()}")
    chk = st.clt_check(z, surf.hessian) if args.traj >= 1000 else None
    # np.cov's shape, a scalar when d = 1; undefined below 2 trajectories
    cov = (chk.covariance.squeeze() if chk is not None
           else np.cov(z.T) if args.traj >= 2 else None)
    summary = {
        "delta": delta, "sigma": surf.sigma, "hessian": surf.hessian,
        "empirical_mean": z.mean(axis=0), "empirical_cov": cov, "gaussian_check": None,
        "sample_head": {"tau": tau[:8], "f": f[:8, 0]}}
    if chk is not None:
        print(f"empirical covariance = {chk.covariance.tolist()}")
        print(f"ks_p = {chk.ks_p}, chi2_p = {chk.chi2_p:.4f}")
        summary["gaussian_check"] = {"ks_p": list(chk.ks_p), "chi2_p": chk.chi2_p}
    elif cov is not None:
        print(f"empirical covariance = {cov.tolist()} (too few trajectories for p-values)")
    else:
        print("empirical covariance undefined (fewer than 2 trajectories)")
    writer = _writer(args)
    writer.write_json("summary.json", summary)
    if args.dump_trajectory:
        rows = sh.sample_trajectory(sr, args.dump_trajectory, args.seed)
        header = ["step", "symbol", "tau_cum"] + [f"f_cum_{i}" for i in range(shift.d)]
        writer.write_csv("trajectory.csv", header, rows)
    writer.finish({"input": spec.shift.fingerprint()})
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from .acceptance import run_all

    def show(res):
        mark = _color("PASS", "32") if res.passed else _color("FAIL", "31")
        print(f"[{mark}] {res.cid:>4} {res.name}  ({res.seconds:.1f}s)")
        for k, v in res.details.items():
            print(f"         {k} = {v}")

    results = run_all(seed=args.seed, progress=show)
    n_fail = sum(not r.passed for r in results)
    writer = _writer(args)
    # timings go to stdout only; report files must be bitwise reproducible
    writer.write_json("summary.json", [{"cid": r.cid, "name": r.name, "passed": r.passed,
                                        "details": r.details} for r in results])
    writer.write_csv("results.csv", ["cid", "name", "passed"],
                     [[r.cid, r.name, int(r.passed)] for r in results])
    manifest = writer.finish()
    print(f"\n{len(results) - n_fail}/{len(results)} criteria passed; "
          f"manifest {manifest['manifest_sha256'][:12]} in {writer.dir}")
    return EXIT_OK if n_fail == 0 else EXIT_ACCEPT


def build_parser(config=None) -> argparse.ArgumentParser:
    """The CLI, reading the options of a --config file first (see _Parser)."""
    ap = _Parser(prog="covercount", description=__doc__.splitlines()[0])
    ap.config = config or {}
    ap.add_argument("--out", default="out", help="output directory root")
    sub = ap.add_subparsers(dest="command", required=True)
    ap._command_parsers = {}

    shared = {"--group": dict(help="group file, or fixture:<name>"),
              "--nodes": dict(type=_rule("int >= 8", int, lambda n: n >= 8), default=24,
                              help="collocation nodes per disk"),
              "--checkpoints": dict(type=_POSITIVE_INT),
              "--budget-cap": dict(type=_POSITIVE_INT, default=5_000_000),
              "--seed": dict(type=_NATURAL),
              "--dump-records": dict(action="store_true", help="also write records.csv")}
    spectral, census = "--group --nodes", "--group --nodes --checkpoints --budget-cap"

    def add(name, fn, help, options, **defaults):
        """A subcommand with the named shared options, at these defaults."""
        p = ap._command_parsers[name] = sub.add_parser(name, help=help)
        p.config = ap.config
        for flag in options.split():
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=fn, **defaults)
        return p

    add("validate", cmd_validate, "check a group definition file", "--group")
    add("delta", cmd_delta, "critical exponent via the transfer operator", spectral)

    p = add("pressure", cmd_pressure, "pressure surface: gradient, Hessian, sigma, C0", spectral)
    p.add_argument("--u", action="append", default=[], type=_FLOATS,
                   help="extra twist point, e.g. '0.3' or '0.3,0.1'")

    p = add("scan", cmd_scan, "spectral radius scan on the critical line", spectral, nodes=48)
    p.add_argument("--t-min", type=_FINITE, default=0.05)
    p.add_argument("--t-max", type=_FINITE, default=5.0)
    p.add_argument("--t-count", type=_POSITIVE_INT, default=25)
    p.add_argument("--v-count", type=_POSITIVE_INT, default=16)
    p.add_argument("--p", type=int, nargs="+", default=[0])
    p.add_argument("--margin", type=_FINITE, default=1e-3)

    p = add("count-orbit", cmd_count_orbit, "orbit census by homology class",
            census + " --dump-records", checkpoints=12)
    p.add_argument("--t-min", type=_FINITE, default=5.0)
    p.add_argument("--t-max", type=_FINITE, default=12.0)
    p.add_argument("--classes", nargs="*", type=_INTS,
                   help="homology classes like '0' '1' '-1', or '1,0' when d = 2")

    p = add("count-geodesics", cmd_count_geodesics,
            "primitive closed geodesics vs the absolute law", census + " --dump-records",
            checkpoints=10)
    p.add_argument("--l-min", type=_FINITE, default=8.0)
    p.add_argument("--l-max", type=_FINITE, default=16.0)

    p = add("count-vectors", cmd_count_vectors, "vector orbit counting in R^3", census,
            checkpoints=12)
    p.add_argument("--w0", type=_FLOATS, default="1,0,1")
    p.add_argument("--t-min", type=_POSITIVE, default=math.e ** 6,
                   help="first checkpoint; checkpoints are log-spaced")
    p.add_argument("--t-max", type=_POSITIVE, default=math.e ** 13)
    p.add_argument("--norm", choices=["euclidean", "sup"], default="euclidean")

    p = add("holonomy", cmd_holonomy, "holonomy character sums over classes",
            "--group --checkpoints --budget-cap", checkpoints=8)
    p.add_argument("--l-min", type=_FINITE, default=9.0)
    p.add_argument("--l-max", type=_FINITE, default=17.0)
    p.add_argument("--p", type=int, nargs="+", default=[1, 2, 3])

    p = add("clt", cmd_clt, "Gaussian check for the homology cocycle", spectral + " --seed")
    p.add_argument("--traj", type=_POSITIVE_INT, default=10_000)
    p.add_argument("--steps", type=_POSITIVE_INT, default=10_000)
    p.add_argument("--dump-trajectory", type=_NATURAL, default=0, metavar="STEPS",
                   help="write one trajectory dump of this many steps")

    add("verify-all", cmd_verify_all, "run the full acceptance suite", "--seed")
    return ap


def _read_config(argv: list) -> dict:
    """Take --config FILE out of argv; the file's options, keyed by dest."""
    if "--config" not in argv:
        return {}
    i = argv.index("--config")
    try:
        with open(argv[i + 1]) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("not a JSON object")
    except (IndexError, OSError, ValueError) as e:
        raise argparse.ArgumentError(None, f"bad --config: {e}")
    del argv[i:i + 2]
    return {k.replace("-", "_"): v for k, v in cfg.items()}


def main(argv=None) -> int:
    # the modules imported so far live as long as the job: keep the cyclic
    # collector's full passes, which a census's allocations trigger, off them
    gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ap = build_parser(_read_config(argv))
        known = {a.dest for p in (ap, *ap._command_parsers.values())
                 for a in p._actions if a.option_strings} - {"help"}
        if set(ap.config) - known:
            ap.error(f"bad --config: unknown keys {sorted(set(ap.config) - known)}")
        args = ap.parse_args(argv)
        for name in ("group", "seed"):
            if getattr(args, name, "") is None:
                ap.error(f"--{name} is required (flag or config file)")
        return args.func(args)
    except SystemExit as e:  # --help
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    except (argparse.ArgumentError, CovercountError, FileNotFoundError) as e:
        print(f"error: {str(e).removeprefix('argument ')}", file=sys.stderr)
        compute = isinstance(e, CovercountError) and (
            args.command == "validate" or not isinstance(e, ValidationError))
        return EXIT_COMPUTE if compute else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
