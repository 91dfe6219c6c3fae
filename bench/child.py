"""Run one covercount CLI job in this (fresh) process and record its timings.

    python3 child.py RESULT_JSON TRACE -- CLI_ARGS...

The parent notes when it started the process.  This script imports the CLI,
notes when it enters ``cli.main`` and when main returns, and writes the exit
code, both times (CLOCK_MONOTONIC, comparable across processes), the peak RSS
and, with TRACE=1, the spans of calls into covercount's public functions to
RESULT_JSON.

Tracing wraps module attributes at runtime; the library itself is not
changed.  A span is ``[name, start, end, parent, callback_s, info]``: parent
is the index of the enclosing span (-1 at top level), callback_s the time an
enumerator spent inside its ``emit`` callback (that time belongs to the
caller), and info a work count taken from the arguments or the result.
Spans stay in memory until main returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
import traceback


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs, res: sig.bind(*args, **kwargs).arguments[name]


def _targets():
    """(module, attribute, span name, work count, times emit) of each traced
    call; the span name defaults to ``<module>.<attribute>``.

    ``hyperbolic`` is left out on purpose: its helpers run per word, so timing
    them from outside would distort the run they measure.
    """
    tr = importlib.import_module("covercount.transfer")
    sh = importlib.import_module("covercount.shift")
    returned = lambda args, kwargs, res: res  # noqa: E731
    batch_n, batch_m = (_arg(sh.sample_cocycle_batch, k) for k in ("n", "n_traj"))
    written = lambda args, kwargs, res: res.stat().st_size  # noqa: E731
    return [
        ("transfer", "leading_eigenvalue", None, None, False),
        ("transfer", "build_matrix", None, None, False),
        ("transfer", "critical_exponent", None, None, False),
        ("transfer", "pressure", None, None, False),
        ("transfer", "pressure_surface", None, None, False),
        ("transfer", "spectral_radius_scan", None,
         lambda args, kwargs, res: len(res.rows), False),
        ("transfer", "CollocationGrid.__init__", "transfer.grid_build",
         _arg(tr.CollocationGrid.__init__, "nodes_per_disk"), False),
        ("transfer", "CollocationGrid.interp_values", "transfer.interp_values", None, False),
        ("schottky", "enumerate_orbit", None, returned, True),
        ("schottky", "primitive_classes", None, returned, True),
        ("census", "orbit_by_homology", None, None, False),
        ("census", "geodesics_by_homology", None, None, False),
        ("census", "holonomy_equidistribution", None, None, False),
        ("census", "vector_orbit", None, None, False),
        ("shift", "parry_chain", None, None, False),
        ("shift", "sample_cocycle_batch", None,
         lambda args, kwargs, res: batch_n(args, kwargs, res) * batch_m(args, kwargs, res),
         False),
        ("shift", "sample_trajectory", None, _arg(sh.sample_trajectory, "n"), False),
        ("stats", "clt_check", None, None, False),
        ("reporting", "ReportWriter.write_json", "reporting.write", written, False),
        ("reporting", "ReportWriter.write_csv", "reporting.write", written, False),
        ("reporting", "ReportWriter.finish", "reporting.write",
         lambda args, kwargs, res: (args[0].dir / "manifest.json").stat().st_size, False),
        ("groupfile", "load_group", "groupfile.load", None, False),
        ("groupfile", "load_any", "groupfile.load", None, False),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, info, times_emit):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed_emit(span, emit):
            def call(rec):
                t = clock()
                try:
                    return emit(rec)
                finally:
                    span[4] += clock() - t
            return call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            if times_emit:  # both enumerators take emit third
                if kwargs.get("emit") is not None:
                    kwargs["emit"] = timed_emit(span, kwargs["emit"])
                elif len(args) > 2 and args[2] is not None:
                    args = args[:2] + (timed_emit(span, args[2]),) + args[3:]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, res)
            return res

        return traced

    def install(self) -> None:
        """Wrap every target, and every other binding of the same function
        in covercount's modules (``cli`` imports ``load_group`` by name)."""
        wrapped = {}
        for module, path, name, info, times_emit in _targets():
            owner = importlib.import_module(f"covercount.{module}")
            name = name or f"{module}.{path}"
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapped[id(fn)] = (fn, self._wrap(name, fn, info, times_emit))
            setattr(owner, attr, wrapped[id(fn)][1])
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "covercount":
                continue
            for key, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- CLI_ARGS...")
    from covercount import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    enter = time.monotonic()
    try:
        rc = cli.main(sys.argv[4:])
    except Exception:  # report the crash as a failed job, with its timings
        traceback.print_exc()
        rc = 70
    leave = time.monotonic()
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "enter": enter, "leave": leave,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "spans": tracer.spans if tracer is not None else None}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
