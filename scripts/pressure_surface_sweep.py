#!/usr/bin/env python3
"""Sweep the pressure P(u) on a twist grid and write gnuplot-ready data.

Example:
    python scripts/pressure_surface_sweep.py --group fixture:b \
        --u-max 1.5 --points 31 --out pressure_b.dat
"""

import sys

import numpy as np

from covercount.cli import _FINITE, _NODES, _POSITIVE_INT, _Parser, exit_code
from covercount.groupfile import load_any
from covercount.shift import MarkovShift, from_schottky
from covercount.transfer import OperatorSpec, pressure, pressure_surface


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--group", default="fixture:b")
    ap.add_argument("--nodes", type=_NODES, default=24)
    ap.add_argument("--u-max", type=_FINITE, default=1.5)
    ap.add_argument("--points", type=_POSITIVE_INT, default=31)
    ap.add_argument("--out", default="pressure_sweep.dat")
    args = ap.parse_args()

    obj = load_any(args.group)
    shift = obj if isinstance(obj, MarkovShift) else from_schottky(obj)
    spec = OperatorSpec(shift) if not shift.analytic else \
        OperatorSpec(shift, nodes_per_disk=args.nodes)
    surf = pressure_surface(spec)
    print(f"delta = {surf.delta:.12f}  sigma = {surf.sigma:.9f}  C0 = {surf.c0:.9f}")

    us = np.linspace(-args.u_max, args.u_max, args.points)
    d = shift.d
    with open(args.out, "w") as fh:
        if d == 1:
            fh.write("# u  P(u)  quadratic_model\n")
            for u in us:
                quad = surf.delta + 0.5 * surf.hessian[0, 0] * u * u
                fh.write(f"{u:.6f} {pressure(spec, [u]):.12f} {quad:.12f}\n")
        else:
            fh.write("# u0 u1 P(u)   (first two twist coordinates; gnuplot splot)\n")
            for u0 in us:
                for u1 in us:
                    vec = np.zeros(d)
                    vec[0], vec[1] = u0, u1
                    fh.write(f"{u0:.6f} {u1:.6f} {pressure(spec, vec):.12f}\n")
                fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
