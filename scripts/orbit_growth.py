#!/usr/bin/env python3
"""Orbit growth experiment: enumerate to T_max, compare N_xi(T) against
c e^{delta T} / T^{d/2}, fit the growth exponent, and write plot data.

Example:
    python scripts/orbit_growth.py --group fixture:b --t-max 13 --out growth_b.dat
"""

import sys

import numpy as np

from covercount.census import checkpoints_linear, fit_growth, orbit_by_homology
from covercount.cli import _FINITE, _FIT_COUNT, _NODES, _Parser, exit_code
from covercount.groupfile import load_group
from covercount.shift import from_schottky
from covercount.transfer import OperatorSpec, critical_exponent


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--group", default="fixture:b")
    ap.add_argument("--nodes", type=_NODES, default=24)
    ap.add_argument("--t-min", type=_FINITE, default=5.0)
    ap.add_argument("--t-max", type=_FINITE, default=13.0)
    ap.add_argument("--checkpoints", type=_FIT_COUNT, default=14)
    ap.add_argument("--out", default="orbit_growth.dat")
    args = ap.parse_args()

    group = load_group(args.group)
    spec = OperatorSpec(from_schottky(group), nodes_per_disk=args.nodes)
    delta = critical_exponent(spec)
    cps = checkpoints_linear(args.t_min, args.t_max, args.checkpoints)
    rep = orbit_by_homology(group, delta, cps)

    slope = fit_growth(cps, rep.totals, fix_log_power=0.0)
    print(f"delta = {delta:.6f}, fitted slope = {slope:.6f} "
          f"(difference {abs(slope - delta):.2e})")

    zero = (0,) * group.d
    n0 = rep.counts.get(zero, np.zeros(len(cps), dtype=int))
    corrected = n0 * np.exp(-delta * cps) * cps ** (group.d / 2.0)
    with open(args.out, "w") as fh:
        fh.write("# T  N_total  N_zero_class  corrected_zero_class\n")
        for i, T in enumerate(cps):
            fh.write(f"{T:.4f} {rep.totals[i]} {n0[i]} {corrected[i]:.8f}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
