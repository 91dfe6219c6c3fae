#!/usr/bin/env python3
"""|lambda(delta + i t, v)| over a (t, v) grid, as gnuplot heat-map data.

Example:
    python scripts/spectral_gap_heatmap.py --group fixture:b --out gap_b.dat
    gnuplot> plot "gap_b.dat" using 1:2:3 with image
"""

import sys

import numpy as np

from covercount.cli import _FINITE, _NODES, _POSITIVE_INT, _Parser, exit_code
from covercount.groupfile import load_group
from covercount.shift import from_schottky
from covercount.transfer import OperatorSpec, critical_exponent, spectral_radius_scan


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--group", default="fixture:b")
    ap.add_argument("--nodes", type=_NODES, default=48)
    ap.add_argument("--t-max", type=_FINITE, default=5.0)
    ap.add_argument("--t-count", type=_POSITIVE_INT, default=25)
    ap.add_argument("--v-count", type=_POSITIVE_INT, default=16)
    ap.add_argument("--out", default="spectral_gap.dat")
    args = ap.parse_args()

    group = load_group(args.group)
    spec = OperatorSpec(from_schottky(group), nodes_per_disk=args.nodes)
    delta = critical_exponent(spec)
    t_grid = np.linspace(0.05, args.t_max, args.t_count)
    v_axis = np.linspace(0.0, 2 * np.pi, args.v_count, endpoint=False)
    v_grid = [[v] + [0.0] * (group.d - 1) for v in v_axis]
    rep = spectral_radius_scan(spec, delta, t_grid, v_grid)
    print(f"delta = {delta:.9f}, max |lambda| on grid = {rep.max_abs_lambda():.6f}, "
          f"violations = {len(rep.violations)}")

    with open(args.out, "w") as fh:
        fh.write("# t  v0  abs_lambda\n")
        last_t = None
        for row in rep.rows:
            if last_t is not None and row.t != last_t:
                fh.write("\n")
            last_t = row.t
            fh.write(f"{row.t:.6f} {row.v[0]:.6f} {row.abs_lambda:.10f}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
