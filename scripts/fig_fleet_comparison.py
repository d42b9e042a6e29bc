#!/usr/bin/env python3
"""Average UoI and error-bound violation for the four fleet schedulers.

Fleet of N terminals (success probabilities 0.7..1.0, two-point weights
with a 5% chance of 100), K = 2 sub-channels, horizon 10^6 with 10
replications by default, all four schedulers of one N in one run.  Writes
one CSV with a row per scheduler/N pair, plus (x, y, yerr) curve files
over N.
"""

import argparse

from uoi_sim.cli import require_writable
from uoi_sim.harness import config_from_dict, export, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=10**6)
    ap.add_argument("--replications", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--window", type=int, default=16)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 20, 30])
    ap.add_argument("--out", default="fig_fleet")
    args = ap.parse_args()
    require_writable(args.out + ".csv")
    require_writable(args.out, directory=True)

    rows = []
    for n in args.sizes:
        cfg = config_from_dict({
            "scenario": "csma", "horizon": args.horizon,
            "replications": args.replications, "seed": args.seed,
            "policies": ["centralized", "distributed", "aoi", "round-robin"],
            "fleet": {"n": n, "k": 2},
            "contention": {"w": args.window},
            "weights": {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0,
                        "prob_hi": 0.05}})
        for row in run(cfg):
            rows.append(row)
            print(f"N={n:<3d} {row.policy:12s}: avg_uoi {row.avg_uoi:8.3f} "
                  f"violation {row.violation_prob:.5f}")
    export(rows, "csv", args.out + ".csv")
    export(rows, "plot", args.out)
    print(f"wrote {args.out}.csv and curve files under {args.out}/")


if __name__ == "__main__":
    main()
