#!/usr/bin/env python3
"""Tracking-control comparison of the four update policies.

Prints, per policy, the weighted tracking cost, which is the row's average
UoI (the error the policy reads is the tracking error), and its split into
weighted estimation error plus the noise floor.
"""

import argparse

from uoi_sim.cli import require_writable
from uoi_sim.harness import config_from_dict, export, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=10**6)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rho", type=float, default=0.25)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--noise-var", type=float, default=1.0, dest="noise_var")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if args.out:
        require_writable(args.out)

    cfg = config_from_dict({
        "scenario": "control", "horizon": args.horizon, "seed": args.seed,
        "rho": args.rho,
        "policies": ["adaptive", "age-threshold", "periodic", "random"],
        "control": {"a": args.a, "b": 1.0, "noise_var": args.noise_var},
        "terminal": {"p": 0.8, "sigma2": 1.0},
        "weights": {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0,
                    "prob_hi": 0.01}})
    rows = run(cfg)
    for m in rows:
        x = m.extras
        print(f"{m.policy:13s} track {x['avg_track_cost']:8.4f} = "
              f"a^2*est {args.a ** 2 * x['avg_est_cost']:8.4f} + floor "
              f"{x['noise_floor']:6.4f}  (freq {float(m.avg_update_freq[0]):.4f})")
    if args.out:
        export(rows, "csv", args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
