#!/usr/bin/env python3
"""Average UoI versus update budget rho, one curve per tradeoff V.

Sweeps rho over 0.1..0.9 for V in {1, 8, 64, 512} on the two-point-weight
single-terminal system (p = 0.8) and writes one (x, y, yerr) curve file
per V.
"""

import argparse

from uoi_sim.cli import require_writable
from uoi_sim.harness import config_from_dict, export, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=10**6)
    ap.add_argument("--replications", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="fig_tradeoff")
    ap.add_argument("--vs", type=float, nargs="+", default=[1.0, 8.0, 64.0, 512.0])
    ap.add_argument("--rhos", type=float, nargs="+",
                    default=[round(0.1 * i, 1) for i in range(1, 10)])
    args = ap.parse_args()
    require_writable(args.out, directory=True)

    rows = []
    for v in args.vs:
        for rho in args.rhos:
            cfg = config_from_dict({
                "scenario": "single", "horizon": args.horizon,
                "replications": args.replications, "seed": args.seed,
                "rho": rho, "v": v, "policies": ["adaptive"],
                "terminal": {"p": 0.8, "sigma2": 1.0},
                "weights": {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0,
                            "prob_hi": 0.01}})
            row = run(cfg)[0]
            rows.append(row)
            print(f"V={v:<6g} rho={rho:g}: avg_uoi {row.avg_uoi:8.3f} "
                  f"freq {float(row.avg_update_freq[0]):.3f} "
                  f"bound {row.bound_value:.3f}")
    paths = export(rows, "plot", args.out)
    print("wrote " + ", ".join(paths))


if __name__ == "__main__":
    main()
