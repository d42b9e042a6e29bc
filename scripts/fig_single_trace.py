#!/usr/bin/env python3
"""Sample path of the virtual queue and squared error under bursty context.

Reproduces the single-terminal trace setup: rho = 0.25, perfect channel,
weight 1 for the first 4950 slots of every 5000 and 100 for the last 50,
V = 1.  Writes a CSV of (slot, H, Q^2, uoi) rows.
"""

import argparse
import csv

from uoi_sim.cli import require_writable
from uoi_sim.harness import config_from_dict, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rho", type=float, default=0.25)
    ap.add_argument("--out", default="fig_single_trace.csv")
    args = ap.parse_args()
    require_writable(args.out)

    row = run(config_from_dict({
        "scenario": "single", "horizon": args.horizon, "seed": args.seed,
        "rho": args.rho, "v": 1.0, "policies": ["adaptive"], "trace": True,
        "terminal": {"p": 1.0, "sigma2": 1.0},
        "weights": {"kind": "periodic-burst", "base": 1.0, "burst": 100.0,
                    "period": 5000, "burst_len": 50}}))[0]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "h", "q2", "uoi"])
        for t, h, q, f in row.trace:
            writer.writerow([t, f"{h:.6f}", f"{q * q:.6f}", f"{f:.6f}"])
    print(f"avg_uoi {row.avg_uoi:.4f}, freq {row.avg_update_freq[0]:.4f}; wrote {args.out}")


if __name__ == "__main__":
    main()
