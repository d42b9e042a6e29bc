#!/usr/bin/env python3
"""Distributed-to-centralized UoI ratio as the contention window grows.

Small windows collide often; large windows stretch the slot (and the
per-slot error variance) by 1 + W/100.  Writes one curve of
(W, ratio, 0) per fleet size.
"""

import argparse

from uoi_sim.cli import require_writable
from uoi_sim.harness import config_from_dict
from uoi_sim.rng import StreamFactory
from uoi_sim.sim import FleetLane, run_fleet_lanes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--windows", type=int, nargs="+", default=[3, 4, 8, 16, 32, 64])
    ap.add_argument("--out", default="fig_window_ratio.csv")
    args = ap.parse_args()
    require_writable(args.out)

    cfg = config_from_dict({
        "scenario": "csma", "fleet": {"n": args.n, "k": 2},
        "weights": {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0,
                    "prob_hi": 0.05}})
    # One lane call: the centralized lane and a distributed lane per window,
    # each on a fresh StreamFactory(seed), so all face the same random numbers.
    central, *distributed = run_fleet_lanes(
        cfg.fleet, cfg.weights,
        [FleetLane("centralized", StreamFactory(args.seed))]
        + [FleetLane("distributed", StreamFactory(args.seed), window=w) for w in args.windows],
        horizon=args.horizon)
    lines = ["w,ratio,avg_uoi_distributed,avg_uoi_centralized"]
    for w, res in zip(args.windows, distributed):
        ratio = res.avg_uoi / central.avg_uoi
        lines.append(f"{w},{ratio:.4f},{res.avg_uoi:.4f},{central.avg_uoi:.4f}")
        print(f"W={w:<3d} distributed {res.avg_uoi:8.3f} ratio {ratio:.3f}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
