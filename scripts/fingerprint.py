#!/usr/bin/env python3
"""Bitwise fingerprint of the simulator's outputs.

Runs a fixed set of single, multi, csma, control, mdp and waterfill configs
through `harness.run` at two seeds and prints one line per output item:

    <sha256>  <config> seed=<seed> <policy>   every RunMetrics field
    <sha256>  <config> seed=<seed> draws      per-(kind, terminal) draw counts

Floats are hashed as hex floats, so two checkouts print the same lines
exactly when they compute the same bits.  Diff the output of two checkouts:

    PYTHONPATH=src python3 scripts/fingerprint.py > after.txt

The draw counts come from every StreamFactory the harness creates during
the config's run, in creation order.
"""

import argparse
import dataclasses
import hashlib
import json

import numpy as np

from uoi_sim import harness
from uoi_sim.rng import StreamFactory

FLEET_WEIGHTS = {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0, "prob_hi": 0.05}
BURST_WEIGHTS = {"kind": "periodic-burst", "base": 1.0, "burst": 100.0,
                 "period": 500, "burst_len": 20}
MULTI = ["centralized", "aoi", "round-robin", "stationary"]


def _fleet(n: int, k: int = 2) -> dict:
    return {"n": n, "k": k, "p_min": 0.7, "p_max": 1.0, "sigma2": 1.0}


CONFIGS = {
    "single": {"scenario": "single", "horizon": 3000, "replications": 2, "trace": True,
               "policies": ["adaptive", "periodic", "random", "age-threshold",
                            "rvi-uoi", "rvi-aoi"],
               "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "single-rare": {"scenario": "single", "horizon": 3000, "rho": 0.004,
                    "policies": ["age-threshold", "rvi-aoi"],
                    "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "single-burst": {"scenario": "single", "horizon": 3000, "weights": BURST_WEIGHTS,
                     "policies": ["adaptive", "age-threshold"]},
    "single-long": {"scenario": "single", "horizon": 10000, "n_batches": 1,
                    "policies": ["adaptive", "rvi-uoi", "random"],
                    "mdp": {"q_max": 2.0, "q_step": 0.5}},
    "single-trace-long": {"scenario": "single", "horizon": 10000, "n_batches": 1,
                          "trace": True, "thresholds": {"1": 2.0, "100": 1.0},
                          "policies": ["adaptive", "periodic", "random", "age-threshold",
                                       "rvi-uoi", "rvi-aoi"],
                          "mdp": {"q_max": 2.0, "q_step": 0.5}},
    # 10 001 slots in one batch, a multiple of neither the 256-coin buffer nor
    # the 4096-slot block, at a budget whose periodic credit is inexact
    "single-blind-long": {"scenario": "single", "horizon": 10001, "n_batches": 1,
                          "rho": 0.3, "trace": True, "thresholds": {"1": 2.0, "100": 1.0},
                          "policies": ["periodic", "random", "age-threshold", "rvi-aoi"]},
    # a q step that is not a power of two, so (q + q_max) / q_step rounds, at
    # a budget whose calibrated table sends at random at some q bins
    "single-uoi-step03": {"scenario": "single", "horizon": 10000, "n_batches": 1,
                          "rho": 0.25, "trace": True, "policies": ["rvi-uoi"],
                          "mdp": {"q_max": 3.0, "q_step": 0.3}},
    "multi-n10": {"scenario": "multi", "horizon": 3000, "replications": 2, "trace": True,
                  "policies": MULTI, "fleet": _fleet(10), "weights": FLEET_WEIGHTS},
    "multi-n30": {"scenario": "multi", "horizon": 3000, "replications": 2,
                  "policies": MULTI, "fleet": _fleet(30), "weights": FLEET_WEIGHTS},
    "multi-n1": {"scenario": "multi", "horizon": 500, "policies": MULTI,
                 "fleet": _fleet(1, k=1)},
    "multi-n1-long": {"scenario": "multi", "horizon": 70000, "n_batches": 1,
                      "policies": ["centralized"], "fleet": _fleet(1, k=1)},
    "multi-burst": {"scenario": "multi", "horizon": 1200, "n_batches": 7,
                    "policies": ["stationary", "centralized", "round-robin"],
                    "fleet": _fleet(5, k=3), "weights": BURST_WEIGHTS},
    # equal p, so the age index ties in every slot and top K breaks ties by id
    "multi-tied": {"scenario": "multi", "horizon": 3000, "replications": 2, "trace": True,
                   "policies": ["aoi", "centralized"], "thresholds": {"1": 3.0, "100": 1.0},
                   "fleet": {"n": 10, "k": 2, "p_min": 0.8, "p_max": 0.8, "sigma2": 1.0},
                   "weights": FLEET_WEIGHTS},
    # an error variance other than the terminal default, set in the fleet section
    "multi-sigma2": {"scenario": "multi", "horizon": 3000, "trace": True, "policies": MULTI,
                     "fleet": dict(_fleet(10), sigma2=2.0), "weights": FLEET_WEIGHTS},
    "csma-n10-w16": {"scenario": "csma", "horizon": 3000, "replications": 2, "trace": True,
                     "policies": ["distributed", "centralized"], "fleet": _fleet(10),
                     "contention": {"w": 16}, "weights": FLEET_WEIGHTS},
    "csma-n30-w4": {"scenario": "csma", "horizon": 3000, "replications": 2,
                    "policies": ["distributed"], "fleet": _fleet(30),
                    "contention": {"w": 4}, "weights": FLEET_WEIGHTS},
    "csma-n4-w3": {"scenario": "csma", "horizon": 1000, "policies": ["distributed"],
                   "fleet": _fleet(4), "contention": {"w": 3}},
    "csma-n20-k3-w8": {"scenario": "csma", "horizon": 8000, "n_batches": 7,
                       "policies": ["distributed"], "fleet": _fleet(20, k=3),
                       "contention": {"w": 8}, "weights": FLEET_WEIGHTS},
    "csma-reps3": {"scenario": "csma", "horizon": 2000, "replications": 3, "n_batches": 7,
                   "policies": ["distributed", "centralized"], "fleet": _fleet(10),
                   "contention": {"w": 8}, "thresholds": {"1": 3.0, "100": 1.0},
                   "weights": FLEET_WEIGHTS},
    # one sub-channel: every window closes at its first firing mini-slot
    "csma-n8-k1-w4": {"scenario": "csma", "horizon": 3000, "replications": 2, "trace": True,
                      "policies": ["distributed", "centralized"], "fleet": _fleet(8, k=1),
                      "contention": {"w": 4}, "weights": FLEET_WEIGHTS},
    # W = K + 1 at N = 30: collisions starve the deliveries, the threshold
    # falls behind the index, and many terminals contend, and collide, per slot
    "csma-storm-n30-w3": {"scenario": "csma", "horizon": 3000, "n_batches": 7,
                          "policies": ["distributed"], "fleet": _fleet(30),
                          "contention": {"w": 3}, "weights": FLEET_WEIGHTS},
    "csma-all": {"scenario": "csma", "horizon": 3000, "replications": 2,
                 "policies": ["distributed"] + MULTI, "fleet": _fleet(10),
                 "contention": {"w": 8}, "weights": FLEET_WEIGHTS},
    "control": {"scenario": "control", "horizon": 3000, "replications": 2,
                "policies": ["adaptive", "periodic", "random", "age-threshold"],
                "control": {"a": 0.9, "b": 0.5}},
    "control-long": {"scenario": "control", "horizon": 10000, "n_batches": 1,
                     "policies": ["adaptive"]},
    "mdp-uoi": {"scenario": "mdp", "policies": ["rvi-uoi"],
                "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "mdp-aoi": {"scenario": "mdp", "policies": ["rvi-aoi"],
                "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "mdp-uoi-rare": {"scenario": "mdp", "rho": 0.004, "policies": ["rvi-uoi"],
                     "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "mdp-aoi-rare": {"scenario": "mdp", "rho": 0.004, "policies": ["rvi-aoi"],
                     "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "mdp-both": {"scenario": "mdp", "policies": ["rvi-aoi", "rvi-uoi"],
                 "mdp": {"q_max": 8.0, "q_step": 0.5}},
    "waterfill": {"scenario": "waterfill", "fleet": _fleet(10), "weights": FLEET_WEIGHTS},
}


def canonical(obj):
    """JSON-ready form with every float as a hex string."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [str(obj.dtype), list(obj.shape), canonical(obj.ravel().tolist())]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return sorted([repr(k), canonical(v)] for k, v in obj.items())
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [[f.name, canonical(getattr(obj, f.name))]
                                       for f in dataclasses.fields(obj)]
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canonical(obj)).encode()).hexdigest()


def fingerprint(name: str, raw: dict, seed: int) -> list[str]:
    """The output lines of one raw config at one seed."""
    made = []

    class RecordingFactory(StreamFactory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    harness.StreamFactory = RecordingFactory
    try:
        rows = harness.run(harness.config_from_dict(dict(raw, seed=seed)))
    finally:
        harness.StreamFactory = StreamFactory
    lines = [f"{digest(m)}  {name} seed={seed} {m.policy}" for m in rows]
    lines.append(f"{digest([f.draw_counts() for f in made])}  {name} seed={seed} draws")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    args = ap.parse_args()
    for seed in args.seeds:
        for name, raw in CONFIGS.items():
            for line in fingerprint(name, raw, seed):
                print(line, flush=True)


if __name__ == "__main__":
    main()
