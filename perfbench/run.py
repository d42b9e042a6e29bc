#!/usr/bin/env python3
"""Layered benchmark of uoi-sim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
src/.  One single-threaded process, a closed loop with one caller: each
round calls every operation of the workload once, in order, and rounds
repeat until S seconds have passed (at least one round).  Round 1's
outputs are checked against independent computations; later rounds must
reproduce them exactly.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1
runs the same untraced rounds, then traced rounds, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5          # set-ups per run; setup_s is their median
API_MODULES = ("harness", "mdp", "sim", "rng", "core")


def load_api() -> SimpleNamespace:
    """Import uoi_sim afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "uoi_sim" or m.startswith("uoi_sim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("uoi_sim")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"uoi_sim imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"uoi_sim.{m}") for m in API_MODULES})


def fingerprint(obj):
    """A hashable digest of an operation's output, for the determinism check."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), fingerprint(v)) for k, v in obj.items()))
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj).__name__,) + tuple(
            fingerprint(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return repr(obj)


# The probe's time, in seconds, on the reference machine state (README:
# "Machine speed and the probe").
PROBE_REF_S = 0.020
# Operations shorter than this share the probes around them.
PROBE_EVERY_S = 0.05


def to_reference(before: float, after: float) -> float:
    """Factor from seconds to reference seconds, given the probe times
    measured before and after."""
    return PROBE_REF_S / (0.5 * (before + after))


class Probe:
    """Fixed reference work, independent of uoi_sim, in three parts of
    similar length: an interpreted loop, small-array numpy calls, and an
    804x804 LU solve (the size of the MDP layer's dense solve).

    The host's speed swings by up to 1.6x in phases of seconds to minutes.
    A time scaled by PROBE_REF_S / (the probe's time around it) is in
    reference seconds, which move with the program's cost and much less
    with the host's load.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((804, 804)) + 804.0 * np.eye(804)
        self.b = np.ones(804)
        self.v = rng.random(30)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        x = 0.0
        for _ in range(60000):
            x = x * 0.5 + 1.0 if x > 1.0 else x + 0.3
        for _ in range(1000):
            np.argsort(-self.v, kind="stable")[:2]
            np.where(self.v > 0.5, 0.0, self.v)
        np.linalg.solve(self.a, self.b)
        return time.perf_counter() - t0


class Runner:
    """Runs rounds of one workload and keeps the verdict on each operation.

    Round 1's outputs are checked; a later round's output must hash the
    same as round 1's and then shares its verdict.  An operation fails when
    it raises, when its check fails, or when its output changes between
    rounds.  Only a failed check of a known_fault operation leaves the run
    correct.
    """

    def __init__(self, ops, probe: Probe):
        self.ops = ops
        self.probe = probe
        self.reference: dict[str, tuple] = {}   # op name -> (output hash, check error)
        self.failures: dict[str, tuple] = {}    # op name -> (reason, known) at first failure
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    @property
    def correct(self) -> bool:
        return all(known for _, known in self.failures.values())

    def _verdict(self, op, res, done):
        """(error or None, whether it is the op's known fault)."""
        digest = hash(fingerprint(res))
        if op.name not in self.reference:
            try:
                errs = op.check(res, done)
            except Exception as exc:  # a check that cannot run fails its operation
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            self.reference[op.name] = (digest, "; ".join(errs) if errs else None)
        ref_digest, check_err = self.reference[op.name]
        if digest != ref_digest:
            return "output differs from round 1", False
        return check_err, op.known_fault

    def round(self, tracer=None) -> list[tuple[float, float]]:
        """One round; returns each operation's (reference seconds, seconds).

        The probe runs before the first operation and after every run of
        operations that took PROBE_EVERY_S or more; each operation is
        scaled by the mean of the two probes around it.
        """
        done, raised, times = {}, {}, []
        before, pending = self.probe(), []
        for i, op in enumerate(self.ops):
            frame = tracer.open() if tracer else None
            t0 = time.perf_counter()
            try:
                done[op.name] = op.call(done)
            except Exception as exc:  # a failed operation is counted, the run goes on
                done[op.name] = None
                raised[op.name] = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(frame, "op", op.name)
            pending.append(dt)
            if sum(pending) >= PROBE_EVERY_S or i == len(self.ops) - 1:
                after = self.probe()
                scale = to_reference(before, after)
                times += [(t * scale, t) for t in pending]
                before, pending = after, []
        for op in self.ops:
            if op.name in raised:
                err, known = raised[op.name], False
            else:
                err, known = self._verdict(op, done[op.name], done)
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.failures.setdefault(op.name, (err, known))
        return times

    def run_for(self, seconds: float, tracer=None) -> dict[str, float]:
        """Rounds for `seconds` (at least one).  Each operation's median over
        rounds is summed: reference seconds in all operations (wall),
        terminal-slots per reference second in simulator operations
        (slots_per_s), and unscaled seconds in all operations (raw_wall)."""
        rounds = []
        end = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < end:
            rounds.append(self.round(tracer))
        self.rounds = len(rounds)
        ref = [statistics.median(t[0] for t in ts) for ts in zip(*rounds)]
        raw = [statistics.median(t[1] for t in ts) for ts in zip(*rounds)]
        sim = [(r, op.slots) for r, op in zip(ref, self.ops) if op.slots]
        return {"wall": sum(ref), "raw_wall": sum(raw),
                "slots_per_s": sum(n for _, n in sim) / sum(r for r, _ in sim)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bad = checks.selftest()
    if bad:
        print(f"check self-test failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(SRC, "uoi_sim", "__init__.py")):
        print(f"no uoi_sim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]

    probe = Probe()
    setups = []
    before = probe()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        api = load_api()
        inputs = workload.build(api, args.seed)
        dt = time.perf_counter() - t0
        after = probe()
        setups.append(dt * to_reference(before, after))
        before = after

    runner = Runner(workload.ops(api, inputs, OUT), probe)
    if not args.trace:
        timing = runner.run_for(args.seconds)
        missing = {}
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": timing["wall"], "unit": "s"},
            "terminal_slots_per_s": {"value": timing["slots_per_s"], "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        print(f"unscaled seconds in all operations of a round: {timing['raw_wall']:.4f}")
    else:
        # Half the time untraced, half traced; the overhead is the difference.
        plain_wall = runner.run_for(args.seconds / 2)["wall"]
        plain_rounds = runner.rounds
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.build(api, args.seed)   # times config construction
            traced_wall = runner.run_for(args.seconds / 2, tracer)["wall"]
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer, runner.rounds)
        metrics, missing = {}, {}
        for name, unit in tracing.layer_metric_names():
            if name == "bench.trace_overhead_s":
                value = traced_wall - plain_wall
            else:
                value, hook = layer[name]
                if value is None:
                    missing[name] = tracer.missing.get(
                        hook, f"no traced call in workload {workload.name}")
                    value = 0.0
            metrics[name] = {"value": value, "unit": unit}
        tracer.dump(os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.jsonl"),
                    {"workload": workload.name, "seed": args.seed,
                     "untraced_rounds": plain_rounds, "traced_rounds": runner.rounds})
        for hook, reason in sorted(tracer.missing.items()):
            print(f"hook {hook} missing: {reason}")
        for key, err in sorted(tracer.errors.items()):
            print(f"tracer error in {key}: {err}")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted // len(runner.ops)} rounds of {len(runner.ops)} operations")
    for name, (err, known) in runner.failures.items():
        print(f"  {'known fault' if known else 'FAILED'}: {name}: {err}")
    for name, m in metrics.items():
        note = f"  (missing: {missing[name]})" if name in missing else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}")
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
