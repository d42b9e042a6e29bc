"""Outside-in tracing of uoi_sim for the benchmark's traced mode.

The tracer wraps public functions at the name where their caller looks them
up (for example `uoi_sim.harness.run_fleet` or `uoi_sim.csma.contend`), so
the program itself is not changed.  Calls made once per operation or once
per sampled block are kept as spans (id, name, label, start, end, parent,
self time).  Calls made once per slot are aggregated in memory as a call
count and total time per (name, label).  Every finished call adds its time
to the open span that encloses it, which gives each span its self time.
Everything is written out by `dump` when the run ends.

A hook whose target no longer exists is recorded in `missing` and skipped;
the metrics that depend on it are then reported missing with the reason.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

RNG_KINDS = ("weight", "increment", "channel", "backoff", "policy", "scheduler")
SINGLE_LABELS = ("adaptive", "periodic", "random", "age-threshold", "adaptive-trace",
                 "rvi-uoi", "rvi-aoi")
TRACKING_LABELS = ("adaptive", "periodic", "random", "age-threshold")
FLEET_LABELS = ("centralized", "aoi", "round-robin", "stationary", "csma-w16", "csma-w4")
FLEET_SIZES = ("n10", "n30")
WINDOWS = ("w16", "w4")
COST_KINDS = ("uoi", "aoi")
CSMA_MONITORS = ("contenders", "winners", "collisions", "idle_channels")


def _arg(a: tuple, k: dict, name: str, pos: int, default=None):
    if name in k:
        return k[name]
    return a[pos] if len(a) > pos else default


# Labels and after-call counters, one per hooked function.  They read the
# call's arguments and result; a failure in them is recorded, never raised.

def _single_label(a, k):
    policy = _arg(a, k, "policy", 4, "adaptive")
    return policy + "-trace" if _arg(a, k, "trace", 9, False) else policy


def _fleet_label(a, k):
    sched = _arg(a, k, "scheduler", 2)
    if sched == "csma":
        sched = f"csma-w{_arg(a, k, 'contention', 6).w}"
    return f"{sched}.n{_arg(a, k, 'fleet', 0).n}"


def _count_slots(horizon_pos):
    def after(tr, res, a, k, label, name):
        tr.counts[f"{name}.slots.{label}"] += int(_arg(a, k, "horizon", horizon_pos, 1_000_000))
    return after


def _count_variates(tr, res, a, k, label, name):
    tr.counts["core.sample_block.variates"] += len(res)


def _count_sweeps(tr, res, a, k, label, name):
    tr.counts[f"mdp.rvi.sweeps.{label}"] += res.iterations


def _csma_monitors(tr, res, a, k, label, name):
    contenders = len(_arg(a, k, "active", 0))
    winners = len(res.winners())
    c = tr.counts
    c[f"csma.contenders.{label}"] += contenders
    c[f"csma.winners.{label}"] += winners
    c[f"csma.collisions.{label}"] += len(res.reservations) - winners
    c[f"csma.idle_channels.{label}"] += res.idle_channels
    c[f"csma.window_len.{label}"] += res.window_len


@dataclass(frozen=True)
class Hook:
    name: str
    targets: tuple[str, ...]
    per_slot: bool = False
    label: Callable | None = None
    after: Callable | None = None


HOOKS = (
    Hook("harness.config_from_dict", ("uoi_sim.harness.config_from_dict",)),
    Hook("harness.run", ("uoi_sim.harness.run",)),
    Hook("harness.export", ("uoi_sim.harness.export",)),
    Hook("sim.run_single", ("uoi_sim.harness.run_single", "uoi_sim.sim.run_single"),
         label=_single_label, after=_count_slots(5)),
    Hook("sim.run_tracking", ("uoi_sim.harness.run_tracking",),
         label=lambda a, k: _arg(a, k, "policy", 3), after=_count_slots(7)),
    Hook("sim.run_fleet", ("uoi_sim.harness.run_fleet",),
         label=_fleet_label, after=_count_slots(4)),
    Hook("core.sample_block", ("uoi_sim.core.TwoPointWeights.sample_block",
                               "uoi_sim.core.ConstantWeights.sample_block",
                               "uoi_sim.core.PeriodicBurstWeights.sample_block",
                               "uoi_sim.core.GaussianIncrements.sample_block",
                               "uoi_sim.sim.sample_channel_block"),
         after=_count_variates),
    Hook("multi.waterfill", ("uoi_sim.harness.waterfill",)),
    Hook("multi.schedule_round_robin", ("uoi_sim.sim.schedule_round_robin",), per_slot=True),
    Hook("multi.schedule_stationary", ("uoi_sim.sim.schedule_stationary",), per_slot=True),
    Hook("multi.schedule_topk", ("uoi_sim.sim._topk_ids",), per_slot=True),
    Hook("csma.contend", ("uoi_sim.csma.contend",), per_slot=True,
         label=lambda a, k: f"w{_arg(a, k, 'cfg', 1).w}", after=_csma_monitors),
    Hook("csma.adapt_threshold", ("uoi_sim.csma.adapt_threshold",), per_slot=True),
    Hook("control.optimal_control", ("uoi_sim.sim.optimal_control",), per_slot=True),
    Hook("control.step_plant", ("uoi_sim.sim.step_plant_with_noise",), per_slot=True),
    Hook("mdp.calibrate_multiplier", ("uoi_sim.mdp.calibrate_multiplier",),
         label=lambda a, k: _arg(a, k, "cost_kind", 3)),
    Hook("mdp.rvi_solve", ("uoi_sim.mdp.rvi_solve",),
         label=lambda a, k: _arg(a, k, "cost_kind", 2), after=_count_sweeps),
    Hook("mdp.evaluate_policy", ("uoi_sim.mdp.evaluate_policy",),
         label=lambda a, k: _arg(a, k, "cost_kind", 2)),
    Hook("mdp.gaussian_kernel", ("uoi_sim.mdp.gaussian_kernel",)),
)

# Factories are recorded, not timed: their draw counters are the CRN evidence.
FACTORY_TARGETS = ("uoi_sim.harness.StreamFactory", "uoi_sim.rng.StreamFactory")


def _resolve(target: str):
    """(owner, attribute) of a dotted target, importing its module."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no module in {target}")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []          # open spans: [id, child seconds]
        self.agg: dict[tuple[str, str], list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.factories: list = []
        self.missing: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self._next_id = 0
        self._undo: list[tuple] = []

    # ---- spans -----------------------------------------------------------

    def open(self) -> list:
        frame = [self._next_id, 0.0, self.stack[-1][0] if self.stack else None,
                 time.perf_counter()]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, name: str, label: str = "") -> float:
        end = time.perf_counter()
        self.stack.pop()
        dt = end - frame[3]
        if self.stack:
            self.stack[-1][1] += dt
        self.spans.append((frame[0], name, label, frame[3], end, frame[2], dt - frame[1]))
        return dt

    # ---- hooks -----------------------------------------------------------

    def _label(self, hook: Hook, a, k) -> str:
        if hook.label is None:
            return ""
        try:
            return str(hook.label(a, k))
        except Exception as exc:  # a signature change must not stop the run
            self.errors[hook.name + ".label"] = repr(exc)
            return "?"

    def _after(self, hook: Hook, res, a, k, label):
        if hook.after is not None:
            try:
                hook.after(self, res, a, k, label, hook.name)
            except Exception as exc:  # a result change must not stop the run
                self.errors[hook.name + ".after"] = repr(exc)

    def _span_wrapper(self, hook: Hook, fn):
        def wrapper(*a, **k):
            label = self._label(hook, a, k)
            frame = self.open()
            try:
                res = fn(*a, **k)
            finally:
                self.close(frame, hook.name, label)
            self._after(hook, res, a, k, label)
            return res
        return wrapper

    def _slot_wrapper(self, hook: Hook, fn):
        agg, stack, clock = self.agg, self.stack, time.perf_counter

        def wrapper(*a, **k):
            t0 = clock()
            res = fn(*a, **k)
            dt = clock() - t0
            label = self._label(hook, a, k)
            entry = agg.get((hook.name, label))
            if entry is None:
                entry = agg[(hook.name, label)] = [0, 0.0]
            entry[0] += 1
            entry[1] += dt
            if stack:
                stack[-1][1] += dt
            self._after(hook, res, a, k, label)
            return res
        return wrapper

    def _patch(self, target: str, make) -> bool:
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            return False
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def install(self, hooks=HOOKS):
        for hook in hooks:
            wrap = self._slot_wrapper if hook.per_slot else self._span_wrapper
            found = [t for t in hook.targets if self._patch(t, lambda fn: wrap(hook, fn))]
            if not found:
                self.missing[hook.name] = "hook target not found: " + ", ".join(hook.targets)

        def record(cls):
            def make(*a, **k):
                factory = cls(*a, **k)
                self.factories.append(factory)
                return factory
            return make
        if not [t for t in FACTORY_TARGETS if self._patch(t, record)]:
            self.missing["rng.factory"] = "hook target not found: " + ", ".join(FACTORY_TARGETS)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- summaries -------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], list]:
        """(name, label) -> [calls, seconds, self seconds] over spans and
        aggregated calls."""
        out: dict[tuple[str, str], list] = {}
        for _, name, label, start, end, _, self_s in self.spans:
            t = out.setdefault((name, label), [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
        for key, (calls, secs) in self.agg.items():
            t = out.setdefault(key, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += secs
            t[2] += secs
        return out

    def dump(self, path: str, extra: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": extra}) + "\n")
            for sid, name, label, start, end, parent, self_s in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "label": label,
                                     "start": start, "end": end, "parent": parent,
                                     "self_s": self_s}) + "\n")
            for (name, label), (calls, secs) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "label": label, "calls": calls,
                                     "seconds": secs}) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": value}) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics.
# --------------------------------------------------------------------------


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    m = [(f"sim.run_single.us_per_slot.{x}", "us") for x in SINGLE_LABELS]
    m += [(f"sim.run_tracking.us_per_slot.{x}", "us") for x in TRACKING_LABELS]
    m += [(f"sim.run_fleet.us_per_slot.{s}.{n}", "us") for s in FLEET_LABELS for n in FLEET_SIZES]
    m += [(f"sim.run_fleet.self_us_per_slot.{s}", "us") for s in FLEET_LABELS]
    m += [("core.sample_block.ns_per_variate", "ns"), ("core.sample_block.calls", "count")]
    m += [(f"rng.draws.{kind}", "count") for kind in RNG_KINDS]
    m += [(f"multi.{f}.us_per_call", "us")
          for f in ("waterfill", "schedule_round_robin", "schedule_stationary")]
    m += [(f"csma.contend.us_per_call.{w}", "us") for w in WINDOWS]
    m += [("csma.adapt_threshold.us_per_call", "us")]
    m += [(f"csma.{x}_per_window.{w}", "count") for x in CSMA_MONITORS for w in WINDOWS]
    m += [(f"csma.winner_ratio.{w}", "ratio") for w in WINDOWS]
    m += [(f"csma.window_len.{w}", "minislots") for w in WINDOWS]
    m += [("control.optimal_control.us_per_call", "us"), ("control.step_plant.us_per_call", "us")]
    m += [(f"mdp.calibrate_multiplier.s_per_call.{c}", "s") for c in COST_KINDS]
    m += [(f"mdp.rvi_solve.calls.{c}", "count") for c in COST_KINDS]
    m += [(f"mdp.rvi.sweeps.{c}", "count") for c in COST_KINDS]
    m += [(f"mdp.rvi.us_per_sweep.{c}", "us") for c in COST_KINDS]
    m += [(f"mdp.evaluate_policy.calls.{c}", "count") for c in COST_KINDS]
    m += [(f"mdp.evaluate_policy.ms_per_call.{c}", "ms") for c in COST_KINDS]
    m += [("mdp.gaussian_kernel.calls", "count"), ("mdp.gaussian_kernel.ms_per_call", "ms")]
    m += [("harness.config_from_dict.us_per_call", "us"),
          ("harness.run.overhead_ms_per_call", "ms"),
          ("harness.export.ms_per_call", "ms"),
          ("bench.trace_overhead_s", "s")]
    return m


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float | None, str]]:
    """name -> (value, hook) for every per-layer metric but the tracing
    overhead.  value is None where the workload made no traced call that
    defines it; hook names the hook the metric depends on.  Counts are per
    round."""
    tot = tr.totals()

    def pick(name, label=None, prefix=False):
        """[calls, seconds, self seconds] summed over matching labels."""
        acc = [0, 0.0, 0.0]
        for (n, lab), t in tot.items():
            if n == name and (label is None or lab == label
                              or (prefix and lab.startswith(label + "."))):
                acc = [x + y for x, y in zip(acc, t)]
        return acc

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else None

    def per_call(name, label=None, scale=1e6, self_time=False):
        calls, secs, self_s = pick(name, label)
        return ratio(self_s if self_time else secs, calls, scale)

    def per_round(value, defined=True):
        return value / rounds if defined else None

    c = tr.counts
    out: dict[str, tuple[float | None, str]] = {}
    for x in SINGLE_LABELS:
        out[f"sim.run_single.us_per_slot.{x}"] = (ratio(
            pick("sim.run_single", x)[1], c.get(f"sim.run_single.slots.{x}", 0), 1e6),
            "sim.run_single")
    for x in TRACKING_LABELS:
        out[f"sim.run_tracking.us_per_slot.{x}"] = (ratio(
            pick("sim.run_tracking", x)[1], c.get(f"sim.run_tracking.slots.{x}", 0), 1e6),
            "sim.run_tracking")
    for s in FLEET_LABELS:
        for n in FLEET_SIZES:
            out[f"sim.run_fleet.us_per_slot.{s}.{n}"] = (ratio(
                pick("sim.run_fleet", f"{s}.{n}")[1],
                c.get(f"sim.run_fleet.slots.{s}.{n}", 0), 1e6), "sim.run_fleet")
        slots = sum(c.get(f"sim.run_fleet.slots.{s}.{n}", 0) for n in FLEET_SIZES)
        out[f"sim.run_fleet.self_us_per_slot.{s}"] = (ratio(
            pick("sim.run_fleet", s, prefix=True)[2], slots, 1e6), "sim.run_fleet")
    calls, secs, _ = pick("core.sample_block")
    out["core.sample_block.ns_per_variate"] = (
        ratio(secs, c.get("core.sample_block.variates", 0), 1e9), "core.sample_block")
    out["core.sample_block.calls"] = (per_round(calls, calls > 0), "core.sample_block")
    draws: dict[str, int] = defaultdict(int)
    for factory in tr.factories:
        for (kind, _), n in factory.draw_counts().items():
            draws[kind] += n
    for kind in RNG_KINDS:
        out[f"rng.draws.{kind}"] = (per_round(draws[kind], bool(tr.factories)), "rng.factory")
    for f in ("waterfill", "schedule_round_robin", "schedule_stationary"):
        out[f"multi.{f}.us_per_call"] = (per_call(f"multi.{f}"), f"multi.{f}")
    for w in WINDOWS:
        out[f"csma.contend.us_per_call.{w}"] = (per_call("csma.contend", w), "csma.contend")
    out["csma.adapt_threshold.us_per_call"] = (per_call("csma.adapt_threshold"),
                                               "csma.adapt_threshold")
    for w in WINDOWS:
        windows = pick("csma.contend", w)[0]
        for x in CSMA_MONITORS:
            out[f"csma.{x}_per_window.{w}"] = (ratio(c.get(f"csma.{x}.{w}", 0), windows),
                                                "csma.contend")
        out[f"csma.winner_ratio.{w}"] = (ratio(c.get(f"csma.winners.{w}", 0),
                                               c.get(f"csma.contenders.{w}", 0)),
                                         "csma.contend")
        out[f"csma.window_len.{w}"] = (ratio(c.get(f"csma.window_len.{w}", 0), windows),
                                       "csma.contend")
    for f in ("optimal_control", "step_plant"):
        out[f"control.{f}.us_per_call"] = (per_call(f"control.{f}"), f"control.{f}")
    for k in COST_KINDS:
        out[f"mdp.calibrate_multiplier.s_per_call.{k}"] = (
            per_call("mdp.calibrate_multiplier", k, 1.0), "mdp.calibrate_multiplier")
        solves = pick("mdp.rvi_solve", k)
        out[f"mdp.rvi_solve.calls.{k}"] = (per_round(solves[0], solves[0] > 0), "mdp.rvi_solve")
        sweeps = c.get(f"mdp.rvi.sweeps.{k}", 0)
        out[f"mdp.rvi.sweeps.{k}"] = (per_round(sweeps, sweeps > 0), "mdp.rvi_solve")
        out[f"mdp.rvi.us_per_sweep.{k}"] = (ratio(solves[2], sweeps, 1e6), "mdp.rvi_solve")
        evals = pick("mdp.evaluate_policy", k)[0]
        out[f"mdp.evaluate_policy.calls.{k}"] = (per_round(evals, evals > 0),
                                                 "mdp.evaluate_policy")
        out[f"mdp.evaluate_policy.ms_per_call.{k}"] = (
            per_call("mdp.evaluate_policy", k, 1e3), "mdp.evaluate_policy")
    kernels = pick("mdp.gaussian_kernel")[0]
    out["mdp.gaussian_kernel.calls"] = (per_round(kernels, kernels > 0), "mdp.gaussian_kernel")
    out["mdp.gaussian_kernel.ms_per_call"] = (per_call("mdp.gaussian_kernel", scale=1e3),
                                              "mdp.gaussian_kernel")
    out["harness.config_from_dict.us_per_call"] = (per_call("harness.config_from_dict"),
                                                   "harness.config_from_dict")
    out["harness.run.overhead_ms_per_call"] = (
        per_call("harness.run", scale=1e3, self_time=True), "harness.run")
    out["harness.export.ms_per_call"] = (per_call("harness.export", scale=1e3),
                                         "harness.export")
    return out
