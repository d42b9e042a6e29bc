"""The benchmark's three workloads: their inputs, operations and checks.

A workload has two parts.  `build(api, seed)` constructs and validates
every input the program receives; run.py times it as set-up.
`ops(api, inputs, outdir)` lists the operations of one round, each a single
call into the public API with its simulated terminal-slots and a check of
its output.  The checks compare against `checks`, which never imports
uoi_sim, and against properties of the method; never against stored
outputs.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

import checks

RHOS = (0.1, 0.25, 0.5)
REPLAY_RHO = 0.25            # the budget whose operations are replayed slot by slot
TERMINAL = {"p": 0.8, "sigma2": 1.0}
DESK_WEIGHTS = {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0, "prob_hi": 0.01}
FLEET_WEIGHTS = {"kind": "two-point", "w_lo": 1.0, "w_hi": 100.0, "prob_hi": 0.05}
BURST_WEIGHTS = {"kind": "periodic-burst", "base": 1.0, "burst": 100.0,
                 "period": 5000, "burst_len": 50}

# single-sweep
SWEEP_VS = (1.0, 8.0, 64.0, 512.0)
SWEEP_HORIZON = 20_000
CONTROL_HORIZON = 10_000
CONTROL_POLICIES = ("adaptive", "age-threshold", "periodic", "random")
# Tracking cost may differ from a^2 * estimation cost + noise floor by this
# many batch standard errors of the tracking cost.  Over 160 seeded runs at
# twice this horizon the largest gap was 2.7.
TRACK_TOL_SE = 6.0

# fleet.  The horizon is a multiple of every N, so round-robin sends exactly
# K/N per terminal.
FLEET_SIZES = (10, 30)
FLEET_WINDOWS = (16, 4)
FLEET_K = 2
FLEET_REPS = 2
FLEET_HORIZON = 3000
MULTI_POLICIES = ("centralized", "aoi", "round-robin", "stationary")
# The stationary policy meets the fleet bound in expectation.  Over 40 seeds
# its relative error had sd 0.047 (N=10) and 0.037 (N=30) at this horizon,
# so this tolerance is over seven sd.
STATIONARY_TOL = 0.35

# reference-policies, on MdpGrid.default for sigma2 = 1.
REF_HORIZON = 60_000
REF_POLICIES = ("adaptive", "rvi-uoi", "rvi-aoi")
REF_Q_MAX, REF_Q_STEP = 25.0, 0.25
FREQ_TOL = 1e-3              # calibrate_multiplier's default freq_tol


@dataclass
class Op:
    """One call into the public API.

    call(done) runs it, given this round's earlier results by operation
    name; check(result, done) lists what is wrong with the output; slots
    counts the terminal-slots simulated (0 for a non-simulator operation).
    known_fault marks an operation whose check fails because of a fault in
    the program that is kept in the workload and counted as failed.
    """

    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], list[str]]
    slots: int = 0
    known_fault: bool = False


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _mean_weight(raw: dict) -> float:
    if raw["kind"] == "two-point":
        return (1.0 - raw["prob_hi"]) * raw["w_lo"] + raw["prob_hi"] * raw["w_hi"]
    quiet = raw["period"] - raw["burst_len"]
    return (raw["base"] * quiet + raw["burst"] * raw["burst_len"]) / raw["period"]


def _weight_sampler(raw: dict):
    if raw["kind"] == "two-point":
        return checks.two_point(raw["w_lo"], raw["w_hi"], raw["prob_hi"])
    return checks.periodic_burst(raw["base"], raw["burst"], raw["period"], raw["burst_len"])


def _replay_errors(what: str, avg: float, freq: float, seed: int, raw: dict,
                   policy: str, lookup=None) -> list[str]:
    """Replay terminal 0 of replication 0; compare average UoI and attempts."""
    term, horizon = raw["terminal"], raw["horizon"]
    r_avg, r_att, _ = checks.replay_single(
        seed, 0, horizon, term["p"], term["sigma2"], raw["rho"], raw["v"], policy,
        _weight_sampler(raw["weights"]), _mean_weight(raw["weights"]), lookup)
    errs = []
    if _rel(avg, r_avg) > 1e-9:
        errs.append(f"{what}: avg_uoi {avg!r} differs from the replay's {r_avg!r}")
    if abs(freq * horizon - r_att) > 1e-6:
        errs.append(f"{what}: {freq * horizon!r} attempts, the replay made {r_att}")
    return errs


def _adaptive_bound(raw: dict) -> float:
    term = raw["terminal"]
    return checks.adaptive_bound(_mean_weight(raw["weights"]), term["sigma2"],
                                 term["p"], raw["rho"], raw["v"])


def _adaptive_errors(what: str, raw: dict, avg: float, freq: float,
                     h_over_t: float) -> list[str]:
    """Average UoI within the closed-form bound; attempt frequency at most
    rho + H_T/T."""
    bound = _adaptive_bound(raw)
    errs = []
    if not avg <= bound:
        errs.append(f"{what}: avg_uoi {avg} above the bound {bound}")
    if not freq <= raw["rho"] + h_over_t + 1e-12:
        errs.append(f"{what}: attempt frequency {freq} above rho + H_T/T = "
                    f"{raw['rho'] + h_over_t}")
    return errs


def _policies_errors(what: str, rows, expected) -> list[str]:
    got = [m.policy for m in rows]
    return [] if got == list(expected) else [f"{what}: rows for {got}, expected {list(expected)}"]


# --------------------------------------------------------------------------
# single-sweep: the single-terminal and tracking slot loops via harness.run.
# --------------------------------------------------------------------------


def _check_adaptive_run(raw, seed, replay, rows, done):
    errs = _policies_errors("adaptive", rows, ["adaptive"])
    if errs:
        return errs
    m = rows[0]
    bound = _adaptive_bound(raw)
    if m.bound_value is None or _rel(m.bound_value, bound) > 1e-12:
        errs.append(f"reported bound {m.bound_value}, closed form {bound}")
    freq = float(m.avg_update_freq[0])
    errs += _adaptive_errors("adaptive", raw, m.avg_uoi, freq, m.extras["h_over_t"])
    if replay:
        errs += _replay_errors("adaptive", m.avg_uoi, freq, seed, raw, "adaptive")
    return errs


def _check_baselines(raw, seed, rows, done):
    errs = _policies_errors("baselines", rows, raw["policies"])
    if errs:
        return errs
    for m in rows:
        freq = float(m.avg_update_freq[0])
        if m.policy == "periodic" and abs(freq - raw["rho"]) > 1.0 / raw["horizon"]:
            errs.append(f"periodic: attempt frequency {freq} is not rho = {raw['rho']}")
        if raw["rho"] == REPLAY_RHO:
            errs += _replay_errors(m.policy, m.avg_uoi, freq, seed, raw, m.policy)
    return errs


def _check_trace_run(raw, seed, rows, done):
    errs = _policies_errors("trace", rows, ["adaptive"])
    if errs:
        return errs
    m = rows[0]
    T = raw["horizon"]
    if m.trace is None or len(m.trace) != T:
        return [f"trace has {None if m.trace is None else len(m.trace)} rows, expected {T}"]
    trace_avg = sum(row[3] for row in m.trace) / T
    if _rel(trace_avg, m.avg_uoi) > 1e-9:
        errs.append(f"trace rows average {trace_avg}, avg_uoi {m.avg_uoi}")
    freq = float(m.avg_update_freq[0])
    errs += _adaptive_errors("adaptive-trace", raw, m.avg_uoi, freq, m.extras["h_over_t"])
    errs += _replay_errors("adaptive-trace", m.avg_uoi, freq, seed, raw, "adaptive")
    return errs


def _check_export(raw, path, trace_op, paths, done):
    if paths != [path]:
        return [f"export wrote {paths}, expected [{path!r}]"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != 1:
        return [f"jsonl export has {len(lines)} lines, expected 1"]
    obj = json.loads(lines[0])
    row = done[trace_op][0]
    errs = []
    if obj.get("policy") != "adaptive" or obj.get("avg_uoi") != row.avg_uoi:
        errs.append(f"jsonl row {obj.get('policy')} avg_uoi {obj.get('avg_uoi')} "
                    f"does not match the run's {row.avg_uoi}")
    if len(obj.get("trace") or []) != raw["horizon"]:
        errs.append("jsonl trace length differs from the horizon")
    return errs


def _check_control(raw, rows, done):
    errs = _policies_errors("control", rows, raw["policies"])
    if errs:
        return errs
    a, noise_var = raw["control"]["a"], raw["control"]["noise_var"]
    floor = _mean_weight(raw["weights"]) * noise_var
    for m in rows:
        x = m.extras
        rhs = a * a * x["avg_est_cost"] + floor
        if abs(x["avg_track_cost"] - rhs) > TRACK_TOL_SE * m.stderr_uoi:
            errs.append(f"{m.policy}: tracking cost {x['avg_track_cost']} vs "
                        f"a^2*est + floor = {rhs} (batch stderr {m.stderr_uoi})")
        freq = float(m.avg_update_freq[0])
        if m.policy == "periodic" and abs(freq - raw["rho"]) > 1.0 / raw["horizon"]:
            errs.append(f"periodic: attempt frequency {freq} is not rho = {raw['rho']}")
    return errs


class SingleSweep:
    name = "single-sweep"

    @staticmethod
    def raw(seed: int) -> dict:
        base = {"scenario": "single", "horizon": SWEEP_HORIZON, "seed": seed,
                "terminal": TERMINAL, "weights": DESK_WEIGHTS}
        return {
            "adaptive": [dict(base, rho=rho, v=v, policies=["adaptive"])
                         for v in SWEEP_VS for rho in RHOS],
            "baselines": [dict(base, rho=rho, v=1.0,
                               policies=["periodic", "random", "age-threshold"])
                          for rho in RHOS],
            "trace": dict(base, rho=0.25, v=1.0, policies=["adaptive"], trace=True,
                          terminal={"p": 1.0, "sigma2": 1.0}, weights=BURST_WEIGHTS),
            "control": {"scenario": "control", "horizon": CONTROL_HORIZON, "seed": seed,
                        "rho": 0.25, "v": 1.0, "policies": list(CONTROL_POLICIES),
                        "terminal": TERMINAL, "weights": DESK_WEIGHTS,
                        "control": {"a": 1.0, "b": 1.0, "noise_var": 1.0}},
        }

    def build(self, api, seed: int) -> dict:
        parse = api.harness.config_from_dict
        raw = self.raw(seed)
        cfg = {key: [parse(r) for r in val] if isinstance(val, list) else parse(val)
               for key, val in raw.items()}
        return {"seed": seed, "raw": raw, "cfg": cfg}

    def ops(self, api, inputs: dict, outdir: str) -> list[Op]:
        seed, raw, cfg = inputs["seed"], inputs["raw"], inputs["cfg"]

        def run(c):
            return lambda done: api.harness.run(c)

        ops = []
        for r, c in zip(raw["adaptive"], cfg["adaptive"]):
            replay = r["v"] == 1.0 and r["rho"] == REPLAY_RHO
            ops.append(Op(f"run single adaptive v={r['v']:g} rho={r['rho']:g}", run(c),
                          partial(_check_adaptive_run, r, seed, replay), r["horizon"]))
        for r, c in zip(raw["baselines"], cfg["baselines"]):
            ops.append(Op(f"run single baselines rho={r['rho']:g}", run(c),
                          partial(_check_baselines, r, seed),
                          r["horizon"] * len(r["policies"])))
        r = raw["trace"]
        ops.append(Op("run single adaptive trace", run(cfg["trace"]),
                      partial(_check_trace_run, r, seed), r["horizon"]))
        path = os.path.join(outdir, f"single-trace-seed{seed}.jsonl")
        ops.append(Op("export jsonl",
                      lambda done: api.harness.export(done["run single adaptive trace"],
                                                      "jsonl", path),
                      partial(_check_export, r, path, "run single adaptive trace")))
        r = raw["control"]
        ops.append(Op("run control", run(cfg["control"]), partial(_check_control, r),
                      r["horizon"] * len(r["policies"])))
        return ops


# --------------------------------------------------------------------------
# fleet: the fleet slot loop via harness.run on scenarios multi and csma.
# --------------------------------------------------------------------------


def _fleet_closed_form(raw: dict) -> tuple[np.ndarray, float]:
    """Proportional water-filling pi and the fleet bound of a config."""
    f = raw["fleet"]
    n = f["n"]
    p = f["p_min"] + (f["p_max"] - f["p_min"]) * np.arange(n) / (n - 1)
    wbar = np.full(n, _mean_weight(raw["weights"]))
    sigma2 = np.full(n, f["sigma2"])
    pi = checks.proportional_waterfill(np.sqrt(wbar * sigma2 / p), f["k"])
    return pi, checks.fleet_bound(wbar, sigma2, p, pi)


def _check_fleet(raw, rows, done):
    errs = _policies_errors(raw["scenario"], rows, raw["policies"])
    if errs:
        return errs
    pi, bound = _fleet_closed_form(raw)
    n, k = raw["fleet"]["n"], raw["fleet"]["k"]
    for m in rows:
        freq = np.asarray(m.avg_update_freq, dtype=float)
        if np.max(np.abs(np.asarray(m.extras["pi"]) - pi)) > 1e-9:
            errs.append(f"{m.policy}: water-filling pi differs from K*d/sum(d)")
        if m.policy in MULTI_POLICIES and abs(freq.sum() - k) > 1e-9:
            errs.append(f"{m.policy}: attempt frequencies sum to {freq.sum()}, not K = {k}")
        if m.policy in ("centralized", "stationary") and (
                m.bound_value is None or _rel(m.bound_value, bound) > 1e-9):
            errs.append(f"{m.policy}: reported bound {m.bound_value}, closed form {bound}")
        if m.policy == "centralized" and not m.avg_uoi <= bound:
            errs.append(f"centralized: avg_uoi {m.avg_uoi} above the bound {bound}")
        if m.policy == "round-robin" and np.max(np.abs(freq - k / n)) > 1e-12:
            errs.append("round-robin: a terminal's frequency is not exactly K/N")
        if m.policy == "stationary" and abs(m.avg_uoi / bound - 1.0) > STATIONARY_TOL:
            errs.append(f"stationary: avg_uoi {m.avg_uoi} too far from the bound {bound}")
        if m.policy == "distributed":
            scale = 1.0 + raw["contention"]["w"] / 100.0
            if (_rel(m.extras["slot_scale"], scale) > 1e-12
                    or _rel(m.extras["wallclock_avg_uoi"], m.avg_uoi / scale) > 1e-12):
                errs.append("distributed: slot scale is not 1 + W/100")
            if not (m.avg_uoi > 0.0 and np.all((freq >= 0.0) & (freq <= 1.0))):
                errs.append("distributed: average or frequencies out of range")
    return errs


class Fleet:
    name = "fleet"

    @staticmethod
    def raw(seed: int) -> list[dict]:
        base = {"horizon": FLEET_HORIZON, "replications": FLEET_REPS, "seed": seed,
                "weights": FLEET_WEIGHTS}
        out = []
        for n in FLEET_SIZES:
            fleet = {"n": n, "k": FLEET_K, "p_min": 0.7, "p_max": 1.0, "sigma2": 1.0}
            out.append(dict(base, scenario="multi", policies=list(MULTI_POLICIES),
                            fleet=fleet))
            out += [dict(base, scenario="csma", policies=["distributed"], fleet=fleet,
                         contention={"w": w}) for w in FLEET_WINDOWS]
        return out

    def build(self, api, seed: int) -> dict:
        raw = self.raw(seed)
        return {"raw": raw, "cfg": [api.harness.config_from_dict(r) for r in raw]}

    def ops(self, api, inputs: dict, outdir: str) -> list[Op]:
        ops = []
        for r, c in zip(inputs["raw"], inputs["cfg"]):
            name = f"run {r['scenario']} n={r['fleet']['n']}"
            if r["scenario"] == "csma":
                name += f" w={r['contention']['w']}"
            slots = r["fleet"]["n"] * r["horizon"] * r["replications"] * len(r["policies"])
            ops.append(Op(name, lambda done, c=c: api.harness.run(c),
                          partial(_check_fleet, r), slots))
        return ops


# --------------------------------------------------------------------------
# reference-policies: RVI calibration, table dump and table-driven simulation.
# --------------------------------------------------------------------------


def _check_calibration(rho, kind, result, done):
    lam, tab = result
    t = np.asarray(tab.table, dtype=float)
    shape = (int(2 * REF_Q_MAX / REF_Q_STEP) + 1, 2, 2) if kind == "uoi" else (200,)
    if t.shape != shape:
        return [f"table shape {t.shape}, expected {shape}"]
    errs = []
    if not lam >= 0.0:
        errs.append(f"multiplier {lam} is negative")
    if t.min() < 0.0 or t.max() > 1.0:
        errs.append("table holds a probability outside [0, 1]")
    if not abs(tab.avg_freq - rho) < FREQ_TOL:
        errs.append(f"avg_freq {tab.avg_freq} not within {FREQ_TOL} of rho = {rho}")
    p = TERMINAL["p"]
    if kind == "uoi":
        support = ((DESK_WEIGHTS["w_lo"], 1.0 - DESK_WEIGHTS["prob_hi"]),
                   (DESK_WEIGHTS["w_hi"], DESK_WEIGHTS["prob_hi"]))
        cost, freq = checks.uoi_chain_averages(t, REF_Q_MAX, REF_Q_STEP, support, p,
                                               TERMINAL["sigma2"])
    else:
        cost, freq = checks.aoi_chain_averages(t, p)
    if _rel(tab.avg_cost, cost) > 1e-8 or abs(tab.avg_freq - freq) > 1e-9:
        errs.append(f"table averages ({tab.avg_cost}, {tab.avg_freq}) differ from the "
                    f"power-iteration chain's ({cost}, {freq})")
    return errs


def _check_header(cal_op, text, done):
    lam = done[cal_op][0]
    found = re.search(r"\blam=(\S+)", text.splitlines()[0])
    if not found:
        return ["table header carries no lam"]
    if abs(float(found.group(1)) - lam) > 1e-5 * max(1.0, abs(lam)):
        return [f"table header says lam={found.group(1)}, calibrate_multiplier "
                f"returned {lam:.6g}"]
    return []


def _ref_raw(rho: float) -> dict:
    return {"horizon": REF_HORIZON, "rho": rho, "v": 1.0, "terminal": TERMINAL,
            "weights": DESK_WEIGHTS}


def _check_ref_sim(rho, policy, seed, cal_op, res, done):
    raw = _ref_raw(rho)
    freq = float(res.update_freq[0])
    errs = []
    if policy == "adaptive":
        errs += _adaptive_errors("adaptive", raw, res.avg_uoi, freq, res.extras["h_over_t"])
    if rho == REPLAY_RHO:
        lookup = None
        if policy == "rvi-uoi":
            lookup = checks.uoi_table_lookup(done[cal_op][1].table, REF_Q_MAX, REF_Q_STEP,
                                             ((1.0, 0.99), (100.0, 0.01)))
        elif policy == "rvi-aoi":
            lookup = checks.aoi_table_lookup(done[cal_op][1].table)
        errs += _replay_errors(policy, res.avg_uoi, freq, seed, raw, policy, lookup)
    return errs


class ReferencePolicies:
    name = "reference-policies"

    def build(self, api, seed: int) -> dict:
        w = api.core.TwoPointWeights(DESK_WEIGHTS["w_lo"], DESK_WEIGHTS["w_hi"],
                                     DESK_WEIGHTS["prob_hi"])
        params = api.core.TerminalParams(id=0, p=TERMINAL["p"], sigma2=TERMINAL["sigma2"],
                                         omega_bar=w.mean)
        grid = api.mdp.MdpGrid.default(TERMINAL["sigma2"], w.support())
        return {"seed": seed, "weights": w, "params": params, "grid": grid}

    def ops(self, api, inputs: dict, outdir: str) -> list[Op]:
        seed, w, params, grid = (inputs[k] for k in ("seed", "weights", "params", "grid"))
        cal = {(rho, kind): f"calibrate_multiplier {kind} rho={rho:g}"
               for rho in RHOS for kind in ("uoi", "aoi")}
        ops = [Op(name, lambda done, rho=rho, kind=kind:
                  api.mdp.calibrate_multiplier(grid, params, rho, kind),
                  partial(_check_calibration, rho, kind))
               for (rho, kind), name in cal.items()]
        ops += [Op(f"format_policy_table {kind} rho={rho:g}",
                   lambda done, name=name: api.mdp.format_policy_table(done[name][1]),
                   partial(_check_header, name), known_fault=True)
                for (rho, kind), name in cal.items()]
        table_kind = {"rvi-uoi": "uoi", "rvi-aoi": "aoi"}
        for rho in RHOS:
            for policy in REF_POLICIES:
                cal_op = cal.get((rho, table_kind.get(policy)))

                def call(done, rho=rho, policy=policy, cal_op=cal_op):
                    table = done[cal_op][1] if cal_op else None
                    return api.sim.run_single(
                        params, w, rho=rho, v=1.0, policy=policy, horizon=REF_HORIZON,
                        factory=api.rng.StreamFactory(seed), policy_table=table)
                ops.append(Op(f"run_single {policy} rho={rho:g}", call,
                              partial(_check_ref_sim, rho, policy, seed, cal_op),
                              REF_HORIZON))
        return ops


WORKLOADS = {wl.name: wl for wl in (SingleSweep(), Fleet(), ReferencePolicies())}
