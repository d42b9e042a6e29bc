"""Experiment orchestration: config ingestion, replication management,
metric aggregation and file export.

Configs are JSON objects with nested sections.  Unknown keys anywhere are
rejected with a diagnostic naming the offending field, so a typo in a
sweep cannot silently fall back to a default.  Compared policies within
one run get fresh stream factories built from the same seed, i.e. common
random numbers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (ConstantWeights, FieldError, PeriodicBurstWeights, TerminalParams,
                   TwoPointWeights, WeightProcess)
from .mdp import MdpGrid, calibrate_multiplier
from .multi import FleetConfig, fleet_uoi_bound, waterfill
from .rng import StreamFactory
from .sim import (POLICY_TABLE, FleetLane, NonFiniteCost, SimResult, adaptive_uoi_bound,
                  run_fleet_lanes, run_single, stderr_from_batches)


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` names the offending key."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


def _take(d: dict, field_name: str, caster, default, path: str):
    value = d.pop(field_name, None)
    if value is None:
        return default
    try:
        return caster(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}{field_name}", str(exc)) from exc


def _real(value) -> float:
    """float() that refuses a JSON boolean: true is not the number 1."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """int() that refuses a JSON boolean and a fraction: 1e6 is fine, 100.7 is not."""
    number = int(value)
    if isinstance(value, bool) or (number != value and not isinstance(value, str)):
        raise ValueError(f"must be an integer, got {value!r}")
    return number


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _policy_names(value) -> tuple[str, ...]:
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise ValueError("must be a list of policy names")
    return tuple(value)


def _section(d: dict, name: str) -> dict:
    """Pop a nested object; absent or null reads as empty."""
    value = d.pop(name, None)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, f"must be a JSON object, got {value!r}")
    return dict(value)


def _reject_unknown(d: dict, path: str = ""):
    if d:
        key = sorted(d)[0]
        raise ConfigError(f"{path}{key}", "unknown key")


def _domain(build, path: str, names: dict[str, str] | None = None, **fields):
    """build(**fields), reporting a domain FieldError as the config field
    `path + attribute`, or as names[attribute] where the key lives elsewhere."""
    try:
        return build(**fields)
    except FieldError as exc:
        raise ConfigError((names or {}).get(exc.field, path + exc.field), exc.reason) from exc


# kind -> (type, {key: (caster, default)})
_WEIGHT_KINDS = {
    "two-point": (TwoPointWeights, {"w_lo": (_real, 1.0), "w_hi": (_real, 100.0),
                                    "prob_hi": (_real, 0.01)}),
    "constant": (ConstantWeights, {"w": (_real, 1.0)}),
    "periodic-burst": (PeriodicBurstWeights, {"base": (_real, 1.0), "burst": (_real, 100.0),
                                              "period": (_integer, 5000),
                                              "burst_len": (_integer, 50)}),
}


def weight_process_from_dict(d: dict) -> WeightProcess:
    d, path = dict(d), "weights."
    kind = _take(d, "kind", str, "two-point", path)
    if kind not in _WEIGHT_KINDS:
        raise ConfigError(f"{path}kind", f"unknown weight process {kind!r}")
    cls, keys = _WEIGHT_KINDS[kind]
    fields = {name: _take(d, name, caster, default, path)
              for name, (caster, default) in keys.items()}
    _reject_unknown(d, path)
    return _domain(cls, path, **fields)


@dataclass
class ExperimentConfig:
    """A validated experiment.  The domain objects check their own fields;
    __post_init__ checks the run settings that no domain type holds."""

    scenario: str
    terminal: TerminalParams             # the terminal that runs: the plant's under control
    weights: WeightProcess
    fleet: FleetConfig
    a: float                             # the error's memory: control.a under control, else 1
    b: float                             # control.b, echoed in control rows only
    window: int | None                   # csma only
    grid: MdpGrid
    horizon: int
    replications: int
    seed: int
    policies: tuple[str, ...]            # empty: the scenario's default policy
    rho: float
    v: float
    # metrics
    thresholds: dict[float, float]
    trace: bool
    n_batches: int

    def __post_init__(self):
        if self.scenario not in POLICY_TABLE:
            raise ConfigError("scenario", f"must be one of {tuple(POLICY_TABLE)}, "
                                          f"got {self.scenario!r}")
        if self.horizon < 1:
            raise ConfigError("horizon", "must be at least 1")
        if self.replications < 1:
            raise ConfigError("replications", "must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed}")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError("rho", f"must be in (0, 1], got {self.rho}")
        if not 0.0 <= self.v < math.inf:
            raise ConfigError("v", f"must be nonnegative and finite, got {self.v}")
        if self.n_batches < 1:
            raise ConfigError("n_batches", f"must be at least 1, got {self.n_batches}")
        for w, bound in self.thresholds.items():
            # a weight that is not positive and finite is never realized
            if not (0.0 < w < math.inf and 0.0 < bound < math.inf):
                raise ConfigError("thresholds", f"weight {w} and its bound {bound} must "
                                                "be positive and finite")
        entry = POLICY_TABLE[self.scenario]
        if not self.policies:
            self.policies = (entry.default,)
        unknown = [p for p in self.policies if p not in entry.policies]
        if unknown:
            raise ConfigError("policies", f"{unknown[0]!r} not valid for scenario "
                                          f"{self.scenario!r}")
        # the uoi chain's state holds the weights; the aoi table never reads them
        if "rvi-uoi" in self.policies and self.weights.support() is None:
            raise ConfigError("weights.kind", "the rvi-uoi policy needs an i.i.d. "
                                              "finite-support weight process")
        if self.trace and entry.simulator in ("mdp", "waterfill"):
            raise ConfigError("trace", f"no {self.scenario!r} run records a trace; "
                                       "single, multi, csma and control runs do")
        # the adaptive rule divides by p * rho, and single prints its bound
        # omega_bar * sigma2 / (p * rho) + V/2
        if "adaptive" in self.policies and (
                self.scenario == "single"
                and not math.isfinite(adaptive_uoi_bound(self.terminal, self.rho, self.v))
                or self.scenario == "control" and not self.terminal.p * self.rho > 0.0):
            raise ConfigError("rho", f"too small for the adaptive rule: p * rho underflows "
                                     f"or the bound overflows at rho = {self.rho}")
        # the fleet loop's index and cost scale with omega_bar * sigma2 / (p * pi)
        if POLICY_TABLE[self.scenario].simulator in ("fleet", "waterfill"):
            try:
                with np.errstate(over="ignore"):
                    bound = fleet_uoi_bound(self.fleet, waterfill(self.fleet))
            except FieldError:  # a width sqrt(omega_bar * sigma2 / p) overflows
                bound = math.inf
            if not math.isfinite(bound):
                raise ConfigError(self._overflow_field, "too large for a finite fleet bound")

    @property
    def _overflow_field(self) -> str:
        """The field to blame for a cost that overflows: the plant's memory
        when |a| > 1 makes the control error recursion diverge, else the
        larger of the weights' mean and the error variance."""
        if abs(self.a) > 1.0:
            return "control.a"
        if self.weights.mean >= self.terminal.sigma2:
            return "weights"
        return "control.noise_var" if self.scenario == "control" else "sigma2"


def config_from_dict(raw: dict) -> ExperimentConfig:
    d = dict(raw)
    scenario = _take(d, "scenario", str, None, "")
    if scenario is None:
        raise ConfigError("scenario", "is required")
    policies = _take(d, "policies", _policy_names, (), "")

    weights = weight_process_from_dict(_section(d, "weights"))

    terminal = _section(d, "terminal")
    p = _take(terminal, "p", _real, 0.8, "terminal.")
    terminal_sigma2 = _take(terminal, "sigma2", _real, None, "terminal.")
    _reject_unknown(terminal, "terminal.")
    fleet = _section(d, "fleet")
    spread = {"n": _take(fleet, "n", _integer, 10, "fleet."),
              "k": _take(fleet, "k", _integer, 2, "fleet."),
              "p_min": _take(fleet, "p_min", _real, 0.7, "fleet."),
              "p_max": _take(fleet, "p_max", _real, 1.0, "fleet.")}
    sigma2 = _take(fleet, "sigma2", _real, terminal_sigma2, "fleet.")
    sigma2 = 1.0 if sigma2 is None else sigma2
    _reject_unknown(fleet, "fleet.")
    # sigma2 may come from either section; omega_bar is the weights' mean
    params = _domain(TerminalParams, "terminal.", {"sigma2": "sigma2", "omega_bar": "weights"},
                     id=0, p=p, sigma2=sigma2, omega_bar=weights.mean)
    if terminal_sigma2 not in (None, sigma2):
        raise ConfigError("fleet.sigma2", f"is {sigma2}, but terminal.sigma2 is "
                                          f"{terminal_sigma2}; set one of them")
    fleet_cfg = _domain(FleetConfig.spread, "fleet.", sigma2=sigma2,
                        omega_bar=params.omega_bar, **spread)

    contention = _section(d, "contention")
    window = _take(contention, "w", _integer, 16, "contention.")
    _reject_unknown(contention, "contention.")
    # csma, the one scenario that contends, needs w > k: at w = k no window
    # closes before its expected length, so the threshold never rises
    least = fleet_cfg.k + 1 if scenario == "csma" else 1
    if window < least:
        raise ConfigError("contention.w", f"must be at least {least}, got {window}")

    # every scenario checks the plant; under control its terminal runs, with
    # the plant's noise as the error variance
    control = _section(d, "control")
    a, b, noise_var = (_take(control, name, _real, 1.0, "control.")
                       for name in ("a", "b", "noise_var"))
    _reject_unknown(control, "control.")
    if not math.isfinite(a):
        raise ConfigError("control.a", f"must be finite, got {a!r}")
    if not (math.isfinite(b) and b != 0.0):
        raise ConfigError("control.b", f"must be finite and nonzero, got {b!r}")
    plant = _domain(TerminalParams, "control.", {"sigma2": "control.noise_var"},
                    id=0, p=p, sigma2=noise_var, omega_bar=weights.mean)

    mdp = _section(d, "mdp")
    default = MdpGrid.default(sigma2, ())
    bounds = {name: _take(mdp, name, _real, getattr(default, name), "mdp.")
              for name in ("q_max", "q_step")}
    _reject_unknown(mdp, "mdp.")
    grid = _domain(MdpGrid, "mdp.", weight_support=weights.support() or (), **bounds)

    thr_raw = d.pop("thresholds", None)
    if thr_raw is None:
        thresholds = {1.0: 15.0, 100.0: 5.0}
    elif not isinstance(thr_raw, dict):
        raise ConfigError("thresholds", f"must be a JSON object mapping weight to bound, "
                                        f"got {thr_raw!r}")
    else:
        try:
            thresholds = {_real(kk): _real(vv) for kk, vv in thr_raw.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError("thresholds", str(exc)) from exc

    cfg = ExperimentConfig(
        scenario=scenario, terminal=plant if scenario == "control" else params,
        weights=weights, fleet=fleet_cfg, a=a if scenario == "control" else 1.0, b=b,
        window=window if scenario == "csma" else None,
        grid=grid,
        horizon=_take(d, "horizon", _integer, 1_000_000, ""),
        replications=_take(d, "replications", _integer, 1, ""),
        seed=_take(d, "seed", _integer, 12345, ""),
        policies=policies,
        rho=_take(d, "rho", _real, 0.25, ""),
        v=_take(d, "v", _real, 1.0, ""),
        thresholds=thresholds,
        trace=_take(d, "trace", _boolean, False, ""),
        n_batches=_take(d, "n_batches", _integer, 10, ""),
    )
    _reject_unknown(d, "")
    return cfg


def read_config(path: str) -> dict:
    """The raw JSON object of a config file, before validation."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_config(path))


@dataclass
class RunMetrics:
    scenario: str
    policy: str
    params: dict
    avg_uoi: float | None
    stderr_uoi: float | None
    avg_update_freq: np.ndarray | None
    violation_prob: float | None
    bound_value: float | None
    extras: dict = field(default_factory=dict)
    trace: np.ndarray | None = None   # sim.SINGLE_TRACE or sim.FLEET_TRACE rows


# --------------------------------------------------------------------------
# Scenario runners.
# --------------------------------------------------------------------------


def _aggregate(results: list[SimResult]) -> tuple[float, float, np.ndarray, float | None]:
    """Mean UoI, its standard error (across replications when there are
    several, else across the batch means of the only one), mean attempt
    frequencies and mean violation probability of a policy's runs."""
    avgs = [r.avg_uoi for r in results]
    avg = float(np.mean(avgs))
    stderr = stderr_from_batches(avgs if len(avgs) > 1 else results[0].batch_means)
    freq = np.mean([r.update_freq for r in results], axis=0)
    viols = [r.violation_prob for r in results if r.violation_prob is not None]
    violation = float(np.mean(viols)) if viols else None
    return avg, stderr, freq, violation


def _run_single_scenario(config: ExperimentConfig) -> list[RunMetrics]:
    """One terminal's runs, one row per policy, on common random numbers;
    the first replication records the trace.

    This also runs the control scenario.  Under certainty-equivalent control
    v = (y - a x_hat) / b of the plant x' = a x + b v + r, the tracking error
    is x' - y = a (x - x_hat) + r: the estimation error left by the last
    delivery, times a, plus the noise, and neither the reference y nor b
    enters it.  So a control run is run_single with memory a on the plant's
    terminal, whose error variance is the noise: its UoI is the weighted
    tracking cost, which is a^2 times the weighted estimation error plus the
    noise floor.  The AoI-optimal table does not depend on a, so rvi-aoi
    runs at any a."""
    params = config.terminal
    tables = {pol: calibrate_multiplier(config.grid, params, config.rho, pol[4:])[1]
              for pol in config.policies if pol in ("rvi-uoi", "rvi-aoi")}
    control = config.scenario == "control"
    bound = None if control else adaptive_uoi_bound(params, config.rho, config.v)

    out = []
    for pol in config.policies:
        results = [run_single(params, config.weights, config.rho, config.v, policy=pol,
                              horizon=config.horizon, factory=StreamFactory(config.seed, rep),
                              thresholds=config.thresholds, n_batches=config.n_batches,
                              trace=config.trace and rep == 0, policy_table=tables.get(pol),
                              a=config.a)
                   for rep in range(config.replications)]
        avg, stderr, freq, violation = _aggregate(results)
        row_params = {"rho": config.rho, "V": config.v, "N": 1}
        if control:
            est = float(np.mean([r.extras["avg_est_cost"] for r in results]))
            noise_floor = params.omega_bar * params.sigma2
            row_params.update(a=config.a, b=config.b)
            extras = {"avg_track_cost": avg, "avg_est_cost": est,
                      "decomposition_rhs": config.a ** 2 * est + noise_floor,
                      "noise_floor": noise_floor}
        else:
            row_params["p"] = params.p
            extras = {"h_over_t": results[0].extras.get("h_over_t")}
        if pol in tables:
            extras["policy_table"] = tables[pol]
        out.append(RunMetrics(
            scenario=config.scenario, policy=pol, params=row_params,
            avg_uoi=avg, stderr_uoi=stderr, avg_update_freq=freq,
            violation_prob=violation,
            bound_value=bound if pol == "adaptive" else None,
            extras=extras, trace=results[0].trace))
    return out


def _run_fleet_scenario(config: ExperimentConfig) -> list[RunMetrics]:
    fleet = config.fleet
    policy = waterfill(fleet)
    bound = fleet_uoi_bound(fleet, policy)
    reps = config.replications
    # Every (policy, replication) is a lane of one fleet loop.
    results = run_fleet_lanes(
        fleet, config.weights,
        [FleetLane(pol, StreamFactory(config.seed, rep), config.trace and rep == 0,
                   config.window if pol == "distributed" else None)
         for pol in config.policies for rep in range(reps)],
        horizon=config.horizon, thresholds=config.thresholds, n_batches=config.n_batches)
    out = []
    for i, pol in enumerate(config.policies):
        lane_results = results[i * reps:(i + 1) * reps]
        avg, stderr, freq, violation = _aggregate(lane_results)
        params = {"N": fleet.n, "K": fleet.k, "rho": None, "V": None,
                  "W": config.window if pol == "distributed" else None}
        extras = {"pi": policy.pi.tolist()}
        if pol == "distributed":
            extras["wallclock_avg_uoi"] = float(np.mean(
                [r.extras["wallclock_avg_uoi"] for r in lane_results]))
            extras["slot_scale"] = lane_results[0].extras["slot_scale"]
        out.append(RunMetrics(
            scenario=config.scenario, policy=pol, params=params,
            avg_uoi=avg, stderr_uoi=stderr, avg_update_freq=freq,
            violation_prob=violation,
            bound_value=bound if pol in ("centralized", "stationary") else None,
            extras=extras, trace=lane_results[0].trace))
    return out


def _run_mdp_scenario(config: ExperimentConfig) -> list[RunMetrics]:
    out = []
    for pol in config.policies:
        lam, table = calibrate_multiplier(config.grid, config.terminal, config.rho, pol[4:])
        out.append(RunMetrics(
            scenario="mdp", policy=pol,
            params={"rho": config.rho, "N": 1, "p": config.terminal.p,
                    "q_max": table.grid.q_max, "q_step": table.grid.q_step},
            avg_uoi=table.avg_cost, stderr_uoi=0.0,
            avg_update_freq=np.array([table.avg_freq]),
            violation_prob=None, bound_value=None,
            extras={"lam": lam, "gain": table.gain, "iterations": table.iterations,
                    "edge_mass": table.edge_mass, "policy_table": table}))
    return out


def _run_waterfill_scenario(config: ExperimentConfig) -> list[RunMetrics]:
    fleet = config.fleet
    policy = waterfill(fleet)
    return [RunMetrics(
        scenario="waterfill", policy="stationary",
        params={"N": fleet.n, "K": fleet.k},
        avg_uoi=None, stderr_uoi=None, avg_update_freq=policy.pi,
        violation_prob=None,
        bound_value=fleet_uoi_bound(fleet, policy),
        extras={"pi": policy.pi.tolist(), "objective": policy.objective})]


def run(config: ExperimentConfig) -> list[RunMetrics]:
    """Execute the configured scenario, one metrics row per policy.

    A cost sum that overflows rejects the run, naming the field at fault:
    control.a where |a| > 1 makes the control error diverge, else the larger
    of the weights' mean and the error variance; so does a domain value out
    of range, such as a budget too small for an aoi table."""
    runners = {
        "single": _run_single_scenario,
        "fleet": _run_fleet_scenario,
        "mdp": _run_mdp_scenario,
        "waterfill": _run_waterfill_scenario,
    }
    simulator = POLICY_TABLE[config.scenario].simulator
    try:
        return runners[simulator](config)
    except NonFiniteCost as exc:
        raise ConfigError(config._overflow_field, f"too large for a finite average: {exc}") from exc
    except FieldError as exc:
        raise ConfigError(exc.field, exc.reason) from exc


# --------------------------------------------------------------------------
# Export.
# --------------------------------------------------------------------------

CSV_COLUMNS = ("scenario", "policy", "N", "K", "rho", "V", "W",
               "avg_uoi", "stderr_uoi", "avg_freq", "violation_prob", "bound")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def _csv_row(m: RunMetrics) -> list[str]:
    freq = None
    if m.avg_update_freq is not None and len(m.avg_update_freq) > 0:
        freq = float(np.mean(m.avg_update_freq))
    return [
        m.scenario, m.policy,
        _fmt(m.params.get("N")), _fmt(m.params.get("K")),
        _fmt(m.params.get("rho")), _fmt(m.params.get("V")), _fmt(m.params.get("W")),
        _fmt(m.avg_uoi), _fmt(m.stderr_uoi), _fmt(freq),
        _fmt(m.violation_prob), _fmt(m.bound_value),
    ]


def _jsonable(m: RunMetrics) -> dict:
    """The row's JSON object, but for its trace."""
    return {
        "scenario": m.scenario,
        "policy": m.policy,
        "params": {k: v for k, v in m.params.items()},
        "avg_uoi": m.avg_uoi,
        "stderr_uoi": m.stderr_uoi,
        "avg_update_freq": (None if m.avg_update_freq is None
                            else [float(x) for x in m.avg_update_freq]),
        "violation_prob": m.violation_prob,
        "bound": m.bound_value,
        "extras": {k: v for k, v in m.extras.items() if k != "policy_table"},
    }


# Trace rows the jsonl export encodes at a time, so that a long trace is
# never held whole as a list of rows or as one string.
_TRACE_CHUNK = 2048

_dumps = partial(json.dumps, sort_keys=True, allow_nan=False)


def _write_jsonl_row(fh, m: RunMetrics) -> None:
    """Write a row's jsonl line: the bytes of _dumps of its object with
    "trace": m.trace.tolist().  An array trace goes out _TRACE_CHUNK rows at
    a time, between the keys that sort before and after "trace" (_jsonable
    has both); the line is checked and encoded but for its trace rows before
    any of it is written."""
    obj = _jsonable(m)
    if not isinstance(m.trace, np.ndarray):   # none, or a hand-built list of rows
        if m.trace is not None:
            obj["trace"] = m.trace
        fh.write(_dumps(obj) + "\n")
        return
    if not all(np.isfinite(m.trace[name]).all() for name in m.trace.dtype.names):
        raise ValueError("Out of range float values are not JSON compliant: trace")
    head = _dumps({k: v for k, v in obj.items() if k < "trace"})
    tail = _dumps({k: v for k, v in obj.items() if k > "trace"})
    fh.write(head[:-1] + ', "trace": [')
    for c0 in range(0, len(m.trace), _TRACE_CHUNK):
        fh.write((", " if c0 else "") + _dumps(m.trace[c0:c0 + _TRACE_CHUNK].tolist())[1:-1])
    fh.write("], " + tail[1:] + "\n")


def export(rows: list[RunMetrics], fmt: str, path: str) -> list[str]:
    """Write metrics rows; returns the paths created.

    csv: fixed 12-column schema.  jsonl: one full object per row.  plot:
    one file per curve of (x, y, yerr) lines, where x is the row's sweep
    value (rho, else N) and curves are keyed by policy.
    """
    if not rows:
        raise ValueError("no metrics rows to export")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_csv_row(m)) for m in rows]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return [path]
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for m in rows:
                _write_jsonl_row(fh, m)
        return [path]
    if fmt == "plot":
        os.makedirs(path, exist_ok=True)
        curves: dict[str, list[tuple]] = {}
        for m in rows:
            key = m.policy
            if m.params.get("V") is not None:
                key += f"_V{_fmt(m.params['V'])}"
            if m.params.get("W") is not None:
                key += f"_W{_fmt(m.params['W'])}"
            x = m.params.get("rho")
            if x is None:
                x = m.params.get("N")
            curves.setdefault(key, []).append((x, m.avg_uoi, m.stderr_uoi))
        written = []
        for key in sorted(curves):
            fname = os.path.join(path, f"curve_{key}.dat")
            with open(fname, "w") as fh:
                fh.write("# x avg_uoi stderr\n")
                for x, y, yerr in curves[key]:
                    fh.write(f"{_fmt(x)} {_fmt(y)} {_fmt(yerr)}\n")
            written.append(fname)
        return written
    raise ValueError(f"unknown export format {fmt!r}")
