"""Slot-loop simulators for the single-terminal, fleet, and control systems.

All randomness comes from named per-(terminal, kind) streams so that
different policies run against identical weight/increment/channel draws.
Weight, increment and channel variates are consumed once per slot
unconditionally, which keeps the streams aligned across policies; a
policy's own coin flips live on separate streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import csma as csma_mod
from .control import LinearPlant, ReferencePath, optimal_control, step_plant_with_noise
from .core import (GaussianIncrements, TerminalParams, WeightProcess,
                   sample_channel_block)
from .mdp import StationaryPolicyTable
from .multi import (FleetConfig, index_coefficients, schedule_round_robin,
                    schedule_stationary)
from .rng import Buffered, StreamFactory


class ScenarioPolicies(NamedTuple):
    """What one scenario runs: the simulator, the default policy, and the
    policies it accepts, each mapped to the rule or scheduler name the
    simulator knows it by.  Rows come back in the configured policy order."""

    simulator: str
    default: str
    policies: dict[str, str]


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


POLICY_TABLE = {
    "single": ScenarioPolicies("single", "adaptive", _same(
        "adaptive", "periodic", "random", "age-threshold", "rvi-uoi", "rvi-aoi")),
    "multi": ScenarioPolicies("fleet", "centralized", _same(
        "centralized", "aoi", "round-robin", "stationary")),
    "csma": ScenarioPolicies("fleet", "distributed",
                             {"distributed": "csma", "centralized": "centralized"}),
    "mdp": ScenarioPolicies("mdp", "rvi", _same("rvi")),
    "control": ScenarioPolicies("tracking", "adaptive", _same(
        "adaptive", "periodic", "random", "age-threshold")),
    "waterfill": ScenarioPolicies("waterfill", "stationary", _same("stationary")),
}
_FLEET_SCHEDULERS = {name for entry in POLICY_TABLE.values() if entry.simulator == "fleet"
                     for name in entry.policies.values()}


@dataclass
class SimResult:
    avg_uoi: float
    batch_means: np.ndarray
    update_freq: np.ndarray          # per-terminal attempt frequency
    violation_prob: float | None
    extras: dict
    trace: list | None = None


def stderr_from_batches(batch_means: np.ndarray) -> float:
    batch_means = np.asarray(batch_means, dtype=float)
    if len(batch_means) < 2:
        return 0.0
    return float(batch_means.std(ddof=1) / math.sqrt(len(batch_means)))


def _threshold_array(w: np.ndarray, thresholds: dict[float, float] | None) -> np.ndarray | None:
    """Per-slot |Q| bound looked up from the realized weight; weights with no
    mapped bound never violate."""
    if not thresholds:
        return None
    thr = np.full(np.shape(w), np.inf)
    for value, bound in thresholds.items():
        thr[w == float(value)] = float(bound)
    return thr


def age_threshold_for_budget(p: float, rho: float) -> int:
    """Smallest age threshold whose attempt frequency stays within rho.

    Retransmits every slot past the threshold until a success, so a cycle
    is (m - 1) waiting slots plus Geometric(p) attempts.
    """
    return max(1, math.ceil(1.0 + (1.0 / rho - 1.0) / p - 1e-12))


def adaptive_uoi_bound(params: TerminalParams, rho: float, v: float) -> float:
    """Guaranteed ceiling on the long-run average UoI of the adaptive scheme:
    omega_bar * sigma2 / (p * rho) + V / 2."""
    p_rho = params.p * rho
    if p_rho <= 0.0:
        raise ValueError("p * rho must be positive")
    return params.omega_bar * params.sigma2 / p_rho + v / 2.0


def _batch_layout(T: int, n_batches: int) -> tuple[int, int]:
    """(batches, slots per batch); the last batch also takes the remainder."""
    nb = max(1, min(n_batches, T))  # no empty batch on short horizons
    return nb, max(1, T // nb)


def _adaptive_rule(omega_bar: float, p: float, rho: float, v: float):
    """The adaptive update rule as `step(q, h, w_next) -> (u, h')`.

    A virtual queue H tracks how much of the budget rho has been used.  The
    terminal transmits iff its update index (w_next + theta) * p * q^2
    strictly exceeds V * H, with theta = omega_bar * (1/(p rho) - 1), and
    then H' = max(0, H - rho + U).
    """
    theta = omega_bar * (1.0 / (p * rho) - 1.0)

    def step(q, h, w_next):
        u = 1 if (w_next + theta) * p * q * q > v * h else 0
        return u, max(0.0, h - rho + u)
    return step


def _blind_plan(policy: str, p: float, rho: float, coin: Buffered,
                s_good: np.ndarray) -> list[int] | None:
    """Every slot's decision of a rule that never reads the error, or None.

    periodic transmits whenever the accumulated credit rho reaches one;
    random flips the policy coin each slot; age-threshold transmits once the
    age since the last delivery reaches age_threshold_for_budget(p, rho).
    """
    T = len(s_good)
    if policy == "periodic":
        plan, credit = [], 0.0
        for _ in range(T):
            credit += rho
            if credit >= 1.0 - 1e-12:
                credit -= 1.0
                plan.append(1)
            else:
                plan.append(0)
        return plan
    if policy == "random":
        return [1 if coin.next() < rho else 0 for _ in range(T)]
    if policy == "age-threshold":
        age_m = age_threshold_for_budget(p, rho)
        plan, age = [], 1
        for s in s_good.tolist():
            u = 1 if age >= age_m else 0
            plan.append(u)
            age = 1 if u and s else age + 1
        return plan
    return None


# Slots of stream arrays the single-terminal loops turn into Python lists at a
# time: per-block lists keep a long run's memory near that of its arrays.
_BLOCK = 4096


def _blocks(T: int, nb: int, batch_len: int) -> list[tuple[int, int, int]]:
    """(batch, first slot, end slot) of blocks of at most _BLOCK slots in one batch."""
    ends = [b * batch_len for b in range(1, nb)] + [T]
    return [(b, t0, min(t0 + _BLOCK, end)) for b, end in enumerate(ends)
            for t0 in range(b * batch_len, end, _BLOCK)]


def _batch_means(sums: list[float], T: int, batch_len: int) -> np.ndarray:
    nb = len(sums)
    return np.array(sums) / ([batch_len] * (nb - 1) + [T - (nb - 1) * batch_len])


def run_single(params: TerminalParams, weights: WeightProcess, rho: float, v: float,
               policy: str = "adaptive", horizon: int = 1_000_000,
               factory: StreamFactory | None = None,
               thresholds: dict[float, float] | None = None,
               n_batches: int = 10, trace: bool = False,
               policy_table: StationaryPolicyTable | None = None) -> SimResult:
    """Simulate one terminal under an update policy for `horizon` slots."""
    if policy not in POLICY_TABLE["single"].policies:
        raise ValueError(f"unknown policy {policy!r}")
    if policy.startswith("rvi") and policy_table is None:
        raise ValueError(f"policy {policy!r} needs a solved policy_table")
    factory = factory or StreamFactory(0)
    T = int(horizon)
    tid = params.id

    w = weights.sample_block(factory.stream("weight", tid), 0, T + 1)
    inc = GaussianIncrements(params.sigma2).sample_block(
        factory.stream("increment", tid), 0, T)
    s_good = sample_channel_block(factory.stream("channel", tid), params.p, T)
    thr = _threshold_array(w[:T], thresholds)

    coin = Buffered(factory.stream("policy", tid).uniform)
    plan = _blind_plan(policy, params.p, rho, coin, s_good)
    adaptive = _adaptive_rule(params.omega_bar, params.p, rho, v) if policy == "adaptive" else None
    if policy_table is not None:  # P(transmit) by age or by (q bin, w_now, w_next)
        grid, tab = policy_table.grid, policy_table.table.tolist()
    widx = ({float(val): i for i, (val, _) in enumerate(policy_table.grid.weight_support)}
            if policy_table is not None and policy_table.cost_kind == "uoi" else {})

    nb, batch_len = _batch_layout(T, n_batches)
    sums = [0.0] * nb
    q = 0.0
    h = 0.0
    age = 1
    attempts = 0
    violations = 0
    rows = [] if trace else None

    for b, t0, t1 in _blocks(T, nb, batch_len):
        w_b = w[t0:t1 + 1].tolist()
        inc_b = inc[t0:t1].tolist()
        s_b = s_good[t0:t1].tolist()
        thr_b = thr[t0:t1].tolist() if thr is not None else None
        plan_b = plan[t0:t1] if plan is not None else None
        wi = [widx[x] for x in w_b] if widx else None
        acc = sums[b]
        for j in range(t1 - t0):
            f_t = w_b[j] * q * q
            acc += f_t
            if thr_b is not None and abs(q) > thr_b[j]:
                violations += 1
            if rows is not None:
                rows.append((t0 + j, h, q, f_t))

            if plan_b is not None:
                u = plan_b[j]
            elif adaptive is not None:
                u, h = adaptive(q, h, w_b[j + 1])
            else:  # rvi table, possibly randomized per state
                if wi is not None:
                    qc = min(max(q, -grid.q_max), grid.q_max)
                    prob = tab[int(round((qc + grid.q_max) / grid.q_step))][wi[j]][wi[j + 1]]
                else:
                    prob = tab[min(age, grid.delta_max) - 1]
                u = 1 if prob >= 1.0 else (0 if prob <= 0.0 else int(coin.next() < prob))

            attempts += u
            if u and s_b[j]:
                q = inc_b[j]
                age = 1
            else:
                q += inc_b[j]
                age += 1
        sums[b] = acc

    return SimResult(
        avg_uoi=float(np.array(sums).sum()) / T,
        batch_means=_batch_means(sums, T, batch_len),
        update_freq=np.array([attempts / T]),
        violation_prob=(violations / T) if thr is not None else None,
        extras={"h_over_t": h / T if policy == "adaptive" else None,
                "final_h": h, "attempts": attempts},
        trace=rows,
    )


# --------------------------------------------------------------------------
# Fleet simulation.
# --------------------------------------------------------------------------


def _topk_ids(values: np.ndarray, k: int) -> np.ndarray:
    """Largest-k ids, ties to the lowest id (stable sort on descending value)."""
    return np.argsort(-values, kind="stable")[:k]


def run_fleet(fleet: FleetConfig, weights: list[WeightProcess], scheduler: str,
              pi: np.ndarray, horizon: int = 1_000_000,
              factory: StreamFactory | None = None,
              contention: csma_mod.ContentionConfig | None = None,
              delta_j: float | None = None,
              thresholds: dict[float, float] | None = None,
              n_batches: int = 10, block: int = 32768,
              trace: bool = False) -> SimResult:
    """Simulate N terminals under one scheduler for `horizon` slots.

    The csma scheduler stretches the slot to (1 + W/100) ms, so its error
    increments carry variance slot_scale * sigma2; all schedulers consume
    the same per-slot stream variates either way.
    """
    if scheduler not in _FLEET_SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    factory = factory or StreamFactory(0)
    T = int(horizon)
    n, k = fleet.n, fleet.k
    p = fleet.array("p")
    sigma2 = fleet.array("sigma2")
    omega_bar = fleet.array("omega_bar")

    slot_scale = 1.0
    if scheduler == "csma":
        if contention is None:
            raise ValueError("csma scheduling needs a ContentionConfig")
        if contention.k != k:
            raise ValueError("contention sub-channels must match fleet.k")
        slot_scale = contention.slot_scale
        backoffs = [Buffered(partial(factory.stream("backoff", i).integers, high=contention.w))
                    for i in range(n)]
        if delta_j is None:
            delta_j = csma_mod.default_delta_j(omega_bar, sigma2 * slot_scale)
        th_state = csma_mod.ThresholdState(j_th=0.0, delta_j=delta_j)
    inc_scale = math.sqrt(slot_scale)

    coefs = None
    if scheduler in ("centralized", "csma"):
        coefs = index_coefficients(fleet, pi)
    sched_coin = (Buffered(factory.stream("scheduler", 0).uniform)
                  if scheduler == "stationary" else None)

    w_streams = [factory.stream("weight", i) for i in range(n)]
    a_streams = [factory.stream("increment", i) for i in range(n)]
    c_streams = [factory.stream("channel", i) for i in range(n)]
    incs = [GaussianIncrements(sigma2[i]) for i in range(n)]

    nb, batch_len = _batch_layout(T, n_batches)
    batch_sums = np.zeros(nb)
    batch_counts = np.zeros(nb, dtype=np.int64)

    q = np.zeros(n)
    delta = np.ones(n, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    violations = 0
    max_index = 0.0
    rows = [] if trace else None

    # Weight lookahead: keep a buffer covering slots [t0, t0 + nblk].
    w_buf = np.stack([weights[i].sample_block(w_streams[i], 0, min(block, T) + 1)
                      for i in range(n)])
    t0 = 0
    while t0 < T:
        nblk = min(block, T - t0)
        if t0 > 0:
            fresh = np.stack([weights[i].sample_block(w_streams[i], t0 + 1, nblk)
                              for i in range(n)])
            w_buf = np.concatenate([w_buf[:, -1:], fresh], axis=1)
        a_blk = np.stack([incs[i].sample_block(a_streams[i], t0, nblk) for i in range(n)])
        if slot_scale != 1.0:
            a_blk *= inc_scale
        s_blk = np.stack([sample_channel_block(c_streams[i], p[i], nblk) for i in range(n)])
        thr_blk = _threshold_array(w_buf[:, :nblk], thresholds)

        for j in range(nblk):
            t = t0 + j
            w_t = w_buf[:, j]
            q2 = q * q
            f_slot = float(w_t @ q2) / n
            b = min(t // batch_len, nb - 1)
            batch_sums[b] += f_slot
            batch_counts[b] += 1
            if thr_blk is not None:
                violations += int(np.count_nonzero(np.abs(q) > thr_blk[:, j]))

            transmit = np.zeros(n, dtype=bool)
            eligible = None
            aux = 0.0
            if coefs is not None:  # the update index of centralized and csma
                indices = (coefs + w_buf[:, j + 1]) * p * q2
            if scheduler == "centralized":
                transmit[_topk_ids(indices, k)] = True
            elif scheduler == "aoi":
                scores = p * delta * (delta + 1.0)
                transmit[_topk_ids(scores, k)] = True
            elif scheduler == "round-robin":
                transmit[schedule_round_robin(t, n, k)] = True
            elif scheduler == "stationary":
                transmit[schedule_stationary(pi, sched_coin.next())] = True
            else:  # csma
                max_index = max(max_index, float(indices.max()))
                active = np.flatnonzero(indices > th_state.j_th).tolist()
                outcome = csma_mod.contend(
                    active, contention, lambda tid: backoffs[tid].next())
                winners = outcome.winners()
                transmit[winners] = True
                eligible = transmit.copy()
                transmit[list(outcome.collided)] = True  # data sent and wasted
                th_state = csma_mod.adapt_threshold(th_state, outcome, contention)
                aux = th_state.j_th

            attempts += transmit
            delivered = (transmit if eligible is None else eligible) & s_blk[:, j]
            if rows is not None:
                rows.append((t, aux, f_slot))
            q = np.where(delivered, 0.0, q) + a_blk[:, j]
            delta = np.where(delivered, 1, delta + 1)
        t0 += nblk

    total = float(batch_sums.sum())
    return SimResult(
        avg_uoi=total / T,
        batch_means=batch_sums / np.maximum(batch_counts, 1),
        update_freq=attempts / T,
        violation_prob=(violations / (n * T)) if thresholds else None,
        extras={"slot_scale": slot_scale,
                "wallclock_avg_uoi": total / T / slot_scale,
                "final_j_th": th_state.j_th if scheduler == "csma" else None,
                "max_index": max_index if scheduler == "csma" else None,
                "delta_j": delta_j if scheduler == "csma" else None},
        trace=rows,
    )


# --------------------------------------------------------------------------
# Remote tracking control.
# --------------------------------------------------------------------------


@dataclass
class TrackingResult:
    avg_track_cost: float          # mean w_t (x_t - y_t)^2
    avg_est_cost: float            # mean w_t (x_{t-1} - x_hat_{t-1})^2
    avg_uoi: float                 # mean w_t Q_t^2 of the embedded update system
    update_freq: float
    track_batches: np.ndarray
    est_batches: np.ndarray
    omega_bar: float
    noise_var: float


def run_tracking(plant: LinearPlant, reference: ReferencePath,
                 weights: WeightProcess, policy: str, rho: float, v: float,
                 p_channel: float, horizon: int = 1_000_000,
                 factory: StreamFactory | None = None,
                 n_batches: int = 10) -> TrackingResult:
    """Drive the plant with certainty-equivalent control while the chosen
    policy decides when the terminal uplinks its true state."""
    if policy not in POLICY_TABLE["control"].policies:
        raise ValueError(f"unknown policy {policy!r}")
    factory = factory or StreamFactory(0)
    T = int(horizon)
    omega_bar = weights.mean

    w = weights.sample_block(factory.stream("weight", 0), 0, T + 1)
    noise = factory.stream("increment", 0).normal(T) * math.sqrt(plant.noise_var)
    s_good = sample_channel_block(factory.stream("channel", 0), p_channel, T)
    coin = Buffered(factory.stream("policy", 0).uniform)
    plan = _blind_plan(policy, p_channel, rho, coin, s_good)
    adaptive = _adaptive_rule(omega_bar, p_channel, rho, v)

    nb, batch_len = _batch_layout(T, n_batches)
    track_sums = [0.0] * nb
    est_sums = [0.0] * nb
    a, gain, x, x_hat = plant.a, plant.b, plant.x, plant.x_hat
    h = 0.0
    attempts = 0
    uoi_total = 0.0

    for b, t0, t1 in _blocks(T, nb, batch_len):
        w_b = w[t0:t1 + 1].tolist()
        noise_b = noise[t0:t1].tolist()
        s_b = s_good[t0:t1].tolist()
        plan_b = plan[t0:t1] if plan is not None else None
        track_acc, est_acc = track_sums[b], est_sums[b]
        for j in range(t1 - t0):
            w_t = w_b[j]
            err = x - x_hat
            est_acc += w_t * err * err

            y_t = reference.at(t0 + j)
            v_t = optimal_control(a, gain, x_hat, y_t)
            x, x_hat = step_plant_with_noise(a, gain, x, x_hat, v_t, 0, noise_b[j])
            err = x - y_t
            track_acc += w_t * err * err

            q_pre = x - x_hat
            uoi_total += w_t * q_pre * q_pre
            if plan_b is not None:
                u = plan_b[j]
            else:
                u, h = adaptive(q_pre, h, w_b[j + 1])

            attempts += u
            if u and s_b[j]:
                x_hat = x
        track_sums[b], est_sums[b] = track_acc, est_acc

    return TrackingResult(
        avg_track_cost=float(np.array(track_sums).sum()) / T,
        avg_est_cost=float(np.array(est_sums).sum()) / T,
        avg_uoi=uoi_total / T,
        update_freq=attempts / T,
        track_batches=_batch_means(track_sums, T, batch_len),
        est_batches=_batch_means(est_sums, T, batch_len),
        omega_bar=omega_bar,
        noise_var=plant.noise_var,
    )
