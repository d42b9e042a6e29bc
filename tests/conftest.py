"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from uoi_sim.core import TerminalParams, TwoPointWeights
from uoi_sim.csma import ContentionConfig, ContentionLanes
from uoi_sim import mdp
from uoi_sim.mdp import RviConvergenceError, StationaryPolicyTable
from uoi_sim.multi import FleetConfig


def desk_terminal() -> TerminalParams:
    """The single-terminal desk configuration: p=0.8, sigma2=1, two-point
    weights 1/100 with mean 1.99."""
    return TerminalParams(id=0, p=0.8, sigma2=1.0, omega_bar=1.99)


def desk_weights() -> TwoPointWeights:
    return TwoPointWeights(w_lo=1.0, w_hi=100.0, prob_hi=0.01)


def fleet_weights() -> TwoPointWeights:
    return TwoPointWeights(w_lo=1.0, w_hi=100.0, prob_hi=0.05)


def make_fleet(n: int, k: int = 2, sigma2: float = 1.0,
               omega_bar: float | None = None) -> FleetConfig:
    """Success probabilities spread linearly over [0.7, 1.0]."""
    if omega_bar is None:
        omega_bar = fleet_weights().mean
    terminals = tuple(
        TerminalParams(id=i,
                       p=0.7 + (0.3 * i / (n - 1) if n > 1 else 0.0),
                       sigma2=sigma2, omega_bar=omega_bar)
        for i in range(n))
    return FleetConfig(terminals=terminals, k=k)


def grid_min_objective(d: np.ndarray, k: int, step: float = 1e-3) -> float:
    """Brute-force lattice minimum of sum d_i^2 / pi_i with pi_i in
    {step, 2*step, ..., 1}, sum(pi) <= k.

    Computed by exact dynamic programming over the integer lattice, which
    enumerates the same set of allocations as a nested grid search.
    Independent of the water-filling solver.
    """
    levels = int(round(1.0 / step))          # lattice points per terminal
    budget = k * levels                      # total lattice units
    d = np.asarray(d, dtype=float)
    inf = np.inf
    costs = []
    for di in d:
        c = np.full(levels + 1, inf)
        if di == 0.0:
            c[:] = 0.0                       # zero width: pi = 0 is free
        else:
            units = np.arange(1, levels + 1)
            c[1:] = di * di / (units * step)
        costs.append(c)

    # f[r] = min cost of allocating exactly r lattice units to the suffix.
    f = np.full(budget + 1, inf)
    last = costs[-1]
    r = np.arange(budget + 1)
    take = np.minimum(r, levels)
    f = last[take]
    if d[-1] == 0.0:
        f = np.zeros(budget + 1)
    for c in reversed(costs[:-1]):
        g = np.full(budget + 1, inf)
        x_lo = 0 if c[0] == 0.0 else 1
        for x in range(x_lo, levels + 1):
            g[x:] = np.minimum(g[x:], c[x] + f[: budget + 1 - x])
        f = g
    return float(f.min())


def relative_value_iteration(transitions: np.ndarray, costs: np.ndarray,
                             span_tol: float = 1e-6, max_iter: int = 100_000,
                             ref: int = 0):
    """Generic dense average-cost solver.

    transitions: (A, S, S) row-stochastic per action; costs: (S, A).
    Returns (h, gain, policy, iterations) where policy is the greedy action
    (ties to the lower action index) and gain the optimal average cost.
    """
    n_actions, n_states, _ = transitions.shape
    h = np.zeros(n_states)
    span = math.inf
    for it in range(1, max_iter + 1):
        q_vals = costs + np.stack([transitions[a] @ h for a in range(n_actions)], axis=1)
        th = q_vals.min(axis=1)
        diff = th - h
        span = float(diff.max() - diff.min())
        gain = 0.5 * float(diff.max() + diff.min())
        h = th - th[ref]
        if span < span_tol:
            return h, gain, q_vals.argmin(axis=1), it
    raise RviConvergenceError(span, max_iter)


def age_chain_bias(send, cost) -> tuple[np.ndarray, np.ndarray]:
    """Gain g and relative values h (h[0] = 0) of the age chain in which age
    i + 1 pays cost[i], resets to age 1 with probability send[i] and
    otherwise grows, capped at len(cost) (Puterman §8.2).  Extra axes after
    the first hold independent chains.

    The equations h_i + g = cost_i + send_i h_0 + (1 - send_i) h_up(i) are
    solved relative to the cap: g = cost[-1] + send[-1] h_0, and
    back-substitution from the cap writes each h_i as a_i + b_i h_0, so
    h_0 = a_0 / (1 - b_0).  1 - b_0 > 0 unless the chain has two recurrent
    classes, which needs p = 1 and a policy that sends below the cap but
    not at it; no threshold policy does.
    """
    s, c = (np.array(x, dtype=float) for x in np.broadcast_arrays(send, cost))
    a, b = np.zeros_like(c), np.zeros_like(s)
    for i in range(len(c) - 2, -1, -1):
        a[i] = c[i] - c[-1] + (1.0 - s[i]) * a[i + 1]
        b[i] = s[i] - s[-1] + (1.0 - s[i]) * b[i + 1]
    h0 = a[0] / (1.0 - b[0])
    return c[-1] + s[-1] * h0, a + (b - 1.0) * h0


def age_chain_averages(table, p: float, n_ages: int = 5000) -> tuple[float, float]:
    """(average age, attempt frequency) of a P(transmit | age) table on the
    age chain capped at n_ages; the table's last entry holds for later ages.
    A 2-D table holds one policy per column."""
    table = np.asarray(table, dtype=float)
    tail = np.broadcast_to(table[-1], (n_ages - len(table),) + table.shape[1:])
    full = np.concatenate([table, tail])
    ages = np.arange(1, n_ages + 1, dtype=float).reshape((-1,) + (1,) * (table.ndim - 1))
    return age_chain_bias(p * full, ages)[0], age_chain_bias(p * full, full)[0]


def age_rule_table(m: int, eta: float) -> np.ndarray:
    """The age rule that waits through ages 1..m-1, sends with probability
    eta at age m and always after that."""
    return np.concatenate([np.zeros(m - 1), [eta, 1.0]])


def dense_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary law of a unichain transition matrix: least-squares solve
    of mu (P - I) = 0 together with sum(mu) = 1."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def dense_uoi_chain(q_values: np.ndarray, G: np.ndarray, g0: np.ndarray, support,
                    p: float, table: np.ndarray) -> tuple[float, float]:
    """(average w_now q^2, average transmit probability) of the full
    (q, w_now, w_next) chain under a P(transmit) table, built state by state."""
    w = [val for val, _ in support]
    pw = [pr for _, pr in support]
    nq, nw = len(q_values), len(w)
    states = [(i, a, b) for i in range(nq) for a in range(nw) for b in range(nw)]
    index = {s: k for k, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for (i, a, b), k in index.items():
        send = p * table[i, a, b]
        for j in range(nq):
            row = (1.0 - send) * G[i, j] + send * g0[j]
            for c in range(nw):
                P[k, index[(j, b, c)]] += row * pw[c]
    mu = dense_stationary(P)
    cost = sum(mu[k] * w[a] * q_values[i] ** 2 for (i, a, b), k in index.items())
    freq = sum(mu[k] * table[i, a, b] for (i, a, b), k in index.items())
    return float(cost), float(freq)


# --------------------------------------------------------------------------
# The uoi chain on all 2m + 1 q bins.  mdp solves and evaluates it on |q|;
# these are the sweep and the exact evaluation it ran before, kept as the
# oracle the folded chain is checked against.
# --------------------------------------------------------------------------


def full_chain_rvi(grid, params: TerminalParams, lam: float):
    """Relative value iteration on the (q, w_now, w_next) chain with
    transmit cost lam, normalized at q = 0.  Returns (gain, greedy table,
    sweeps)."""
    w_vals = np.array([w for w, _ in grid.weight_support])
    pw = np.array([p for _, p in grid.weight_support])
    q = grid.q_values
    nq, nw = len(q), len(w_vals)
    G, g0, _ = mdp.gaussian_kernel(grid, params.sigma2)
    base = w_vals[None, :, None] * (q ** 2)[:, None, None]
    p = params.p
    m = nq // 2
    h = np.zeros((nq, nw, nw))
    span = math.inf
    for it in range(1, mdp._MAX_ITER + 1):
        hbar = h @ pw
        c0 = G @ hbar
        r0 = g0 @ hbar
        q0 = base + c0[:, None, :]
        q1 = base + lam + (p * r0)[None, None, :] + (1.0 - p) * c0[:, None, :]
        th = np.minimum(q0, q1)
        diff = th - h
        hi, lo = float(diff.max()), float(diff.min())
        span, gain = hi - lo, 0.5 * (hi + lo)
        h = th - th[m, 0, 0]
        if span < mdp._SPAN_TOL:
            return gain, (q1 < q0).astype(float), it
    raise RviConvergenceError(span, mdp._MAX_ITER)


def refined_stationary_distribution(P: np.ndarray) -> np.ndarray:
    """mdp.stationary_distribution's dense solve, plus one step of iterative
    refinement with its residual taken in extended precision (np.longdouble,
    80-bit on x86-64).  Unrefined, the full chain's 802-state solve moves the
    calibrated multiplier by up to about 1e-10 with the BLAS thread count, as
    far as the bound it is compared to the |q| chain's at; refined, every
    compared figure lies within about 5e-12 of the |q| chain's, under one
    BLAS thread and under several alike."""
    n = P.shape[0]
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(M, b)
    mu += np.linalg.solve(M, (b - M.astype(np.longdouble) @ mu).astype(float))
    mu = np.maximum(mu, 0.0)
    return mu / mu.sum()


def full_chain_averages(grid, params: TerminalParams, table) -> tuple[float, float, float]:
    """(average w_now q^2, average transmit probability, mass in the two
    outermost q bins) of a table on the (q, w_now) chain."""
    w_vals = np.array([w for w, _ in grid.weight_support])
    pw = np.array([p for _, p in grid.weight_support])
    q = grid.q_values
    nq, nw = len(q), len(w_vals)
    G, g0, _ = mdp.gaussian_kernel(grid, params.sigma2)
    P = np.empty((nq, nw, nq, nw))
    for a in range(nw):
        for b in range(nw):
            send = params.p * table[:, a, b]
            P[:, a, :, b] = ((1.0 - send)[:, None] * G + send[:, None] * g0) * pw[b]
    nu = refined_stationary_distribution(P.reshape(nq * nw, nq * nw)).reshape(nq, nw)
    return (float(np.sum(nu * w_vals[None, :] * (q ** 2)[:, None])),
            float(np.sum(nu * (table @ pw))), float(nu[0].sum() + nu[-1].sum()))


def full_chain_solve(grid, params: TerminalParams, lam: float) -> StationaryPolicyTable:
    """rvi_solve on the full chain."""
    gain, table, sweeps = full_chain_rvi(grid, params, lam)
    cost, freq, edge = full_chain_averages(grid, params, table)
    return StationaryPolicyTable(cost_kind="uoi", table=table, avg_cost=cost,
                                 avg_freq=freq, lam=lam, grid=grid, gain=gain,
                                 iterations=sweeps, edge_mass=edge)


def full_chain_calibration(grid, params: TerminalParams, rho: float):
    """calibrate_multiplier's (lam, table) with every solve and evaluation
    on the full chain."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mdp, "rvi_solve", full_chain_solve)
        patch.setattr(mdp, "evaluate_policy", full_chain_averages)
        return mdp.calibrate_multiplier(grid, params, rho, "uoi")


def format_policy_table_per_line(table: StationaryPolicyTable) -> str:
    """The table dump with every field formatted on every line, as
    `mdp.format_policy_table` wrote it before it formatted each q value and
    weight pair once."""
    lines = [f"# cost_kind={table.cost_kind} avg_cost={table.avg_cost:.6f} "
             f"avg_freq={table.avg_freq:.6f} lam={table.lam:.6g}"]
    if table.cost_kind == "aoi":
        lines.append("# age -> P(transmit)")
        for i, u in enumerate(table.table):
            lines.append(f"{i + 1} {u:.4f}")
    else:
        w_vals = [w for w, _ in table.grid.weight_support]
        lines.append("# q w_now w_next -> P(transmit)")
        for iq, qq in enumerate(table.grid.q_values):
            for a, wa in enumerate(w_vals):
                for b, wb in enumerate(w_vals):
                    lines.append(f"{qq:.4f} {wa:g} {wb:g} {table.table[iq, a, b]:.4f}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Step operations: the per-slot dynamics and update rules written one slot
# and one terminal at a time, as the paper states them.  The reference runs
# in test_sim.py rebuild the simulators' loops from these.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorQueue:
    """Estimation-error state.  `slot` is the queue's own clock."""

    q: float = 0.0
    last_delivery_slot: int = -1
    slot: int = 0

    @property
    def age(self) -> int:
        """Slots since the last delivery, counting the current one."""
        return self.slot - self.last_delivery_slot


def step_error(queue: ErrorQueue, u: int, s: int, a: float) -> ErrorQueue:
    """Q' = (1 - U S) Q + A: delivery empties the queue, then the increment
    lands either way."""
    delivered = u * s
    return ErrorQueue(
        q=(1 - delivered) * queue.q + a,
        last_delivery_slot=queue.slot if delivered else queue.last_delivery_slot,
        slot=queue.slot + 1)


def uoi(weight: float, error: float) -> float:
    """Urgency of information: context weight times squared error."""
    return weight * error * error


@dataclass(frozen=True)
class VirtualQueue:
    """Budget-tracking queue H of the adaptive updater."""

    h: float
    rho: float
    v: float


def step_virtual_queue(vq: VirtualQueue, u: int) -> VirtualQueue:
    """H' = max(0, H - rho + U)."""
    return VirtualQueue(h=max(0.0, vq.h - vq.rho + u), rho=vq.rho, v=vq.v)


def update_index(params: TerminalParams, rho: float, omega_next: float, q: float) -> float:
    """J = (omega_next - omega_bar + omega_bar / (p * rho)) * p * q^2."""
    coeff = omega_next - params.omega_bar + params.omega_bar / (params.p * rho)
    return coeff * params.p * q * q


def drift_coefficient(params: TerminalParams, rho: float) -> float:
    """theta = omega_bar * (1 - p*rho) / (p*rho), the Lyapunov weight on Q^2."""
    p_rho = params.p * rho
    return params.omega_bar * (1.0 - p_rho) / p_rho


@dataclass(frozen=True)
class SingleUpdaterState:
    params: TerminalParams
    vq: VirtualQueue
    eq: ErrorQueue


def make_single_updater(params: TerminalParams, rho: float, v: float) -> SingleUpdaterState:
    """Fresh updater with H_0 = 0 and Q_0 = 0."""
    return SingleUpdaterState(params=params, vq=VirtualQueue(h=0.0, rho=rho, v=v),
                              eq=ErrorQueue())


def decide_update(state: SingleUpdaterState, omega_next: float) -> int:
    """Transmit iff the update index strictly exceeds V * H (ties hold)."""
    j = update_index(state.params, state.vq.rho, omega_next, state.eq.q)
    return 1 if j > state.vq.v * state.vq.h else 0


def periodic_step(credit: float, rho: float) -> tuple[int, float]:
    """Accumulate rho of credit per slot; transmit and spend one unit once
    the credit reaches one."""
    credit += rho
    if credit >= 1.0 - 1e-12:
        return 1, credit - 1.0
    return 0, credit


def multi_update_index(t: TerminalParams, pi: float, omega_next: float, q: float) -> float:
    """J_i = (omega_bar_i * (1/(p_i pi_i) - 1) + omega_next) * p_i * q^2."""
    coeff = t.omega_bar * (1.0 / (t.p * pi) - 1.0) + omega_next
    return coeff * t.p * q * q


def round_robin_ids(slot: int, n: int, k: int) -> list[int]:
    """Round-robin ids of one slot: K consecutive ids modulo N, advancing by
    K per slot."""
    k = min(k, n)
    return [(slot * k + j) % n for j in range(k)]


def stationary_ids(pi, u: float) -> list[int]:
    """Systematic draw of one slot: each point u, u + 1, ... below sum(pi)
    picks the first terminal whose cumulative pi exceeds it."""
    cum = list(itertools.accumulate(float(x) for x in pi))
    chosen = set()
    points = itertools.takewhile(lambda point: point < cum[-1],
                                 (u + i for i in itertools.count()))
    for point in points:
        chosen.add(next(i for i, c in enumerate(cum) if point < c))
    return sorted(chosen)


def schedule_topk(values, k: int) -> list[int]:
    """Ids of the min(k, N) largest values; ties to the lowest id."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))[:k]


@dataclass(frozen=True)
class AoIState:
    """Ages of the freshest delivered status, one per terminal."""

    delta: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "AoIState":
        return cls(delta=np.ones(n, dtype=np.int64))


def step_aoi(aoi: AoIState, delivered: np.ndarray) -> AoIState:
    """Age resets to 1 exactly on delivered slots, else increments."""
    return AoIState(delta=np.where(delivered, 1, aoi.delta + 1))


def schedule_aoi(aoi: AoIState, fleet: FleetConfig) -> list[int]:
    """Top-K ids by p_i * delta_i * (delta_i + 1), lowest-id tie-break."""
    return schedule_topk(fleet.array("p") * aoi.delta * (aoi.delta + 1.0), fleet.k)


def table_lookup(table: StationaryPolicyTable, q: float, w_now: float, w_next: float,
                 age: int) -> float:
    """P(transmit) of a policy table: by age, the last entry holding past its
    end, for "aoi"; at the nearest q bin (clipped to the grid) and the weight
    pair for "uoi"."""
    grid = table.grid
    if table.cost_kind == "aoi":
        return float(table.table[min(age, len(table.table)) - 1])
    widx = {float(val): i for i, (val, _) in enumerate(grid.weight_support)}
    qc = min(max(q, -grid.q_max), grid.q_max)
    iq = int(round((qc + grid.q_max) / grid.q_step))
    return float(table.table[iq, widx[w_now], widx[w_next]])


# Marker for a sub-channel whose reservation mini-slot carried two or more
# simultaneous intentions.
COLLISION = -1


def fixed_backoffs(backoffs: dict[int, int]) -> dict:
    """`ContentionLanes`' backoff draws for flat id -> backoff: each terminal
    draws its own backoff, however often it is asked."""
    return {t: itertools.repeat(l).__next__ for t, l in backoffs.items()}


def contention_step(lanes: ContentionLanes, n: int,
                    active: list[list[int]]) -> list[tuple[list[int], list[int], int, int]]:
    """One `lanes.step` of n terminals a lane in which exactly the terminals
    active[c] of lane c contend, and per lane its (winners, colliders, window
    length, idle sub-channels): terminals by their id in the lane, winners in
    id order, colliders as `collided` lists them."""
    neg_index = np.full((len(active), n), np.inf)
    for c, ids in enumerate(active):
        neg_index[c, ids] = -np.inf
    sent = np.zeros(len(active) * n, dtype=bool)
    window_sum, idle_sum = list(lanes.window_sum), list(lanes.idle_sum)
    lanes.collided.clear()
    lanes.step(neg_index, sent)
    return [(sent[c * n:(c + 1) * n].nonzero()[0].tolist(),
             [t - c * n for t in lanes.collided if t // n == c],
             lanes.window_sum[c] - window_sum[c], lanes.idle_sum[c] - idle_sum[c])
            for c in range(len(active))]


class Window(NamedTuple):
    """One contention window: sub-channel (1-based) -> terminal id or
    COLLISION, the closing mini-slot, the idle sub-channels and the
    colliders."""

    reservations: dict[int, int]
    window_len: int
    idle_channels: int
    collided: tuple[int, ...]


def contention_window(backoffs: dict[int, int], w: int, k: int) -> Window:
    """Resolve a window of terminal -> backoff mini-slot by mini-slot: the
    terminals with backoff l fire in mini-slot l + 1 and claim the lowest
    sub-channel not yet reserved, two or more of them collide on it, and the
    window closes at the mini-slot that reserves the K-th sub-channel or
    after W mini-slots."""
    reservations, collided = {}, []
    for mini_slot in range(1, w + 1):
        senders = sorted(t for t, l in backoffs.items() if l + 1 == mini_slot)
        if not senders:
            continue
        channel = len(reservations) + 1
        reservations[channel] = senders[0] if len(senders) == 1 else COLLISION
        if len(senders) > 1:
            collided += senders
        if len(reservations) == k:
            return Window(reservations, mini_slot, 0, tuple(collided))
    return Window(reservations, w, k - len(reservations), tuple(collided))


@dataclass(frozen=True)
class ThresholdState:
    """The contention threshold of one csma run and its step delta_j."""

    j_th: float
    delta_j: float

    def __post_init__(self):
        if self.j_th < 0.0:
            raise ValueError("threshold must be nonnegative")
        if self.delta_j <= 0.0:
            raise ValueError("delta_j must be positive")


def adapt_threshold_state(state: ThresholdState, outcome,
                          cfg: ContentionConfig) -> ThresholdState:
    """Lower the threshold by delta_j after a window with idle sub-channels
    (clamped at zero), raise it after a window that closed before its
    expected length K/(K+1) (W+1), else keep it."""
    if outcome.idle_channels > 0:
        j_th = max(0.0, state.j_th - state.delta_j)
    elif outcome.window_len < cfg.expected_window:
        j_th = state.j_th + state.delta_j
    else:
        j_th = state.j_th
    return ThresholdState(j_th=j_th, delta_j=state.delta_j)


def certainty_equivalent_control(a: float, b: float, x_hat: float, y_next: float) -> float:
    """v = (y - a x_hat) / b: the input that puts the estimated next state on y."""
    return (y_next - a * x_hat) / b


def step_plant(a: float, b: float, x: float, x_hat: float, v: float,
               r: float) -> tuple[float, float]:
    """(x', x_hat') of the plant x' = a x + b v + r, with the estimate
    propagated through the model without the noise; a delivery then sets
    x_hat' = x'."""
    return a * x + b * v + r, a * x_hat + b * v
