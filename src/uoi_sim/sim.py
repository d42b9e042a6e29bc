"""Slot-loop simulators for the single-terminal and fleet systems.

All randomness comes from named per-(terminal, kind) streams so that
different policies run against identical weight/increment/channel draws.
Weight, increment and channel variates are consumed once per slot
unconditionally, which keeps the streams aligned across policies; a
policy's own coin flips live on separate streams.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import csma as csma_mod
from .core import (GaussianIncrements, TerminalParams, WeightProcess, index_factor,
                   sample_channel_block)
from .mdp import StationaryPolicyTable, age_threshold_for_budget
from .multi import FleetConfig, schedule_round_robin, schedule_stationary, waterfill
from .rng import _BUFFER, COMMON_KINDS, Buffered, StreamFactory


class ScenarioPolicies(NamedTuple):
    """What one scenario runs: the simulator, the default policy, and the
    policies it accepts.  Rows come back in the configured policy order."""

    simulator: str
    default: str
    policies: tuple[str, ...]


POLICY_TABLE = {
    "single": ScenarioPolicies("single", "adaptive", (
        "adaptive", "periodic", "random", "age-threshold", "rvi-uoi", "rvi-aoi")),
    "multi": ScenarioPolicies("fleet", "centralized", (
        "centralized", "aoi", "round-robin", "stationary")),
    "csma": ScenarioPolicies("fleet", "distributed", (
        "distributed", "centralized", "aoi", "round-robin", "stationary")),
    "mdp": ScenarioPolicies("mdp", "rvi-uoi", ("rvi-uoi", "rvi-aoi")),
    "control": ScenarioPolicies("single", "adaptive", (
        "adaptive", "periodic", "random", "age-threshold", "rvi-aoi")),
    "waterfill": ScenarioPolicies("waterfill", "stationary", ("stationary",)),
}
# csma runs every fleet policy: multi's and distributed
_FLEET_POLICIES = POLICY_TABLE["csma"].policies

# A traced run's rows, one per slot t: a single or control run's virtual
# queue h (0 under every rule but adaptive), error q and cost f; a fleet
# lane's CSMA threshold j_th (0 in every lane but distributed) and cost f.
# trace.tolist() gives the rows as tuples.
SINGLE_TRACE = np.dtype([("t", np.int64), ("h", float), ("q", float), ("f", float)])
FLEET_TRACE = np.dtype([("t", np.int64), ("j_th", float), ("f", float)])


@dataclass
class SimResult:
    avg_uoi: float
    batch_means: np.ndarray
    update_freq: np.ndarray          # per-terminal attempt frequency
    violation_prob: float | None
    extras: dict
    trace: np.ndarray | None = None   # SINGLE_TRACE or FLEET_TRACE rows


class NonFiniteCost(ArithmeticError):
    """A simulator's running cost sum is no longer finite."""


def _check_finite(slot: int, **sums) -> None:
    """Raise NonFiniteCost for the first of the named running sums, floats or
    arrays of them, that is not all finite after `slot` slots."""
    for name, value in sums.items():
        if not np.isfinite(value).all():
            raise NonFiniteCost(f"the {name} cost sum is {value} after {slot} slots")


def stderr_from_batches(batch_means: np.ndarray) -> float:
    """Standard error of the mean of `batch_means` (0 for fewer than two).

    Finite means so large that their squared deviations overflow are
    rescaled by the largest magnitude first; other inputs keep the plain
    formula's bits."""
    x = np.asarray(batch_means, dtype=float)
    if len(x) < 2:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        se = float(x.std(ddof=1) / math.sqrt(len(x)))
    if not math.isfinite(se) and np.isfinite(x).all():
        scale = float(np.abs(x).max())
        se = float((x / scale).std(ddof=1) / math.sqrt(len(x))) * scale
    return se


def _threshold_array(w: np.ndarray, thresholds: dict[float, float] | None) -> np.ndarray | None:
    """Per-slot |Q| bound looked up from the realized weight; weights with no
    mapped bound never violate."""
    if not thresholds:
        return None
    thr = np.full(np.shape(w), np.inf)
    for value, bound in thresholds.items():
        thr[w == float(value)] = float(bound)
    return thr


def adaptive_uoi_bound(params: TerminalParams, rho: float, v: float) -> float:
    """Guaranteed ceiling on the long-run average UoI of the adaptive scheme:
    omega_bar * sigma2 / (p * rho) + V / 2; inf where that overflows, as
    when p * rho underflows to 0 for a subnormal rho."""
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    p_rho = params.p * rho
    return params.omega_bar * params.sigma2 / p_rho + v / 2.0 if p_rho > 0.0 else math.inf


def _batch_layout(T: int, n_batches: int) -> tuple[int, int]:
    """(batches, slots per batch); the last batch also takes the remainder."""
    nb = max(1, min(n_batches, T))  # no empty batch on short horizons
    return nb, max(1, T // nb)


# Slots the single-terminal loops walk at a time: each block records its e in
# a Python list, so per-block lists keep a long run's memory near that of its
# arrays.
_BLOCK = 4096


def _blocks(T: int, nb: int, batch_len: int, size: int,
            chunk: int = 0) -> list[tuple[int, int, int]]:
    """(batch, first slot, end slot) of blocks of at most `size` slots that lie
    in one batch and, for a nonzero `chunk`, in one chunk of slots
    [c * chunk, (c + 1) * chunk)."""
    ends = {b * batch_len for b in range(1, nb)} | {T}
    if chunk:
        ends.update(range(chunk, T, chunk))
    out, t0 = [], 0
    for end in sorted(ends):
        b = min(t0 // batch_len, nb - 1)
        out += [(b, s, min(s + size, end)) for s in range(t0, end, size)]
        t0 = end
    return out


def _batch_means(sums: list[float], T: int, batch_len: int) -> np.ndarray:
    nb = len(sums)
    return np.array(sums) / ([batch_len] * (nb - 1) + [T - (nb - 1) * batch_len])


def _running_sum(acc, f: np.ndarray) -> np.ndarray:
    """acc + f[..., 0] + f[..., 1] + ..., added one term at a time as `acc +=
    f_t` in a slot loop adds them, so the sum has that loop's bits."""
    return np.add.accumulate(np.concatenate((np.asarray(acc)[..., None], f), axis=-1),
                             axis=-1)[..., -1]


def _send_entries(probs: np.ndarray) -> list:
    """A policy table's P(transmit) entries as a table rule reads them: 0 and
    1 as ints, so that only a fractional entry, a float, flips the coin."""
    if not ((probs >= 0.0) & (probs <= 1.0)).all():   # NaN fails both
        raise ValueError("policy table entries must be probabilities in [0, 1]")
    return [u if 0.0 < u < 1.0 else int(u >= 1.0) for u in probs.tolist()]


def _q_bin(q: float, q_max: float, q_step: float) -> int:
    """The bin of a uoi table that q is read at: the nearest one to q
    clamped to [-q_max, q_max]."""
    qc = q_max if q > q_max else (-q_max if q < -q_max else q)
    return round((qc + q_max) / q_step)


def _q_runs(row: list, q_max: float, q_step: float) -> tuple[list[float], list]:
    """(edges, runs) of a table row by q bin, one entry per bin of the grid:
    runs are its stretches of neighbours equal in value and type, and
    edges[j] is the least float q whose `_q_bin` lies in run j + 1.  The
    clamp, the rounded add and divide and `round` are each monotone, so the
    bin never falls as q grows, and runs[bisect_right(edges, q)] is
    row[_q_bin(q)] for every float q, infinities included."""
    edges, runs = [], [row[0]]
    for k, u in enumerate(row):
        if u == runs[-1] and u.__class__ is runs[-1].__class__:
            continue
        # bisect between the centres of bins k - 1 and k, keeping bin(lo) < k
        # <= bin(hi), until lo and hi are neighbouring floats
        lo, hi = (k - 1) * q_step - q_max, k * q_step - q_max
        while (x := (lo + hi) / 2) != lo and x != hi:
            lo, hi = (lo, x) if _q_bin(x, q_max, q_step) >= k else (x, hi)
        edges.append(hi)
        runs.append(u)
    return edges, runs


def run_single(params: TerminalParams, weights: WeightProcess, rho: float, v: float,
               policy: str = "adaptive", horizon: int = 1_000_000,
               factory: StreamFactory | None = None,
               thresholds: dict[float, float] | None = None,
               n_batches: int = 10, trace: bool = False,
               policy_table: StationaryPolicyTable | None = None,
               a: float = 1.0) -> SimResult:
    """Simulate one terminal under an update policy for `horizon` slots.

    The error has memory `a`: slot t reads q = a * e + inc, where e is the
    error after the last slot, 0 once an update is delivered, and inc the
    increment drawn for slot t - 1 (0 in slot 0).  The slot costs w_t q^2,
    and extras["avg_est_cost"] is the mean of w_t e^2.  Under
    certainty-equivalent control of the plant x' = a x + b v + r, e is the
    estimation error x - x_hat and q the tracking error, whatever the
    reference and the gain b.

    The adaptive rule keeps a virtual queue H of how much of the budget rho
    has been used: the terminal transmits iff its update index
    index_factor(w_next, omega_bar, p, rho) * q^2 strictly exceeds V * H,
    and then H' = max(0, H - rho + U).  The other rules never read the
    error: periodic transmits whenever the accumulated credit rho reaches
    one, and random flips the policy coin each slot.  The age rules send at
    age k since the last delivery with probability send[min(k, len(send)) - 1],
    flipping the coin only where it is strictly between 0 and 1:
    age-threshold from age_threshold_for_budget(p, rho) on, rvi-aoi by its
    table.  rvi-uoi sends with its table's probability at q's nearest bin and
    the weight pair (w_t, w_{t+1}); a table not of its grid's shape (nq, nw,
    nw), a table entry outside [0, 1] or a realized weight outside the
    grid's weight_support raises ValueError."""
    if policy not in POLICY_TABLE["single"].policies:
        raise ValueError(f"unknown policy {policy!r}")
    kind = getattr(policy_table, "cost_kind", None)
    if policy.startswith("rvi") and kind != policy[4:]:
        raise ValueError(f"policy {policy!r} needs a solved {policy[4:]!r} policy_table, "
                         f"got {kind!r}")
    if policy == "rvi-uoi":  # (edges, runs) of q per (w_now, w_next) pair
        grid, tab = policy_table.grid, policy_table.table
        nw = len(grid.weight_support)
        shape = (len(grid.q_values), nw, nw)
        if np.shape(tab) != shape:
            raise ValueError(f"the rvi-uoi policy table has shape {np.shape(tab)}, "
                             f"its grid needs {shape}")
        by_pair = [_q_runs(_send_entries(col), grid.q_max, grid.q_step)
                   for col in tab.reshape(len(tab), -1).T]
    factory = factory or StreamFactory(0)
    T = int(horizon)
    tid = params.id

    w = weights.sample_block(factory.stream("weight", tid), 0, T + 1)
    inc = GaussianIncrements(params.sigma2).sample_block(
        factory.stream("increment", tid), 0, T)
    inc = np.concatenate(([0.0], inc[:-1]))   # inc[t] is added in slot t
    s_good = sample_channel_block(factory.stream("channel", tid), params.p, T)
    thr = _threshold_array(w[:T], thresholds)

    policy_stream = factory.stream("policy", tid)
    flip = Buffered(policy_stream.uniform).next   # the rvi rules' fractional coins
    attempts = 0
    send = None
    reach = s_good   # slots where a transmission would be delivered
    if policy == "random":  # T coins in one draw, in whole buffers as Buffered takes them
        sent = policy_stream.uniform(-(-T // _BUFFER) * _BUFFER)[:T] < rho
        attempts = int(sent.sum())
        reach = sent & s_good   # random decides up front: its deliveries
    elif policy == "age-threshold":  # ages past T + 1 are never reached
        send = [0] * (min(age_threshold_for_budget(params.p, rho), T + 1) - 1) + [1]
    elif policy == "rvi-aoi":
        send = _send_entries(policy_table.table)

    nb, batch_len = _batch_layout(T, n_batches)
    sums = [0.0] * nb
    est_sums = [0.0] * nb
    e = h = credit = 0.0
    k, last = 0, len(send or ()) - 1   # send[k] holds the age rule at age k + 1
    violations = 0
    rows = np.zeros(T, SINGLE_TRACE) if trace else None
    hs = None   # H of each traced slot, which only the adaptive rule moves

    # Each slot loop decides, counts attempts and records e in one pass,
    # carrying only what the next decision reads; q, the costs, violations
    # and trace rows are computed per block from that record.  Overflow is
    # caught as a non-finite batch cost sum, so numpy's warnings on the way
    # there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for b, t0, t1 in _blocks(T, nb, batch_len, _BLOCK):
            inc_b = memoryview(inc[t0:t1])   # yields the floats and bools of tolist()
            s_b = memoryview(reach[t0:t1])
            es = []   # e entering slots t0 .. t1 - 1
            record = es.append
            if policy == "random":
                for d, i in zip(s_b, inc_b):
                    record(e)
                    e = 0.0 if d else a * e + i
            elif policy == "periodic":
                for s, i in zip(s_b, inc_b):
                    record(e)
                    credit += rho
                    if credit >= 1.0 - 1e-12:
                        credit -= 1.0
                        attempts += 1
                        e = 0.0 if s else a * e + i
                    else:
                        e = a * e + i
            elif send is not None:   # the age rules
                for s, i in zip(s_b, inc_b):
                    record(e)
                    u = send[k]
                    if u.__class__ is float:
                        u = flip() < u
                    if u:
                        attempts += 1
                        if s:
                            e = 0.0
                            k = 0
                            continue
                    e = a * e + i
                    if k < last:
                        k += 1
            elif policy == "adaptive":
                hs = []   # H of each slot, recorded for the trace only
                record_h = hs.append if trace else None
                c_b = memoryview(
                    index_factor(w[t0 + 1:t1 + 1], params.omega_bar, params.p, rho))
                for c, i, s in zip(c_b, inc_b, s_b):
                    record(e)
                    if record_h:
                        record_h(h)
                    q = a * e + i
                    if c * q * q > v * h:
                        attempts += 1
                        h = h - rho + 1
                        e = 0.0 if s else q
                    else:
                        h = h - rho
                        e = q
                    if not h > 0.0:  # max(0.0, h), bit for bit
                        h = 0.0
            else:  # rvi-uoi: the weight pair's entry at q's bin, by its run
                w_ahead, wi = w[t0:t1 + 1], np.full(t1 - t0 + 1, -1)
                for x, (val, _) in enumerate(grid.weight_support):   # the last equal one wins
                    wi[w_ahead == val] = x
                if wi.min() < 0:
                    raise ValueError(f"weight {w_ahead[wi.argmin()]} is not in the policy table's "
                                     f"weight_support {grid.weight_support}")
                for pair, i, s in zip(memoryview(wi[:-1] * nw + wi[1:]), inc_b, s_b):
                    record(e)
                    q = a * e + i
                    edges, runs = by_pair[pair]
                    u = runs[bisect_right(edges, q)]
                    if u.__class__ is float:
                        u = flip() < u
                    attempts += u
                    e = 0.0 if u and s else q

            e_b = np.fromiter(es, float, t1 - t0)
            q_b = a * e_b + inc[t0:t1]   # the loop's q, bit for bit
            w_b = w[t0:t1]
            f = w_b * q_b * q_b
            sums[b] = float(_running_sum(sums[b], f))
            est_sums[b] = float(_running_sum(est_sums[b], w_b * e_b * e_b))
            if thr is not None:
                violations += int(np.count_nonzero(np.abs(q_b) > thr[t0:t1]))
            if rows is not None:
                rows["t"][t0:t1] = np.arange(t0, t1)   # per block: no T-long temporary
                rows["q"][t0:t1] = q_b
                rows["f"][t0:t1] = f
                if hs is not None:
                    rows["h"][t0:t1] = hs
            _check_finite(t1, uoi=sums[b], estimation=est_sums[b])

    return SimResult(
        avg_uoi=float(np.array(sums).sum()) / T,
        batch_means=_batch_means(sums, T, batch_len),
        update_freq=np.array([attempts / T]),
        violation_prob=(violations / T) if thr is not None else None,
        extras={"h_over_t": h / T if policy == "adaptive" else None,
                "final_h": h, "attempts": attempts,
                "avg_est_cost": float(np.array(est_sums).sum()) / T},
        trace=rows,
    )


# --------------------------------------------------------------------------
# Fleet simulation.
# --------------------------------------------------------------------------


class FleetLane(NamedTuple):
    """One fleet run of a lane call: its policy, its own streams, whether it
    records the per-slot trace, and the contention window W in mini-slots of
    a distributed lane (None for every other policy)."""

    policy: str
    factory: StreamFactory
    trace: bool = False
    window: int | None = None


def _topk_ids(neg_values: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k largest values along the last axis, given the negated
    values, ties to the lowest id (stable ascending sort)."""
    return neg_values.argsort(axis=-1, kind="stable")[..., :k]


# Elements of one (lane, terminal, slot) block array: blocks get shorter as
# lanes and terminals are added, so memory does not grow with the lane count.
# A (group, terminal, slot) chunk of common variates holds as many.
_LANE_ELEMENTS = 1 << 17


def run_fleet_lanes(fleet: FleetConfig, weights: WeightProcess,
                    lanes: list[FleetLane], horizon: int = 1_000_000,
                    thresholds: dict[float, float] | None = None,
                    n_batches: int = 10) -> list[SimResult]:
    """Simulate N terminals, each with its own draws of the weight process
    `weights`, for `horizon` slots under each lane's policy, all lanes in
    one slot loop over (lane, terminal) arrays.  The centralized, distributed
    and stationary policies use the water-filling probabilities
    `waterfill(fleet).pi`.

    Each lane draws only from its own factory, so its result and its
    factory's draw counts are bitwise those of a call on that lane alone.
    Lanes whose fresh factories address the same (seed, replication) face
    the same weight, increment and channel variates, so the first of them
    samples those and the others adopt its streams.  A distributed lane
    contends in its own window of W >= K mini-slots, ContentionConfig(w=W,
    k=fleet.k), which stretches its slot to (1 + W/100) ms: its error
    increments carry variance slot_scale * sigma2 and its threshold step is
    `csma.default_delta_j` of the stretched slot.  Its extras also hold its
    window monitors: the mean window length next to the window's
    `expected_window`, and the colliders and idle sub-channels per window.
    Results come back in lane order; a batch cost sum that is not finite
    raises NonFiniteCost.
    """
    if not lanes:
        return []
    for lane in lanes:
        if lane.policy not in _FLEET_POLICIES:
            raise ValueError(f"unknown fleet policy {lane.policy!r}")
        if (lane.window is None) == (lane.policy == "distributed"):
            raise ValueError("a distributed lane needs a window, other lanes take none")
    if len({id(lane.factory) for lane in lanes}) < len(lanes):
        raise ValueError("each lane needs its own StreamFactory")
    # Lanes sorted by policy name make every policy group a slice: aoi
    # [0, c0), centralized [c0, x0), distributed [x0, r0), round-robin
    # [r0, s0), stationary [s0, L).
    order = sorted(range(len(lanes)), key=lambda i: lanes[i].policy)
    names = [lanes[i].policy for i in order]
    factories = [lanes[i].factory for i in order]
    L = len(order)
    c0, x0, r0, s0 = (bisect_left(names, s)
                      for s in ("centralized", "distributed", "round-robin", "stationary"))
    windows = [csma_mod.ContentionConfig(w=lanes[i].window, k=fleet.k) for i in order[x0:r0]]
    indexed = slice(c0, r0)

    T = int(horizon)
    n, k = fleet.n, fleet.k
    p = fleet.array("p")
    sigma2 = fleet.array("sigma2")
    omega_bar = fleet.array("omega_bar")
    pi = waterfill(fleet).pi

    # Each distributed lane's slot scale and threshold step, and the lanes'
    # contention state; terminal i of distributed lane c has flat id c * n + i.
    n_csma = r0 - x0
    scales = [c.slot_scale for c in windows]
    delta_j = [csma_mod.default_delta_j(omega_bar, sigma2 * s) for s in scales]
    contention = csma_mod.ContentionLanes(
        windows, n, delta_j,
        [Buffered(partial(f.stream("backoff", i).integers, high=c.w)).next
         for f, c in zip(factories[x0:r0], windows) for i in range(n)],
        [lanes[i].trace for i in order[x0:r0]])
    max_index = np.zeros(n_csma)

    # The stationary lanes' coins: a block draws the whole 256-variate buffers
    # it needs past the coins the last one left over, as a Buffered would.
    coin_streams = [f.stream("scheduler", 0) for f in factories[s0:]]
    spare = [np.empty(0)] * len(coin_streams)

    # Common-random-number groups: a factory that already holds a common
    # stream keeps its own, since its next variates are not a fresh one's.
    groups, leaders, gidx = {}, [], []
    for lane, f in enumerate(factories):
        key = lane if f.draw_counts(COMMON_KINDS) else (f.seed, f.replication)
        if key not in groups:
            groups[key] = len(leaders)
            leaders.append(f)
        gidx.append(groups[key])
    streams = {kind: [[f.stream(kind, i) for i in range(n)] for f in leaders]
               for kind in COMMON_KINDS}
    for f, g in zip(factories, gidx):
        if f is not leaders[g]:
            f.adopt(leaders[g], COMMON_KINDS)
    incs = [GaussianIncrements(sigma2[i]) for i in range(n)]

    # The group leaders sample the common streams a chunk of slots at a
    # time, into (group, terminal, slot) arrays that the loop blocks slice;
    # the weights carry one slot of lookahead.
    G = len(leaders)
    chunk = min(max(1, _LANE_ELEMENTS // (G * n)), T)
    w_chunk = np.empty((G, n, chunk + 1))
    a_chunk = np.empty((G, n, chunk))
    s_chunk = np.empty((G, n, chunk), dtype=bool)

    def lanes_of(arr: np.ndarray, o0: int, o1: int) -> np.ndarray:
        """(lane, terminal, slot) array of chunk slots [o0, o1)."""
        part = arr[:, :, o0:o1]
        return part if G == L else part[gidx]

    nb, batch_len = _batch_layout(T, n_batches)
    batch_sums = np.zeros((L, nb))
    q = np.zeros((L, n))
    delta = np.ones((c0, n))   # ages of the aoi lanes, exact as floats
    neg_p = -p
    # Per-slot negated scores of lanes [0, r0), exact as rounding is
    # sign-symmetric: the aoi lanes' age index, then the update index of the
    # centralized and distributed lanes.  The aoi and centralized rows,
    # [0, x0), each send their top K.
    scores = np.empty((r0, n))
    delivered = np.empty((L, n), dtype=bool)
    delivered_aoi = delivered[:c0]
    aoi_scores, index_scores, topk_scores = scores[:c0], scores[c0:], scores[:x0]
    topk_offsets = np.arange(0, x0 * n, n)[:, None]   # lane starts in a slot's flat row
    csma_scores = scores[x0:]
    attempts = np.zeros((L, n), dtype=np.int64)
    csma_attempts = attempts[x0:r0].reshape(-1)
    violations = np.zeros(L, dtype=np.int64)
    rows = [np.zeros(T, FLEET_TRACE) if lanes[i].trace else None for i in order]
    size = max(1, _LANE_ELEMENTS // (L * n))

    u0 = u1 = 0   # the chunk in the arrays holds slots [u0, u1)
    # Overflow is caught as a non-finite batch cost sum below, so numpy's
    # warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for b, t0, t1 in _blocks(T, nb, batch_len, size, chunk):
            if t0 == u1:   # sample the next chunk
                u0, u1 = t0, min(t0 + chunk, T)
                m = u1 - u0
                # Weights of slots [u0, u1]: a later chunk starts with the
                # previous one's lookahead, and samples from column w0 on.
                w0 = int(u0 > 0)
                if w0:
                    w_chunk[:, :, 0] = w_chunk[:, :, chunk]
                for g in range(G):
                    for i in range(n):
                        w_chunk[g, i, w0:m + 1] = weights.sample_block(
                            streams["weight"][g][i], u0 + w0, m + 1 - w0)
                        a_chunk[g, i, :m] = incs[i].sample_block(
                            streams["increment"][g][i], u0, m)
                        s_chunk[g, i, :m] = sample_channel_block(
                            streams["channel"][g][i], p[i], m)
            nblk = t1 - t0
            o0, o1 = t0 - u0, t1 - u0
            w_blk = lanes_of(w_chunk, o0, o1 + 1)         # weights of slots [t0, t1]
            w_slots = w_blk.transpose(0, 2, 1)            # (lane, slot, terminal) view
            # (slot, lane, terminal) copies of the increments, each distributed
            # lane's scaled to its stretched slot, and of the channel states
            a_js = np.ascontiguousarray(lanes_of(a_chunk, o0, o1).transpose(2, 0, 1))
            for lane, scale in enumerate(scales, x0):
                a_js[:, lane] *= math.sqrt(scale)
            s_js = np.ascontiguousarray(lanes_of(s_chunk, o0, o1).transpose(2, 0, 1))
            if r0 > c0:  # the update index's factor, per slot, negated in place
                neg_coef = index_factor(
                    w_blk[indexed, :, 1:].transpose(2, 0, 1), omega_bar, p, pi)
                np.negative(neg_coef, out=neg_coef)

            # sent[j, lane] holds the lane's transmissions in slot t0 + j that
            # can deliver.  Round-robin and stationary never read the error,
            # so their whole block is decided up front.
            sent = np.zeros((nblk, L, n), dtype=bool)
            sent_flat = sent.reshape(nblk, L * n)
            csma_sent = sent_flat[:, x0 * n:r0 * n]   # by flat id
            if s0 > r0:
                sent[:, r0:s0] = schedule_round_robin(np.arange(t0, t1), n, k)[:, None]
            for c, stream in enumerate(coin_streams):
                drawn = stream.uniform(-((len(spare[c]) - nblk) // _BUFFER) * _BUFFER)
                blk_coins = np.concatenate((spare[c], drawn))
                sent[:, s0 + c] = schedule_stationary(pi, blk_coins[:nblk])
                spare[c] = blk_coins[nblk:]
            q_hist = np.empty((nblk + 1, L, n))     # q_hist[j] is q of slot t0 + j
            q_hist[0] = q
            for j in range(nblk):
                q = q_hist[j]
                a_j = a_js[j]
                if r0 > c0:
                    q_ix = q[indexed]
                    np.multiply(neg_coef[j], q_ix * q_ix, out=index_scores)
                if c0:
                    delta1 = delta + 1.0
                    np.multiply(neg_p * delta, delta1, out=aoi_scores)
                if x0:
                    sent_flat[j][_topk_ids(topk_scores, k) + topk_offsets] = True
                if n_csma:
                    contention.step(csma_scores, csma_sent[j])

                # a delivered q restarts at inc, not 0.0 + inc: only the sign
                # of an exactly zero inc differs, and no output reads it
                np.logical_and(sent[j], s_js[j], delivered)
                q_next = q_hist[j + 1]
                np.add(q, a_j, q_next)
                np.putmask(q_next, delivered, a_j)
                if c0:   # ages: the delivered restart at 1
                    np.putmask(delta1, delivered_aoi, 1.0)
                    delta = delta1
            q = q_hist[nblk]

            # Slot costs w_t . q_t^2 / N, each one BLAS dot with the weights
            # strided: its summation order is part of the bitwise contract.
            q_lanes = q_hist[:nblk].transpose(1, 0, 2)   # (lane, slot, terminal) view
            q2 = q_lanes * q_lanes
            f = np.matmul(w_slots[:, :nblk, None, :], q2[:, :, :, None])[:, :, 0, 0] / n
            batch_sums[:, b] = _running_sum(batch_sums[:, b], f)
            _check_finite(t1, batch=batch_sums[:, b])  # every non-finite f reaches its sum
            attempts += sent.sum(axis=0)
            if contention.collided:   # csma data sent and wasted
                np.add.at(csma_attempts, contention.collided, 1)
                contention.collided.clear()
            if n_csma:
                neg_idx = neg_coef[:, x0 - c0:] * q2[x0:r0].transpose(1, 0, 2)
                np.maximum(max_index, -neg_idx.min(axis=(0, 2)), out=max_index)
            if thresholds:   # looked up per CRN group, then gathered to its lanes
                thr = lanes_of(_threshold_array(w_chunk[:, :, o0:o1], thresholds), 0, nblk)
                violations += np.count_nonzero(np.abs(q_lanes) > thr.transpose(0, 2, 1),
                                               axis=(1, 2))
            for lane, trace in enumerate(rows):
                if trace is not None:
                    trace["t"][t0:t1] = np.arange(t0, t1)
                    trace["f"][t0:t1] = f[lane]
                    if x0 <= lane < r0:   # a distributed lane's thresholds
                        j_th = contention.hist[lane - x0]
                        trace["j_th"][t0:t1] = j_th
                        j_th.clear()

    out = [None] * L
    for lane, i in enumerate(order):
        total = float(batch_sums[lane].sum())
        c = lane - x0 if x0 <= lane < r0 else None
        scale = 1.0 if c is None else scales[c]
        extras = {"slot_scale": scale, "wallclock_avg_uoi": total / T / scale,
                  "final_j_th": None, "max_index": None, "delta_j": None,
                  "mean_window_len": None, "expected_window": None,
                  "colliders_per_window": None, "idle_channels_per_window": None}
        if c is not None:
            extras.update(final_j_th=contention.j_th[c], max_index=float(max_index[c]),
                          delta_j=delta_j[c], mean_window_len=contention.window_sum[c] / T,
                          expected_window=windows[c].expected_window,
                          colliders_per_window=contention.collider_sum[c] / T,
                          idle_channels_per_window=contention.idle_sum[c] / T)
        out[i] = SimResult(
            avg_uoi=total / T,
            batch_means=_batch_means(batch_sums[lane], T, batch_len),
            update_freq=attempts[lane] / T,
            violation_prob=(int(violations[lane]) / (n * T)) if thresholds else None,
            extras=extras,
            trace=rows[lane])
    return out
