"""Independent reference computations for the benchmark's output checks.

Nothing here imports uoi_sim.  Each function recomputes a quantity from
the documented model and method: trajectories replayed from the Philox
streams that rng.py documents, closed forms from the paper's theory, and
stationary distributions of the discretised MDP chains found by power
iteration (the program solves the same chains with a dense LU solve).

`python3 perfbench/checks.py` runs the self-test of every check on
hand-checkable cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Stream kinds in the order rng.py documents; the index is the spawn-key code.
KINDS = ("weight", "increment", "channel", "backoff", "policy", "scheduler")


def stream(seed: int, rep: int, kind: str, terminal: int = 0) -> np.random.Generator:
    """Generator of stream (seed, replication, kind, terminal)."""
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(rep, KINDS.index(kind), terminal))
    return np.random.Generator(np.random.Philox(ss))


# --------------------------------------------------------------------------
# Trajectory replay of one terminal.
# --------------------------------------------------------------------------


def age_threshold(p: float, rho: float) -> int:
    """Smallest m whose renewal cycle ((m - 1) waits, then Geometric(p)
    attempts) keeps the attempt frequency (1/p) / (m - 1 + 1/p) within rho."""
    m = 1
    while (1.0 / p) / (m - 1 + 1.0 / p) > rho + 1e-12:
        m += 1
    return m


def replay_path(w, inc, good, coins, policy: str, p: float, rho: float,
                v: float, omega_bar: float, lookup=None) -> tuple[float, int, float]:
    """Replay a trajectory from explicit per-slot inputs.

    w has horizon + 1 entries (the decision sees the next slot's weight);
    coins holds the policy stream's uniforms, consumed one per coin flip.
    lookup(q, w_now, w_next, age) gives P(transmit) for the table policies.
    Returns (average UoI, attempts, final virtual queue).
    """
    T = len(inc)
    theta = omega_bar * (1.0 / (p * rho) - 1.0)
    m = age_threshold(p, rho)
    r = Fraction(rho).limit_denominator(10**6)
    q, h, age, total, attempts, c = 0.0, 0.0, 1, 0.0, 0, 0
    for t in range(T):
        total += w[t] * q * q
        if policy == "adaptive":
            u = (w[t + 1] + theta) * p * q * q > v * h
        elif policy == "periodic":
            u = math.floor((t + 1) * r) > math.floor(t * r)
        elif policy == "random":
            u = coins[c] < rho
            c += 1
        elif policy == "age-threshold":
            u = age >= m
        else:
            prob = lookup(q, w[t], w[t + 1], age)
            if 0.0 < prob < 1.0:
                u = coins[c] < prob
                c += 1
            else:
                u = prob >= 1.0
        attempts += u
        delivered = u and good[t]
        q = inc[t] if delivered else q + inc[t]
        age = 1 if delivered else age + 1
        if policy == "adaptive":
            h = max(0.0, h - rho + u)
    return total / T, attempts, h


def two_point(w_lo: float, w_hi: float, prob_hi: float):
    return lambda n, gen: np.where(gen.random(n) < prob_hi, w_hi, w_lo)


def periodic_burst(base: float, burst: float, period: int, burst_len: int):
    return lambda n, gen: np.where(np.arange(n) % period >= period - burst_len, burst, base)


def replay_single(seed: int, rep: int, horizon: int, p: float, sigma2: float,
                  rho: float, v: float, policy: str, weights, omega_bar: float,
                  lookup=None) -> tuple[float, int, float]:
    """Replay terminal 0 of replication `rep` from its streams."""
    T = horizon
    w = weights(T + 1, stream(seed, rep, "weight")).tolist()
    inc = (stream(seed, rep, "increment").standard_normal(T) * math.sqrt(sigma2)).tolist()
    good = (stream(seed, rep, "channel").random(T) < p).tolist()
    coins = stream(seed, rep, "policy").random(T).tolist()
    return replay_path(w, inc, good, coins, policy, p, rho, v, omega_bar, lookup)


def uoi_table_lookup(table: np.ndarray, q_max: float, q_step: float, support):
    """P(transmit) of a (q bin, w_now, w_next) table at the nearest q bin."""
    widx = {float(val): i for i, (val, _) in enumerate(support)}

    def lookup(q, w_now, w_next, age):
        iq = int(round((min(max(q, -q_max), q_max) + q_max) / q_step))
        return float(table[iq, widx[w_now], widx[w_next]])
    return lookup


def aoi_table_lookup(table: np.ndarray):
    return lambda q, w_now, w_next, age: float(table[min(age, len(table)) - 1])


# --------------------------------------------------------------------------
# Closed forms.
# --------------------------------------------------------------------------


def adaptive_bound(omega_bar: float, sigma2: float, p: float, rho: float, v: float) -> float:
    """Ceiling on the adaptive updater's average UoI."""
    return omega_bar * sigma2 / (p * rho) + v / 2.0


def proportional_waterfill(d: np.ndarray, k: int) -> np.ndarray:
    """pi = K d / sum(d); optimal when no terminal saturates (d_max/sum(d) <= 1/K)."""
    d = np.asarray(d, dtype=float)
    if d.max() / d.sum() > 1.0 / k:
        raise ValueError("a terminal saturates; the proportional form does not apply")
    return k * d / d.sum()


def fleet_bound(omega_bar: np.ndarray, sigma2: np.ndarray, p: np.ndarray,
                pi: np.ndarray) -> float:
    """(1/N) sum omega_bar sigma2 / (p pi), met in expectation by the
    stationary policy pi."""
    return float(np.mean(omega_bar * sigma2 / (p * pi)))


# --------------------------------------------------------------------------
# Stationary distributions of the discretised chains by power iteration.
# --------------------------------------------------------------------------


def power_stationary(step, mu: np.ndarray, tol: float = 1e-14,
                     max_iter: int = 1_000_000) -> np.ndarray:
    """Fixed point of the lazy chain mu -> (mu + step(mu)) / 2, which has the
    same stationary distribution as `step` and is aperiodic."""
    for _ in range(max_iter):
        nxt = 0.5 * (mu + step(mu))
        if np.abs(nxt - mu).sum() < tol:
            return nxt / nxt.sum()
        mu = nxt
    raise RuntimeError(f"power iteration did not converge in {max_iter} steps")


def bin_kernel(q_max: float, q_step: float, sigma2: float) -> np.ndarray:
    """G[i, j] = P(q_i + N(0, sigma2) lands in bin j); bins are centred on
    the grid points and the outermost ones take the tails."""
    n = int(round(q_max / q_step))
    q = np.arange(-n, n + 1) * q_step
    sigma = math.sqrt(sigma2)
    edges = np.concatenate(([-np.inf], q[:-1] + q_step / 2, [np.inf]))
    z = (edges[None, :] - q[:, None]) / sigma
    cdf = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)))(z)
    return np.diff(cdf, axis=1)


def uoi_chain_averages(table: np.ndarray, q_max: float, q_step: float, support,
                       p: float, sigma2: float, tol: float = 1e-14) -> tuple[float, float]:
    """(average w_now q^2, average transmit probability) of the
    (q, w_now, w_next) chain under a P(transmit) table."""
    G = bin_kernel(q_max, q_step, sigma2)
    nq = G.shape[0]
    g0 = G[nq // 2]
    w = np.array([val for val, _ in support])
    pw = np.array([pr for _, pr in support])
    nw = len(w)
    send = p * table                               # P(delivery | state)

    def step(mu):
        m = mu.reshape(nq, nw, nw)
        stay = (m * (1.0 - send)).sum(axis=1)      # (nq, w_next): kept error
        reset = (m * send).sum(axis=(0, 1))        # (w_next,): delivered mass
        q_next = G.T @ stay + np.outer(g0, reset)  # (nq, new w_now)
        return (q_next[:, :, None] * pw[None, None, :]).ravel()

    mu = power_stationary(step, np.full(nq * nw * nw, 1.0 / (nq * nw * nw)), tol)
    cost = (w[None, :, None] * (np.arange(-(nq // 2), nq // 2 + 1) * q_step)[:, None, None] ** 2
            * np.ones((1, 1, nw))).ravel()
    return float(mu @ cost), float(mu @ table.ravel())


def aoi_chain_averages(table: np.ndarray, p: float, tol: float = 1e-14) -> tuple[float, float]:
    """(average age, average transmit probability) of the age chain capped at
    len(table), under a P(transmit | age) table."""
    n = len(table)
    send = p * np.asarray(table, dtype=float)

    def step(mu):
        nxt = np.zeros(n)
        nxt[0] = mu @ send
        kept = mu * (1.0 - send)
        nxt[1:] += kept[:-1]
        nxt[-1] += kept[-1]
        return nxt

    mu = power_stationary(step, np.full(n, 1.0 / n), tol)
    return float(mu @ np.arange(1, n + 1)), float(mu @ table)


# --------------------------------------------------------------------------
# Self-test on hand-checkable cases.
# --------------------------------------------------------------------------


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def selftest() -> list[str]:
    """Names of the checks that fail their hand-checkable case."""
    bad = []
    # Periodic at rho = 1/2 sends at t = 1, 3; unit increments, perfect channel:
    # errors 0, 1, 1, 2 weigh in as 0 + 1 + 1 + 4.
    avg, att, _ = replay_path([1.0] * 5, [1.0] * 4, [True] * 4, [], "periodic",
                              1.0, 0.5, 1.0, 1.0)
    if not (_close(avg, 1.5) and att == 2):
        bad.append("replay_path periodic")
    # Age threshold at p = 1, rho = 1/2 is m = 2: every other slot.
    avg, att, _ = replay_path([1.0] * 7, [1.0] * 6, [True] * 6, [], "age-threshold",
                              1.0, 0.5, 1.0, 1.0)
    if not (age_threshold(1.0, 0.5) == 2 and att == 3):
        bad.append("replay_path age-threshold")
    # Adaptive at theta = 1 sends iff 2 q^2 > H: q runs 0, 1, 1, 1 and H runs
    # 0, 0, 0.5, 1, so it sends at t = 1, 2, 3 and H ends at 1.5.
    avg, att, h = replay_path([1.0] * 5, [1.0] * 4, [True] * 4, [], "adaptive",
                              1.0, 0.5, 1.0, 1.0)
    if not (_close(avg, 0.75) and att == 3 and _close(h, 1.5)):
        bad.append("replay_path adaptive")
    # Random sends on the coins below rho; a table policy flips a coin only in
    # randomized states (here every state, P = 1/2).
    _, att, _ = replay_path([1.0] * 4, [1.0] * 3, [True] * 3, [0.1, 0.9, 0.2], "random",
                            1.0, 0.5, 1.0, 1.0)
    _, att_t, _ = replay_path([1.0] * 3, [1.0] * 2, [True] * 2, [0.4, 0.6], "rvi-uoi",
                              1.0, 0.5, 1.0, 1.0, lambda q, wn, wx, age: 0.5)
    if not (att == 2 and att_t == 1):
        bad.append("replay_path random / table")
    table = np.zeros((5, 2, 2))
    table[3, 1, 0], table[4, 0, 1] = 0.7, 0.3
    look = uoi_table_lookup(table, 1.0, 0.5, ((1.0, 0.5), (3.0, 0.5)))
    if not (look(0.4, 3.0, 1.0, 1) == 0.7 and look(5.0, 1.0, 3.0, 1) == 0.3
            and aoi_table_lookup(np.array([0.0, 0.5, 1.0]))(0.0, 1.0, 1.0, 5) == 1.0):
        bad.append("table lookups")
    if not (periodic_burst(1.0, 9.0, 4, 1)(6, None).tolist() == [1, 1, 1, 9, 1, 1]
            and two_point(1.0, 9.0, 1.0)(3, np.random.default_rng(0)).tolist() == [9, 9, 9]):
        bad.append("weight samplers")
    if not _close(adaptive_bound(2.0, 1.0, 0.5, 0.5, 4.0), 10.0):
        bad.append("adaptive_bound")
    pi = proportional_waterfill(np.array([1.0, 1.0, 2.0, 4.0]), 2)
    if not np.allclose(pi, [0.25, 0.25, 0.5, 1.0]):
        bad.append("proportional_waterfill")
    if not _close(fleet_bound(np.ones(2), np.ones(2), np.ones(2), np.full(2, 0.5)), 2.0):
        bad.append("fleet_bound")
    # Two-state chain with flip rates a, b: mu = (b, a) / (a + b).
    P = np.array([[0.7, 0.3], [0.1, 0.9]])
    mu = power_stationary(lambda m: m @ P, np.array([1.0, 0.0]))
    if not np.allclose(mu, [0.25, 0.75], atol=1e-12):
        bad.append("power_stationary")
    G = bin_kernel(1.0, 0.5, 1.0)
    if not (np.allclose(G.sum(axis=1), 1.0) and np.allclose(G, G[::-1, ::-1])
            and _close(G[2, 2], math.erf(0.25 / math.sqrt(2.0)))):
        bad.append("bin_kernel")
    # Always transmitting over a perfect channel: age is always 1.
    cost, freq = aoi_chain_averages(np.ones(50), 1.0)
    if not (_close(cost, 1.0) and _close(freq, 1.0)):
        bad.append("aoi_chain_averages p=1")
    # At p = 1/2 the age is Geometric(1/2), mean 2 (the cap at 200 is negligible).
    cost, freq = aoi_chain_averages(np.ones(200), 0.5)
    if not _close(cost, 2.0):
        bad.append("aoi_chain_averages p=1/2")
    # Always delivered: q is one fresh increment, so the average is
    # E[w] * sum_j g0_j q_j^2.
    support = ((1.0, 0.5), (3.0, 0.5))
    cost, freq = uoi_chain_averages(np.ones((9, 2, 2)), 1.0, 0.25, support, 1.0, 1.0)
    qv = np.arange(-4, 5) * 0.25
    if not (_close(cost, 2.0 * float(bin_kernel(1.0, 0.25, 1.0)[4] @ qv ** 2))
            and _close(freq, 1.0)):
        bad.append("uoi_chain_averages")
    return bad


if __name__ == "__main__":
    failures = selftest()
    for name in failures:
        print(f"FAIL {name}")
    print("checks self-test:", "ok" if not failures else f"{len(failures)} failed")
    raise SystemExit(1 if failures else 0)
