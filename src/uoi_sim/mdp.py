"""Frequency-constrained reference policies on the discretized chains.

The single-terminal system with i.i.d. increments and i.i.d. two-point
weights is Markov in (Q, w_now, w_next); truncating and discretizing Q
gives a finite average-cost MDP, even in Q, solved on |Q| by relative value
iteration with a structured operator.  The frequency budget enters as a
Lagrange multiplier lam on the transmit action, calibrated by Kelley's
cutting planes on the concave, piecewise-linear dual: each solved table's
Lagrangian is the line avg_cost + lam * avg_freq, and the next lam is where
the lines of the two bracketing tables cross.  Where no pure policy hits
the budget exactly, the two tables optimal at the critical lam are
randomized state-wise (Beutler & Ross 1985).  The age-optimal policy (cost
= age) needs no solve: it is a threshold on the age, randomized at one age
(Sun et al. 2017; Ceran, Gunduz & Gyorgy 2019), with closed-form renewal
averages.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import TerminalParams, require

_SPAN_TOL = 1e-6      # RVI stops once a sweep changes h by a span below this
_MAX_ITER = 100_000   # cap on RVI sweeps
_FREQ_TOL = 1e-3      # calibration accepts a frequency this close to rho (rho / 100 if less)
_MAX_CUTS = 60        # cap on the cutting-plane steps on lam
_AOI_MIN_AGES = 200   # ages an aoi table lists at least; later ages take its last entry
_AOI_MAX_AGES = 2 ** 20  # a budget whose aoi table would list more ages is rejected


@dataclass(frozen=True)
class MdpGrid:
    """Discretization of the error state: q bins and weight pairs.

    q_max / q_step must be an integer; Gaussian increment mass outside
    [-q_max, q_max] folds into the boundary bins.  weight_support's (value,
    probability) pairs are kept as tuples, so the grid is hashable.
    """

    q_max: float
    q_step: float
    weight_support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        require(0.0 < self.q_max < math.inf, "q_max", self.q_max, "positive and finite")
        require(0.0 < self.q_step < math.inf, "q_step", self.q_step, "positive and finite")
        object.__setattr__(self, "weight_support", tuple(map(tuple, self.weight_support)))
        ratio = self.q_max / self.q_step
        require(math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9, "q_step",
                self.q_step, f"such that q_max = {self.q_max} is a whole multiple of it")
        probs = sum(p for _, p in self.weight_support)
        require(not self.weight_support or abs(probs - 1.0) <= 1e-9, "weight_support",
                self.weight_support, "probabilities that sum to 1")

    @property
    def q_values(self) -> np.ndarray:
        m = round(self.q_max / self.q_step)
        return np.arange(-m, m + 1) * self.q_step

    @classmethod
    def default(cls, sigma2: float, weight_support) -> "MdpGrid":
        sigma = math.sqrt(sigma2)
        return cls(q_max=25.0 * sigma, q_step=0.25 * sigma, weight_support=weight_support)


@dataclass(frozen=True)
class StationaryPolicyTable:
    """Greedy (possibly state-randomized) policy with its exact chain averages.

    table holds P(transmit | state): shape (nq, nw, nw) for cost_kind "uoi"
    (axes: q bin, current weight, next weight), even in q; for "aoi", by age
    1..max(200, m + 1) for the send age m, later ages taking the last entry.
    lam is the transmit multiplier it was solved at, whose term avg_cost
    excludes; avg_freq is the long-run E[U]; iterations counts RVI sweeps (0
    for "aoi").  edge_mass is the stationary mass in the two outermost q
    bins, where the grid folds the Gaussian tail (None for "aoi").
    """

    cost_kind: str
    table: np.ndarray
    avg_cost: float
    avg_freq: float
    lam: float
    grid: MdpGrid
    gain: float
    iterations: int
    edge_mass: float | None


class RviConvergenceError(RuntimeError):
    def __init__(self, span: float, iterations: int):
        super().__init__(
            f"relative value iteration did not converge: span {span:.3e} "
            f"after {iterations} iterations")
        self.span = span
        self.iterations = iterations


# --------------------------------------------------------------------------
# Gaussian kernel on the q grid.
# --------------------------------------------------------------------------


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@lru_cache(maxsize=16)
def _kernel(q_max: float, q_step: float,
            sigma2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nq = 2 * round(q_max / q_step) + 1
    m = nq // 2
    sigma = math.sqrt(sigma2)
    # Edge offsets (d + 0.5) * step for integer d; row i needs d = j - i - 1
    # for interior edge j in 1..nq-1, i.e. d in [-nq + 1, nq - 2].
    cdf = np.array([_phi((d + 0.5) * q_step / sigma) for d in range(-nq + 1, nq - 1)])
    # c[i, j - 1] = CDF at the lower edge of bin j seen from q_i, j = 1..nq-1
    c = cdf[np.arange(nq - 1, -1, -1)[:, None] + np.arange(nq - 1)[None, :]]
    G = np.empty((nq, nq))
    G[:, 0] = c[:, 0]
    G[:, 1:-1] = np.diff(c, axis=1)
    G[:, -1] = 1.0 - c[:, -1]
    # From q = +i step, bin |q'| = j step is bin m + j or m - j (j >= 1).
    Gf = G[m:, m:].copy()
    Gf[:, 1:] += G[m:, m - 1::-1]
    G.setflags(write=False)
    Gf.setflags(write=False)
    return G, G[m], Gf


def gaussian_kernel(grid: MdpGrid, sigma2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, g0, Gf): G[i, j] = P(bin j | q_i + A), g0 = row from q = 0, and
    the kernel folded onto |q|.

    Interior bin edges sit halfway between grid points; tail mass folds
    into the outermost bins.  Gf[i, j] = P(|q'| in bin j | q = i * q_step)
    on the half grid q = 0, q_step, ..., q_max: G[m + i, m] at j = 0 and
    G[m + i, m + j] + G[m + i, m - j] for j >= 1, with m = q_max / q_step.
    Its row 0 is the reset row.  The arrays are cached per (q_max, q_step,
    sigma2) and read-only.
    """
    return _kernel(grid.q_max, grid.q_step, sigma2)


# --------------------------------------------------------------------------
# Solvers.
# --------------------------------------------------------------------------


def _chain(grid: MdpGrid, sigma2: float) -> tuple[np.ndarray, ...]:
    """(weight values, their probabilities, folded kernel Gf, half grid q = 0,
    q_step, ..., q_max) of the uoi chain on |q|."""
    if not grid.weight_support:
        raise ValueError("uoi cost needs a finite weight support")
    _, _, Gf = gaussian_kernel(grid, sigma2)
    return (np.array([w for w, _ in grid.weight_support]),
            np.array([p for _, p in grid.weight_support]), Gf, grid.q_values[-len(Gf):])


def _mirror(half: np.ndarray) -> np.ndarray:
    """The full (2m + 1, ...) table, even in q, of a half-grid table."""
    return np.concatenate([half[:0:-1], half])


# --------------------------------------------------------------------------
# Exact evaluation of a (possibly randomized) policy on the discrete chain.
# --------------------------------------------------------------------------


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(M, b)
    mu = np.maximum(mu, 0.0)
    return mu / mu.sum()


def evaluate_policy(grid: MdpGrid, params: TerminalParams,
                    table: np.ndarray) -> tuple[float, float, float]:
    """(avg base cost, avg transmit frequency, edge mass) of the induced chain.

    table is a (2m + 1, nw, nw) array of probabilities in [0, 1] that is
    even in q (table[m + i] == table[m - i]), as rvi_solve returns; any
    other shape, an entry that is NaN or outside [0, 1], or a table that is
    not even raises ValueError naming the problem.  The chain is solved on
    |q|: w_next is a fresh draw independent of q, so the stationary law of
    (|q|, w_now, w_next) is nu(|q|, w_now) * pw[w_next], where nu is
    stationary for the (|q|, w_now) chain P[(q, a), (q', b)] = pw[b] *
    K_ab[q, q'] and K_ab mixes the folded kernel row of q with its reset
    row by the delivery probability p * table[q, a, b].  The edge mass is
    nu's mass in the outermost bin |q| = q_max.
    """
    nw = len(grid.weight_support)
    table = np.asarray(table, dtype=float)
    shape = (len(grid.q_values), nw, nw)
    if table.shape != shape:
        raise ValueError(f"uoi table has shape {table.shape}, the grid needs {shape}")
    if not np.all((table >= 0.0) & (table <= 1.0)):
        raise ValueError("uoi table has an entry that is NaN or outside [0, 1]")
    if not np.array_equal(table, table[::-1]):
        raise ValueError("uoi table is not even in q: table[m + i] and table[m - i] differ")
    half = np.ascontiguousarray(table[shape[0] // 2:])
    return _uoi_averages(grid, params.p, params.sigma2, half.tobytes())


@lru_cache(maxsize=64)
def _uoi_averages(grid: MdpGrid, p: float, sigma2: float,
                  half_bytes: bytes) -> tuple[float, float, float]:
    """evaluate_policy of a half-grid table, cached on its contents."""
    w_vals, pw, Gf, q = _chain(grid, sigma2)
    nq, nw = len(Gf), len(w_vals)
    table = np.frombuffer(half_bytes).reshape(nq, nw, nw)
    P = np.empty((nq, nw, nq, nw))
    for a in range(nw):
        for b in range(nw):
            send = p * table[:, a, b]
            P[:, a, :, b] = ((1.0 - send)[:, None] * Gf + send[:, None] * Gf[0]) * pw[b]
    nu = stationary_distribution(P.reshape(nq * nw, nq * nw)).reshape(nq, nw)
    return (float(np.sum(nu * w_vals[None, :] * (q ** 2)[:, None])),
            float(np.sum(nu * (table @ pw))), float(nu[-1].sum()))


# --------------------------------------------------------------------------
# The age-optimal policy in closed form.
# --------------------------------------------------------------------------


def age_threshold_for_budget(p: float, rho: float) -> int:
    """Smallest age from which always sending keeps the attempt frequency
    within rho: ceil(1 + x) for x = (1/rho - 1)/p.  A threshold that
    overflows a float (a subnormal rho) reads as the largest float."""
    return max(1, math.ceil(min(1.0 + (1.0 / rho - 1.0) / p - 1e-12, sys.float_info.max)))


def _age_rule_averages(p: float, m: int, eta: float) -> tuple[float, float]:
    """(mean age, attempt frequency) of the rule that waits through ages
    1..m-1, sends with probability eta at age m and always after that.  A
    cycle between deliveries is L = m - 1 + X slots, X of them from age m
    on; it makes 1/p attempts in expectation, and the age runs 1..L in it."""
    ex = 1.0 + (1.0 - eta * p) / p
    ex2 = eta * p + (1.0 - eta * p) * (1.0 + 2.0 / p + (2.0 - p) / p ** 2)
    el = m - 1 + ex
    el2 = (m - 1) ** 2 + 2 * (m - 1) * ex + ex2
    return (el2 + el) / (2.0 * el), (1.0 / p) / el


def _aoi_policy(grid: MdpGrid, p: float, rho: float) -> tuple[float, StationaryPolicyTable]:
    """The age-optimal rule that attempts exactly rho on average.

    With x = (1/rho - 1)/p, it waits through ages 1..m-1 for
    m = age_threshold_for_budget(p, rho) - 1 and sends with probability
    eta = m - x at age m.  lam is where the Lagrangian lines of the pure
    thresholds m and m + 1 cross (0 when always sending meets rho).
    """
    m = age_threshold_for_budget(p, rho) - 1
    require(m + 1 <= _AOI_MAX_AGES, "rho", rho,
            f"large enough that the age threshold stays within {_AOI_MAX_AGES} ages")
    eta = m - (1.0 / rho - 1.0) / p
    eta = 0.0 if eta < 1e-12 else eta
    lam, table = 0.0, np.ones(max(_AOI_MIN_AGES, m + 1))
    if m >= 1:
        (cost_m, freq_m), (cost_up, freq_up) = (_age_rule_averages(p, m, e) for e in (1.0, 0.0))
        lam = (cost_up - cost_m) / (freq_m - freq_up)
        table[:m - 1] = 0.0
        table[m - 1] = eta
    cost, freq = _age_rule_averages(p, m, eta)
    return lam, StationaryPolicyTable(cost_kind="aoi", table=table, avg_cost=cost,
                                      avg_freq=freq, lam=lam, grid=grid,
                                      gain=cost + lam * freq, iterations=0,
                                      edge_mass=None)


# --------------------------------------------------------------------------
# Public entry points.
# --------------------------------------------------------------------------


def rvi_solve(grid: MdpGrid, params: TerminalParams, lam: float) -> StationaryPolicyTable:
    """Solve the uoi chain with cost lam per transmission by relative value
    iteration from zero until a sweep's span is below _SPAN_TOL, and evaluate
    its greedy policy, mirrored onto the full q grid, exactly.

    The slot cost w * q^2 is even in q, the kernel is symmetric and a
    delivery resets q to 0, so the relative values of q and -q agree and the
    chain on (|q|, w_now, w_next), with the folded kernel Gf, carries them; h
    is normalized at q = 0.  Only the q component depends on the action, and
    the weight pair shifts (w_now, w_next) -> (w_next, fresh draw).
    """
    require(0.0 <= lam < math.inf, "lam", lam, "nonnegative and finite")
    w_vals, pw, Gf, q = _chain(grid, params.sigma2)
    nq, nw = len(Gf), len(w_vals)
    base = w_vals[None, :, None] * (q ** 2)[:, None, None]  # (nq, nw, 1)
    base_lam = base + lam
    p = params.p

    h = np.zeros((nq, nw, nw))
    span = math.inf
    for it in range(1, _MAX_ITER + 1):
        hbar = (h.reshape(-1, nw) @ pw).reshape(nq, nw)  # E over next-next weight
        c0 = Gf @ hbar                     # continuation, no delivery
        c1 = p * c0[0] + (1.0 - p) * c0    # c0[0]: continuation after a delivery
        q0 = base + c0[:, None, :]
        q1 = base_lam + c1[:, None, :]
        th = np.minimum(q0, q1)
        diff = th - h
        hi, lo = float(diff.max()), float(diff.min())
        span, gain = hi - lo, 0.5 * (hi + lo)
        h = th - th[0, 0, 0]
        if span < _SPAN_TOL:
            break
    else:
        raise RviConvergenceError(span, _MAX_ITER)
    table = _mirror((q1 < q0).astype(float))
    avg_cost, avg_freq, edge_mass = evaluate_policy(grid, params, table)
    return StationaryPolicyTable(cost_kind="uoi", table=table,
                                 avg_cost=avg_cost, avg_freq=avg_freq, lam=lam,
                                 grid=grid, gain=gain, iterations=it, edge_mass=edge_mass)


def calibrate_multiplier(grid: MdpGrid, params: TerminalParams, rho: float,
                         cost_kind: str) -> tuple[float, StationaryPolicyTable]:
    """Find lam so the policy's long-run transmit frequency meets rho, to
    within min(_FREQ_TOL, rho / 100).

    Kelley's cut from the bracket (lam = 0 table, never transmitting): solve
    at the lam where the Lagrangian lines c + lam * f of the two bracketing
    tables cross, and let the new table replace the bracket end on its side
    of rho, until one hits rho or the cut returns a bracketing table again.
    Then the two bracketing policies are randomized state-wise and the
    mixing weight is bisected against the exact chain frequency.  The mixed
    table reports the lam, gain and iterations of the last solve.  The aoi
    table is a closed form and needs no solve.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    require(cost_kind in ("uoi", "aoi"), "cost_kind", cost_kind, "'uoi' or 'aoi'")
    if cost_kind == "aoi":
        return _aoi_policy(grid, params.p, rho)
    tol = min(_FREQ_TOL, 0.01 * rho)

    lo_tab = rvi_solve(grid, params, 0.0)
    if lo_tab.avg_freq <= rho + tol:
        return 0.0, lo_tab  # constraint slack at lam = 0
    # Never transmitting is the lam -> inf end: its Lagrangian is its cost.
    never = np.zeros_like(lo_tab.table)
    cost, freq, edge = evaluate_policy(grid, params, never)
    hi_tab = StationaryPolicyTable(cost_kind=cost_kind, table=never, avg_cost=cost,
                                   avg_freq=freq, lam=math.inf, grid=grid, gain=cost,
                                   iterations=0, edge_mass=edge)

    cut_tab = lo_tab
    for _ in range(_MAX_CUTS):
        # lo_tab sends more than rho and hi_tab at most rho: the slope is positive
        lam = (hi_tab.avg_cost - lo_tab.avg_cost) / (lo_tab.avg_freq - hi_tab.avg_freq)
        if not lo_tab.lam < lam < hi_tab.lam:
            break  # the lines cross at a bracket end, up to rounding
        cut_tab = rvi_solve(grid, params, lam)
        if abs(cut_tab.avg_freq - rho) < tol:
            return lam, cut_tab
        if (np.array_equal(cut_tab.table, lo_tab.table)
                or np.array_equal(cut_tab.table, hi_tab.table)):
            break  # both tables are optimal at lam, the critical multiplier
        if cut_tab.avg_freq > rho:
            lo_tab = cut_tab
        else:
            hi_tab = cut_tab

    # Duality gap: randomize between the bracketing policies.
    eta_lo, eta_hi = 0.0, 1.0  # eta = weight on the more aggressive policy
    mixed, cost, freq, edge = hi_tab.table, hi_tab.avg_cost, hi_tab.avg_freq, hi_tab.edge_mass
    for _ in range(60):
        eta = 0.5 * (eta_lo + eta_hi)
        mixed = eta * lo_tab.table + (1.0 - eta) * hi_tab.table
        cost, freq, edge = evaluate_policy(grid, params, mixed)
        if abs(freq - rho) < tol:
            break
        if freq > rho:
            eta_hi = eta
        else:
            eta_lo = eta
    table = StationaryPolicyTable(cost_kind=cost_kind, table=mixed,
                                  avg_cost=cost, avg_freq=freq, lam=cut_tab.lam, grid=grid,
                                  gain=cut_tab.gain, iterations=cut_tab.iterations,
                                  edge_mass=edge)
    return cut_tab.lam, table


def format_policy_table(table: StationaryPolicyTable) -> str:
    """Human-readable dump of the decision map."""
    lines = [f"# cost_kind={table.cost_kind} avg_cost={table.avg_cost:.6f} "
             f"avg_freq={table.avg_freq:.6f} lam={table.lam:.6g}"]
    if table.cost_kind == "aoi":
        lines.append("# age -> P(transmit)")
        for i, u in enumerate(table.table):
            lines.append(f"{i + 1} {u:.4f}")
    else:
        w_vals = [w for w, _ in table.grid.weight_support]
        lines.append("# q w_now w_next -> P(transmit)")
        pairs = [f"{wa:g} {wb:g}" for wa in w_vals for wb in w_vals]
        for qq, row in zip(table.grid.q_values.tolist(),
                           table.table.reshape(len(table.table), -1).tolist(), strict=True):
            head = f"{qq:.4f} "
            lines += [f"{head}{pair} {u:.4f}" for pair, u in zip(pairs, row, strict=True)]
    return "\n".join(lines) + "\n"
