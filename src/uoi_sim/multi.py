"""Centralized K-of-N scheduling and the baseline schedulers.

The adaptive scheduler picks, each slot, the K terminals with the largest
update indices.  The index coefficients come from a stationary randomized
policy pi that minimizes sum_i omega_bar_i * sigma2_i / (p_i * pi_i)
subject to sum(pi) <= K and pi_i <= 1 -- a water-filling allocation over
d_i = sqrt(omega_bar_i * sigma2_i / p_i), found exactly by one sort of
the widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TerminalParams, is_integer, require


@dataclass(frozen=True)
class FleetConfig:
    terminals: tuple[TerminalParams, ...]
    k: int

    def __post_init__(self):
        require(len(self.terminals) >= 1, "terminals", self.terminals, "nonempty")
        require(is_integer(self.k) and self.k >= 1, "k", self.k, "an integer at least 1")

    @classmethod
    def spread(cls, n: int, k: int, p_min: float, p_max: float, sigma2: float,
               omega_bar: float) -> FleetConfig:
        """n terminals with success probabilities spread linearly over
        [p_min, p_max], all sharing sigma2 and omega_bar."""
        require(n >= 1, "n", n, "at least 1")
        require(0.0 < p_min <= 1.0, "p_min", p_min, "in (0, 1]")
        require(0.0 < p_max <= 1.0, "p_max", p_max, "in (0, 1]")
        return cls(terminals=tuple(
            TerminalParams(id=i, p=p_min + (p_max - p_min) * (i / (n - 1) if n > 1 else 0.0),
                           sigma2=sigma2, omega_bar=omega_bar)
            for i in range(n)), k=k)

    @property
    def n(self) -> int:
        return len(self.terminals)

    def array(self, field: str) -> np.ndarray:
        return np.array([getattr(t, field) for t in self.terminals], dtype=float)


@dataclass(frozen=True)
class StationaryPolicy:
    """Schedule terminal i independently with probability pi[i] per slot."""

    pi: np.ndarray
    objective: float


def waterfill(fleet: FleetConfig) -> StationaryPolicy:
    """Minimize sum d_i^2 / pi_i over sum(pi) <= K, 0 <= pi_i <= 1, with
    the widths d_i = sqrt(omega_bar_i * sigma2_i / p_i)."""
    d = np.sqrt(fleet.array("omega_bar") * fleet.array("sigma2") / fleet.array("p"))
    return waterfill_from_widths(d, fleet.k)


def waterfill_from_widths(d: np.ndarray, k: int) -> StationaryPolicy:
    """`waterfill` over the widths d, each positive and finite, as every
    fleet's are (TerminalParams keeps omega_bar, sigma2 and p positive).

    The optimum is pi_i = min(1, d_i / lam) with sum(pi) = min(K, N), found
    exactly from the widths sorted in descending order: the j-th widest
    saturates while its proportional share d_(j) * (K - j) / sum_{i>=j} d_(i)
    of the K - j sub-channels left is at least 1, and the rest split those
    in proportion to d.  The K-th widest never saturates when K < N, so the
    walk stops before it: were it saturated by rounding, the widths below
    one ulp of the sum would get no share at all.  Every pi_i lies in (0, 1].
    """
    d = np.asarray(d, dtype=float)
    require(bool(np.all((0.0 < d) & (d < math.inf))), "widths", d.tolist(),
            "positive and finite")
    pi = np.ones(len(d))  # enough sub-channels for everyone: all always eligible
    if k < len(d):
        order = np.argsort(-d, kind="stable")
        tail = np.cumsum(d[order][::-1])[::-1]  # tail[j]: the widths from the j-th widest on
        j = 0
        while j < k - 1 and d[order[j]] * (k - j) >= tail[j]:
            j += 1
        rest = order[j:]
        pi[rest] = np.minimum(1.0, d[rest] * (k - j) / tail[j])
    return StationaryPolicy(pi=pi, objective=float(np.sum(d ** 2 / pi)))


def kkt_residual(d: np.ndarray, k: int, policy: StationaryPolicy) -> float:
    """Max violation of the KKT system at `policy` (0 at the true optimum).

    Checks stationarity on unsaturated coordinates (common d_i/pi_i ratio),
    dual feasibility of the cap multipliers, and primal feasibility: the
    budget sum(pi) = min(K, N) and each cap 0 <= pi_i <= 1.
    """
    d = np.asarray(d, dtype=float)
    pi = policy.pi
    target = float(min(k, len(d)))
    res = max(abs(float(pi.sum()) - target), float(np.maximum(pi - 1.0, -pi).max()))
    unsat = pi < 1.0
    if unsat.any():
        ratios = d[unsat] / pi[unsat]
        lam = float(ratios.mean())
        res = max(res, float(np.abs(ratios - lam).max()) / max(1.0, lam))
        # Saturated coordinates need d_i >= lam (cap multiplier >= 0).
        sat = ~unsat
        if sat.any():
            res = max(res, float(np.maximum(0.0, lam - d[sat]).max()) / max(1.0, lam))
    return res


def fleet_uoi_bound(fleet: FleetConfig, policy: StationaryPolicy) -> float:
    """(1/N) sum_i omega_bar_i sigma2_i / (p_i pi_i), the average-UoI ceiling
    of the adaptive scheduler parameterized by `policy`."""
    pi = policy.pi
    if np.any(pi <= 0.0):
        raise ValueError("pi must be positive")
    terms = fleet.array("omega_bar") * fleet.array("sigma2") / (fleet.array("p") * pi)
    return float(terms.sum()) / fleet.n


def schedule_round_robin(slots: np.ndarray, n: int, k: int) -> np.ndarray:
    """Round-robin decisions of `slots`, shape (len(slots), N): K consecutive
    ids modulo N, advancing by K per slot."""
    k = min(k, n)
    ids = (np.asarray(slots, dtype=np.int64)[:, None] * k + np.arange(k)) % n
    out = np.zeros((len(ids), n), dtype=bool)
    np.put_along_axis(out, ids, True, axis=1)
    return out


def schedule_stationary(pi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Systematic probability-proportional draws, one slot per uniform in
    `u`, as decisions of shape (len(u), N).

    A slot selects floor-or-ceil of sum(pi) terminals with inclusion
    probability exactly pi_i, never more than K when sum(pi) <= K: the
    points u, u + 1, ... below sum(pi) each pick the terminal whose
    cumsum(pi) interval holds them.  With all pi = 1 every terminal is
    selected.
    """
    cum = np.cumsum(pi)
    total = cum[-1]
    points = np.asarray(u, dtype=float)[:, None] + np.arange(int(np.floor(total)) + 1)
    slot, point = np.nonzero(points < total)
    out = np.zeros((len(points), len(cum)), dtype=bool)
    out[slot, np.searchsorted(cum, points[slot, point], side="right")] = True
    return out
