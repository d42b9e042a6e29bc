"""Domain types and stream sampling shared by every updating scheme.

The estimation error of a terminal behaves like a queue that is emptied on
every successful delivery and otherwise accumulates random increments:

    Q[t+1] = (1 - U[t] * S[t]) * Q[t] + A[t]

where U is the transmit decision, S the channel state and A the zero-mean
error increment.  The urgency of information at a slot is the context
weight times the squared error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .rng import Stream


class FieldError(ValueError):
    """A domain value out of range; `field` names the offending attribute."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


def is_integer(value) -> bool:
    """Whether `value` is an integer; a bool is not, though Python counts it."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require(ok: bool, field: str, value, requirement: str) -> None:
    """Raise FieldError(field) unless `ok`.  Write `ok` as the range the
    value must lie in: NaN fails every comparison, so it never passes."""
    if not ok:
        raise FieldError(field, f"must be {requirement}, got {value!r}")


@dataclass(frozen=True)
class TerminalParams:
    """Per-terminal constants.

    p          channel success probability
    sigma2     variance of the per-slot error increment
    omega_bar  mean of the context weight process
    """

    id: int
    p: float
    sigma2: float
    omega_bar: float

    def __post_init__(self):
        require(0.0 < self.p <= 1.0, "p", self.p, "in (0, 1]")
        require(0.0 < self.sigma2 < math.inf, "sigma2", self.sigma2, "positive and finite")
        require(0.0 < self.omega_bar < math.inf, "omega_bar", self.omega_bar,
                "positive and finite")


def index_factor(w_next, omega_bar, p, share):
    """The adaptive rule's factor (w_next + theta) * p of the update index
    factor * q^2, with theta = omega_bar * (1/(p * share) - 1), for a budget
    share of rho (one terminal) or pi (a fleet terminal); on floats or
    arrays.

    The result is C-ordered whatever the layout of `w_next`, so the fleet
    loop passes a transposed view of its weights and the sum is the only
    array this allocates: the product reuses it."""
    return np.add(w_next, omega_bar * (1.0 / (p * share) - 1.0), order="C") * p


# --------------------------------------------------------------------------
# Weight processes.  All are per-slot sequences with a known mean; the i.i.d.
# ones consume exactly one stream variate per slot so that the value at a
# slot does not depend on how sampling was batched.
# --------------------------------------------------------------------------


def _require_weight(value: float, field: str) -> None:
    require(0.0 < value < math.inf, field, value, "positive and finite")


@dataclass(frozen=True)
class ConstantWeights:
    w: float

    def __post_init__(self):
        _require_weight(self.w, "w")

    @property
    def mean(self) -> float:
        return self.w

    def support(self):
        return ((self.w, 1.0),)

    def sample_block(self, stream: Stream | None, start: int, count: int) -> np.ndarray:
        return np.full(count, self.w)


@dataclass(frozen=True)
class TwoPointWeights:
    """i.i.d. weights: w_hi with probability prob_hi, else w_lo."""

    w_lo: float
    w_hi: float
    prob_hi: float

    def __post_init__(self):
        _require_weight(self.w_lo, "w_lo")
        _require_weight(self.w_hi, "w_hi")
        require(0.0 <= self.prob_hi <= 1.0, "prob_hi", self.prob_hi, "in [0, 1]")

    @property
    def mean(self) -> float:
        return (1.0 - self.prob_hi) * self.w_lo + self.prob_hi * self.w_hi

    def support(self):
        return ((self.w_lo, 1.0 - self.prob_hi), (self.w_hi, self.prob_hi))

    def sample_block(self, stream: Stream, start: int, count: int) -> np.ndarray:
        u = stream.uniform(count)
        return np.where(u < self.prob_hi, self.w_hi, self.w_lo)


@dataclass(frozen=True)
class PeriodicBurstWeights:
    """Deterministic weights: `burst` in the last burst_len slots of each
    period, `base` otherwise."""

    base: float
    burst: float
    period: int
    burst_len: int

    def __post_init__(self):
        _require_weight(self.base, "base")
        _require_weight(self.burst, "burst")
        require(1 <= self.period < math.inf, "period", self.period, "at least 1 and finite")
        require(0 < self.burst_len <= self.period, "burst_len", self.burst_len,
                f"in [1, period = {self.period}]")

    @property
    def mean(self) -> float:
        quiet = self.period - self.burst_len
        return (self.base * quiet + self.burst * self.burst_len) / self.period

    def support(self):
        # Not i.i.d. across slots, so unusable as a Markov weight state.
        return None

    def sample_block(self, stream: Stream | None, start: int, count: int) -> np.ndarray:
        phase = (np.arange(start, start + count)) % self.period
        return np.where(phase >= self.period - self.burst_len, self.burst, self.base)


WeightProcess = ConstantWeights | TwoPointWeights | PeriodicBurstWeights


@dataclass(frozen=True)
class GaussianIncrements:
    """Zero-mean i.i.d. Gaussian error increments with variance sigma2."""

    sigma2: float

    def __post_init__(self):
        require(0.0 < self.sigma2 < math.inf, "sigma2", self.sigma2, "positive and finite")

    def sample_block(self, stream: Stream, start: int, count: int) -> np.ndarray:
        return stream.normal(count) * math.sqrt(self.sigma2)


def sample_channel_block(stream: Stream, p: float, count: int) -> np.ndarray:
    """Boolean channel states, one per slot, P(good) = p."""
    return stream.uniform(count) < p

