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
from dataclasses import dataclass

import numpy as np

from .rng import Stream


@dataclass(frozen=True)
class TerminalParams:
    """Per-terminal constants.

    p          channel success probability
    sigma2     variance of the per-slot error increment
    omega_bar  mean of the context weight process
    pi         stationary schedule probability (None until optimized)
    """

    id: int
    p: float
    sigma2: float
    omega_bar: float
    pi: float | None = None

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.omega_bar <= 0.0:
            raise ValueError(f"omega_bar must be positive, got {self.omega_bar}")
        if self.pi is not None and not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi must be in [0, 1], got {self.pi}")


# --------------------------------------------------------------------------
# Weight processes.  All are per-slot sequences with a known mean; the i.i.d.
# ones consume exactly one stream variate per slot so that the value at a
# slot does not depend on how sampling was batched.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantWeights:
    w: float

    def __post_init__(self):
        if self.w <= 0.0:
            raise ValueError("weight must be positive")

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
        if self.w_lo <= 0.0 or self.w_hi <= 0.0:
            raise ValueError("weight values must be positive")
        if not 0.0 <= self.prob_hi <= 1.0:
            raise ValueError("prob_hi must be in [0, 1]")

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
        if self.base <= 0.0 or self.burst <= 0.0:
            raise ValueError("weight values must be positive")
        if not 0 < self.burst_len <= self.period:
            raise ValueError("need 0 < burst_len <= period")

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
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")

    def sample_block(self, stream: Stream, start: int, count: int) -> np.ndarray:
        return stream.normal(count) * math.sqrt(self.sigma2)


def sample_channel_block(stream: Stream, p: float, count: int) -> np.ndarray:
    """Boolean channel states, one per slot, P(good) = p."""
    return stream.uniform(count) < p

