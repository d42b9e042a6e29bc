"""Remote tracking control of a scalar linear plant.

The controller steers x toward a reference y using certainty-equivalent
control computed from its estimate x_hat; the estimate is exact right
after an uplink delivery and otherwise propagated through the model.  The
achieved weighted tracking cost decomposes into the weighted estimation
error (scaled by a^2) plus an irreducible noise floor, so ranking update
policies by weighted estimation error ranks them by control performance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LinearPlant:
    """x' = a*x + b*v + r with r ~ N(0, noise_var), from state x and estimate x_hat."""

    a: float
    b: float
    noise_var: float
    x: float = 0.0
    x_hat: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"a and b must be finite, got a={self.a}, b={self.b}")
        if self.b == 0.0:
            raise ValueError("control gain b must be nonzero")
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var}")


@dataclass(frozen=True)
class ReferencePath:
    """Reference trajectory: constant level or a sinusoid."""

    kind: str = "constant"
    value: float = 0.0
    amplitude: float = 1.0
    period: float = 1000.0

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoid"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.amplitude)):
            raise ValueError(f"value and amplitude must be finite, got value={self.value}, "
                             f"amplitude={self.amplitude}")
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")

    def at(self, t: int) -> float:
        if self.kind == "constant":
            return self.value
        return self.value + self.amplitude * math.sin(2.0 * math.pi * t / self.period)


def optimal_control(a: float, b: float, x_hat: float, y_next: float) -> float:
    """v* = (y - a * x_hat) / b, the weighted-squared-error minimizer."""
    return (y_next - a * x_hat) / b


def step_plant_with_noise(a: float, b: float, x: float, x_hat: float, v: float,
                          updated: int, r: float) -> tuple[float, float]:
    """(x', x_hat'): the estimate is exact after an update, else propagated by the model."""
    x_new = a * x + b * v + r
    return x_new, (x_new if updated else a * x_hat + b * v)
