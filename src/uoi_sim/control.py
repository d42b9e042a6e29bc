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

from .core import require


@dataclass(frozen=True)
class LinearPlant:
    """x' = a*x + b*v + r with r ~ N(0, noise_var)."""

    a: float
    b: float
    noise_var: float

    def __post_init__(self):
        require(math.isfinite(self.a), "a", self.a, "finite")
        require(math.isfinite(self.b) and self.b != 0.0, "b", self.b, "finite and nonzero")
        require(0.0 < self.noise_var < math.inf, "noise_var", self.noise_var,
                "positive and finite")


@dataclass(frozen=True)
class ReferencePath:
    """Reference trajectory: constant level or a sinusoid."""

    kind: str = "constant"
    value: float = 0.0
    amplitude: float = 1.0
    period: float = 1000.0

    def __post_init__(self):
        require(self.kind in ("constant", "sinusoid"), "kind", self.kind,
                "'constant' or 'sinusoid'")
        require(math.isfinite(self.value), "value", self.value, "finite")
        require(math.isfinite(self.amplitude), "amplitude", self.amplitude, "finite")
        require(0.0 < self.period < math.inf, "period", self.period, "positive and finite")

    def at(self, t: int) -> float:
        if self.kind == "constant":
            return self.value
        return self.value + self.amplitude * math.sin(2.0 * math.pi * t / self.period)

