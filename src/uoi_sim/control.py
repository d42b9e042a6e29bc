"""Remote tracking control of a scalar linear plant.

The controller steers x toward a reference y with certainty-equivalent
control v = (y - a x_hat) / b computed from its estimate x_hat; the
estimate is exact right after an uplink delivery and otherwise propagated
through the model.  Then x' - y = a (x - x_hat) + r: the tracking error is
the estimation error left by the last delivery, times a, plus the noise,
and neither y nor b enters it.  So the weighted tracking cost is a^2 times
the weighted estimation error plus the noise floor, and the control
scenario runs the single-terminal loop with memory a (`sim.run_single`).
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
