"""Urgency-of-information status updating and scheduling simulator."""

from .core import (ConstantWeights, GaussianIncrements, PeriodicBurstWeights,
                   TerminalParams, TwoPointWeights, WeightProcess,
                   sample_channel_block)
from .csma import ContentionConfig, ContentionLanes, default_delta_j
from .harness import (ConfigError, ExperimentConfig, RunMetrics,
                      config_from_dict, export, load_config, run)
from .mdp import (MdpGrid, StationaryPolicyTable, calibrate_multiplier,
                  rvi_solve)
from .multi import (FleetConfig, StationaryPolicy, fleet_uoi_bound,
                    kkt_residual, schedule_round_robin, waterfill)
from .rng import StreamFactory
from .sim import (POLICY_TABLE, FleetLane, adaptive_uoi_bound, run_fleet_lanes,
                  run_single)

__version__ = "0.1.0"
