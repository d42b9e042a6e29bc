"""Tracking-control demo: certainty-equivalent control and the cost split."""

import math

import numpy as np
import pytest

from conftest import desk_weights, step_plant
from uoi_sim.control import LinearPlant, ReferencePath
from uoi_sim.core import ConstantWeights
from uoi_sim.rng import StreamFactory
from uoi_sim.sim import POLICY_TABLE, run_single, run_tracking

CONTROL_POLICIES = tuple(POLICY_TABLE["control"].policies)


def test_plant_rejects_zero_gain():
    with pytest.raises(ValueError):
        LinearPlant(a=1.0, b=0.0, noise_var=1.0)


def test_step_plant_estimate_tracking():
    # the oracle step that run_tracking's inlined plant update is tested against
    x, x_hat = 2.0, 1.5
    x_stale, x_hat_stale = step_plant(LinearPlant(a=1.0, b=1.0, noise_var=1.0), x, x_hat,
                                      v=0.3, r=0.4)
    # estimation error grows by exactly the noise when a = 1
    assert (x_stale - x_hat_stale) == pytest.approx((x - x_hat) + 0.4)


def test_reference_paths():
    assert ReferencePath().at(17) == 0.0
    sine = ReferencePath(kind="sinusoid", value=1.0, amplitude=2.0, period=4.0)
    assert sine.at(1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        ReferencePath(kind="sawtooth")


@pytest.mark.parametrize("fields", [
    {"period": 0.0}, {"period": -5.0}, {"period": math.nan}, {"period": math.inf},
    {"value": math.nan}, {"amplitude": math.nan}, {"amplitude": -math.inf}])
def test_reference_path_rejects_bad_numbers(fields):
    with pytest.raises(ValueError):
        ReferencePath(kind="sinusoid", **fields)


@pytest.mark.parametrize("fields", [
    {"a": math.nan}, {"b": math.nan}, {"a": math.inf}, {"noise_var": math.nan},
    {"noise_var": math.inf}, {"noise_var": 0.0}])
def test_plant_rejects_bad_numbers(fields):
    with pytest.raises(ValueError):
        LinearPlant(**dict({"a": 1.0, "b": 1.0, "noise_var": 1.0}, **fields))


def test_always_update_perfect_channel_floor():
    # updating every slot over a perfect channel leaves only the noise floor
    plant = LinearPlant(a=1.0, b=1.0, noise_var=1.0)
    res = run_tracking(plant, ReferencePath(), ConstantWeights(2.0), "periodic",
                       rho=1.0, v=1.0, p_channel=1.0, horizon=3 * 10**5,
                       factory=StreamFactory(21))
    assert res.update_freq[0] == pytest.approx(1.0)
    assert res.avg_uoi == pytest.approx(2.0 * 1.0, rel=0.02)


@pytest.mark.parametrize("policy", CONTROL_POLICIES)
def test_cost_decomposition_each_policy(policy):
    plant = LinearPlant(a=1.0, b=1.0, noise_var=1.0)
    res = run_tracking(plant, ReferencePath(), desk_weights(), policy,
                       rho=0.25, v=1.0, p_channel=0.8, horizon=2 * 10**5,
                       factory=StreamFactory(5))
    rhs = 1.0 * res.extras["avg_est_cost"] + desk_weights().mean * plant.noise_var
    assert res.avg_uoi == pytest.approx(rhs, rel=0.03)


def test_general_a_decomposition():
    # Prop-1 split holds for a != 1 as well: track = a^2 est + noise floor
    plant = LinearPlant(a=0.9, b=0.5, noise_var=1.0)
    res = run_tracking(plant, ReferencePath(kind="sinusoid", amplitude=3.0),
                       desk_weights(), "adaptive", rho=0.25, v=1.0,
                       p_channel=0.8, horizon=2 * 10**5, factory=StreamFactory(6))
    rhs = 0.9 ** 2 * res.extras["avg_est_cost"] + desk_weights().mean * plant.noise_var
    assert res.avg_uoi == pytest.approx(rhs, rel=0.03)


def test_policy_ranking_transfers_from_uoi_to_tracking():
    """Policies ordered by average UoI in the pure updating system are
    ordered the same way by weighted tracking cost (Spearman 1.0)."""
    from conftest import desk_terminal
    plant = LinearPlant(a=1.0, b=1.0, noise_var=1.0)
    uoi_avg, track_avg = {}, {}
    for policy in CONTROL_POLICIES:
        sim = run_single(desk_terminal(), desk_weights(), rho=0.25, v=1.0,
                         policy=policy, horizon=2 * 10**5, factory=StreamFactory(17))
        uoi_avg[policy] = sim.avg_uoi
        ctl = run_tracking(plant, ReferencePath(), desk_weights(), policy,
                           rho=0.25, v=1.0, p_channel=0.8, horizon=2 * 10**5,
                           factory=StreamFactory(17))
        track_avg[policy] = ctl.avg_uoi
    by_uoi = sorted(CONTROL_POLICIES, key=uoi_avg.get)
    by_track = sorted(CONTROL_POLICIES, key=track_avg.get)
    assert by_uoi == by_track
