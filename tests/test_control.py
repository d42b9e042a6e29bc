"""Tracking-control demo: certainty-equivalent control and the cost split.

The tracking error is the error of a single terminal with memory a and the
plant's noise, so the control runs are run_single(..., a=a) on that terminal."""

import numpy as np
import pytest

from conftest import desk_terminal, desk_weights, step_plant
from uoi_sim import cli
from uoi_sim.core import ConstantWeights, TerminalParams
from uoi_sim.harness import config_from_dict, run
from uoi_sim.mdp import calibrate_multiplier
from uoi_sim.rng import StreamFactory
from uoi_sim.sim import POLICY_TABLE, run_single, stderr_from_batches

# The control rules that run without a policy table (rvi-aoi needs one).
CONTROL_POLICIES = ("adaptive", "periodic", "random", "age-threshold")


def _terminal(p: float = 0.8, omega_bar: float = 1.99) -> TerminalParams:
    """The terminal whose error is the tracking error of a plant with unit noise."""
    return TerminalParams(id=0, p=p, sigma2=1.0, omega_bar=omega_bar)


def test_step_plant_estimate_tracking():
    # the oracle step that the control runs of run_single are tested against
    x, x_hat = 2.0, 1.5
    x_stale, x_hat_stale = step_plant(1.0, 1.0, x, x_hat, v=0.3, r=0.4)
    # estimation error grows by exactly the noise when a = 1
    assert (x_stale - x_hat_stale) == pytest.approx((x - x_hat) + 0.4)


def test_always_update_perfect_channel_floor():
    # updating every slot over a perfect channel leaves only the noise floor
    res = run_single(_terminal(p=1.0, omega_bar=2.0), ConstantWeights(2.0), rho=1.0,
                     v=1.0, policy="periodic", horizon=3 * 10**5, factory=StreamFactory(21),
                     a=1.0)
    assert res.update_freq[0] == pytest.approx(1.0)
    assert res.avg_uoi == pytest.approx(2.0 * 1.0, rel=0.02)


@pytest.mark.parametrize("policy", CONTROL_POLICIES)
def test_cost_decomposition_each_policy(policy):
    # At 10^6 slots the relative gap's standard deviation over 30 seeds is
    # 0.45-0.71% (adaptive the widest) and its largest value 1.66%.
    res = run_single(_terminal(), desk_weights(), rho=0.25, v=1.0, policy=policy,
                     horizon=10**6, factory=StreamFactory(5), a=1.0)
    rhs = 1.0 * res.extras["avg_est_cost"] + desk_weights().mean * 1.0
    assert res.avg_uoi == pytest.approx(rhs, rel=0.03)


def test_general_a_decomposition():
    # Prop-1 split holds for a != 1 as well: track = a^2 est + noise floor.
    # The relative gap's standard deviation is about 0.8% at 10^6 slots.
    res = run_single(_terminal(), desk_weights(), rho=0.25, v=1.0, policy="adaptive",
                     horizon=10**6, factory=StreamFactory(6), a=0.9)
    rhs = 0.9 ** 2 * res.extras["avg_est_cost"] + desk_weights().mean * 1.0
    assert res.avg_uoi == pytest.approx(rhs, rel=0.03)


def test_policy_ranking_transfers_from_uoi_to_tracking():
    """Policies ordered by average UoI in the pure updating system are
    ordered the same way by weighted tracking cost (Spearman 1.0) of an
    unstable plant, whose error the pure system does not model."""
    uoi_avg, track_avg = {}, {}
    for policy in CONTROL_POLICIES:
        sim = run_single(desk_terminal(), desk_weights(), rho=0.25, v=1.0,
                         policy=policy, horizon=2 * 10**5, factory=StreamFactory(17))
        uoi_avg[policy] = sim.avg_uoi
        ctl = run_single(_terminal(), desk_weights(), rho=0.25, v=1.0, policy=policy,
                         horizon=2 * 10**5, factory=StreamFactory(17), a=1.1)
        track_avg[policy] = ctl.avg_uoi
    by_uoi = sorted(CONTROL_POLICIES, key=uoi_avg.get)
    by_track = sorted(CONTROL_POLICIES, key=track_avg.get)
    assert by_uoi == by_track


def test_control_config_runs_the_plants_terminal():
    # the control section's noise is the error variance of the terminal that
    # runs, and its a the error's memory; other scenarios run at memory 1
    raw = {"terminal": {"p": 0.6, "sigma2": 2.0},
           "control": {"a": 0.9, "b": 3.0, "noise_var": 5.0}}
    control = config_from_dict(dict(raw, scenario="control"))
    assert control.terminal == TerminalParams(id=0, p=0.6, sigma2=5.0,
                                              omega_bar=desk_weights().mean)
    assert (control.a, control.b) == (0.9, 3.0)
    single = config_from_dict(dict(raw, scenario="single"))
    assert (single.terminal.sigma2, single.a) == (2.0, 1.0)
    assert POLICY_TABLE["control"].simulator == "single"


def test_control_at_unit_memory_is_the_single_terminal():
    # with a = 1 and the plant's noise equal to the terminal's sigma2, the
    # control rows are the single rows, bit for bit, whatever b is
    common = {"horizon": 3000, "seed": 9, "trace": True, "policies": list(CONTROL_POLICIES),
              "terminal": {"p": 0.8, "sigma2": 2.0}}
    single = run(config_from_dict(dict(common, scenario="single")))
    control = run(config_from_dict(dict(common, scenario="control",
                                        control={"a": 1.0, "b": 0.3, "noise_var": 2.0})))
    for s, c in zip(single, control, strict=True):
        assert c.avg_uoi == s.avg_uoi
        assert c.stderr_uoi == s.stderr_uoi   # from the batch means
        assert np.array_equal(c.avg_update_freq, s.avg_update_freq)
        assert c.violation_prob == s.violation_prob
        assert np.array_equal(c.trace, s.trace)


def test_control_runs_the_aoi_optimal_comparator_at_any_memory():
    # the age-optimal table does not depend on a, so the control row is
    # run_single on the plant's terminal with that table, bit for bit
    config = config_from_dict({"scenario": "control", "horizon": 4000, "seed": 11,
                               "trace": True, "policies": ["rvi-aoi"],
                               "control": {"a": 1.05, "b": 0.5}})
    [row] = run(config)
    params = _terminal()
    table = calibrate_multiplier(config.grid, params, 0.25, "aoi")[1]
    res = run_single(params, desk_weights(), rho=0.25, v=1.0, policy="rvi-aoi",
                     horizon=4000, factory=StreamFactory(11), thresholds=config.thresholds,
                     trace=True, policy_table=table, a=1.05)
    assert np.array_equal(row.extras["policy_table"].table, table.table)
    assert row.avg_uoi == res.avg_uoi
    assert row.stderr_uoi == stderr_from_batches(res.batch_means)
    assert np.array_equal(row.avg_update_freq, res.update_freq)
    assert row.violation_prob == res.violation_prob
    assert row.extras["avg_est_cost"] == res.extras["avg_est_cost"]
    assert np.array_equal(row.trace, res.trace)


def test_cli_control_runs_rvi_aoi(capsys):
    assert cli.main(["control", "--horizon", "2000", "--policy", "rvi-aoi"]) == 0
    assert "rvi-aoi" in capsys.readouterr().out
