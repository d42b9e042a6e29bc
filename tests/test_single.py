"""Single-terminal updater: the virtual-queue and index step operations
that the simulator references replay, budget compliance and the bound."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (ErrorQueue, SingleUpdaterState, VirtualQueue,
                      decide_update, desk_terminal, desk_weights,
                      drift_coefficient, step_virtual_queue, update_index)
from uoi_sim.core import TerminalParams
from uoi_sim.rng import StreamFactory
from uoi_sim.sim import adaptive_uoi_bound, run_single


def test_step_virtual_queue_examples():
    vq = VirtualQueue(h=0.5, rho=0.25, v=1.0)
    assert step_virtual_queue(vq, 1).h == pytest.approx(1.25)
    assert step_virtual_queue(vq, 0).h == pytest.approx(0.25)
    assert step_virtual_queue(VirtualQueue(h=0.1, rho=0.25, v=1.0), 0).h == 0.0


def test_update_index_examples():
    assert update_index(desk_terminal(), 0.25, omega_next=1.0, q=3.0) == pytest.approx(64.512)
    assert update_index(desk_terminal(), 0.25, omega_next=100.0, q=0.0) == 0.0
    unit = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    assert update_index(unit, 1.0, omega_next=1.0, q=2.0) == pytest.approx(4.0)


@given(omega_next=st.floats(min_value=1e-3, max_value=1e3),
       q=st.floats(min_value=-1e3, max_value=1e3),
       rho=st.floats(min_value=0.01, max_value=1.0))
def test_update_index_nonnegative(omega_next, q, rho):
    assert update_index(desk_terminal(), rho, omega_next, q) >= 0.0


def _state(q: float, h: float, rho: float = 1.0, v: float = 1.0) -> SingleUpdaterState:
    params = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    return SingleUpdaterState(params=params, vq=VirtualQueue(h=h, rho=rho, v=v),
                              eq=ErrorQueue(q=q))


def test_decide_update_examples():
    # omega_bar = p = rho = omega_next = 1 makes J = q^2
    assert decide_update(_state(q=4.0, h=0.0), omega_next=1.0) == 1   # J=16 > 0
    assert decide_update(_state(q=4.0, h=16.0), omega_next=1.0) == 0  # tie holds
    assert decide_update(_state(q=0.0, h=0.0), omega_next=1.0) == 0


@given(q1=st.floats(min_value=-50, max_value=50),
       q2=st.floats(min_value=-50, max_value=50),
       h=st.floats(min_value=0, max_value=100),
       omega_next=st.floats(min_value=0.1, max_value=100))
def test_decide_update_monotone_in_error_magnitude(q1, q2, h, omega_next):
    if abs(q1) > abs(q2):
        q1, q2 = q2, q1
    s1 = _state(q=q1, h=h, rho=0.25)
    s2 = _state(q=q2, h=h, rho=0.25)
    assert decide_update(s1, omega_next) <= decide_update(s2, omega_next)


def test_adaptive_uoi_bound_examples():
    assert adaptive_uoi_bound(desk_terminal(), 0.25, 1.0) == pytest.approx(10.45)
    unit = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    assert adaptive_uoi_bound(unit, 1.0, 1e-12) == pytest.approx(1.0)
    t = TerminalParams(id=0, p=0.5, sigma2=2.0, omega_bar=1.0)
    assert adaptive_uoi_bound(t, 0.5, 2.0) == pytest.approx(9.0)
    # p * rho = 8e-311 overflows the quotient; 0.4 * 5e-324 underflows to 0
    assert adaptive_uoi_bound(desk_terminal(), 1e-310, 1.0) == math.inf
    assert adaptive_uoi_bound(replace(desk_terminal(), p=0.4), 5e-324, 1.0) == math.inf
    with pytest.raises(ValueError, match="rho must be positive"):
        adaptive_uoi_bound(desk_terminal(), 0.0, 1.0)


@given(u=st.integers(0, 1),
       h=st.floats(min_value=0, max_value=1e6),
       rho=st.floats(min_value=1e-3, max_value=1.0))
def test_virtual_queue_increment_bounds(u, h, rho):
    after = step_virtual_queue(VirtualQueue(h=h, rho=rho, v=1.0), u)
    if u:
        assert after.h == pytest.approx(h + (1.0 - rho))
    else:
        assert h - after.h <= rho + 1e-9 * max(1.0, h)
    assert after.h >= 0.0


@pytest.mark.parametrize("rho", [0.05, 0.25, 0.75])
def test_budget_compliance_and_mean_rate_stability(rho):
    result = run_single(desk_terminal(), desk_weights(), rho=rho, v=1.0,
                        policy="adaptive", horizon=10**5,
                        factory=StreamFactory(314))
    h_over_t = result.extras["h_over_t"]
    # algebraic consequence of the H recursion: freq <= rho + H_T / T
    assert result.update_freq[0] <= rho + h_over_t + 1e-9
    assert h_over_t < 0.01


def test_adaptive_uoi_bound_holds_at_modest_horizon():
    params = desk_terminal()
    result = run_single(params, desk_weights(), rho=0.25, v=1.0,
                        policy="adaptive", horizon=2 * 10**5,
                        factory=StreamFactory(271))
    se = result.batch_means.std(ddof=1) / math.sqrt(len(result.batch_means))
    assert result.avg_uoi <= adaptive_uoi_bound(params, 0.25, 1.0) + 3 * se


def test_drift_plus_penalty_inequality_monte_carlo():
    """The analytic drift-plus-penalty bound dominates a Monte Carlo
    estimate of E[L' - L + f | state, U] for both actions."""
    params = desk_terminal()
    rho, v = 0.25, 1.0
    theta = drift_coefficient(params, rho)
    rng = np.random.default_rng(4242)
    n = 10**5
    for q in (0.0, 0.7, -2.5, 4.0):
        for h in (0.0, 0.4, 3.0):
            for omega_next in (1.0, 100.0):
                for u in (0, 1):
                    a = rng.standard_normal(n) * math.sqrt(params.sigma2)
                    s = rng.random(n) < params.p
                    d = u * s
                    q_next = (1 - d) * q + a
                    h_next = max(0.0, h - rho + u)
                    l_now = 0.5 * v * h * h + theta * q * q
                    l_next = 0.5 * v * h_next ** 2 + theta * q_next ** 2
                    f = omega_next * q_next ** 2
                    samples = l_next - l_now + f
                    mc = samples.mean()
                    se = samples.std(ddof=1) / math.sqrt(n)
                    exp_f = omega_next * ((1 - params.p * u) * q * q + params.sigma2)
                    rhs = (theta * params.sigma2 + 0.5 * v - v * rho * h
                           + exp_f + (v * h - theta * params.p * q * q) * u)
                    assert mc <= rhs + 3 * se
