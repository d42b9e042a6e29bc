"""Water-filling optimizer, top-K rule and baseline schedulers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AoIState, grid_min_objective, make_fleet,
                      multi_update_index, round_robin_ids, schedule_aoi,
                      stationary_ids, step_aoi)
from uoi_sim.core import FieldError, TerminalParams, index_factor
from uoi_sim.multi import (FleetConfig, StationaryPolicy,
                           kkt_residual, schedule_round_robin,
                           schedule_stationary, fleet_uoi_bound, waterfill,
                           waterfill_from_widths)
from uoi_sim.sim import _topk_ids


def schedule_topk(values, k):
    """The fleet simulator's top-K rule, as a list of ids: it ranks the
    negated values."""
    return _topk_ids(-np.asarray(values, dtype=float), k).tolist()


def test_waterfill_examples():
    assert waterfill_from_widths(np.array([1.0, 1.0]), 1).pi == pytest.approx([0.5, 0.5])
    assert waterfill_from_widths(np.array([3.0, 1.0]), 1).pi == pytest.approx([0.75, 0.25])
    assert waterfill_from_widths(np.array([10.0, 1.0, 1.0]), 2).pi == pytest.approx(
        [1.0, 0.5, 0.5])
    # the widest saturates, which leaves the second widest its own full share
    assert waterfill_from_widths(np.array([100.0, 10.0, 1.0, 1.0, 1.0]), 3).pi == (
        pytest.approx([1.0, 1.0, 1 / 3, 1 / 3, 1 / 3]))
    assert waterfill_from_widths(np.array([5.0, 5.0, 1.0, 1.0]), 3).pi == pytest.approx(
        [1.0, 1.0, 0.5, 0.5])


def test_waterfill_brute_force_small():
    for d, k in [((1.0, 1.0), 1), ((3.0, 1.0), 1), ((10.0, 1.0, 1.0), 2),
                 ((0.4, 2.2, 1.3), 1)]:
        pol = waterfill_from_widths(np.array(d), k)
        assert pol.objective <= grid_min_objective(np.array(d), k) + 1e-6
        assert kkt_residual(np.array(d), k, pol) < 1e-6


def test_waterfill_k_at_least_n_gives_all_ones():
    pol = waterfill_from_widths(np.array([2.0, 0.1, 1.0]), 3)
    assert pol.pi == pytest.approx([1.0, 1.0, 1.0])
    pol = waterfill_from_widths(np.array([2.0, 0.1]), 5)
    assert pol.pi == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_waterfill_rejects_a_width_that_is_not_positive_and_finite(bad):
    # every fleet's widths are positive: TerminalParams keeps their factors so
    with pytest.raises(FieldError) as err:
        waterfill_from_widths(np.array([1.0, bad, 1.0]), 1)
    assert err.value.field == "widths"


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_fleet_config_rejects_a_non_integral_k(k):
    # a fractional K would first fail mid-run, slicing the top-K picks
    terminals = tuple(TerminalParams(id=i, p=0.9, sigma2=1.0, omega_bar=1.0) for i in range(4))
    with pytest.raises(FieldError, match="must be an integer") as err:
        FleetConfig(terminals=terminals, k=k)
    assert err.value.field == "k"
    assert FleetConfig(terminals=terminals, k=np.int64(2)).k == 2


def test_waterfill_proportional_case():
    # whenever max d_i / sum d <= 1/K the Cauchy-Schwarz split is optimal
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = rng.integers(2, 6)
        d = rng.uniform(0.5, 1.5, size=n)
        k = 1
        if d.max() / d.sum() <= 1.0 / k:
            pol = waterfill_from_widths(d, k)
            assert pol.pi == pytest.approx(k * d / d.sum(), abs=1e-9)


def _assert_feasible_optimum(d: np.ndarray, k: int) -> None:
    pol = waterfill_from_widths(d, k)
    assert np.all((0.0 < pol.pi) & (pol.pi <= 1.0)), pol.pi
    assert abs(pol.pi.sum() - k) <= 1e-12 * k
    assert kkt_residual(d, k, pol) <= 1e-12


@pytest.mark.parametrize("n", [2, 5, 12, 30])
def test_waterfill_stays_feasible_over_widths_spanning_150_decades(n):
    # p_min = 1e-300 spreads the widths sqrt(1/p) over 150 decades
    for e in range(0, 301, 5):
        fleet = FleetConfig.spread(n, 1, 10.0 ** -e, 1.0, 1.0, 1.0)
        d = np.sqrt(1.0 / fleet.array("p"))
        for k in range(1, n):
            _assert_feasible_optimum(d, k)


def test_waterfill_gives_tiny_widths_their_proportional_share():
    # at K = 1 no terminal saturates: pi = d / sum(d), down to shares of 1e-150
    d = np.sqrt(1.0 / FleetConfig.spread(12, 1, 1e-300, 1.0, 1.0, 1.0).array("p"))
    assert waterfill_from_widths(d, 1).pi == pytest.approx(d / d.sum(), rel=1e-12, abs=0.0)


@settings(max_examples=200)
@given(exps=st.lists(st.floats(min_value=-150.0, max_value=150.0), min_size=2, max_size=11),
       data=st.data())
def test_waterfill_feasible_over_random_wide_widths(exps, data):
    d = 10.0 ** np.array(exps)
    _assert_feasible_optimum(d, data.draw(st.integers(1, len(d) - 1)))


def test_kkt_residual_counts_a_share_above_its_cap():
    # stationary on the unsaturated pair and summing to K, but pi_0 > 1
    pol = StationaryPolicy(pi=np.array([1.25, 0.375, 0.375]), objective=math.nan)
    assert kkt_residual(np.array([3.0, 1.0, 1.0]), 2, pol) >= 0.25


def test_multi_update_index_examples():
    unit = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    assert multi_update_index(unit, 1.0, omega_next=1.0, q=2.0) == pytest.approx(4.0)
    assert multi_update_index(unit, 1.0, omega_next=50.0, q=0.0) == 0.0
    t = TerminalParams(id=0, p=0.7, sigma2=1.0, omega_bar=5.95)
    assert multi_update_index(t, 0.2, omega_next=100.0, q=1.0) == pytest.approx(95.585)


def test_schedule_topk_examples():
    assert set(schedule_topk(np.array([5.0, 1.0, 9.0]), 2)) == {2, 0}
    assert schedule_topk(np.array([5.0, 5.0, 1.0]), 1) == [0]
    assert schedule_topk(np.array([3.0]), 2) == [0]


@settings(max_examples=50)
@given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=12),
       k=st.integers(1, 12),
       scale=st.floats(min_value=1e-3, max_value=1e3))
def test_topk_scale_invariance_and_feasibility(values, k, scale):
    v = np.array(values)
    ids = schedule_topk(v, k)
    assert len(ids) == min(k, len(v))
    assert ids == schedule_topk(v * scale, k)


def test_fleet_uoi_bound_examples():
    fleet2 = FleetConfig(terminals=(
        TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0),
        TerminalParams(id=1, p=1.0, sigma2=1.0, omega_bar=1.0)), k=1)
    pol = StationaryPolicy(pi=np.array([0.5, 0.5]), objective=4.0)
    assert fleet_uoi_bound(fleet2, pol) == pytest.approx(2.0)

    fleet1 = FleetConfig(terminals=(
        TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0),), k=1)
    assert fleet_uoi_bound(fleet1, StationaryPolicy(np.array([1.0]), 1.0)) == pytest.approx(1.0)

    fleet_w = FleetConfig(terminals=(
        TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0),
        TerminalParams(id=1, p=1.0, sigma2=1.0, omega_bar=4.0)), k=1)
    pol = waterfill(fleet_w)
    assert pol.pi == pytest.approx([1 / 3, 2 / 3], abs=1e-9)
    assert fleet_uoi_bound(fleet_w, pol) == pytest.approx(4.5)


def _ids(decisions: np.ndarray) -> list[list[int]]:
    return [np.flatnonzero(row).tolist() for row in decisions]


def test_round_robin_examples():
    assert _ids(schedule_round_robin(np.arange(2), 4, 2)) == [[0, 1], [2, 3]]
    assert _ids(schedule_round_robin(np.array([1]), 3, 2)) == [[0, 2]]


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (4, 2), (5, 5), (7, 3), (2, 4)])
def test_round_robin_kernel_matches_oracle(n, k):
    slots = np.arange(1000, 1000 + 3 * n)
    assert _ids(schedule_round_robin(slots, n, k)) == [
        sorted(round_robin_ids(int(t), n, k)) for t in slots]


@settings(max_examples=60)
@given(pi=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9),
       uniforms=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                         min_size=1, max_size=20))
def test_stationary_kernel_matches_oracle(pi, uniforms):
    pi = np.array(pi)
    assert _ids(schedule_stationary(pi, np.array(uniforms))) == [
        stationary_ids(pi, u) for u in uniforms]


def test_stationary_kernel_edge_cases():
    ones = np.ones(4)
    assert _ids(schedule_stationary(ones, np.array([0.0, 0.5, 0.999]))) == [[0, 1, 2, 3]] * 3
    assert _ids(schedule_stationary(np.zeros(3), np.array([0.0, 0.7]))) == [[], []]
    # a zero-probability terminal is never picked
    assert _ids(schedule_stationary(np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.5]))) == [
        [0], [2]]


def test_schedule_aoi_examples():
    fleet = FleetConfig(terminals=(
        TerminalParams(id=0, p=0.5, sigma2=1.0, omega_bar=1.0),
        TerminalParams(id=1, p=1.0, sigma2=1.0, omega_bar=1.0)), k=1)
    # scores tie at 6: lowest id wins
    assert schedule_aoi(AoIState(delta=np.array([3, 2])), fleet) == [0]
    unit = FleetConfig(terminals=(
        TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0),
        TerminalParams(id=1, p=1.0, sigma2=1.0, omega_bar=1.0)), k=1)
    assert schedule_aoi(AoIState(delta=np.array([1, 5])), unit) == [1]
    both = FleetConfig(terminals=unit.terminals, k=2)
    assert set(schedule_aoi(AoIState(delta=np.array([1, 5])), both)) == {0, 1}


def test_aoi_recursion():
    aoi = AoIState.fresh(3)
    aoi = step_aoi(aoi, np.array([False, True, False]))
    assert aoi.delta.tolist() == [2, 1, 2]
    aoi = step_aoi(aoi, np.array([False, False, False]))
    assert aoi.delta.tolist() == [3, 2, 3]


def test_scheme_equivalence_with_subset_enumeration():
    """Top-K by update index maximizes the drift-minimizing subset objective
    sum (theta_i + w_i) p_i q_i^2 with theta_i = omega_bar_i (1 - p pi)/(p pi),
    checked against exhaustive enumeration of all C(N, K) subsets."""
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        fleet = make_fleet(n, k=k)
        pi = waterfill(fleet).pi
        p = fleet.array("p")
        omega_bar = fleet.array("omega_bar")
        theta = omega_bar * (1.0 - p * pi) / (p * pi)
        q = rng.normal(0, 3, size=n)
        w_next = rng.choice([1.0, 100.0], size=n)
        terms = (theta + w_next) * p * q ** 2
        indices = index_factor(w_next, omega_bar, p, pi) * q ** 2
        assert indices == pytest.approx(terms)  # Definition-2 index == subset term
        best = max(sum(terms[list(sub)]) for sub in
                   itertools.combinations(range(n), min(k, n)))
        chosen = schedule_topk(indices, k)
        assert sum(terms[chosen]) == pytest.approx(best)


def test_waterfill_random_instances_against_grid_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        d = rng.uniform(0.2, 3.0, size=n)
        pol = waterfill_from_widths(d, k)
        assert pol.objective <= grid_min_objective(d, k) + 1e-6
        assert kkt_residual(d, k, pol) < 1e-6


def test_stationary_schedule_marginals_and_feasibility():
    fleet = make_fleet(6, k=2)
    pi = waterfill(fleet).pi
    trials = 20000
    decisions = schedule_stationary(pi, np.random.default_rng(5).random(trials))
    assert decisions.sum(axis=1).max() <= 2
    assert decisions.mean(axis=0) == pytest.approx(pi, abs=0.01)
