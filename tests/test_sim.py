"""Simulator loops against step-operation references and stream contracts."""

import bisect
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (COLLISION, AoIState, ErrorQueue, ThresholdState, adapt_threshold_state,
                      certainty_equivalent_control, contention_window, decide_update,
                      desk_terminal, desk_weights, fleet_weights, make_fleet,
                      make_single_updater, multi_update_index, periodic_step,
                      round_robin_ids, schedule_aoi, schedule_topk, stationary_ids,
                      step_aoi, step_error, step_plant, step_virtual_queue,
                      table_lookup, uoi)
from uoi_sim import sim
from uoi_sim.core import (ConstantWeights, FieldError, GaussianIncrements, TerminalParams,
                          TwoPointWeights, sample_channel_block)
from uoi_sim.csma import ContentionConfig, default_delta_j
from uoi_sim.harness import config_from_dict, export, run
from uoi_sim.mdp import MdpGrid, StationaryPolicyTable
from uoi_sim.multi import FleetConfig, waterfill
from uoi_sim.rng import KINDS, StreamFactory
from uoi_sim.sim import (POLICY_TABLE, FleetLane, age_threshold_for_budget, run_fleet_lanes,
                         run_single, stderr_from_batches)

# The rules that run without a policy table (control also runs rvi-aoi).
SINGLE_RULES = ("adaptive", "periodic", "random", "age-threshold")


def _fractional_table(cost_kind: str, q_max: float | None = None,
                      weights=None) -> StationaryPolicyTable:
    """A hand-made policy table with many states between never and always
    transmitting, so the policy coin is drawn; `q_max` narrows the default
    grid (25 sigma) so that the error leaves it, and the grid's weight
    support is that of `weights` (the desk weights by default)."""
    grid = MdpGrid.default(1.0, (weights or desk_weights()).support())
    if q_max is not None:
        grid = replace(grid, q_max=q_max)
    if cost_kind == "aoi":
        table = np.clip((np.arange(1, 201) - 3.0) / 4.0, 0.0, 1.0)
    else:  # lower threshold when the next weight is high
        nw = len(grid.weight_support)
        q = np.abs(grid.q_values)[:, None, None]
        table = np.clip((q - np.array([1.0, 0.5])[None, None, :nw]) / 2.0, 0.0, 1.0)
        table = np.broadcast_to(table, (len(grid.q_values), nw, nw)).copy()
    return StationaryPolicyTable(cost_kind=cost_kind, table=table, avg_cost=0.0,
                                 avg_freq=0.0, lam=0.0, grid=grid, gain=0.0, iterations=0,
                                 edge_mass=None)


@pytest.mark.parametrize("policy,kind", [("rvi-uoi", "aoi"), ("rvi-aoi", "uoi")])
def test_run_single_rejects_a_policy_table_of_the_other_kind(policy, kind):
    factory = StreamFactory(3)
    with pytest.raises(ValueError, match=f"needs a solved '{policy[4:]}' policy_table"):
        run_single(desk_terminal(), desk_weights(), 0.25, 1.0, policy=policy, horizon=100,
                   factory=factory, policy_table=_fractional_table(kind))
    assert factory.draw_counts() == {}


def _decide(policy, state, w_next, coin, credit, age_m):
    """One slot of a single-terminal rule from the step operations:
    (transmit decision, periodic credit after the slot)."""
    if policy == "adaptive":
        return decide_update(state, omega_next=w_next), credit
    if policy == "periodic":
        return periodic_step(credit, state.vq.rho)
    if policy == "random":
        return int(coin < state.vq.rho), credit
    return int(state.eq.age >= age_m), credit


def _reference_single_run(params, weights, rho, v, horizon, seed, policy, table=None,
                          thresholds=None):
    """Slot loop built purely from the step operations and domain types; a
    table policy draws the policy coin only where it is fractional.  Returns
    (average UoI, attempts, final H, violation probability, trace rows, coins
    a table policy flips), a slot violating where |Q| exceeds the `thresholds`
    bound of its weight."""
    factory = StreamFactory(seed)
    w = weights.sample_block(factory.stream("weight", params.id), 0, horizon + 1).tolist()
    inc = GaussianIncrements(params.sigma2).sample_block(
        factory.stream("increment", params.id), 0, horizon).tolist()
    s = sample_channel_block(factory.stream("channel", params.id), params.p, horizon)
    coins = factory.stream("policy", params.id).uniform(horizon)
    age_m = age_threshold_for_budget(params.p, rho)
    bounds = thresholds or {}
    state = make_single_updater(params, rho, v)
    total = 0.0
    attempts = 0
    credit = 0.0
    n_coins = 0
    violations = 0
    rows = []
    for t in range(horizon):
        cost = uoi(w[t], state.eq.q)
        total += cost
        rows.append((t, state.vq.h, state.eq.q, cost))
        violations += abs(state.eq.q) > bounds.get(w[t], math.inf)
        if table is None:
            u, credit = _decide(policy, state, w[t + 1], coins[t], credit, age_m)
        else:
            prob = table_lookup(table, state.eq.q, w[t], w[t + 1], state.eq.age)
            u = int(prob >= 1.0)
            if 0.0 < prob < 1.0:
                u = int(coins[n_coins] < prob)
                n_coins += 1
        attempts += u
        state = replace(state, vq=step_virtual_queue(state.vq, u) if policy == "adaptive"
                        else state.vq,
                        eq=step_error(state.eq, u, int(s[t]), inc[t]))
    return total / horizon, attempts, state.vq.h, violations / horizon, rows, n_coins


# (policy, q_max of the rvi-uoi grid, horizon, n_batches, weights): q_max =
# 2 sigma clamps the error to the grid's edge bins, one 10 000-slot batch
# spans several of the loops' blocks, so the periodic credit, the age index
# and the coin buffer carry across block edges, and constant weights give
# the rvi-uoi table one weight pair.
@pytest.mark.parametrize("policy,q_max,horizon,n_batches,weights", [
    *(pytest.param(policy, None, 5000, 10, desk_weights(), id=policy)
      for policy in SINGLE_RULES + ("rvi-uoi", "rvi-aoi")),
    pytest.param("rvi-uoi", 2.0, 5000, 10, desk_weights(), id="rvi-uoi-qmax2"),
    *(pytest.param(policy, None, 10_000, 1, desk_weights(), id=f"{policy}-long")
      for policy in SINGLE_RULES + ("rvi-uoi", "rvi-aoi")),
    pytest.param("rvi-uoi", None, 5000, 10, ConstantWeights(1.0), id="rvi-uoi-constant"),
])
def test_run_single_matches_step_operation_reference(policy, q_max, horizon, n_batches,
                                                     weights):
    params = desk_terminal()
    thresholds = {1.0: 2.0, 100.0: 1.0}
    table = _fractional_table(policy[4:], q_max, weights) if policy.startswith("rvi") else None
    avg_ref, attempts_ref, h_ref, violation_ref, rows_ref, coins_ref = _reference_single_run(
        params, weights, 0.25, 1.0, horizon=horizon, seed=909, policy=policy,
        table=table, thresholds=thresholds)
    factory = StreamFactory(909)
    res = run_single(params, weights, rho=0.25, v=1.0,
                     policy=policy, horizon=horizon, factory=factory,
                     thresholds=thresholds, n_batches=n_batches, trace=True,
                     policy_table=table)
    # the policy stream is drawn 256 coins at a time: random takes one per
    # slot, a table rule one per fractional entry it meets
    coins = {"random": horizon, "rvi-uoi": coins_ref, "rvi-aoi": coins_ref}.get(policy, 0)
    assert factory.draw_counts(("policy",)) == {("policy", 0): -(-coins // 256) * 256}
    assert res.avg_uoi == pytest.approx(avg_ref, rel=1e-12)
    assert res.update_freq[0] == pytest.approx(attempts_ref / horizon, abs=0)
    assert res.extras["final_h"] == pytest.approx(h_ref, rel=1e-12)
    assert res.extras["attempts"] == attempts_ref
    assert res.violation_prob == violation_ref
    assert res.trace.tolist() == rows_ref


@pytest.mark.parametrize("weights", [TwoPointWeights(w_lo=1.0, w_hi=5.0, prob_hi=0.5),
                                     ConstantWeights(200.0)])
def test_rvi_uoi_rejects_a_weight_outside_its_table(weights):
    # 5 lies between the grid's weights 1 and 100, 200 above them: neither
    # has a row of the table
    bad = weights.support()[-1][0]
    with pytest.raises(ValueError, match=rf"weight {bad} is not in the policy table's "
                                         r"weight_support \(\(1\.0, 0\.99\), \(100\.0, 0\.01\)\)"):
        run_single(desk_terminal(), weights, 0.25, 1.0, policy="rvi-uoi", horizon=5000,
                   factory=StreamFactory(4), policy_table=_fractional_table("uoi"))


@pytest.mark.parametrize("cut", [
    pytest.param(np.s_[:-1], id="short"),
    pytest.param(np.s_[:, :1, :1], id="one-weight"),
    pytest.param(None, id="long"),
])
def test_rvi_uoi_rejects_a_table_not_of_its_grid_shape(cut):
    table = _fractional_table("uoi", q_max=2.0)
    bad = (np.concatenate((table.table, table.table[:1])) if cut is None
           else table.table[cut])
    factory = StreamFactory(4)
    with pytest.raises(ValueError, match=re.escape(
            f"table has shape {bad.shape}, its grid needs {table.table.shape}")):
        run_single(desk_terminal(), desk_weights(), 0.25, 1.0, policy="rvi-uoi", horizon=100,
                   factory=factory, policy_table=replace(table, table=bad))
    assert factory.draw_counts() == {}


def _nearest_bin(q: float, q_max: float, q_step: float) -> int:
    """The q bin of a uoi table row, as `table_lookup` finds it."""
    return int(round((min(max(q, -q_max), q_max) + q_max) / q_step))


_ENTRY = st.one_of(st.sampled_from([0, 1, 0.0, 1.0, 0.5]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([(25.0, 0.25), (8.0, 0.5), (3.0, 0.3)]), data=st.data())
def test_q_runs_read_the_entry_of_the_nearest_bin_at_every_float(grid, data):
    # the 0/1 entries as ints or floats, so that equal values of two types
    # stay apart; the queries are every bin's half-step and its neighbours,
    # the edges found and their lower neighbours, the clamp's bounds and
    # the floats past them, the infinities, both zeros and random floats
    q_max, q_step = grid
    n = 2 * round(q_max / q_step) + 1
    row = data.draw(st.lists(_ENTRY, min_size=1, max_size=8).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    edges, runs = sim._q_runs(row, q_max, q_step)
    halves = [(k - 0.5) * q_step - q_max for k in range(1, n)]
    queries = [*halves, *edges, q_max, -q_max, math.inf, -math.inf, 0.0, -0.0,
               math.nextafter(q_max, math.inf), math.nextafter(-q_max, -math.inf),
               *data.draw(st.lists(st.floats(allow_nan=False), max_size=50))]
    queries += [math.nextafter(x, d) for x in halves + edges for d in (math.inf, -math.inf)]
    for q in queries:
        got, want = runs[bisect.bisect_right(edges, q)], row[_nearest_bin(q, q_max, q_step)]
        assert (got.__class__, got) == (want.__class__, want), q


@pytest.mark.parametrize("k", [1, 399, 400, 401, 402, 800])
def test_q_runs_find_an_edge_in_few_bin_reads(k, monkeypatch):
    # 50 sigma / 0.125 sigma, 400 bins a side: a float-by-float walk read
    # up to 260 bins for an edge next to q = 0 (k = 400, 401)
    q_max, q_step = 50.0, 0.125
    q_bin, reads = sim._q_bin, []
    monkeypatch.setattr(sim, "_q_bin", lambda *args: reads.append(args) or q_bin(*args))
    edges, runs = sim._q_runs([0] * k + [1] * (801 - k), q_max, q_step)
    assert runs == [0, 1] and len(reads) <= 60
    assert q_bin(math.nextafter(edges[0], -math.inf), q_max, q_step) < k
    assert q_bin(edges[0], q_max, q_step) == k


@pytest.mark.parametrize("entry", [math.nan, -0.25, 1.5])
@pytest.mark.parametrize("policy", ["rvi-uoi", "rvi-aoi"])
def test_table_rules_reject_an_entry_that_is_not_a_probability(policy, entry):
    table = _fractional_table(policy[4:])
    bad = table.table.copy()
    bad.reshape(-1)[len(bad) // 2] = entry
    with pytest.raises(ValueError, match=r"probabilities in \[0, 1\]"):
        run_single(desk_terminal(), desk_weights(), 0.25, 1.0, policy=policy, horizon=100,
                   factory=StreamFactory(4), policy_table=replace(table, table=bad))


def _reference_tracking_run(a, b, reference, weights, policy, rho, v, p, horizon, seed,
                            thresholds=None):
    """The tracking loop of the plant x' = a x + b v + r, with unit noise
    variance, rebuilt from the plant-level step and the step operations;
    the error queue holds the estimation error x - x_hat, and
    slot t adds the noise drawn for slot t - 1.  Returns the averages of the
    tracking, estimation and embedded UoI costs, the attempt frequency and
    the number of slots whose |tracking error| is over the bound that
    `thresholds` maps the slot's weight to."""
    factory = StreamFactory(seed)
    w = weights.sample_block(factory.stream("weight", 0), 0, horizon + 1)
    noise = factory.stream("increment", 0).normal(horizon)
    noise = np.concatenate(([0.0], noise[:-1]))
    s = sample_channel_block(factory.stream("channel", 0), p, horizon)
    coins = factory.stream("policy", 0).uniform(horizon)
    age_m = age_threshold_for_budget(p, rho)
    params = TerminalParams(id=0, p=p, sigma2=1.0, omega_bar=weights.mean)
    state = make_single_updater(params, rho, v)
    track = est = embedded = 0.0
    attempts = violations = 0
    credit = 0.0
    x = x_hat = 0.0
    for t in range(horizon):
        est += uoi(w[t], x - x_hat)
        y = reference(t)
        x, x_hat = step_plant(a, b, x, x_hat, certainty_equivalent_control(a, b, x_hat, y),
                              noise[t])
        track += uoi(w[t], x - y)
        violations += abs(x - y) > (thresholds or {}).get(w[t], math.inf)
        state = replace(state, eq=replace(state.eq, q=x - x_hat))
        embedded += uoi(w[t], state.eq.q)
        u, credit = _decide(policy, state, w[t + 1], coins[t], credit, age_m)
        attempts += u
        if u and s[t]:
            x_hat = x
        state = replace(state, vq=step_virtual_queue(state.vq, u) if policy == "adaptive"
                        else state.vq,
                        eq=step_error(state.eq, u, int(s[t]), 0.0))
    return track / horizon, est / horizon, embedded / horizon, attempts / horizon, violations


# References: the constant 0, and a sinusoid far from it, which run_single
# never reads, since the tracking error does not depend on it.
_REFERENCES = {"const": lambda t: 0.0,
               "sine": lambda t: 50.0 + 3.0 * math.sin(2.0 * math.pi * t / 200.0)}


@pytest.mark.parametrize("policy,horizon,n_batches,a,b,ref", [
    pytest.param(policy, horizon, n_batches, a, b, ref,
                 id=name + ("" if (a, b) == (0.9, 0.5) else f"-a{a:g}-b{b:g}")
                 + ("" if ref == "sine" else f"-{ref}"))
    for a in (0.9, 1.1) for b in (0.5, 2.0) for ref in _REFERENCES
    for policy, horizon, n_batches, name in (
        *((policy, 4000, 10, policy) for policy in SINGLE_RULES),
        ("adaptive", 10_000, 1, "adaptive-long"))
])
def test_run_tracking_matches_step_operation_reference(policy, horizon, n_batches, a, b, ref):
    track_ref, est_ref, uoi_ref, freq_ref, _ = _reference_tracking_run(
        a, b, _REFERENCES[ref], desk_weights(), policy, 0.25, 1.0, 0.8, horizon=horizon,
        seed=404)
    # under certainty-equivalent control the error the policy reads is the
    # tracking error, so the embedded UoI is the tracking cost
    assert uoi_ref == pytest.approx(track_ref, rel=1e-12)
    params = TerminalParams(id=0, p=0.8, sigma2=1.0, omega_bar=desk_weights().mean)
    res = run_single(params, desk_weights(), rho=0.25, v=1.0, policy=policy,
                     horizon=horizon, factory=StreamFactory(404), n_batches=n_batches, a=a)
    assert res.avg_uoi == pytest.approx(track_ref, rel=1e-12)
    assert res.extras["avg_est_cost"] == pytest.approx(est_ref, rel=1e-12)
    assert res.update_freq[0] == pytest.approx(freq_ref, abs=0)


def test_control_run_counts_the_plant_oracles_violations():
    # the control scenario's violation_prob counts the slots whose |tracking
    # error| is over the bound of the slot's weight
    thresholds = {1.0: 2.0, 100.0: 1.0}
    rows = run(config_from_dict({
        "scenario": "control", "horizon": 4000, "seed": 404, "rho": 0.25, "v": 1.0,
        "policies": list(SINGLE_RULES), "terminal": {"p": 0.8},
        "control": {"a": 1.1, "b": 2.0, "noise_var": 1.0},
        "thresholds": {str(w): bound for w, bound in thresholds.items()}}))
    for m in rows:
        *_, violations = _reference_tracking_run(
            1.1, 2.0, _REFERENCES["sine"], desk_weights(), m.policy, 0.25, 1.0, 0.8,
            horizon=4000, seed=404, thresholds=thresholds)
        assert violations > 0
        assert m.violation_prob == violations / 4000


def _outputs(res):
    return (res.avg_uoi, res.batch_means.tolist(), res.update_freq.tolist(),
            res.violation_prob, res.extras, res.trace.tolist())


def test_single_terminal_loops_do_not_depend_on_the_block_length(monkeypatch):
    # 7-slot blocks split every batch (50 slots, the last 53) at odd places
    params, weights = desk_terminal(), desk_weights()

    def runs():
        out = []
        for a in (1.0, 0.9):
            for policy in POLICY_TABLE["single"].policies:
                table = _fractional_table(policy[4:]) if policy.startswith("rvi") else None
                out.append(_outputs(run_single(
                    params, weights, 0.25, 1.0, policy, horizon=503, factory=StreamFactory(5),
                    thresholds={1.0: 2.0, 100.0: 1.0}, trace=True, policy_table=table, a=a)))
        return out

    default = runs()
    monkeypatch.setattr(sim, "_BLOCK", 7)
    assert runs() == default


FLEET_THRESHOLDS = {1.0: 4.0, 100.0: 1.5}


def _violations(w, queues, t):
    """Terminals whose |q| in slot t exceeds the FLEET_THRESHOLDS bound of
    their weight w_t; a weight without a bound never violates."""
    return sum(abs(queue.q) > FLEET_THRESHOLDS.get(w_i[t], math.inf)
               for w_i, queue in zip(w, queues))


def _reference_fleet_run(fleet, weights, pi, horizon, seed, scheduler="centralized", rep=0):
    """(average UoI, violation probability, per-terminal attempts) of
    centralized index, AoI, round-robin or stationary scheduling rebuilt
    from the step operations."""
    factory = StreamFactory(seed, rep)
    n = fleet.n
    w = [weights.sample_block(factory.stream("weight", i), 0, horizon + 1) for i in range(n)]
    inc = [GaussianIncrements(fleet.terminals[i].sigma2).sample_block(
        factory.stream("increment", i), 0, horizon) for i in range(n)]
    s = [sample_channel_block(factory.stream("channel", i),
                              fleet.terminals[i].p, horizon) for i in range(n)]
    coins = factory.stream("scheduler", 0).uniform(horizon).tolist()
    queues = [ErrorQueue() for _ in range(n)]
    ages = AoIState.fresh(n)
    total = 0.0
    violations, attempts = 0, [0] * n
    for t in range(horizon):
        total += sum(uoi(w[i][t], queues[i].q) for i in range(n)) / n
        violations += _violations(w, queues, t)
        if scheduler == "aoi":
            chosen = set(schedule_aoi(ages, fleet))
        elif scheduler == "round-robin":
            chosen = set(round_robin_ids(t, n, fleet.k))
        elif scheduler == "stationary":
            chosen = set(stationary_ids(pi, coins[t]))
        else:
            indices = [multi_update_index(fleet.terminals[i], pi[i], w[i][t + 1], queues[i].q)
                       for i in range(n)]
            chosen = set(schedule_topk(indices, fleet.k))
        for i in chosen:
            attempts[i] += 1
        delivered = np.array([i in chosen and bool(s[i][t]) for i in range(n)])
        ages = step_aoi(ages, delivered)
        queues = [step_error(queues[i], int(i in chosen), int(s[i][t]), inc[i][t])
                  for i in range(n)]
    return total / horizon, violations / (n * horizon), attempts


def _check_against_reference(fleet, scheduler, horizon, seed):
    """Run one `scheduler` lane with FLEET_THRESHOLDS and check its average
    UoI, violation probability and attempts against the step operations."""
    weights = fleet_weights()
    avg, violation_prob, attempts = _reference_fleet_run(
        fleet, weights, waterfill(fleet).pi, horizon, seed, scheduler)
    res = run_fleet_lanes(fleet, weights, [FleetLane(scheduler, StreamFactory(seed))],
                          horizon=horizon, thresholds=FLEET_THRESHOLDS)[0]
    assert res.avg_uoi == pytest.approx(avg, rel=1e-12)
    assert res.violation_prob == violation_prob > 0.0
    assert (res.update_freq * horizon).round().astype(int).tolist() == attempts


def test_run_fleet_matches_operation_reference():
    _check_against_reference(make_fleet(4, k=2), "centralized", horizon=2000, seed=31)


def test_run_fleet_aoi_matches_operation_reference():
    _check_against_reference(make_fleet(5, k=2), "aoi", horizon=2000, seed=32)


@pytest.mark.parametrize("k", [1, 2, 5, 7])
@pytest.mark.parametrize("scheduler", ["aoi", "centralized"])
def test_top_k_ties_go_to_the_lowest_id(scheduler, k):
    # equal p: the age index ties in every slot, every update index ties at
    # q = 0 in slot 0, and k >= N = 5 sends every terminal
    fleet = FleetConfig.spread(5, k, 0.8, 0.8, 1.0, fleet_weights().mean)
    _check_against_reference(fleet, scheduler, horizon=1000, seed=36)


@pytest.mark.parametrize("scheduler", ["round-robin", "stationary"])
def test_run_fleet_blind_schedulers_match_operation_reference(scheduler):
    _check_against_reference(make_fleet(5, k=2), scheduler, horizon=1000, seed=33)


@pytest.mark.parametrize("elements,n_batches", [(37 * 5, 10), (300 * 5, 1), (1 << 17, 1)])
def test_stationary_coins_are_those_of_a_buffered_stream(elements, n_batches, monkeypatch):
    # blocks of 37 slots (several per 256-coin buffer), 300 (a buffer and a
    # part) and one of 1000: the coins and the draw count are a Buffered's
    fleet = make_fleet(5, k=2)
    ref = _reference_fleet_run(fleet, fleet_weights(), waterfill(fleet).pi, horizon=1000,
                               seed=33, scheduler="stationary")[0]
    monkeypatch.setattr(sim, "_LANE_ELEMENTS", elements)
    factory = StreamFactory(33)
    res = run_fleet_lanes(fleet, fleet_weights(), [FleetLane("stationary", factory)],
                          horizon=1000, n_batches=n_batches)[0]
    assert res.avg_uoi == pytest.approx(ref, rel=1e-12)
    assert factory.draw_counts(("scheduler",)) == {("scheduler", 0): 1024}


def _reference_csma_run(fleet, weights, pi, cfg, delta_j, horizon, seed, rep=0):
    """(average UoI, violation probability, attempts, final threshold,
    largest update index, window monitors) of the csma scheduler rebuilt
    from the step operations, and the run's stream factory."""
    factory = StreamFactory(seed, rep)
    n = fleet.n
    scale = math.sqrt(cfg.slot_scale)
    w = [weights.sample_block(factory.stream("weight", i), 0, horizon + 1) for i in range(n)]
    inc = [GaussianIncrements(fleet.terminals[i].sigma2).sample_block(
        factory.stream("increment", i), 0, horizon) * scale for i in range(n)]
    s = [sample_channel_block(factory.stream("channel", i),
                              fleet.terminals[i].p, horizon) for i in range(n)]

    def backoff_draws(stream):  # 256 backoffs per draw, as the simulator draws them
        while True:
            yield from stream.integers(256, cfg.w).tolist()

    backoffs = [backoff_draws(factory.stream("backoff", i)) for i in range(n)]
    queues = [ErrorQueue() for _ in range(n)]
    threshold = ThresholdState(j_th=0.0, delta_j=delta_j)
    attempts = [0] * n
    total = 0.0
    violations = window_len = colliders = idle = 0
    max_index = 0.0
    for t in range(horizon):
        total += sum(uoi(w[i][t], queues[i].q) for i in range(n)) / n
        violations += _violations(w, queues, t)
        indices = [multi_update_index(fleet.terminals[i], pi[i], w[i][t + 1], queues[i].q)
                   for i in range(n)]
        max_index = max(max_index, *indices)
        active = [i for i in range(n) if indices[i] > threshold.j_th]
        window = contention_window({i: next(backoffs[i]) for i in active}, cfg.w, cfg.k)
        threshold = adapt_threshold_state(threshold, window, cfg)
        window_len += window.window_len
        colliders += len(window.collided)
        idle += window.idle_channels
        sent = set(window.reservations.values()) - {COLLISION}
        for i in sent.union(window.collided):
            attempts[i] += 1
        queues = [step_error(queues[i], int(i in sent), int(s[i][t]), inc[i][t])
                  for i in range(n)]
    monitors = {"mean_window_len": window_len / horizon,
                "expected_window": cfg.expected_window,
                "colliders_per_window": colliders / horizon,
                "idle_channels_per_window": idle / horizon}
    return (total / horizon, violations / (n * horizon), attempts, threshold.j_th, max_index,
            monitors, factory)


def _csma_delta_j(fleet, cfg):
    return default_delta_j(fleet.array("omega_bar"), fleet.array("sigma2") * cfg.slot_scale)


@pytest.mark.parametrize("n,k,w", [
    pytest.param(6, 2, 2, id="2"), pytest.param(6, 2, 4, id="4"),
    pytest.param(6, 2, 16, id="16"), pytest.param(6, 1, 1, id="k1-w1"),
    pytest.param(6, 1, 8, id="k1-w8"), pytest.param(6, 3, 3, id="k3-w3"),
    pytest.param(6, 3, 16, id="k3-w16"),
    # W = K = 2: a window never closes early, so the threshold never rises
    # and most of the 12 terminals contend in most slots
    pytest.param(12, 2, 2, id="storm-n12-k2-w2")])
def test_run_fleet_csma_matches_operation_reference(n, k, w, monkeypatch):
    fleet = make_fleet(n, k=k)
    pi = waterfill(fleet).pi
    weights = fleet_weights()
    cfg = ContentionConfig(w=w, k=k)
    delta_j = _csma_delta_j(fleet, cfg)
    avg, violation_prob, attempts, j_th, max_index, monitors, ref_factory = _reference_csma_run(
        fleet, weights, pi, cfg, delta_j=delta_j, horizon=1500, seed=34)
    factory = StreamFactory(34)
    monkeypatch.setattr(sim, "_LANE_ELEMENTS", 97 * fleet.n)   # 97-slot blocks
    res = run_fleet_lanes(fleet, weights, [FleetLane("distributed", factory, window=w)],
                          horizon=1500, thresholds=FLEET_THRESHOLDS)[0]
    assert res.avg_uoi == pytest.approx(avg, rel=1e-12)
    assert res.violation_prob == violation_prob > 0.0
    assert (res.update_freq * 1500).round().astype(int).tolist() == attempts
    assert res.extras["final_j_th"] == pytest.approx(j_th, rel=1e-12)
    assert res.extras["max_index"] == pytest.approx(max_index, rel=1e-12)
    assert res.extras["delta_j"] == delta_j
    assert {key: res.extras[key] for key in monitors} == monitors
    assert factory.draw_counts() == ref_factory.draw_counts()


def test_fleet_violations_of_two_replications_match_the_references(monkeypatch):
    # two (seed, replication) groups of five lanes each, one call: the
    # bounds are looked up per group and gathered to its lanes
    fleet = make_fleet(5, k=2)
    pi = waterfill(fleet).pi
    weights = fleet_weights()
    cfg = ContentionConfig(w=4, k=2)
    schedulers = ("centralized", "aoi", "round-robin", "stationary", "distributed")
    lanes = [_lane(sched, StreamFactory(37, rep)) for rep in (0, 1) for sched in schedulers]
    monkeypatch.setattr(sim, "_LANE_ELEMENTS", 61 * len(lanes) * fleet.n)   # 61-slot blocks
    results = run_fleet_lanes(fleet, weights, lanes, horizon=400, thresholds=FLEET_THRESHOLDS)
    for lane, res in zip(lanes, results):
        rep = lane.factory.replication
        if lane.policy == "distributed":
            want = _reference_csma_run(fleet, weights, pi, cfg, _csma_delta_j(fleet, cfg),
                                       horizon=400, seed=37, rep=rep)[1]
        else:
            want = _reference_fleet_run(fleet, weights, pi, 400, 37, lane.policy, rep=rep)[1]
        assert res.violation_prob == want > 0.0, (lane.policy, rep)


def _fleet_outputs(res, factory):
    """Every output of a fleet run, floats as hex, and its stream draw counts."""
    return (res.avg_uoi.hex(), [x.hex() for x in res.batch_means],
            [x.hex() for x in res.update_freq], res.violation_prob, res.extras,
            None if res.trace is None else res.trace.tolist(), factory.draw_counts())


def _predrawn(seed, rep):
    """A factory whose terminal-0 weight stream has drawn 11 variates."""
    factory = StreamFactory(seed, rep)
    factory.stream("weight", 0).uniform(11)
    return factory


def _lane(policy, factory, trace=False, w=4):
    """A lane of `policy`; a distributed lane contends in a window of w mini-slots."""
    return FleetLane(policy, factory, trace, w if policy == "distributed" else None)


def _one_lane(fleet, lane, predrawn=False):
    """Every output of `lane` run alone, on a fresh factory of its seed and
    replication (predrawn: see `_predrawn`)."""
    seed, rep = lane.factory.seed, lane.factory.replication
    factory = _predrawn(seed, rep) if predrawn else StreamFactory(seed, rep)
    res = run_fleet_lanes(fleet, fleet_weights(), [lane._replace(factory=factory)],
                          horizon=503, thresholds=FLEET_THRESHOLDS, n_batches=7)[0]
    return _fleet_outputs(res, factory)


def test_run_fleet_block_size_invariance(monkeypatch):
    # every policy in 1-slot blocks, blocks that do not divide the
    # 503-slot horizon or its 71-slot batches, and one block for the run
    fleet = make_fleet(4, k=2)

    def runs(policy):
        for blk in (1, 7, 64, 10**6):
            monkeypatch.setattr(sim, "_LANE_ELEMENTS", blk * fleet.n)
            yield _one_lane(fleet, _lane(policy, StreamFactory(77, 0), trace=True))

    for policy in sorted(sim._FLEET_POLICIES):
        outputs = list(runs(policy))
        assert all(run == outputs[0] for run in outputs), policy


def test_fleet_chunk_and_block_slicing_invariance(monkeypatch):
    # two (seed, replication) groups of distributed lanes at W = 4 and 16 beside
    # centralized and aoi lanes: G = 2 groups sample the common streams in
    # chunks of E // (G N) slots, which the E // (L N)-slot blocks of L = 8
    # lanes slice.  Chunks of 1 slot, ends mid-batch (50 slots), on the
    # 71-slot batch ends (71, 142) and past the 503-slot horizon.
    fleet = make_fleet(4, k=2)
    groups = 2
    chunks = (1, 50, 71, 142, 10**6)

    def run(chunk):
        lanes = [_lane(sched, StreamFactory(78, rep), trace=rep == 0, w=w)
                 for rep in range(groups)
                 for sched, w in (("distributed", 4), ("distributed", 16), ("centralized", 4),
                                  ("aoi", 4))]
        monkeypatch.setattr(sim, "_LANE_ELEMENTS", chunk * groups * fleet.n)
        results = sim.run_fleet_lanes(fleet, fleet_weights(), lanes, horizon=503,
                                      thresholds=FLEET_THRESHOLDS, n_batches=7)
        return [_fleet_outputs(res, lane.factory) for lane, res in zip(lanes, results)]

    outputs = [run(chunk) for chunk in chunks]
    assert all(out == outputs[0] for out in outputs[1:])


def test_fleet_lanes_match_their_one_lane_runs(monkeypatch):
    # every policy, csma's centralized, distributed lanes at W = 2, 4 and 16
    # in one call, 2 replications, trace on replication 0; lanes given out of
    # policy order; 37-slot blocks
    fleet = make_fleet(5, k=2)
    schedulers = (("stationary", 4), ("distributed", 4), ("aoi", 4), ("distributed", 16),
                  ("round-robin", 4), ("centralized", 4), ("distributed", 2), ("centralized", 4))
    lanes = [_lane(sched, StreamFactory(41, rep), trace=rep == 0, w=w)
             for sched, w in schedulers for rep in (0, 1)]
    monkeypatch.setattr(sim, "_LANE_ELEMENTS", 37 * len(lanes) * fleet.n)
    results = sim.run_fleet_lanes(
        fleet, fleet_weights(), lanes, horizon=503,
        thresholds=FLEET_THRESHOLDS, n_batches=7)
    monkeypatch.undo()
    for lane, res in zip(lanes, results):
        assert _fleet_outputs(res, lane.factory) == _one_lane(fleet, lane)


def test_fleet_lanes_share_common_draws(monkeypatch):
    # 3 replications of every policy, distributed beside centralized, lanes out
    # of order, and one factory of replication 1 whose weight stream drew
    # before the call: it keeps its own streams.  Each (seed, replication)
    # group builds the common streams once; the other lanes adopt them.
    fleet = make_fleet(5, k=2)
    schedulers = ("stationary", "distributed", "aoi", "round-robin", "centralized")
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs["spawn_key"])
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    lanes = [_lane(sched, StreamFactory(43, rep), trace=rep == 2)
             for rep in (2, 0, 1) for sched in schedulers]
    lanes.insert(4, sim.FleetLane("centralized", _predrawn(43, 1)))
    monkeypatch.setattr(sim, "_LANE_ELEMENTS", 37 * len(lanes) * fleet.n)   # 37-slot blocks
    results = sim.run_fleet_lanes(
        fleet, fleet_weights(), lanes, horizon=503,
        thresholds=FLEET_THRESHOLDS, n_batches=7)
    monkeypatch.undo()

    kinds = [KINDS[kind] for _, kind, _ in built]
    groups = 3 + 1
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "weight": groups * 5, "increment": groups * 5, "channel": groups * 5,
        "backoff": 3 * 5, "scheduler": 3}
    for i, (lane, res) in enumerate(zip(lanes, results)):
        assert _fleet_outputs(res, lane.factory) == _one_lane(
            fleet, lane, predrawn=i == 4), (i, lane.policy)


def test_fleet_lanes_reject_bad_input():
    fleet = make_fleet(3, k=2)
    weights = fleet_weights()
    lane = _lane("distributed", StreamFactory(1))
    # csma names the scenario; its fleet lane is the distributed policy
    for name in ("fifo", "csma"):
        with pytest.raises(ValueError, match="unknown fleet policy"):
            sim.run_fleet_lanes(fleet, weights,
                                [lane, sim.FleetLane(name, StreamFactory(1), window=4)])
    for bad in (sim.FleetLane("distributed", StreamFactory(1)),
                sim.FleetLane("centralized", StreamFactory(1), window=4)):
        with pytest.raises(ValueError, match="distributed lane needs a window"):
            sim.run_fleet_lanes(fleet, weights, [lane, bad])
    with pytest.raises(FieldError):   # W = 1 < K = 2
        sim.run_fleet_lanes(fleet, weights, [lane._replace(window=1)])
    shared = StreamFactory(1)
    with pytest.raises(ValueError, match="own StreamFactory"):
        sim.run_fleet_lanes(fleet, weights,
                            [sim.FleetLane("aoi", shared), sim.FleetLane("centralized", shared)],
                            horizon=10)
    assert shared.draw_counts() == {}
    assert sim.run_fleet_lanes(fleet, weights, []) == []


@pytest.mark.parametrize("policy", sim._FLEET_POLICIES)
def test_a_window_goes_with_a_distributed_lane_only(policy):
    # a distributed lane without a window, and any other lane with one, are
    # rejected before any stream is built
    factory = StreamFactory(1)
    lane = FleetLane(policy, factory, window=None if policy == "distributed" else 4)
    with pytest.raises(ValueError, match="distributed lane needs a window"):
        run_fleet_lanes(make_fleet(3, k=2), fleet_weights(), [lane])
    assert factory.draw_counts() == {}


@pytest.mark.parametrize("k,window", [(2, 1), (3, 2), (5, 4), (2, 16.5)])
def test_distributed_window_below_k_is_a_field_error(k, window):
    # K comes from the fleet, and ContentionConfig checks the window against
    # it before any lane builds a stream; a fractional W is rejected too, as
    # numpy would floor it in the backoff draws while the slot scale and the
    # expected window used it as given
    lanes = [FleetLane("centralized", StreamFactory(1)),
             FleetLane("distributed", StreamFactory(1), window=window)]
    with pytest.raises(FieldError) as exc:
        run_fleet_lanes(make_fleet(k + 1, k=k), fleet_weights(), lanes, horizon=10)
    assert exc.value.field == "w"
    assert [lane.factory.draw_counts() for lane in lanes] == [{}, {}]
    lanes[1] = lanes[1]._replace(window=k)   # W = K is the smallest window
    assert len(run_fleet_lanes(make_fleet(k + 1, k=k), fleet_weights(), lanes,
                               horizon=10)) == 2


def test_common_random_numbers_across_schedulers():
    fleet = make_fleet(5, k=2)
    counters = {}
    for sched in ("centralized", "aoi", "round-robin", "stationary"):
        factory = StreamFactory(12)
        run_fleet_lanes(fleet, fleet_weights(), [FleetLane(sched, factory)], horizon=3000)
        counters[sched] = factory.draw_counts(kinds=("weight", "increment", "channel"))
    baseline = counters["centralized"]
    assert all(c == baseline for c in counters.values())


def test_fleet_feasibility_every_scheduler():
    fleet = make_fleet(6, k=2)
    for sched in ("centralized", "aoi", "round-robin", "stationary"):
        res = run_fleet_lanes(fleet, fleet_weights(), [FleetLane(sched, StreamFactory(3))],
                              horizon=4000)[0]
        assert res.update_freq.sum() <= fleet.k + 1e-12


def test_csma_collisions_never_deliver():
    # W = K forces every contender into the same two mini-slots: frequent
    # collisions, and colliding data slots must never reset the error.
    fleet = make_fleet(4, k=2)
    lane = FleetLane("distributed", StreamFactory(9), window=2)
    res = run_fleet_lanes(fleet, fleet_weights(), [lane], horizon=3000)[0]
    assert res.extras["slot_scale"] == pytest.approx(1.02)
    assert res.avg_uoi > 0.0


def test_csma_threshold_stays_bounded():
    # j_th only rises when some index exceeded it, so it never outruns the
    # largest index seen plus one increment
    fleet = make_fleet(10, k=2)
    lane = FleetLane("distributed", StreamFactory(4), trace=True, window=16)
    res = run_fleet_lanes(fleet, fleet_weights(), [lane], horizon=20000)[0]
    j_th = res.trace["j_th"]
    assert np.isfinite(j_th).all()
    assert j_th.max() <= res.extras["max_index"] + res.extras["delta_j"]


def test_csma_variance_scaled_by_slot_length():
    # N = K = 1: both schemes transmit almost every slot, so the average
    # UoI is proportional to the per-slot increment variance; the csma run
    # with W = 100 doubles the slot and must double the error variance.
    fleet = make_fleet(1, k=1)
    weights = fleet_weights()
    plain = run_fleet_lanes(fleet, weights, [FleetLane("centralized", StreamFactory(88))],
                            horizon=10**5)[0]
    lane = FleetLane("distributed", StreamFactory(88), window=100)
    scaled = run_fleet_lanes(fleet, weights, [lane], horizon=10**5)[0]
    assert scaled.extras["slot_scale"] == pytest.approx(2.0)
    assert scaled.avg_uoi / plain.avg_uoi == pytest.approx(2.0, rel=0.1)
    assert scaled.extras["wallclock_avg_uoi"] == pytest.approx(scaled.avg_uoi / 2.0)


def test_run_single_determinism_bitwise():
    params = desk_terminal()
    a = run_single(params, desk_weights(), 0.25, 1.0, horizon=20000,
                   factory=StreamFactory(55))
    b = run_single(params, desk_weights(), 0.25, 1.0, horizon=20000,
                   factory=StreamFactory(55))
    assert a.avg_uoi == b.avg_uoi
    assert np.array_equal(a.batch_means, b.batch_means)


def test_age_threshold_budget():
    assert age_threshold_for_budget(0.8, 0.25) == 5
    assert age_threshold_for_budget(1.0, 0.25) == 4
    assert age_threshold_for_budget(1.0, 1.0) == 1
    # attempt frequency stays within the budget at the renewal level
    for p, rho in [(0.8, 0.25), (0.6, 0.1), (1.0, 0.5)]:
        m = age_threshold_for_budget(p, rho)
        freq = (1 / p) / ((m - 1) + 1 / p)
        assert freq <= rho + 1e-12


def test_age_threshold_plan_memory_follows_the_horizon():
    # at rho = 1e-7 the threshold is about 1.25e7 slots; a 1000-slot run
    # must not hold a list of that length
    for a in (1.0, 0.9):
        tracemalloc.start()
        try:
            res = run_single(desk_terminal(), desk_weights(), rho=1e-7, v=1.0,
                             policy="age-threshold", horizon=1000, factory=StreamFactory(3),
                             a=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert np.all(res.update_freq == 0.0)


def test_a_long_trace_is_one_array_and_exports_in_chunks(tmp_path):
    # a traced slot holds 32 bytes, (t, h, q, f), and the jsonl export never
    # holds the whole trace as rows or as one string: at T = 10^5 its peak
    # reads 1.1 MiB, where a list of row tuples encoded in one json.dumps
    # peaked at 10.7 MiB
    T = 10**5
    rows = run(config_from_dict({"scenario": "single", "horizon": T, "seed": 3, "trace": True}))
    assert rows[0].trace.nbytes == 32 * T
    tracemalloc.start()
    try:
        export(rows, "jsonl", str(tmp_path / "trace.jsonl"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("policy,budget_slack", [
    ("periodic", 1e-3), ("age-threshold", 1e-3), ("random", 0.01)])
def test_baseline_policies_respect_budget(policy, budget_slack):
    res = run_single(desk_terminal(), desk_weights(), rho=0.25, v=1.0,
                     policy=policy, horizon=10**5, factory=StreamFactory(13))
    assert res.update_freq[0] <= 0.25 + budget_slack


def test_stderr_rescales_only_on_overflow():
    # ordinary means keep the plain formula's bits; means whose squared
    # deviations overflow give the rescaled standard error, not inf
    means = np.random.default_rng(5).uniform(1.0, 50.0, size=10)
    assert stderr_from_batches(means) == float(means.std(ddof=1) / math.sqrt(10))
    huge = stderr_from_batches(means * 1e306)
    assert huge == pytest.approx(stderr_from_batches(means) * 1e306, rel=1e-12)
    assert stderr_from_batches([1e308, -1e308]) == pytest.approx(1e308)
    assert not math.isfinite(stderr_from_batches([1.0, math.inf]))  # not rescaled
    assert stderr_from_batches([3.0]) == 0.0


def test_short_horizon_has_no_empty_batches():
    # horizon below n_batches: one slot per batch, none left empty
    single = run_single(desk_terminal(), desk_weights(), 0.25, 1.0, horizon=5,
                        factory=StreamFactory(1))
    fleet = make_fleet(3, k=1)
    multi = run_fleet_lanes(fleet, fleet_weights(),
                            [FleetLane("round-robin", StreamFactory(1))], horizon=5)[0]
    track = run_single(desk_terminal(), desk_weights(), 0.25, 1.0, "periodic", horizon=5,
                       factory=StreamFactory(1), a=0.9)
    for batches, avg in [(single.batch_means, single.avg_uoi),
                         (multi.batch_means, multi.avg_uoi),
                         (track.batch_means, track.avg_uoi)]:
        assert len(batches) == 5
        assert float(np.mean(batches)) == pytest.approx(avg, rel=1e-12)
