"""Relative value iteration and the frequency-constrained reference policies."""

import itertools
import math

import numpy as np
import pytest

from conftest import (age_chain_averages, age_chain_bias, age_rule_table, dense_uoi_chain,
                      desk_terminal, desk_weights, format_policy_table_per_line,
                      full_chain_calibration, relative_value_iteration)
from uoi_sim import cli, harness, mdp
from uoi_sim.core import FieldError, TerminalParams
from uoi_sim.mdp import (_FREQ_TOL, MdpGrid, _age_rule_averages,
                         age_threshold_for_budget, calibrate_multiplier, evaluate_policy,
                         format_policy_table, gaussian_kernel, rvi_solve,
                         stationary_distribution)

NEAR_OPTIMAL_RHOS = (0.1, 0.15, 0.2, 0.25, 0.35, 0.5)  # fig_near_optimal's budgets
MAX_THRESHOLD = 2000


@pytest.fixture(scope="module")
def threshold_chain():
    """(average age, attempt frequency) of the pure age thresholds
    1..MAX_THRESHOLD on the 5000-age oracle chain of the desk terminal."""
    n = MAX_THRESHOLD + 1
    tables = (np.arange(1, n + 1)[:, None] >= np.arange(1, n)[None, :]).astype(float)
    return age_chain_averages(tables, desk_terminal().p)


def test_grid_validation():
    with pytest.raises(ValueError):
        MdpGrid(q_max=1.0, q_step=0.3, weight_support=((1.0, 1.0),))
    with pytest.raises(ValueError):
        MdpGrid(q_max=1.0, q_step=0.5, weight_support=((1.0, 0.5), (2.0, 0.4)))
    for bad in ({"q_step": 0.0}, {"q_max": math.inf}, {"q_step": math.inf}):
        with pytest.raises(ValueError):
            MdpGrid(**dict({"q_max": 10.0, "q_step": 0.5, "weight_support": ((1.0, 1.0),)},
                           **bad))
    grid = MdpGrid(q_max=1.0, q_step=0.5, weight_support=((1.0, 1.0),))
    assert grid.q_values.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # pairs given as lists are stored as tuples: the grid keys a cache
    assert MdpGrid(q_max=1.0, q_step=0.5, weight_support=[[1.0, 1.0]]) == grid
    assert hash(MdpGrid(q_max=1.0, q_step=0.5, weight_support=[[1.0, 1.0]])) == hash(grid)


@pytest.mark.parametrize("lam", [math.nan, -1.0, math.inf])
def test_rvi_solve_rejects_a_bad_multiplier(lam):
    grid = MdpGrid(q_max=1.0, q_step=0.5, weight_support=((1.0, 1.0),))
    with pytest.raises(ValueError, match="lam"):
        rvi_solve(grid, desk_terminal(), lam)


def test_gaussian_kernel_is_stochastic_and_centered():
    grid = MdpGrid(q_max=6.0, q_step=0.25, weight_support=((1.0, 1.0),))
    G, g0, _ = gaussian_kernel(grid, 1.0)
    assert np.allclose(G.sum(axis=1), 1.0)
    assert np.allclose(g0, g0[::-1])            # reset row symmetric around 0
    q = grid.q_values
    assert float(g0 @ q) == pytest.approx(0.0, abs=1e-12)
    # interior row keeps its conditional mean (tails barely folded)
    i = len(q) // 2 + 4
    assert float(G[i] @ q) == pytest.approx(q[i], abs=1e-3)


def test_folded_kernel_sums_both_signs_of_each_bin():
    grid = MdpGrid(q_max=6.0, q_step=0.25, weight_support=((1.0, 1.0),))
    G, _, Gf = gaussian_kernel(grid, 1.0)
    m = len(G) // 2  # row 0 of Gf, from q = 0, is the reset row
    assert Gf.shape == (m + 1, m + 1)
    assert np.array_equal(Gf[:, 0], G[m:, m])
    for j in range(1, m + 1):
        assert np.array_equal(Gf[:, j], G[m:, m + j] + G[m:, m - j])
    assert np.allclose(Gf.sum(axis=1), 1.0)


def _enumerate_optimal_average_cost(transitions, costs):
    """Brute force over all deterministic stationary policies: evaluate each
    policy's chain exactly and take the best average cost."""
    n_actions, n_states, _ = transitions.shape
    best = math.inf
    for actions in itertools.product(range(n_actions), repeat=n_states):
        P = np.stack([transitions[a, s] for s, a in enumerate(actions)])
        mu = stationary_distribution(P)
        cost = float(mu @ costs[np.arange(n_states), list(actions)])
        best = min(best, cost)
    return best


def test_rvi_matches_policy_enumeration_on_tiny_chain():
    # three error levels {-1, 0, 1}; increment +1 or -1 with equal odds,
    # reflected at the edges; transmitting resets before the increment.
    p = 0.7
    drift = np.array([
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ])
    reset = drift[1]
    lam = 0.3
    transitions = np.stack([drift, p * np.tile(reset, (3, 1)) + (1 - p) * drift])
    q2 = np.array([1.0, 0.0, 1.0])
    costs = np.stack([q2, q2 + lam], axis=1)
    _, gain, policy, _ = relative_value_iteration(transitions, costs, span_tol=1e-12)
    best = _enumerate_optimal_average_cost(transitions, costs)
    assert gain == pytest.approx(best, abs=1e-9)
    # transmitting only pays off where the error is nonzero
    assert policy[1] == 0


@pytest.mark.parametrize("lam", [0.5, 3.0, 8.0, 40.0])
def test_a_pure_age_threshold_is_optimal_by_enumeration(lam):
    # all 2^8 deterministic policies of the age chain capped at 8: the best
    # is a threshold (or, on the capped chain, never sending), which is why
    # the closed form only weighs thresholds
    n, p = 8, desk_terminal().p
    wait = np.zeros((n, n))
    wait[np.arange(n), np.minimum(np.arange(1, n + 1), n - 1)] = 1.0
    send = p * np.tile(np.eye(n)[0], (n, 1)) + (1 - p) * wait
    ages = np.arange(1, n + 1, dtype=float)
    best = _enumerate_optimal_average_cost(np.stack([wait, send]),
                                           np.stack([ages, ages + lam], axis=1))
    thresholds = (ages[:, None] >= np.append(ages, np.inf)[None, :]).astype(float)
    gains = age_chain_bias(p * thresholds, ages[:, None] + lam * thresholds)[0]
    assert gains.min() == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("m", [1, 2, 12, 100, 1000])
def test_age_rule_averages_match_the_oracle_chain_at_pure_thresholds(m):
    p = desk_terminal().p
    cost, freq = age_chain_averages(age_rule_table(m, 1.0), p)
    assert _age_rule_averages(p, m, 1.0) == pytest.approx((cost, freq), rel=1e-9, abs=0)


@pytest.mark.parametrize("rho", NEAR_OPTIMAL_RHOS)
def test_aoi_table_averages_match_the_oracle_chain(rho):
    # the table itself, its last entry extended to 5000 ages, on the oracle
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    _, table = calibrate_multiplier(grid, params, rho, "aoi")
    cost, freq = age_chain_averages(table.table, params.p)
    assert (table.avg_cost, table.avg_freq) == pytest.approx((cost, freq), rel=1e-9, abs=0)
    assert table.avg_freq == pytest.approx(rho, rel=0, abs=1e-12)


@pytest.mark.parametrize("rho", NEAR_OPTIMAL_RHOS + (1e-3,))
def test_aoi_multiplier_is_where_the_thresholds_m_and_m1_tie(rho, threshold_chain):
    # at the reported lam the pure thresholds m and m + 1 have equal
    # Lagrangians, and no threshold up to MAX_THRESHOLD does better
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    lam, table = calibrate_multiplier(grid, params, rho, "aoi")
    m = age_threshold_for_budget(params.p, rho) - 1
    cost, freq = threshold_chain
    lagrangian = cost + lam * freq  # lagrangian[k - 1] is threshold k's
    assert lagrangian[m - 1] == pytest.approx(lagrangian[m], rel=1e-9)
    assert lagrangian.min() >= lagrangian[m - 1] * (1.0 - 1e-9)
    assert table.gain == pytest.approx(lagrangian[m - 1], rel=1e-9)


def test_uoi_reduced_chain_matches_dense_oracle():
    params = desk_terminal()
    support = ((1.0, 0.3), (5.0, 0.7))
    grid = MdpGrid(q_max=2.0, q_step=0.5, weight_support=support)
    table = np.random.default_rng(3).random((len(grid.q_values), 2, 2))
    m = len(grid.q_values) // 2
    table[:m] = table[:m:-1]  # even in q: the chain is solved on |q|
    G, g0, _ = gaussian_kernel(grid, params.sigma2)
    cost, freq, _ = evaluate_policy(grid, params, table)
    ref_cost, ref_freq = dense_uoi_chain(grid.q_values, G, g0, support, params.p, table)
    assert cost == pytest.approx(ref_cost, rel=1e-12)
    assert freq == pytest.approx(ref_freq, rel=1e-12)


def test_gaussian_kernel_is_cached_and_read_only():
    grid = MdpGrid(q_max=3.0, q_step=0.5, weight_support=((1.0, 1.0),))
    G, g0, Gf = gaussian_kernel(grid, 2.0)
    G2, _, Gf2 = gaussian_kernel(MdpGrid(q_max=3.0, q_step=0.5,
                                         weight_support=((7.0, 1.0),)), 2.0)
    assert G2 is G and Gf2 is Gf
    assert not (G.flags.writeable or g0.flags.writeable or Gf.flags.writeable)
    with pytest.raises(ValueError):
        G[0, 0] = 1.0


def test_unconstrained_perfect_channel_updates_everywhere():
    params = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    grid = MdpGrid.default(1.0, ((1.0, 1.0),))
    table = rvi_solve(grid, params, 0.0)
    nonzero = grid.q_values != 0.0
    assert np.all(table.table[nonzero, 0, 0] == 1.0)
    # Q resets every slot, so the average UoI is omega_bar * sigma2 up to
    # the discretization bias of the grid.
    assert table.avg_cost == pytest.approx(1.0, rel=0.02)


def test_calibrate_rejects_an_unknown_cost_kind():
    grid = MdpGrid(q_max=1.0, q_step=0.5, weight_support=((1.0, 1.0),))
    with pytest.raises(FieldError, match="cost_kind") as info:
        calibrate_multiplier(grid, desk_terminal(), 0.25, "age")
    assert info.value.field == "cost_kind"


def test_calibrate_slack_budget_returns_zero_multiplier():
    params = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    grid = MdpGrid.default(1.0, ((1.0, 1.0),))
    lam, table = calibrate_multiplier(grid, params, rho=1.0, cost_kind="uoi")
    assert lam == 0.0
    assert table.avg_freq <= 1.0


@pytest.mark.parametrize("cost_kind", ["uoi", "aoi"])
def test_calibrated_frequency_within_tolerance(cost_kind):
    params = desk_terminal()
    grid = MdpGrid(q_max=15.0, q_step=0.25,
                   weight_support=desk_weights().support())
    lam, table = calibrate_multiplier(grid, params, rho=0.25, cost_kind=cost_kind)
    assert 0.249 <= table.avg_freq <= 0.251
    assert lam > 0.0


DEFAULT_CALIBRATIONS = [(kind, rho) for kind in ("uoi", "aoi") for rho in (0.1, 0.25, 0.5)]


@pytest.mark.parametrize("cost_kind,rho", DEFAULT_CALIBRATIONS)
def test_calibration_cuts_to_the_breakpoint_in_few_solves(cost_kind, rho, monkeypatch):
    # Kelley's cut lands on the crossing of the bracketing tables' Lagrangian
    # lines; bisecting lam to float resolution took 55-60 solves.  The aoi
    # table is a closed form: it solves and evaluates no chain.
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    solves, evaluations = [], []

    def counted(*args):
        solves.append(args[2])
        return rvi_solve(*args)

    def evaluated(*args):
        evaluations.append(args[2])
        return evaluate_policy(*args)
    monkeypatch.setattr(mdp, "rvi_solve", counted)
    monkeypatch.setattr(mdp, "evaluate_policy", evaluated)
    _, table = calibrate_multiplier(grid, params, rho, cost_kind)
    if cost_kind == "aoi":
        assert solves == [] and evaluations == []
    assert len(solves) <= 15, solves
    assert abs(table.avg_freq - rho) < _FREQ_TOL


@pytest.mark.parametrize("cost_kind,rho", DEFAULT_CALIBRATIONS)
def test_calibrated_table_is_lagrangian_optimal_at_its_multiplier(cost_kind, rho,
                                                                  threshold_chain):
    # the (possibly mixed) table reports the lam it returns and the gain of the
    # solve at that lam, which its exact averages attain
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    lam, table = calibrate_multiplier(grid, params, rho, cost_kind)
    assert table.lam == lam
    if cost_kind == "uoi":
        assert table.gain == rvi_solve(grid, params, lam).gain
    else:  # the best pure threshold on the oracle chain
        cost, freq = threshold_chain
        assert table.gain == pytest.approx((cost + lam * freq).min(), rel=1e-9)
    assert abs(table.avg_cost + lam * table.avg_freq - table.gain) <= 1e-6 * table.gain


@pytest.mark.parametrize("cost_kind", ["uoi", "aoi"])
@pytest.mark.parametrize("rho", [1e-3, 1e-4])
def test_small_budget_is_met_to_one_percent(cost_kind, rho):
    # the never-send end brackets every budget, and the frequency tolerance
    # shrinks with rho: a fixed 1e-3 would accept 11 times the budget 1e-4
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    lam, table = calibrate_multiplier(grid, params, rho, cost_kind)
    assert abs(table.avg_freq - rho) < rho / 100
    assert 0.0 < lam < math.inf and table.lam == lam
    if cost_kind == "aoi":  # the oracle chain's cost; the age chain capped at 200 gave 184.06
        oracle = {1e-3: 625.500200, 1e-4: 6250.500020}[rho]
        assert table.avg_cost == pytest.approx(oracle, rel=1e-9)


def test_cli_aoi_optimum_is_right_past_200_ages(capsys):
    # the threshold is at age 312: the age chain capped at 200 ages printed
    # avg_cost=136.697513 avg_freq=0.003976
    assert cli.main(["mdp", "--policy", "rvi-aoi", "--rho", "0.004", "--qmax", "8",
                     "--qstep", "0.5"]) == 0
    assert "avg_cost=156.750800 avg_freq=0.004000 " in capsys.readouterr().err


@pytest.mark.parametrize("rho", [5e-324, 1.0 / (1.0 + 0.8 * (2 ** 20 - 0.5))])
def test_aoi_budget_past_the_table_cap_is_rejected_before_allocation(rho, monkeypatch):
    # a subnormal rho, and one whose threshold m + 1 is one age past 2^20
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    assert age_threshold_for_budget(params.p, rho) > 2 ** 20

    def no_table(*args, **kwargs):
        raise AssertionError("the aoi table was allocated")
    monkeypatch.setattr(mdp.np, "ones", no_table)
    with pytest.raises(FieldError) as info:
        calibrate_multiplier(grid, params, rho, "aoi")
    assert info.value.field == "rho"


def test_aoi_table_cap_counts_ages(monkeypatch):
    # the last budget inside a small cap passes, the next threshold does not
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    monkeypatch.setattr(mdp, "_AOI_MAX_AGES", 300)
    inside = 1.0 / (1.0 + params.p * 298.5)  # m = 299: 300 ages
    assert calibrate_multiplier(grid, params, inside, "aoi")[1].table.shape == (300,)
    with pytest.raises(FieldError, match="rho"):
        calibrate_multiplier(grid, params, 1.0 / (1.0 + params.p * 299.5), "aoi")


@pytest.mark.parametrize("argv", [
    ["mdp", "--policy", "rvi-aoi", "--rho", "5e-324"],
    ["single", "--policy", "rvi-aoi", "--rho", "1e-9", "--horizon", "100"],
])
def test_cli_aoi_budget_past_the_table_cap_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: config field 'rho': ")


def test_cli_calibrates_a_tiny_budget_on_a_wide_grid(monkeypatch):
    # lam is about 2.6e7 here: no fixed cap on the upper bracket fits every budget
    calibrated = []

    def recorded(*args):
        calibrated.append(calibrate_multiplier(*args))
        return calibrated[-1]
    monkeypatch.setattr(harness, "calibrate_multiplier", recorded)
    assert cli.main(["mdp", "--rho", "0.0001", "--qmax", "100", "--qstep", "1"]) == 0
    [(lam, table)] = calibrated
    assert abs(table.avg_freq - 1e-4) < 1e-6
    assert 0.0 < lam < math.inf


def test_default_grid_overstates_the_calibrated_optimum_by_under_one_percent():
    params = desk_terminal()
    support = desk_weights().support()
    _, default = calibrate_multiplier(MdpGrid(q_max=25.0, q_step=0.25, weight_support=support),
                                      params, 0.25, "uoi")
    _, fine = calibrate_multiplier(MdpGrid(q_max=25.0, q_step=0.1, weight_support=support),
                                   params, 0.25, "uoi")
    rel = (default.avg_cost - fine.avg_cost) / fine.avg_cost
    print(f"grid bias diagnostic: q_step 0.25 {default.avg_cost:.4f}, "
          f"0.1 {fine.avg_cost:.4f}, rel {rel:.4f}")
    assert abs(rel) < 0.01


def test_grid_refinement_changes_average_cost_little():
    # halving the default q_step = 0.25 sigma moves the value by < 2%
    params = desk_terminal()
    support = desk_weights().support()
    default = MdpGrid(q_max=15.0, q_step=0.25, weight_support=support)
    halved = MdpGrid(q_max=15.0, q_step=0.125, weight_support=support)
    c = rvi_solve(default, params, 4.0)
    f = rvi_solve(halved, params, 4.0)
    rel = abs(c.avg_cost - f.avg_cost) / f.avg_cost
    print(f"grid refinement diagnostic: default {c.avg_cost:.4f} halved {f.avg_cost:.4f} "
          f"rel change {rel:.4f}")
    assert rel < 0.02


def test_vanishing_budget_limit_reported():
    # as rho -> 0+ the calibrated frequency follows and the cost blows up
    # on the truncated grid (reported as a diagnostic, per the contract)
    params = desk_terminal()
    grid = MdpGrid(q_max=10.0, q_step=0.5, weight_support=desk_weights().support())
    _, tight = calibrate_multiplier(grid, params, rho=0.02, cost_kind="uoi")
    _, loose = calibrate_multiplier(grid, params, rho=0.25, cost_kind="uoi")
    assert tight.avg_freq == pytest.approx(0.02, abs=1e-3)
    print(f"rho->0 diagnostic: cost at rho=0.02 is {tight.avg_cost:.1f} vs "
          f"{loose.avg_cost:.1f} at rho=0.25")
    assert tight.avg_cost > loose.avg_cost


def test_aoi_policy_is_age_threshold():
    # zero before the send age m, at most one fractional entry at m, one
    # after it; the pure rule age-threshold starts where the ones start
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    for rho in NEAR_OPTIMAL_RHOS + (1.0, 0.9995, 0.004):
        _, table = calibrate_multiplier(grid, params, rho, "aoi")
        t = table.table
        m = age_threshold_for_budget(params.p, rho) - 1
        assert t.shape == (max(200, m + 1),)
        assert np.all(t[:max(m - 1, 0)] == 0.0) and np.all(t[m:] == 1.0)
        assert m == 0 or 0.0 <= t[m - 1] < 1.0
        assert table.iterations == 0


def test_evaluate_policy_always_vs_never():
    params = TerminalParams(id=0, p=1.0, sigma2=1.0, omega_bar=1.0)
    grid = MdpGrid(q_max=10.0, q_step=0.25, weight_support=((1.0, 1.0),))
    nq = len(grid.q_values)
    always = np.ones((nq, 1, 1))
    cost_a, freq_a, _ = evaluate_policy(grid, params, always)
    assert freq_a == pytest.approx(1.0)
    assert cost_a == pytest.approx(1.0, rel=0.03)
    never = np.zeros((nq, 1, 1))
    cost_n, freq_n, _ = evaluate_policy(grid, params, never)
    assert freq_n == 0.0
    assert cost_n > 20.0  # random walk pinned only by truncation


def test_evaluate_policy_reads_the_table_contents_on_every_call():
    # the uoi averages are cached; a table changed in place is a new policy
    params = TerminalParams(id=0, p=0.8, sigma2=1.0, omega_bar=1.0)
    grid = MdpGrid(q_max=5.0, q_step=0.5, weight_support=((1.0, 1.0),))
    table = np.zeros((len(grid.q_values), 1, 1))
    table[np.abs(grid.q_values) >= 2.0] = 1.0
    first = evaluate_policy(grid, params, table)
    table[np.abs(grid.q_values) >= 1.0] = 1.0
    second = evaluate_policy(grid, params, table)
    assert second[1] > first[1] and second[0] < first[0]
    dense = dense_uoi_chain(grid.q_values, *gaussian_kernel(grid, 1.0)[:2],
                            grid.weight_support, 0.8, table)
    assert second[:2] == pytest.approx(dense, rel=1e-10)
    assert evaluate_policy(grid, params, table.copy()) == second


@pytest.mark.parametrize("table,problem", [
    (np.full((9, 1, 1), 2.0), r"outside \[0, 1\]"),  # gave an attempt frequency of 2
    (np.full((9, 1, 1), np.nan), "NaN"),             # gave (nan, nan)
    (np.zeros((7, 1, 1)), r"shape \(7, 1, 1\)"),    # died in a numpy broadcast
    (np.eye(9)[0][:, None, None], "not even in q"),  # sends at q = -2 only
], ids=["above-one", "nan", "wrong-shape", "odd-in-q"])
def test_evaluate_policy_rejects_a_table_it_cannot_evaluate(table, problem):
    # the grid's 9 bins run q = -2, -1.5, ..., 2
    grid = MdpGrid(q_max=2.0, q_step=0.5, weight_support=((1.0, 1.0),))
    params = TerminalParams(id=0, p=0.8, sigma2=1.0, omega_bar=1.0)
    with pytest.raises(ValueError, match=problem):
        evaluate_policy(grid, params, table)


FOLD_CASES = [(25.0, 0.25, rho) for rho in (0.5, 0.25, 0.1, 0.01)] + [(50.0, 0.25, 0.25)]


@pytest.mark.parametrize("q_max,q_step,rho", FOLD_CASES)
def test_calibration_on_abs_q_matches_the_full_chain_oracle(q_max, q_step, rho):
    # the chain on |q| gives the full chain's tables entry for entry; its
    # averages and multiplier move by rounding only
    params = desk_terminal()
    grid = MdpGrid(q_max=q_max, q_step=q_step, weight_support=desk_weights().support())
    oracle_lam, oracle = full_chain_calibration(grid, params, rho)
    lam, table = calibrate_multiplier(grid, params, rho, "uoi")
    assert np.array_equal(table.table, oracle.table)
    assert table.iterations == oracle.iterations
    for got, want in ((lam, oracle_lam), (table.avg_cost, oracle.avg_cost),
                      (table.avg_freq, oracle.avg_freq), (table.gain, oracle.gain)):
        assert got == pytest.approx(want, rel=1e-10, abs=0)
    assert table.edge_mass == pytest.approx(oracle.edge_mass, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("rho", [1e-3, 0.1, 0.25, 0.5])
def test_edge_mass_is_the_stationary_mass_in_the_outermost_bins(rho):
    # the default grid folds 1.8% of the mass into its boundary bins at a
    # budget of 1e-3, and none to speak of from 0.1 on
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    _, table = calibrate_multiplier(grid, params, rho, "uoi")
    if rho == 1e-3:
        assert table.edge_mass == pytest.approx(0.0178, abs=5e-4)
    else:
        assert 0.0 <= table.edge_mass < 1e-12
    assert calibrate_multiplier(grid, params, rho, "aoi")[1].edge_mass is None


def test_constrained_optimum_dominates_adaptive_paired():
    """The calibrated UoI-optimal policy, simulated on the continuous system
    with the same streams, performs at least as well as the adaptive scheme
    up to simulation noise (3 combined standard errors; the discretized
    policy loses a little to binning, so a strict comparison is a tie)."""
    from uoi_sim.rng import StreamFactory
    from uoi_sim.sim import run_single, stderr_from_batches

    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    _, table = calibrate_multiplier(grid, params, 0.25, "uoi")
    horizon = 3 * 10**5
    adaptive = run_single(params, desk_weights(), 0.25, 1.0, policy="adaptive",
                          horizon=horizon, factory=StreamFactory(60))
    optimal = run_single(params, desk_weights(), 0.25, 1.0, policy="rvi-uoi",
                         horizon=horizon, factory=StreamFactory(60),
                         policy_table=table)
    se = math.hypot(stderr_from_batches(adaptive.batch_means),
                    stderr_from_batches(optimal.batch_means))
    assert optimal.avg_uoi <= adaptive.avg_uoi + 3 * se


def test_calibrated_table_header_carries_returned_multiplier():
    # the duality-gap branch mixes two tables; the header shows the lam it returns
    params = desk_terminal()
    grid = MdpGrid(q_max=5.0, q_step=0.5, weight_support=desk_weights().support())
    lam, table = calibrate_multiplier(grid, params, rho=0.25, cost_kind="aoi")
    assert table.lam == lam > 0.0
    assert table.grid == grid
    assert f"lam={lam:.6g}" in format_policy_table(table).splitlines()[0]


def test_format_policy_table_roundtrip_smoke():
    params = desk_terminal()
    grid = MdpGrid(q_max=2.0, q_step=1.0, weight_support=desk_weights().support())
    text = format_policy_table(rvi_solve(grid, params, 1.0))
    lines = text.strip().splitlines()
    assert lines[0].startswith("# cost_kind=uoi")
    assert len(lines) == 2 + 5 * 2 * 2


@pytest.mark.parametrize("kind", ["uoi", "aoi"])
def test_format_policy_table_writes_the_per_line_formatter_bytes(kind):
    # the calibrated table on the default grid, randomized at rho = 0.25:
    # fractional entries, negative q values and weights formatted by :g
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    table = calibrate_multiplier(grid, params, rho=0.25, cost_kind=kind)[1]
    assert format_policy_table(table) == format_policy_table_per_line(table)
