"""Config ingestion, metric export, CLI behavior."""

import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from uoi_sim import cli, harness
from uoi_sim.harness import (CSV_COLUMNS, ConfigError, RunMetrics,
                             config_from_dict, export, load_config, run)
from uoi_sim.mdp import calibrate_multiplier
from uoi_sim.sim import POLICY_TABLE, FleetLane, run_fleet_lanes
from uoi_sim.rng import StreamFactory


def _cfg(**over):
    base = {"scenario": "single", "horizon": 2000, "seed": 7}
    base.update(over)
    return config_from_dict(base)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "single", "horizn": 100})
    assert "horizn" in str(err.value)


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "multi", "fleet": {"n": 4, "kk": 2}})
    assert "fleet.kk" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "single",
                          "weights": {"kind": "two-point", "hi": 3}})
    assert "weights.hi" in str(err.value)


def test_scenario_required_and_validated():
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "sngle"})


def test_invalid_values_name_the_field():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "single", "rho": 1.5})
    assert "rho" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "single", "policies": ["centralized"]})
    assert "policies" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "single", "thresholds": {"1": -2}})
    assert "thresholds" in str(err.value)


def test_n_batches_validated():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": "single", "n_batches": 0})
    assert err.value.field == "n_batches"


@pytest.mark.parametrize("raw,field", [
    ({"terminal": {"p": 0}}, "terminal.p"),
    ({"terminal": {"sigma2": -1}}, "sigma2"),
    ({"fleet": {"p_min": 0}}, "fleet.p_min"),
    ({"mdp": {"q_max": -1}}, "mdp.q_max"),
    # a section that is not a JSON object
    ({"terminal": "abc"}, "terminal"),
    ({"thresholds": [1, 2]}, "thresholds"),
    ({"weights": 3}, "weights"),
    ({"fleet": [4]}, "fleet"),
    ({"contention": "w"}, "contention"),
    ({"control": 1.5}, "control"),
    ({"control": {"y_ref": "up"}}, "control.y_ref"),   # not a control key
    ({"mdp": True}, "mdp"),
    # domain values
    ({"control": {"b": 0}}, "control.b"),
    ({"control": {"noise_var": 0}}, "control.noise_var"),
    ({"control": {"b": -0.0}}, "control.b"),
    ({"seed": -1}, "seed"),
    ({"weights": {"kind": "constant", "w": 0}}, "weights.w"),
    ({"weights": {"kind": "periodic-burst", "period": 10, "burst_len": 11}},
     "weights.burst_len"),
    # values that used to be coerced
    ({"trace": "no"}, "trace"),
    ({"horizon": 100.7}, "horizon"),
    ({"fleet": {"n": 2.5}}, "fleet.n"),
    ({"horizon": float("inf")}, "horizon"),
    ({"thresholds": {"1": float("nan")}}, "thresholds"),
    # non-finite values that pass a "< 0" check
    ({"v": float("nan")}, "v"),
    ({"v": float("inf")}, "v"),
    ({"terminal": {"sigma2": float("nan")}}, "sigma2"),
    ({"control": {"a": float("nan")}}, "control.a"),
    ({"control": {"b": float("nan")}}, "control.b"),
    ({"contention": {"mini_slot_us": float("nan")}}, "contention.mini_slot_us"),
    ({"control": {"a": float("inf")}}, "control.a"),
    ({"control": {"b": float("-inf")}}, "control.b"),
    # a plant value that is not a number, or a noise variance that is not positive
    ({"control": {"a": "fast"}}, "control.a"),
    ({"control": {"noise_var": float("nan")}}, "control.noise_var"),
    ({"control": {"noise_var": -1.0}}, "control.noise_var"),
    ({"control": {"noise_var": float("inf")}}, "control.noise_var"),
    ({"mdp": {"q_max": float("inf")}}, "mdp.q_max"),
    ({"weights": {"w_hi": float("inf")}}, "weights.w_hi"),
    ({"weights": {"kind": "constant", "w": float("inf")}}, "weights.w"),
    ({"weights": {"kind": "periodic-burst", "burst": float("inf")}}, "weights.burst"),
    # a weight that is never realized would make its bound dead
    ({"thresholds": {"nan": 3}}, "thresholds"),
    ({"policies": [{}]}, "policies"),
    # JSON booleans are not the numbers 1 and 0
    ({"rho": True}, "rho"),
    ({"v": False}, "v"),
    ({"n_batches": True}, "n_batches"),
    ({"seed": True}, "seed"),
    ({"weights": {"w_hi": True}}, "weights.w_hi"),
    ({"fleet": {"n": True}}, "fleet.n"),
    ({"fleet": {"k": True}}, "fleet.k"),
    ({"thresholds": {"1": True}}, "thresholds"),
    # a domain value of a section the scenario does not read
    ({"contention": {"w": 0}}, "contention.w"),
    ({"control": {"b": float("inf")}}, "control.b"),
    # the policies name the mdp tables
    ({"mdp": {"cost": "uoi"}}, "mdp.cost"),
])
def test_invalid_model_parameters_name_the_field(raw, field, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        config_from_dict(dict(raw, scenario="single"))
    assert err.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(raw, scenario="single")))
    assert cli.main(["single", "--config", str(path)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def test_integral_floats_accepted_as_integers():
    cfg = config_from_dict({"scenario": "multi", "horizon": 1e6, "seed": 7.0,
                            "fleet": {"n": 4.0, "k": 2}})
    assert (cfg.horizon, cfg.seed, cfg.fleet.n) == (10**6, 7, 4)
    assert all(type(x) is int for x in (cfg.horizon, cfg.seed, cfg.fleet.n))


def test_mdp_grid_mismatch_is_config_error(capsys):
    assert cli.main(["mdp", "--qstep", "0.3"]) == 2
    assert "'mdp.q_step'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", [s for s in POLICY_TABLE if s != "mdp"])
def test_mdp_section_is_checked_in_every_scenario(scenario, tmp_path, capsys):
    # q_step = 0.3 does not divide the default q_max = 25
    raw = {"scenario": scenario, "mdp": {"q_step": 0.3}}
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == "mdp.q_step"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert cli.main([scenario, "--config", str(path)]) == 2
    assert "'mdp.q_step'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["single", "multi"])
def test_cli_conflicting_sigma2_keys_exit_2(scenario, tmp_path, capsys):
    # fleet.sigma2 used to override terminal.sigma2 silently in every scenario
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": scenario, "terminal": {"sigma2": 2.0},
                                "fleet": {"sigma2": 3.0}}))
    assert cli.main([scenario, "--config", str(path)]) == 2
    assert "'fleet.sigma2'" in capsys.readouterr().err


@pytest.mark.parametrize("terminal,fleet", [({"sigma2": 2.0}, {}), ({}, {"sigma2": 2.0}),
                                            ({"sigma2": 2.0}, {"sigma2": 2.0})],
                         ids=["terminal", "fleet", "both-equal"])
def test_one_or_two_equal_sigma2_keys_set_it(terminal, fleet):
    cfg = config_from_dict({"scenario": "multi", "terminal": terminal, "fleet": fleet})
    assert cfg.terminal.sigma2 == 2.0 and cfg.grid.q_max == 25.0 * math.sqrt(2.0)
    assert (cfg.fleet.array("sigma2") == 2.0).all()


def test_threshold_keys_parse_to_floats():
    cfg = _cfg(thresholds={"1": 15, "100": 5})
    assert cfg.thresholds == {1.0: 15.0, 100.0: 5.0}


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_run_single_scenario_produces_metrics():
    rows = run(_cfg(policies=["adaptive", "periodic"]))
    assert [m.policy for m in rows] == ["adaptive", "periodic"]
    adaptive = rows[0]
    assert adaptive.bound_value == pytest.approx(1.99 / 0.2 + 0.5)
    assert adaptive.avg_uoi > 0
    assert 0 <= adaptive.avg_update_freq[0] <= 1


def test_huge_weights_give_a_finite_stderr(recwarn):
    # w_hi = 1e306 puts the batch means near 1e304: their squared
    # deviations overflow, and the standard error must still be finite
    for replications in (1, 3):
        row = run(_cfg(horizon=3000, replications=replications,
                       weights={"w_hi": 1e306}))[0]
        assert 1e303 < row.stderr_uoi < row.avg_uoi < 1e305
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_csv_schema_and_determinism(tmp_path):
    rows = run(_cfg())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export(rows, "csv", str(p1))
    export(run(_cfg()), "csv", str(p2))
    text = p1.read_text()
    header = text.splitlines()[0].split(",")
    assert tuple(header) == CSV_COLUMNS
    assert len(header) == 12
    assert p1.read_bytes() == p2.read_bytes()


def test_export_empty_rows_is_an_error(tmp_path):
    target = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        export([], "csv", str(target))
    assert not target.exists()


def test_export_jsonl_and_plot(tmp_path):
    rows = run(_cfg(policies=["adaptive"]))
    jl = tmp_path / "m.jsonl"
    export(rows, "jsonl", str(jl))
    rec = json.loads(jl.read_text().splitlines()[0])
    assert rec["scenario"] == "single" and rec["policy"] == "adaptive"

    plots = export(rows, "plot", str(tmp_path / "plots"))
    assert len(plots) == 1
    body = open(plots[0]).read().splitlines()
    assert body[0].startswith("# x")
    assert len(body) == 2


def test_export_jsonl_refuses_a_non_finite_number(tmp_path):
    # Infinity and NaN are not JSON
    row = run(_cfg(policies=["adaptive"]))[0]
    row.avg_uoi = float("inf")
    with pytest.raises(ValueError):
        export([row], "jsonl", str(tmp_path / "m.jsonl"))


@pytest.mark.parametrize("raw", [
    {"scenario": "single", "policies": ["adaptive", "periodic"]},
    {"scenario": "multi", "fleet": {"n": 3, "k": 1}, "policies": ["centralized", "aoi"]},
    {"scenario": "control", "control": {"a": 0.9}, "policies": ["adaptive", "random"]},
], ids=["single", "multi", "control"])
def test_export_jsonl_writes_trace_rows_as_arrays(tmp_path, raw):
    # the trace rows go out as the run's tuples, in the bytes of the same
    # rows as lists
    rows = run(config_from_dict(dict(raw, horizon=300, seed=7, trace=True)))
    path = tmp_path / "trace.jsonl"
    export(rows, "jsonl", str(path))
    expected = ""
    for m in rows:
        assert len(m.trace) == 300 and all(type(row) is tuple for row in m.trace)
        obj = dict(harness._jsonable(m), trace=[list(row) for row in m.trace])
        expected += json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode()


def test_waterfill_scenario_echo():
    rows = run(config_from_dict({
        "scenario": "waterfill", "fleet": {"n": 2, "k": 1, "p_min": 1.0, "p_max": 1.0},
        "weights": {"kind": "constant", "w": 1.0}}))
    assert rows[0].extras["pi"] == pytest.approx([0.5, 0.5])


def test_fleet_rows_keep_pi_capped_over_widths_spanning_150_decades():
    fleet = {"n": 12, "k": 8, "p_min": 1e-300}
    rows = run(config_from_dict({"scenario": "waterfill", "fleet": fleet}))
    rows += run(config_from_dict({"scenario": "multi", "horizon": 2000, "fleet": fleet,
                                  "policies": ["centralized", "stationary"]}))
    for row in rows:
        assert max(row.extras["pi"]) <= 1.0, row.policy
    # sum(pi) = K, so the stationary lane attempts K updates every slot
    assert rows[-1].policy == "stationary"
    assert rows[-1].avg_update_freq.sum() == pytest.approx(8.0, abs=1e-9)


def test_common_random_numbers_within_run():
    cfg = config_from_dict({"scenario": "multi", "horizon": 2000,
                            "fleet": {"n": 4, "k": 2},
                            "policies": ["centralized", "round-robin"]})
    counts = []
    for sched in ("centralized", "round-robin"):
        factory = StreamFactory(cfg.seed, 0)
        run_fleet_lanes(cfg.fleet, cfg.weights, [FleetLane(sched, factory)], horizon=2000)
        counts.append(factory.draw_counts(kinds=("weight", "increment", "channel")))
    assert counts[0] == counts[1]


def test_fleet_rows_are_their_policies_runs():
    # one lane call per config; each row averages its own policy's replications
    cfg = config_from_dict({"scenario": "csma", "horizon": 400, "replications": 2,
                            "seed": 3, "fleet": {"n": 4, "k": 2}, "contention": {"w": 4},
                            "policies": ["distributed", "centralized"]})
    rows = run(cfg)
    for row, policy, window in zip(rows, ("distributed", "centralized"), (4, None)):
        reps = [run_fleet_lanes(cfg.fleet, cfg.weights,
                                [FleetLane(policy, StreamFactory(3, rep), window=window)],
                                horizon=400, thresholds=cfg.thresholds)[0]
                for rep in (0, 1)]
        assert row.avg_uoi == float(np.mean([r.avg_uoi for r in reps]))
        assert row.violation_prob == float(np.mean([r.violation_prob for r in reps]))
        assert row.avg_update_freq.tolist() == np.mean(
            [r.update_freq for r in reps], axis=0).tolist()


def test_single_scenario_with_rvi_policy():
    cfg = config_from_dict({"scenario": "single", "horizon": 3000, "seed": 4,
                            "rho": 0.5, "policies": ["adaptive", "rvi-aoi"],
                            "mdp": {"q_max": 5.0, "q_step": 0.5}})
    rows = {m.policy: m for m in run(cfg)}
    assert set(rows) == {"adaptive", "rvi-aoi"}
    assert rows["rvi-aoi"].avg_uoi > 0


def test_rvi_rows_carry_their_calibrated_table(tmp_path):
    cfg = config_from_dict({"scenario": "single", "horizon": 300, "seed": 4, "rho": 0.3,
                            "policies": ["adaptive", "rvi-uoi", "rvi-aoi"],
                            "mdp": {"q_max": 5.0, "q_step": 0.5}})
    rows = run(cfg)
    assert "policy_table" not in rows[0].extras
    for row in rows[1:]:
        _, table = calibrate_multiplier(cfg.grid, cfg.terminal, cfg.rho, row.policy[4:])
        carried = row.extras["policy_table"]
        assert (carried.lam, carried.avg_cost, carried.avg_freq) == (
            table.lam, table.avg_cost, table.avg_freq)
        assert np.array_equal(carried.table, table.table)
    path = tmp_path / "rows.jsonl"
    export(rows, "jsonl", str(path))
    for line in path.read_text().splitlines():
        assert "policy_table" not in json.loads(line)["extras"]


@pytest.mark.parametrize("cost", ["uoi", "aoi"])
def test_mdp_row_carries_the_edge_mass_into_jsonl(cost, tmp_path):
    # the q_max = 8 grid holds about 9% of the uoi optimum's mass in its
    # boundary bins at a budget of 0.004; the aoi table has no q grid
    cfg = config_from_dict({"scenario": "mdp", "rho": 0.004, "policies": [f"rvi-{cost}"],
                            "mdp": {"q_max": 8.0, "q_step": 0.5}})
    [row] = run(cfg)
    edge = row.extras["edge_mass"]
    assert edge == row.extras["policy_table"].edge_mass
    assert (0.05 < edge < 0.15) if cost == "uoi" else edge is None
    path = tmp_path / "row.jsonl"
    export([row], "jsonl", str(path))
    assert json.loads(path.read_text())["extras"]["edge_mass"] == edge


def test_mdp_rows_are_their_calibrated_tables_in_order():
    cfg = config_from_dict({"scenario": "mdp", "rho": 0.3, "policies": ["rvi-aoi", "rvi-uoi"],
                            "mdp": {"q_max": 5.0, "q_step": 0.5}})
    rows = run(cfg)
    assert [m.policy for m in rows] == ["rvi-aoi", "rvi-uoi"]
    for row in rows:
        lam, table = calibrate_multiplier(cfg.grid, cfg.terminal, cfg.rho, row.policy[4:])
        carried = row.extras["policy_table"]
        assert row.extras["lam"] == lam and carried.cost_kind == row.policy[4:]
        assert (carried.avg_cost, carried.avg_freq, carried.lam, carried.gain) == (
            table.avg_cost, table.avg_freq, table.lam, table.gain)
        assert np.array_equal(carried.table, table.table)
        assert row.avg_uoi == table.avg_cost
        assert row.avg_update_freq.tolist() == [table.avg_freq]


@pytest.mark.parametrize("raw", [
    {"scenario": "single", "policies": ["adaptive", "rvi-uoi"]},
    {"scenario": "mdp"},                      # rvi-uoi is its default
], ids=["single", "mdp"])
def test_rvi_uoi_rejects_weights_that_are_not_iid(raw, tmp_path, capsys):
    # the uoi chain's state holds the weight pair (w_now, w_next)
    cfgf = tmp_path / "burst.json"
    cfgf.write_text(json.dumps(dict(raw, horizon=100, weights={"kind": "periodic-burst"})))
    assert cli.main([raw["scenario"], "--config", str(cfgf)]) == 2
    assert "config field 'weights.kind'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["single", "control", "mdp"])
def test_rvi_aoi_runs_on_weights_that_are_not_iid(scenario):
    # the age table is a closed form in p and rho that never reads the weights
    raw = {"scenario": scenario, "horizon": 300, "rho": 0.3, "policies": ["rvi-aoi"],
           "mdp": {"q_max": 5.0, "q_step": 0.5}}
    cfg = config_from_dict(dict(raw, weights={"kind": "periodic-burst"}))
    iid = config_from_dict(dict(raw, weights={"kind": "two-point"}))
    [row] = run(cfg)
    _, table = calibrate_multiplier(iid.grid, iid.terminal, iid.rho, "aoi")
    carried = row.extras["policy_table"]
    assert np.array_equal(carried.table, table.table)
    assert (carried.avg_cost, carried.avg_freq, carried.lam, carried.gain) == (
        table.avg_cost, table.avg_freq, table.lam, table.gain)


def _row_fields(m: RunMetrics) -> dict:
    """Every field of a metrics row but its scenario, arrays as lists."""
    d = dict(vars(m), avg_update_freq=m.avg_update_freq.tolist())
    del d["scenario"]
    return d


def test_csma_scenario_runs_the_multi_schedulers_as_multi_does():
    # beside a csma lane, in one lane call, each multi scheduler's row is
    # field for field its row under the multi scenario
    raw = {"horizon": 400, "replications": 2, "seed": 3, "trace": True,
           "fleet": {"n": 4, "k": 2}, "contention": {"w": 4},
           "thresholds": {"1": 2.0, "100": 1.0}}
    schedulers = ["centralized", "aoi", "round-robin", "stationary"]
    csma_rows = run(config_from_dict(dict(raw, scenario="csma",
                                          policies=["distributed"] + schedulers)))
    multi_rows = run(config_from_dict(dict(raw, scenario="multi", policies=schedulers)))
    assert [m.scenario for m in csma_rows] == ["csma"] * 5
    for ours, theirs in zip(csma_rows[1:], multi_rows):
        assert _row_fields(ours) == _row_fields(theirs), ours.policy


def test_run_multi_adaptive_beats_round_robin():
    cfg = config_from_dict({"scenario": "multi", "horizon": 10**5, "seed": 2,
                            "fleet": {"n": 10, "k": 2},
                            "weights": {"kind": "two-point", "w_lo": 1.0,
                                        "w_hi": 100.0, "prob_hi": 0.05},
                            "policies": ["centralized", "round-robin"]})
    rows = {m.policy: m for m in run(cfg)}
    assert rows["centralized"].avg_uoi < rows["round-robin"].avg_uoi


def test_plot_export_one_file_per_v(tmp_path):
    rows = []
    for v in (1.0, 8.0):
        cfg = _cfg(v=v)
        cfg.policies = ("adaptive",)
        rows.append(run(cfg)[0])
    paths = export(rows, "plot", str(tmp_path / "sweep"))
    assert len(paths) == 2
    assert any("V1" in p for p in paths) and any("V8" in p for p in paths)


def test_violation_accounting_matches_thresholds():
    # a bound of 0 on the common weight flags every nonzero-error slot
    tight = run(_cfg(thresholds={"1": 1e-9, "100": 1e-9}))[0]
    loose = run(_cfg(thresholds={"1": 1e9, "100": 1e9}))[0]
    assert tight.violation_prob > 0.5
    assert loose.violation_prob == 0.0


def test_cli_waterfill_stdout(capsys):
    code = cli.main(["waterfill", "--n", "2", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pi = " in out


def test_cli_single_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main(["single", "--horizon", "2000", "--seed", "3",
                     "--out", str(out), "--format", "csv"])
    assert code == 0
    assert out.read_text().splitlines()[0].split(",") == list(CSV_COLUMNS)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "single", "rho": 99}))
    assert cli.main(["single", "--config", str(bad)]) == 2


def test_cli_missing_config_file_is_config_error(tmp_path, capsys):
    assert cli.main(["single", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config field '<file>'" in capsys.readouterr().err


def test_cli_scenario_mismatch_is_config_error(tmp_path):
    cfgf = tmp_path / "multi.json"
    cfgf.write_text(json.dumps({"scenario": "multi"}))
    assert cli.main(["single", "--config", str(cfgf)]) == 2


def test_cli_flags_override_the_config_file_before_validation(tmp_path, capsys):
    # the flags replace the file's invalid horizon and fleet size, and the
    # result is validated once
    cfgf = tmp_path / "multi.json"
    cfgf.write_text(json.dumps({"scenario": "multi", "horizon": 0,
                                "fleet": {"n": 0, "k": 1}}))
    assert cli.main(["multi", "--config", str(cfgf), "--horizon", "50", "--n", "3"]) == 0
    # a malformed section is still reported when a flag targets it
    cfgf.write_text(json.dumps({"scenario": "multi", "fleet": "abc"}))
    assert cli.main(["multi", "--config", str(cfgf), "--n", "3"]) == 2
    assert "config field 'fleet'" in capsys.readouterr().err


def test_every_policy_of_the_table_runs_in_order():
    for scenario, entry in POLICY_TABLE.items():
        assert config_from_dict({"scenario": scenario}).policies == (entry.default,)
        policies = list(entry.policies)[::-1]
        cfg = config_from_dict({"scenario": scenario, "horizon": 200, "seed": 5,
                                "policies": policies, "fleet": {"n": 4, "k": 2},
                                "mdp": {"q_max": 5.0, "q_step": 0.5}})
        rows = run(cfg)
        assert [m.policy for m in rows] == policies, scenario


def test_cli_assert_bounds_exit_code(monkeypatch):
    fake = RunMetrics(scenario="single", policy="adaptive", params={"rho": 0.25},
                      avg_uoi=99.0, stderr_uoi=0.1,
                      avg_update_freq=np.array([0.2]), violation_prob=None,
                      bound_value=10.45)
    monkeypatch.setattr(cli.harness, "run", lambda config: [fake])
    assert cli.main(["single", "--assert-bounds", "--horizon", "10"]) == 3


def test_cli_prints_huge_numbers_in_exponent_notation(tmp_path, capsys, monkeypatch):
    # fixed notation below magnitude 1e15, exponent notation from there on
    assert [cli._num(x) for x in (12.5, -999999999999999.9, 1e15, -2.5e305, math.inf)] == [
        "12.500000", "-999999999999999.875000", "1.000000e+15", "-2.500000e+305", "inf"]
    cfgf = tmp_path / "huge.json"
    cfgf.write_text(json.dumps({"scenario": "single", "horizon": 3000,
                                "weights": {"w_hi": 1e305}}))
    assert cli.main(["single", "--config", str(cfgf)]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"\[single\] adaptive: avg_uoi=\d\.\d{6}e\+30\d freq=\d\.\d{4} "
                        r"bound=\d\.\d{6}e\+30\d", line), line
    fake = RunMetrics(scenario="single", policy="adaptive", params={"rho": 0.25},
                      avg_uoi=3e300, stderr_uoi=1e298, avg_update_freq=np.array([0.2]),
                      violation_prob=None, bound_value=2e300)
    monkeypatch.setattr(cli.harness, "run", lambda config: [fake])
    assert cli.main(["single", "--assert-bounds", "--horizon", "10"]) == 3
    assert ("bound violated: adaptive avg_uoi 3.000000e+300 > bound 2.000000e+300 "
            "+ 3.000000e+298") in capsys.readouterr().err


def test_cli_csma_flags(tmp_path):
    out = tmp_path / "csma.csv"
    code = cli.main(["csma", "--horizon", "3000", "--n", "5", "--window", "8",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    line = out.read_text().splitlines()[1].split(",")
    assert line[0] == "csma" and line[6] == "8"  # W column carries the window


def test_cli_control_flags(capsys):
    code = cli.main(["control", "--horizon", "3000", "--policy", "periodic",
                     "--a", "0.9", "--noise-var", "2.0"])
    assert code == 0
    assert "periodic" in capsys.readouterr().out


def test_cli_trace_of_a_run_that_records_none_is_config_error(tmp_path, capsys):
    # only single, multi, csma and control runs record a trace: mdp and
    # waterfill reject the flag rather than write rows without one
    out = tmp_path / "w.jsonl"
    assert cli.main(["waterfill", "--trace", "--format", "jsonl", "--out", str(out)]) == 2
    assert "'trace'" in capsys.readouterr().err
    assert not out.exists()
    cfgf = tmp_path / "mdp.json"
    cfgf.write_text(json.dumps({"scenario": "mdp", "trace": True}))
    assert cli.main(["mdp", "--config", str(cfgf)]) == 2
    assert "'trace'" in capsys.readouterr().err


def test_cli_mdp_emits_policy_table(tmp_path):
    out = tmp_path / "policy.txt"
    code = cli.main(["mdp", "--policy", "rvi-aoi", "--rho", "0.5",
                     "--qmax", "4", "--qstep", "0.5", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# cost_kind=aoi")
    assert "# age -> P(transmit)" in text


def test_cli_mdp_prints_each_table_in_policy_order(capsys):
    argv = ["mdp", "--rho", "0.3", "--qmax", "4", "--qstep", "0.5"]
    single = {}
    for pol in ("rvi-aoi", "rvi-uoi"):
        assert cli.main(argv + ["--policy", pol]) == 0
        single[pol] = capsys.readouterr()
    assert cli.main(argv + ["--policy", "rvi-uoi", "--policy", "rvi-aoi"]) == 0
    both = capsys.readouterr()
    assert both.out == single["rvi-uoi"].out + single["rvi-aoi"].out
    assert both.err == single["rvi-uoi"].err + single["rvi-aoi"].err


@pytest.mark.parametrize("argv", [
    ["single", "--horizon", "10"],
    ["mdp", "--policy", "rvi-aoi", "--qmax", "4", "--qstep", "0.5"],
])
def test_cli_unwritable_out_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv,out", [
    (["single"], "missing/x.csv"),
    (["multi", "--format", "jsonl"], "missing/x.jsonl"),
    (["mdp"], "missing/table.txt"),
    (["single"], "adir"),                        # a directory where a file goes
    (["single", "--format", "plot"], "afile"),   # a file where a directory goes
    (["single", "--format", "plot"], "afile/sub"),  # a file among the parents
])
def test_cli_unwritable_out_is_found_before_the_run(argv, out, tmp_path, capsys,
                                                      monkeypatch):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")

    def no_run(config):
        raise AssertionError("ran with an unwritable --out")
    monkeypatch.setattr(cli.harness, "run", no_run)
    path = tmp_path / out
    assert cli.main(argv + ["--out", str(path)]) == 2
    assert f"error: cannot write {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["control", "--policy", "rvi-aoi", "--horizon", "3000", "--format", "jsonl"],
    ["single", "--format", "csv"],
    ["mdp", "--format", "plot"],
])
def test_cli_format_without_out_is_config_error(argv, capsys, monkeypatch):
    # an explicit --format names the file --out writes: without --out it
    # would be ignored, so the run exits 2 before it starts
    def no_run(config):
        raise AssertionError("ran with --format and no --out")
    monkeypatch.setattr(cli.harness, "run", no_run)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --format {argv[-1]} needs --out\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["mdp", "--rho", "0.25", "--format", "jsonl", "--out", "t.jsonl"],
     "mdp takes no --format jsonl"),   # the table is text whatever the suffix
    (["mdp", "--rho", "0.25", "--format", "plot", "--out", "pdir"],
     "mdp takes no --format plot"),    # the table is one file, not a directory
    (["waterfill", "--n", "3", "--k", "1", "--format", "plot", "--out", "wf"],
     "waterfill takes no --format plot"),   # its row has no average to plot
    (["single", "--trace", "--horizon", "100"], "--trace needs --format jsonl"),
    (["control", "--trace", "--horizon", "100", "--format", "csv", "--out", "c.csv"],
     "--trace needs --format jsonl"),
])
def test_cli_output_flags_that_write_nothing_useful_exit_2(argv, message, tmp_path, capsys,
                                                           monkeypatch):
    def no_run(config):
        raise AssertionError("ran with output flags that write nothing useful")
    monkeypatch.setattr(cli.harness, "run", no_run)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [[], ["--out", "x.csv"]], ids=["no-out", "csv-out"])
def test_cli_config_file_trace_needs_jsonl(out, tmp_path, capsys, monkeypatch):
    # "trace": true in the file asks for a trace just as --trace does: a run
    # whose rows would go nowhere, or to a csv without it, exits 2 first
    def no_run(config):
        raise AssertionError("ran a trace that no file takes")
    monkeypatch.setattr(cli.harness, "run", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tr.json").write_text(json.dumps({"scenario": "single", "trace": True,
                                                  "horizon": 100}))
    assert cli.main(["single", "--config", "tr.json"] + out) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --trace needs --format jsonl\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tr.json"]


def test_cli_negative_v_is_config_error(capsys):
    assert cli.main(["single", "--v", "-1", "--horizon", "10"]) == 2
    assert "'v'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["multi", "--k", "0"], "fleet.k"),
    (["multi", "--n", "0"], "fleet.n"),
    (["csma", "--window", "1", "--k", "2"], "contention.w"),
    (["mdp", "--qmax", "inf"], "mdp.q_max"),
    (["control", "--b", "0"], "control.b"),
    (["control", "--noise-var", "-1"], "control.noise_var"),
    (["single", "--seed", "-1"], "seed"),
    (["mdp", "--qstep", "inf"], "mdp.q_step"),
    (["csma", "--window", "2", "--k", "2"], "contention.w"),
])
def test_cli_invalid_domain_parameter_is_config_error(argv, field, capsys):
    assert cli.main(argv + ["--horizon", "10"]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["single", "control"])
def test_cli_subnormal_budget_runs_the_age_threshold_rule(scenario, tmp_path, capsys):
    # 1/rho overflows a float: the threshold lies past the horizon, so the
    # rule never attempts
    cfgf = tmp_path / "tiny.json"
    cfgf.write_text(json.dumps({"scenario": scenario, "horizon": 1000, "rho": 1e-310,
                                "policies": ["age-threshold"]}))
    assert cli.main([scenario, "--config", str(cfgf)]) == 0
    out = capsys.readouterr().out
    assert f"[{scenario}] age-threshold:" in out and " freq=0.0000" in out


@pytest.mark.parametrize("scenario,rho,p", [
    ("single", 1e-310, 0.8), ("single", 5e-324, 0.4), ("control", 5e-324, 0.4)])
def test_cli_adaptive_rule_at_subnormal_budget_rejects_rho(scenario, rho, p, tmp_path,
                                                           capsys):
    # p * rho is 8e-311, so the single bound omega_bar * sigma2 / (p * rho) is
    # inf, or underflows to 0, which leaves the index offset undefined
    cfgf = tmp_path / "tiny.json"
    cfgf.write_text(json.dumps({"scenario": scenario, "horizon": 1000, "rho": rho,
                                "terminal": {"p": p}}))
    assert cli.main([scenario, "--config", str(cfgf)]) == 2
    captured = capsys.readouterr()
    assert "'rho'" in captured.err and f"[{scenario}]" not in captured.out


@pytest.mark.parametrize("raw,field", [
    ({"scenario": "single", "weights": {"w_hi": 1e308}}, "weights"),
    ({"scenario": "control", "weights": {"w_hi": 1e308}}, "weights"),
    ({"scenario": "single", "terminal": {"sigma2": 1e306}}, "sigma2"),
    ({"scenario": "multi", "weights": {"w_hi": 1e308}}, "weights"),
    ({"scenario": "csma", "weights": {"w_hi": 1e308}}, "weights"),
    ({"scenario": "waterfill", "weights": {"kind": "constant", "w": 1e308}}, "weights"),
    ({"scenario": "control", "control": {"a": 1e200}}, "control.a"),
    ({"scenario": "control", "control": {"noise_var": 1e306}}, "control.noise_var"),
], ids=["single-weights", "control-weights", "single-sigma2", "multi-weights",
        "csma-weights", "waterfill-bound", "control-a", "control-noise_var"])
def test_cli_overflowing_cost_sum_exits_2_without_output(raw, field, tmp_path, capsys):
    # a finite config whose slot costs w * q^2, or whose fleet bound, overflow a
    # float; the overflow on the way there raises no numpy warning
    cfgf = tmp_path / "huge.json"
    cfgf.write_text(json.dumps(dict(raw, horizon=3000)))
    out = tmp_path / "rows.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([raw["scenario"], "--config", str(cfgf), "--out", str(out)]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_multi_ignores_contention_window():
    # the window only constrains csma; k above the default W = 16 is fine here
    assert cli.main(["multi", "--n", "20", "--k", "17", "--horizon", "10"]) == 0


def test_cli_csma_runs_at_one_window_past_k():
    # W = K exits 2 (test_cli_invalid_domain_parameter_is_config_error)
    assert cli.main(["csma", "--window", "3", "--k", "2", "--horizon", "10"]) == 0


def test_cli_mdp_has_no_cost_flag(capsys):
    # --policy rvi-aoi names the table
    with pytest.raises(SystemExit) as exc:
        cli.main(["mdp", "--cost", "aoi"])
    assert exc.value.code == 2
    assert "--cost" in capsys.readouterr().err


def test_cli_mdp_header_carries_calibrated_multiplier(tmp_path, capsys):
    out = tmp_path / "policy.txt"
    assert cli.main(["mdp", "--rho", "0.25", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert "lam=3.86581" in header
    assert "lam=3.86581" in capsys.readouterr().err
