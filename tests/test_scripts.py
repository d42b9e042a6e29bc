"""Smoke runs of the figure scripts on tiny inputs: each one runs to the
end and writes the files it says it wrote."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from uoi_sim.harness import config_from_dict, run

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
HORIZON = ["--horizon", "300"]

# script -> (arguments after --horizon, files it writes, relative to the run dir)
RUNS = {
    "fig_control_demo": (["--out", "control.csv"], ["control.csv"]),
    "fig_fleet_comparison": (
        ["--replications", "2", "--sizes", "4", "--out", "fleet"],
        ["fleet.csv", "fleet/curve_aoi.dat", "fleet/curve_centralized.dat",
         "fleet/curve_distributed_W16.dat", "fleet/curve_round-robin.dat"]),
    "fig_near_optimal": (
        ["--rhos", "0.25", "--out", "near"],
        ["near/curve_adaptive_V1.dat", "near/curve_rvi-aoi_V1.dat",
         "near/curve_rvi-uoi_V1.dat"]),
    "fig_single_trace": (["--out", "trace.csv"], ["trace.csv"]),
    "fig_tradeoff": (["--vs", "1", "--rhos", "0.25", "--out", "tradeoff"],
                     ["tradeoff/curve_adaptive_V1.dat"]),
    "fig_window_ratio": (["--windows", "4", "16", "--out", "ratio.csv"], ["ratio.csv"]),
}


def test_every_figure_script_has_a_run():
    assert sorted(RUNS) == sorted(p.stem for p in SCRIPTS.glob("fig_*.py"))


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("name", sorted(RUNS))
def test_figure_script_writes_what_it_says(name, tmp_path, monkeypatch, capsys):
    script = _load(name)
    args, files = RUNS[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + HORIZON + args)
    script.main()
    out = capsys.readouterr().out
    for rel in files:
        assert (tmp_path / rel).stat().st_size > 0, rel
    # each file is named in the script's "wrote" line, or lies in a
    # directory named there
    wrote = out[out.index("wrote "):]
    assert all(rel in wrote or rel.split("/")[0] + "/" in wrote for rel in files), wrote


@pytest.mark.parametrize("name,out", [
    ("fig_single_trace", "missing/trace.csv"),   # a csv file in no directory
    ("fig_tradeoff", "afile/tradeoff"),           # a plot directory under a file
])
def test_figure_script_rejects_an_unwritable_out_before_the_run(name, out, tmp_path,
                                                                 monkeypatch, capsys):
    script = _load(name)

    def no_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(script, "run", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + HORIZON + ["--out", out])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("windows", [["2"], ["4", "1", "16"]], ids=["2", "4-1-16"])
def test_window_ratio_rejects_a_window_not_past_k_before_the_run(windows, tmp_path,
                                                                 monkeypatch, capsys):
    # K = 2: a window of W = K never closes before its expected length K
    script = _load("fig_window_ratio")

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(script, "run_fleet_lanes", no_run)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["fig_window_ratio.py"] + HORIZON
                        + ["--windows", *windows, "--out", "ratio.csv"])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    bad = next(w for w in windows if int(w) <= 2)
    assert capsys.readouterr().err == ("error: config field 'contention.w': must be an "
                                       f"integer greater than k = 2, got {bad}\n")
    assert not (tmp_path / "ratio.csv").exists()


def test_single_rows_read_no_control_value():
    # the single and control scenarios share a runner: a valid control
    # section leaves every single row, trace and rvi-aoi table included,
    # bit for bit as it is without the section
    fingerprint = _load("fingerprint")
    raw = {"scenario": "single", "horizon": 2000, "replications": 2, "seed": 3,
           "trace": True, "policies": ["adaptive", "periodic", "rvi-aoi"],
           "mdp": {"q_max": 8.0, "q_step": 0.5}}
    plain = run(config_from_dict(raw))
    with_plant = run(config_from_dict(dict(raw, control={"a": 2, "b": 3, "noise_var": 5})))
    assert fingerprint.digest(with_plant) == fingerprint.digest(plain)


def test_fingerprint_is_deterministic_and_counts_the_harness_draws():
    # the bitwise gate between checkouts: equal lines on equal code, one per
    # policy plus the draw counts of the factories the harness made
    fingerprint = _load("fingerprint")
    raw = fingerprint.CONFIGS["control"]
    lines = fingerprint.fingerprint("control", raw, 7)
    assert fingerprint.fingerprint("control", raw, 7) == lines
    assert [line.split()[-1] for line in lines] == raw["policies"] + ["draws"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  control seed=7 \S+", line) for line in lines)
    assert lines[-1].split()[0] != fingerprint.digest([])
