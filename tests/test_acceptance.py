"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Heavy runs (10^6-slot horizons) are shared through module-scoped fixtures.
All runs are seeded, so every statistical assertion is reproducible.
"""

import math
import time

import numpy as np
import pytest

from conftest import (desk_terminal, desk_weights, fleet_weights,
                      grid_min_objective, make_fleet)
from uoi_sim.core import TerminalParams
from uoi_sim.csma import ContentionConfig, ContentionLanes
from uoi_sim.harness import config_from_dict, export, run
from uoi_sim.mdp import MdpGrid, calibrate_multiplier
from uoi_sim.multi import kkt_residual, fleet_uoi_bound, waterfill, waterfill_from_widths
from uoi_sim.rng import StreamFactory
from uoi_sim.sim import (FleetLane, adaptive_uoi_bound, run_fleet_lanes, run_single,
                         stderr_from_batches)

SEED = 20240817
HORIZON = 10**6
RHOS = (0.1, 0.25, 0.5, 0.75)
FLEET_SIZES = (10, 20, 30)
FLEET_POLICIES = ("centralized", "distributed", "aoi", "round-robin")


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def single_runs():
    params = desk_terminal()
    out = {}
    for rho in RHOS:
        t0 = time.monotonic()
        res = run_single(params, desk_weights(), rho=rho, v=1.0,
                         policy="adaptive", horizon=HORIZON,
                         factory=StreamFactory(SEED))
        out[rho] = (res, time.monotonic() - t0)
    return out


def test_criterion_1_adaptive_bound(single_runs):
    params = desk_terminal()
    details = []
    ok = True
    for rho in RHOS:
        res, elapsed = single_runs[rho]
        bound = adaptive_uoi_bound(params, rho, 1.0)
        se = stderr_from_batches(res.batch_means)
        ok &= res.avg_uoi <= bound + 3 * se
        ok &= elapsed < 60.0
        details.append(f"rho={rho}: {res.avg_uoi:.3f} <= {bound:.3f}+3*{se:.3f} "
                       f"[{elapsed:.1f}s]")
    _report(1, "adaptive UoI bound", ok, "; ".join(details))


def test_criterion_2_frequency_compliance(single_runs):
    details = []
    ok = True
    for rho in RHOS:
        res, _ = single_runs[rho]
        freq = res.update_freq[0]
        h_over_t = res.extras["h_over_t"]
        ok &= freq <= rho + 0.005
        ok &= h_over_t < 0.01
        details.append(f"rho={rho}: freq={freq:.4f}, H_T/T={h_over_t:.2e}")
    _report(2, "frequency compliance", ok, "; ".join(details))


def test_criterion_3_waterfill_correctness():
    rng = np.random.default_rng(314159)
    ok = True
    worst_gap = -math.inf
    worst_kkt = 0.0
    prop_checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        d = rng.uniform(0.2, 3.0, size=n)
        pol = waterfill_from_widths(d, k)
        gap = pol.objective - grid_min_objective(d, k)
        res = kkt_residual(d, k, pol)
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, res)
        ok &= gap <= 1e-6 and res < 1e-6
        if d.max() / d.sum() <= 1.0 / k:
            prop_checked += 1
            closed_form = k * d / d.sum()
            ok &= np.abs(pol.pi - closed_form).max() <= 1e-9
    _report(3, "water-filling correctness", ok,
            f"100 instances: max objective gap {worst_gap:.2e}, "
            f"max KKT residual {worst_kkt:.2e}, "
            f"{prop_checked} proportional cases matched to 1e-9")


def _conditioned_backoffs(rng, k: int, w: int, count: int) -> np.ndarray:
    """Uniform draws over backoff tuples conditioned on all-distinct."""
    out = np.empty((count, k), dtype=np.int64)
    filled = 0
    while filled < count:
        batch = rng.integers(0, w, size=(count, k))
        if k > 1:
            srt = np.sort(batch, axis=1)
            batch = batch[np.all(srt[:, 1:] != srt[:, :-1], axis=1)]
        take = min(len(batch), count - filled)
        out[filled:filled + take] = batch[:take]
        filled += take
    return out


def test_criterion_4_contention_window_law():
    rng = np.random.default_rng(271828)
    draws, n_lanes = 10**6, 1000
    rows = draws // n_lanes
    details = []
    ok = True
    for k, w in ((1, 8), (2, 16), (3, 16)):
        cfg = ContentionConfig(w=w, k=k)
        backoffs = _conditioned_backoffs(rng, k, w, draws)
        # a contention step of n_lanes lanes in which all k terminals of every
        # lane contend in every window: lane c takes backoff rows c * rows ...
        # (c + 1) * rows - 1 in order, one per window, and terminal i of lane c
        # (flat id c * k + i) draws column i of them
        columns = backoffs.reshape(n_lanes, rows, k).transpose(0, 2, 1).reshape(-1, rows)
        lanes = ContentionLanes([cfg] * n_lanes, k, [1.0] * n_lanes,
                                [iter(column).__next__ for column in columns.tolist()])
        every, sent = np.full((n_lanes, k), -np.inf), np.zeros(n_lanes * k, dtype=bool)
        window_sums = []
        for _ in range(rows):
            lanes.step(every, sent)
            window_sums.append(lanes.window_sum.copy())
        # (slot, lane) window lengths, read lane by lane: the rows' order
        lengths = np.diff(window_sums, axis=0, prepend=0).T.ravel()
        mean = lengths.mean()
        se = lengths.std(ddof=1) / math.sqrt(draws)
        target = cfg.expected_window
        ok &= abs(mean - target) <= 3 * se
        counts = np.bincount(lengths, minlength=w + 1)
        ecdf = np.cumsum(counts) / draws
        cdf_err = max(abs(ecdf[t] - math.comb(t, k) / math.comb(w, k))
                      for t in range(k, w + 1))
        ok &= cdf_err <= 0.005
        details.append(f"(K={k},W={w}): mean {mean:.4f} vs {target:.4f} "
                       f"(3se={3 * se:.4f}), cdf err {cdf_err:.4f}")
    _report(4, "contention window law", ok, "; ".join(details))


@pytest.fixture(scope="module")
def fleet_runs():
    # the four policies of one N run as lanes of one fleet loop, each on its
    # own StreamFactory(SEED): common random numbers across the policies
    out = {}
    for n in FLEET_SIZES:
        fleet = make_fleet(n, k=2)
        results = run_fleet_lanes(
            fleet, fleet_weights(),
            [FleetLane(policy, StreamFactory(SEED), window=16 if policy == "distributed" else None)
             for policy in FLEET_POLICIES],
            horizon=HORIZON, thresholds={1.0: 15.0, 100.0: 5.0})
        out.update({(n, policy): res for policy, res in zip(FLEET_POLICIES, results)})
        out[(n, "bound")] = fleet_uoi_bound(fleet, waterfill(fleet))
    return out


def test_criterion_5_scheduler_ordering(fleet_runs):
    order = ("centralized", "distributed", "aoi", "round-robin")
    details = []
    ok = True
    for n in FLEET_SIZES:
        avgs = {p: fleet_runs[(n, p)].avg_uoi for p in order}
        ses = {p: stderr_from_batches(fleet_runs[(n, p)].batch_means) for p in order}
        for lo, hi in zip(order, order[1:]):
            gap = avgs[hi] - avgs[lo]
            need = 2 * math.sqrt(ses[lo] ** 2 + ses[hi] ** 2)
            ok &= gap >= need
        details.append(
            f"N={n}: " + " <= ".join(f"{p}:{avgs[p]:.2f}" for p in order))
    _report(5, "scheduler ordering", ok, "; ".join(details))


def test_criterion_5b_fleet_bound(fleet_runs):
    # the centralized scheduler respects its stationary-policy ceiling
    details = []
    ok = True
    for n in FLEET_SIZES:
        res = fleet_runs[(n, "centralized")]
        bound = fleet_runs[(n, "bound")]
        se = stderr_from_batches(res.batch_means)
        ok &= res.avg_uoi <= bound + 3 * se
        details.append(f"N={n}: {res.avg_uoi:.2f} <= {bound:.2f}")
    _report(5, "fleet UoI bound (supporting)", ok, "; ".join(details))


def test_criterion_6_violation_reduction(fleet_runs):
    cent = fleet_runs[(30, "centralized")].violation_prob
    aoi = fleet_runs[(30, "aoi")].violation_prob
    ok = cent <= 0.5 * aoi
    _report(6, "violation reduction at N=30", ok,
            f"centralized {cent:.5f} vs aoi {aoi:.5f} (ratio {cent / aoi:.2%})")


@pytest.fixture(scope="module")
def rvi_tables():
    params = desk_terminal()
    grid = MdpGrid.default(params.sigma2, desk_weights().support())
    _, uoi_tab = calibrate_multiplier(grid, params, 0.25, "uoi")
    _, aoi_tab = calibrate_multiplier(grid, params, 0.25, "aoi")
    return uoi_tab, aoi_tab


def test_criterion_7_near_optimality(rvi_tables):
    uoi_tab, aoi_tab = rvi_tables
    params = desk_terminal()
    runs = {}
    for policy, table in (("adaptive", None), ("rvi-uoi", uoi_tab), ("rvi-aoi", aoi_tab)):
        runs[policy] = run_single(params, desk_weights(), rho=0.25, v=1.0,
                                  policy=policy, horizon=HORIZON,
                                  factory=StreamFactory(SEED), policy_table=table)
    adaptive = runs["adaptive"].avg_uoi
    se_a = stderr_from_batches(runs["adaptive"].batch_means)
    aoi_uoi = runs["rvi-aoi"].avg_uoi
    se_o = stderr_from_batches(runs["rvi-aoi"].batch_means)
    ratio = adaptive / uoi_tab.avg_cost
    gap = aoi_uoi - adaptive
    need = 3 * math.sqrt(se_a ** 2 + se_o ** 2)
    ok = ratio <= 1.2 and gap >= need
    _report(7, "near-optimality vs RVI", ok,
            f"adaptive {adaptive:.3f} vs optimal {uoi_tab.avg_cost:.3f} "
            f"(ratio {ratio:.3f}); aoi-optimal UoI {aoi_uoi:.3f} "
            f"(gap {gap:.3f} >= {need:.3f}); "
            f"rvi-uoi simulated {runs['rvi-uoi'].avg_uoi:.3f}")


def test_criterion_8_control_decomposition():
    a, noise_var = 1.0, 1.0
    # the tracking error is the error of this terminal with memory a
    params = TerminalParams(id=0, p=0.8, sigma2=noise_var, omega_bar=desk_weights().mean)
    details = []
    ok = True
    for policy in ("adaptive", "periodic", "random", "age-threshold"):
        res = run_single(params, desk_weights(), rho=0.25, v=1.0, policy=policy,
                         horizon=HORIZON, factory=StreamFactory(SEED), a=a)
        rhs = res.extras["avg_est_cost"] + desk_weights().mean * noise_var
        rel = abs(res.avg_uoi - rhs) / rhs
        ok &= rel <= 0.02
        details.append(f"{policy}: track {res.avg_uoi:.3f} vs "
                       f"est+floor {rhs:.3f} (gap {rel:.2%})")
    _report(8, "tracking-cost decomposition", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path):
    cfg = {"scenario": "single", "horizon": HORIZON, "seed": SEED,
           "rho": 0.25, "policies": ["adaptive"]}
    paths = []
    for name in ("one.csv", "two.csv"):
        rows = run(config_from_dict(dict(cfg)))
        path = tmp_path / name
        export(rows, "csv", str(path))
        paths.append(path)
    same = paths[0].read_bytes() == paths[1].read_bytes()
    _report(9, "byte-identical reruns", same,
            f"{paths[0].read_text().splitlines()[1][:80]}")
