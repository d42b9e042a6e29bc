"""CSMA/CA contention: backoff resolution and threshold adaptation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (COLLISION, ThresholdState, adapt_threshold_state, contention_window,
                      fixed_backoffs)
from uoi_sim.csma import ContentionConfig, adapt_threshold, contend, default_delta_j


def _contend(backoffs: dict[int, int], w: int, k: int):
    """(winners, colliders, window_len, idle_channels) of the terminals in
    `backoffs`, in id order, each firing after its backoff."""
    return contend(sorted(backoffs), ContentionConfig(w=w, k=k), fixed_backoffs(backoffs))


def test_contend_single_active():
    # idle channel left: the window runs out
    assert _contend({7: 4}, w=16, k=2) == ([7], [], 16, 1)


def test_contend_fig5_walkthrough():
    # three actives, backoffs (2, 8, 8), two sub-channels: the early terminal
    # reserves channel 1; the simultaneous pair collides on channel 2.
    assert _contend({0: 2, 1: 8, 2: 8}, w=16, k=2) == ([0], [1, 2], 9, 0)


def test_contend_loser_stays_silent():
    assert _contend({0: 0, 1: 1}, w=3, k=1) == ([0], [], 1, 0)


def test_contend_collision_channel_counts_occupied():
    assert _contend({0: 1, 1: 1, 2: 2}, w=8, k=2) == ([2], [0, 1], 3, 0)


def test_contend_at_most_k_reservations():
    assert _contend({i: i for i in range(6)}, w=8, k=3) == ([0, 1, 2], [], 3, 0)


def test_contend_rejects_a_backoff_outside_the_window():
    with pytest.raises(ValueError, match="outside"):
        _contend({0: 8}, w=8, k=2)


def test_expected_window_examples():
    assert ContentionConfig(w=16, k=2).expected_window == pytest.approx(11.3333, abs=1e-4)
    assert ContentionConfig(w=3, k=1).expected_window == pytest.approx(2.0)
    assert ContentionConfig(w=3, k=2).expected_window == pytest.approx(8.0 / 3.0)
    with pytest.raises(ValueError):
        ContentionConfig(w=3, k=4)


@pytest.mark.parametrize("k,w", [(1, 3), (2, 3), (2, 4), (3, 5), (2, 8)])
def test_window_length_enumeration_matches_formula(k, w):
    """Enumerating every distinct-backoff assignment, the mean closing
    mini-slot equals k/(k+1) * (w+1) exactly, and the distribution matches
    binom(t, k) / binom(w, k)."""
    cfg = ContentionConfig(w=w, k=k)
    lengths = []
    for perm in itertools.permutations(range(w), k):
        _, colliders, window_len, idle = contend(
            list(range(k)), cfg, fixed_backoffs(dict(enumerate(perm))))
        assert idle == 0 and not colliders
        lengths.append(window_len)
    mean = Fraction(sum(lengths), len(lengths))
    assert mean == Fraction(k, k + 1) * (w + 1)
    counts = np.bincount(lengths, minlength=w + 1)
    cdf = np.cumsum(counts) / len(lengths)
    for t in range(k, w + 1):
        expected = math.comb(t, k) / math.comb(w, k)
        assert cdf[t] == pytest.approx(expected, abs=1e-12)


def test_collision_probability_monotone_in_actives():
    cfg = ContentionConfig(w=16, k=2)
    rng = np.random.default_rng(99)
    draws = 10**5
    prev_rate, prev_se = None, None
    for n_active in (2, 3, 4, 6, 8):
        backoff_matrix = rng.integers(0, cfg.w, size=(draws, n_active))
        collided = 0
        for row in backoff_matrix:
            colliders = contend(list(range(n_active)), cfg,
                                fixed_backoffs(dict(enumerate(row))))[1]
            collided += bool(colliders)
        rate = collided / draws
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / draws)
        if prev_rate is not None:
            assert rate >= prev_rate - 2 * (se + prev_se)
        prev_rate, prev_se = rate, se


def test_adapt_threshold_examples():
    expected = ContentionConfig(w=16, k=2).expected_window
    # adapt_threshold(j_th, delta_j, idle_channels, window_len, expected)
    assert adapt_threshold(10.0, 2.0, 1, 16, expected) == pytest.approx(8.0)   # idle
    assert adapt_threshold(10.0, 2.0, 0, 5, expected) == pytest.approx(12.0)   # 5 < 11.33
    assert adapt_threshold(10.0, 2.0, 0, 12, expected) == pytest.approx(10.0)  # unchanged
    assert adapt_threshold(1.0, 2.0, 1, 16, expected) == 0.0  # clamped


def test_threshold_returns_to_zero_under_zero_load():
    cfg = ContentionConfig(w=16, k=2)
    j_th = 7.3
    for _ in range(10):
        winners, colliders, window_len, idle = contend([], cfg, [])
        assert (winners, colliders, window_len, idle) == ([], [], cfg.w, cfg.k)
        j_th = adapt_threshold(j_th, 2.0, idle, window_len, cfg.expected_window)
    assert j_th == 0.0


def test_contention_step_matches_oracles_on_random_windows():
    # 2000 chained windows per (W, K), up to 9 contenders among 12
    # terminals; one window in 8 puts every contender on one backoff
    rng = np.random.default_rng(20261018)
    windows = empty = all_collide = 0
    for w, k in itertools.product((2, 4, 8, 16), (2, 3)):
        if k > w:
            continue
        cfg = ContentionConfig(w=w, k=k)
        expected = cfg.expected_window
        delta_j = float(rng.uniform(0.1, 3.0))
        j_th, state = 0.0, ThresholdState(j_th=0.0, delta_j=delta_j)
        for _ in range(2000):
            active = sorted(rng.choice(12, size=rng.integers(0, 10), replace=False).tolist())
            if rng.random() < 0.125:
                backoffs = dict.fromkeys(active, int(rng.integers(0, w)))
            else:
                backoffs = {t: int(rng.integers(0, w)) for t in active}
            winners, colliders, window_len, idle = contend(
                active, cfg, fixed_backoffs(backoffs))
            window = contention_window(backoffs, w, k)
            assert winners == [t for t in window.reservations.values() if t != COLLISION]
            assert (colliders, window_len, idle) == (
                list(window.collided), window.window_len, window.idle_channels)
            j_th = adapt_threshold(j_th, delta_j, idle, window_len, expected)
            state = adapt_threshold_state(state, window, cfg)
            assert j_th == state.j_th
            windows += 1
            empty += not active
            all_collide += len(active) > 1 and len(set(backoffs.values())) == 1
    assert windows >= 10_000 and empty > 100 and all_collide > 100


def test_contention_config_validation():
    with pytest.raises(ValueError):
        ContentionConfig(w=1, k=2)
    assert ContentionConfig(w=16, k=2).slot_scale == pytest.approx(1.16)
    assert ContentionConfig(w=64, k=2).slot_scale == pytest.approx(1.64)


def test_default_delta_j_is_mean_uoi_growth():
    assert default_delta_j(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == pytest.approx(2.5)
