"""CSMA/CA contention: backoff resolution and threshold adaptation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from uoi_sim.csma import (COLLISION, ContentionConfig, ContentionOutcome,
                          ThresholdState, adapt_threshold, contend,
                          default_delta_j, expected_window)


def _contend(backoffs: dict[int, int], w: int, k: int) -> ContentionOutcome:
    return contend(sorted(backoffs), ContentionConfig(w=w, k=k), backoffs.__getitem__)


def test_contend_single_active():
    out = _contend({7: 4}, w=16, k=2)
    assert out.reservations == {1: 7}
    assert out.collided == ()
    assert out.idle_channels == 1
    assert out.window_len == 16  # idle channel left: window runs out


def test_contend_fig5_walkthrough():
    # three actives, backoffs (2, 8, 8), two sub-channels: the early terminal
    # reserves channel 1; the simultaneous pair collides on channel 2.
    out = _contend({0: 2, 1: 8, 2: 8}, w=16, k=2)
    assert out.reservations == {1: 0, 2: COLLISION}
    assert out.collided == (1, 2)
    assert out.idle_channels == 0
    assert out.window_len == 9
    assert out.winners() == [0]


def test_contend_loser_stays_silent():
    out = _contend({0: 0, 1: 1}, w=3, k=1)
    assert out.reservations == {1: 0}
    assert out.collided == ()
    assert out.window_len == 1


def test_contend_collision_channel_counts_occupied():
    out = _contend({0: 1, 1: 1, 2: 2}, w=8, k=2)
    assert out.reservations == {1: COLLISION, 2: 2}
    assert out.collided == (0, 1)
    assert out.window_len == 3


def test_contend_at_most_k_reservations():
    out = _contend({i: i for i in range(6)}, w=8, k=3)
    assert len(out.reservations) == 3
    assert out.reservations == {1: 0, 2: 1, 3: 2}
    assert out.window_len == 3


def test_expected_window_examples():
    assert expected_window(2, 16) == pytest.approx(11.3333, abs=1e-4)
    assert expected_window(1, 3) == pytest.approx(2.0)
    assert expected_window(2, 3) == pytest.approx(8.0 / 3.0)
    with pytest.raises(ValueError):
        expected_window(4, 3)


@pytest.mark.parametrize("k,w", [(1, 3), (2, 3), (2, 4), (3, 5), (2, 8)])
def test_window_length_enumeration_matches_formula(k, w):
    """Enumerating every distinct-backoff assignment, the mean closing
    mini-slot equals k/(k+1) * (w+1) exactly, and the distribution matches
    binom(t, k) / binom(w, k)."""
    cfg = ContentionConfig(w=w, k=k)
    lengths = []
    for perm in itertools.permutations(range(w), k):
        backoffs = dict(enumerate(perm))
        out = contend(list(range(k)), cfg, backoffs.__getitem__)
        assert out.idle_channels == 0 and not out.collided
        lengths.append(out.window_len)
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
            mapping = dict(enumerate(row))
            out = contend(list(range(n_active)), cfg, mapping.__getitem__)
            collided += bool(out.collided)
        rate = collided / draws
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / draws)
        if prev_rate is not None:
            assert rate >= prev_rate - 2 * (se + prev_se)
        prev_rate, prev_se = rate, se


def test_adapt_threshold_examples():
    cfg = ContentionConfig(w=16, k=2)
    th = ThresholdState(j_th=10.0, delta_j=2.0)
    idle = ContentionOutcome(reservations={1: 0}, window_len=16, idle_channels=1)
    assert adapt_threshold(th, idle, cfg).j_th == pytest.approx(8.0)

    fast = ContentionOutcome(reservations={1: 0, 2: 1}, window_len=5, idle_channels=0)
    assert adapt_threshold(th, fast, cfg).j_th == pytest.approx(12.0)  # 5 < 11.33

    slow = ContentionOutcome(reservations={1: 0, 2: 1}, window_len=12, idle_channels=0)
    assert adapt_threshold(th, slow, cfg).j_th == pytest.approx(10.0)  # unchanged

    low = ThresholdState(j_th=1.0, delta_j=2.0)
    assert adapt_threshold(low, idle, cfg).j_th == 0.0  # clamped


def test_threshold_returns_to_zero_under_zero_load():
    cfg = ContentionConfig(w=16, k=2)
    th = ThresholdState(j_th=7.3, delta_j=2.0)
    for _ in range(10):
        out = contend([], cfg, lambda tid: 0)
        assert out.idle_channels == cfg.k
        th = adapt_threshold(th, out, cfg)
    assert th.j_th == 0.0


def test_contention_config_validation():
    with pytest.raises(ValueError):
        ContentionConfig(w=1, k=2)
    assert ContentionConfig(w=16, k=2).slot_scale == pytest.approx(1.16)
    assert ContentionConfig(w=64, k=2).slot_scale == pytest.approx(1.64)


def test_default_delta_j_is_mean_uoi_growth():
    assert default_delta_j(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == pytest.approx(2.5)
