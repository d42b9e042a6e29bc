"""CSMA/CA contention: backoff resolution and threshold adaptation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (COLLISION, ThresholdState, adapt_threshold_state, contention_step,
                      contention_window, fixed_backoffs)
from uoi_sim.core import FieldError
from uoi_sim.csma import ContentionConfig, ContentionLanes, default_delta_j


def _contend(backoffs: dict[int, int], w: int, k: int):
    """(winners, colliders, window_len, idle_channels) of one window of one
    lane in which the terminals in `backoffs` contend, each firing after its
    backoff."""
    n = max(backoffs) + 1
    lanes = ContentionLanes([ContentionConfig(w=w, k=k)], n, [1.0], fixed_backoffs(backoffs))
    return contention_step(lanes, n, [sorted(backoffs)])[0]


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
    with pytest.raises(ValueError, match="backoff 8 outside"):
        _contend({0: 8}, w=8, k=2)
    with pytest.raises(ValueError, match="backoff -1 outside"):
        _contend({0: 3, 1: -1}, w=8, k=2)


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
        lanes = ContentionLanes([cfg], k, [1.0], fixed_backoffs(dict(enumerate(perm))))
        [(_, colliders, window_len, idle)] = contention_step(lanes, k, [list(range(k))])
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
        # every terminal contends in every window, terminal i drawing column i
        lanes = ContentionLanes([cfg], n_active, [1.0],
                                [iter(col).__next__ for col in backoff_matrix.T.tolist()])
        every, sent = np.full((1, n_active), -np.inf), np.zeros(n_active, dtype=bool)
        collided = 0
        for _ in range(draws):
            lanes.step(every, sent)
            collided += bool(lanes.collided)
            lanes.collided.clear()
        rate = collided / draws
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / draws)
        if prev_rate is not None:
            assert rate >= prev_rate - 2 * (se + prev_se)
        prev_rate, prev_se = rate, se


def test_adapt_threshold_examples():
    # W = 16, K = 2, expected window 11.33, delta_j = 2: terminals 0 and 1
    # close the window at mini-slot 5 (short), 2 and 3 at 12 (long), and 4
    # alone leaves a sub-channel idle
    cfg = ContentionConfig(w=16, k=2)
    backoffs = {0: 2, 1: 4, 2: 3, 3: 11, 4: 4}
    lanes = ContentionLanes([cfg], 5, [2.0], fixed_backoffs(backoffs), traced=[True])
    short, long, idle = [0, 1], [2, 3], [4]
    for active in [idle] + [short] * 5 + [idle, long, short]:
        contention_step(lanes, 5, [active])
    # clamped at zero, raised five times, lowered, unchanged, raised
    assert lanes.hist == [[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 8.0, 8.0, 10.0]]
    assert lanes.j_th == [10.0]


def test_step_contenders_are_the_terminals_above_the_threshold():
    # two lanes of three terminals, K = 1, every backoff 0
    cfg = ContentionConfig(w=16, k=1)
    lanes = ContentionLanes([cfg, cfg], 3, [1.5, 0.5], fixed_backoffs(dict.fromkeys(range(6), 0)))
    every, sent = np.full((2, 3), -np.inf), np.zeros(6, dtype=bool)
    lanes.step(every, sent)   # each lane's three collide, closing at mini-slot 1: both raise
    assert lanes.j_th == [1.5, 0.5] and lanes.collided == list(range(6)) and not sent.any()
    # negated indices: only an index strictly above the lane's threshold contends
    lanes.step(np.array([[-1.5, -1.6, -1.4], [-0.5, -0.4, -0.7]]), sent)
    assert sent.tolist() == [False, True, False, False, False, True]
    assert lanes.window_sum == [2, 2] and lanes.idle_sum == [0, 0]
    assert lanes.collider_sum == [3, 3] and lanes.j_th == [3.0, 1.0]


def test_threshold_returns_to_zero_under_zero_load():
    cfg = ContentionConfig(w=16, k=2)
    lanes = ContentionLanes([cfg], 2, [2.5], fixed_backoffs({0: 0, 1: 1}), traced=[True])
    for _ in range(3):   # windows that close at mini-slot 2 < 11.33 raise it
        contention_step(lanes, 2, [[0, 1]])
    for _ in range(10):
        assert contention_step(lanes, 2, [[]]) == [([], [], cfg.w, cfg.k)]
    assert lanes.hist == [[2.5, 5.0, 7.5, 5.0, 2.5] + [0.0] * 8]


def test_contention_step_matches_oracles_on_random_windows():
    # the seven (W, K) windows as seven lanes of one step, 2000 slots, up to
    # 9 contenders among a lane's 12 terminals; one window in 8 puts every
    # contender on one backoff
    rng = np.random.default_rng(20261018)
    cfgs = [ContentionConfig(w=w, k=k)
            for w, k in itertools.product((2, 4, 8, 16), (2, 3)) if k <= w]
    n = 12
    delta_j = [float(rng.uniform(0.1, 3.0)) for _ in cfgs]
    drawn: dict[int, int] = {}   # flat id -> its backoff in the current slot
    lanes = ContentionLanes(cfgs, n, delta_j,
                            [lambda t=t: drawn[t] for t in range(len(cfgs) * n)])
    states = [ThresholdState(j_th=0.0, delta_j=dj) for dj in delta_j]
    windows = empty = all_collide = colliders = 0
    for _ in range(2000):
        active, backoffs = [], []
        for c, cfg in enumerate(cfgs):
            ids = sorted(rng.choice(n, size=rng.integers(0, 10), replace=False).tolist())
            if rng.random() < 0.125:
                backoffs.append(dict.fromkeys(ids, int(rng.integers(0, cfg.w))))
            else:
                backoffs.append({t: int(rng.integers(0, cfg.w)) for t in ids})
            drawn.update({c * n + t: l for t, l in backoffs[-1].items()})
            active.append(ids)
        for c, got in enumerate(contention_step(lanes, n, active)):
            window = contention_window(backoffs[c], cfgs[c].w, cfgs[c].k)
            assert got == (sorted(t for t in window.reservations.values() if t != COLLISION),
                           list(window.collided), window.window_len, window.idle_channels)
            states[c] = adapt_threshold_state(states[c], window, cfgs[c])
            windows += 1
            empty += not active[c]
            all_collide += len(active[c]) > 1 and len(set(backoffs[c].values())) == 1
            colliders += len(window.collided)
        assert lanes.j_th == [s.j_th for s in states]
    assert sum(lanes.collider_sum) == colliders
    assert windows >= 10_000 and empty > 100 and all_collide > 100


def test_contention_config_validation():
    with pytest.raises(ValueError):
        ContentionConfig(w=1, k=2)
    assert ContentionConfig(w=16, k=2).slot_scale == pytest.approx(1.16)
    assert ContentionConfig(w=64, k=2).slot_scale == pytest.approx(1.64)
    assert ContentionConfig(w=np.int64(4), k=np.int64(2)).expected_window == pytest.approx(10 / 3)


@pytest.mark.parametrize("w,k,field", [(16.5, 2, "w"), (16.0, 2, "w"), (True, 1, "w"),
                                       (16, 2.5, "k"), (16, True, "k"), (16, "2", "k")])
def test_contention_config_rejects_a_non_integral_field(w, k, field):
    # numpy would floor a fractional W in the backoff draws, while the slot
    # scale and the expected window used it as given
    with pytest.raises(FieldError, match="must be an integer") as err:
        ContentionConfig(w=w, k=k)
    assert err.value.field == field


def test_default_delta_j_is_mean_uoi_growth():
    assert default_delta_j(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == pytest.approx(2.5)
