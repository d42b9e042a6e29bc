"""Domain types, stream sampling, and the error and UoI step operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ErrorQueue, step_error, uoi
from uoi_sim.core import (ConstantWeights, GaussianIncrements,
                          PeriodicBurstWeights, TerminalParams, TwoPointWeights,
                          sample_channel_block)
from uoi_sim.rng import Buffered, StreamFactory


def test_uoi_examples():
    assert uoi(100.0, 2.0) == pytest.approx(400.0)
    assert uoi(1.0, 0.0) == 0.0
    assert uoi(1.99, -3.0) == pytest.approx(17.91)


def test_uoi_rejects_nonpositive_weight():
    # the context weight of the metric comes from a weight process, and
    # every weight process refuses a nonpositive or non-finite value
    with pytest.raises(ValueError):
        ConstantWeights(0.0)
    with pytest.raises(ValueError):
        TwoPointWeights(-2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        PeriodicBurstWeights(1.0, 0.0, 10, 2)
    with pytest.raises(ValueError):
        ConstantWeights(math.inf)
    with pytest.raises(ValueError):
        TwoPointWeights(math.nan, 100.0, 0.01)
    with pytest.raises(ValueError):
        PeriodicBurstWeights(1.0, math.nan, 10, 2)


def test_step_error_examples():
    q = ErrorQueue(q=4.0)
    assert step_error(q, 1, 1, 0.3).q == pytest.approx(0.3)
    assert step_error(q, 0, 1, 0.3).q == pytest.approx(4.3)
    assert step_error(q, 1, 0, -1.0).q == pytest.approx(3.0)


def test_step_error_tracks_delivery_slot():
    q = ErrorQueue()
    q = step_error(q, 0, 1, 1.0)
    assert q.last_delivery_slot == -1 and q.slot == 1
    q = step_error(q, 1, 1, 0.5)
    assert q.last_delivery_slot == 1 and q.slot == 2
    q = step_error(q, 1, 0, 0.5)  # failed channel: no delivery
    assert q.last_delivery_slot == 1 and q.slot == 3


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(q=finite, u=st.integers(0, 1), s=st.integers(0, 1), a=finite)
def test_error_recursion_exact(q, u, s, a):
    # Q' is exactly the recursion (1 - D) Q + A, and a delivery resets to A.
    before = ErrorQueue(q=q)
    after = step_error(before, u, s, a)
    d = u * s
    assert after.q == (1 - d) * q + a
    if d:
        assert after.q == a


@pytest.mark.parametrize("params", [
    dict(id=0, p=0.0, sigma2=1.0, omega_bar=1.0),
    dict(id=0, p=1.1, sigma2=1.0, omega_bar=1.0),
    dict(id=0, p=0.5, sigma2=0.0, omega_bar=1.0),
    dict(id=0, p=0.5, sigma2=1.0, omega_bar=0.0),
    dict(id=0, p=math.nan, sigma2=1.0, omega_bar=1.0),
    dict(id=0, p=0.5, sigma2=math.nan, omega_bar=1.0),
    dict(id=0, p=0.5, sigma2=1.0, omega_bar=math.inf),
])
def test_terminal_params_validation(params):
    with pytest.raises(ValueError):
        TerminalParams(**params)


def test_weight_process_means():
    assert TwoPointWeights(1.0, 100.0, 0.05).mean == pytest.approx(5.95)
    assert ConstantWeights(7.0).mean == 7.0
    assert PeriodicBurstWeights(1.0, 100.0, 5000, 50).mean == pytest.approx(1.99)


def _weight_pair(process, slot, stream):
    """Realized weight at `slot` and the one-step-ahead weight the
    simulators read, from a block sampled from slot 0."""
    block = process.sample_block(stream, 0, slot + 2)
    return float(block[slot]), float(block[slot + 1])


def test_sample_weight_pair_constant_and_burst():
    assert _weight_pair(ConstantWeights(7.0), 123, None) == (7.0, 7.0)
    burst = PeriodicBurstWeights(1.0, 100.0, 5000, 50)
    w_t, w_next = _weight_pair(burst, 4975, None)
    assert w_t == 100.0
    assert _weight_pair(burst, 4949, None)[0] == 1.0
    assert _weight_pair(burst, 4949, None)[1] == 100.0  # lookahead sees the burst
    # a block started mid-period (as the fleet loop samples) keeps the phase
    assert burst.sample_block(None, 4949, 2).tolist() == [1.0, 100.0]


def test_sample_weight_pair_deterministic_given_seed_and_slot():
    proc = TwoPointWeights(1.0, 100.0, 0.3)
    first = _weight_pair(proc, 57, StreamFactory(5).stream("weight", 0))
    again = _weight_pair(proc, 57, StreamFactory(5).stream("weight", 0))
    assert first == again
    # consecutive slots overlap consistently: pair(t)[1] == pair(t+1)[0]
    nxt = _weight_pair(proc, 58, StreamFactory(5).stream("weight", 0))
    assert first[1] == nxt[0]


def test_two_point_long_run_mean():
    proc = TwoPointWeights(1.0, 100.0, 0.05)
    stream = StreamFactory(2024).stream("weight", 0)
    samples = proc.sample_block(stream, 0, 10**6)
    assert np.mean(samples) == pytest.approx(5.95, rel=0.01)
    assert set(np.unique(samples)) == {1.0, 100.0}


def test_gaussian_increment_moments():
    proc = GaussianIncrements(sigma2=2.5)
    stream = StreamFactory(11).stream("increment", 0)
    a = proc.sample_block(stream, 0, 10**6)
    assert np.mean(a) == pytest.approx(0.0, abs=0.01)
    assert np.var(a) == pytest.approx(2.5, rel=0.01)
    with pytest.raises(ValueError):
        GaussianIncrements(math.nan)


def test_channel_block_rate():
    stream = StreamFactory(3).stream("channel", 0)
    s = sample_channel_block(stream, 0.8, 10**6)
    assert np.mean(s) == pytest.approx(0.8, abs=0.005)


def test_channel_draw_delivery_indicator():
    stream = StreamFactory(3).stream("channel", 1)
    s = sample_channel_block(stream, 1.0, 100)
    assert s.dtype == bool and s.all()
    for u in (0, 1):
        assert set((u * s).tolist()) == {u}
    assert not sample_channel_block(stream, 0.0, 100).any()
    assert stream.draws == 200


def test_always_update_perfect_channel_average():
    # With U == 1 and p == 1 the error each slot is just the previous
    # increment, so the average UoI is omega_bar * sigma2.
    proc = TwoPointWeights(1.0, 100.0, 0.01)
    factory = StreamFactory(99)
    w = proc.sample_block(factory.stream("weight", 0), 0, 10**6)
    a = GaussianIncrements(1.0).sample_block(factory.stream("increment", 0), 0, 10**6)
    avg = float(np.mean(w[1:] * a[:-1] ** 2))
    assert avg == pytest.approx(proc.mean * 1.0, rel=0.02)


def test_streams_deterministic_and_chunk_invariant():
    proc = TwoPointWeights(1.0, 100.0, 0.05)
    one = proc.sample_block(StreamFactory(7).stream("weight", 3), 0, 5000)
    two = proc.sample_block(StreamFactory(7).stream("weight", 3), 0, 5000)
    assert np.array_equal(one, two)

    chunked_stream = StreamFactory(7).stream("weight", 3)
    chunks = [proc.sample_block(chunked_stream, o, 611) for o in range(0, 4888, 611)]
    chunked = np.concatenate(chunks)
    assert np.array_equal(chunked, one[: len(chunked)])

    # distinct kinds and terminals give distinct streams
    other = proc.sample_block(StreamFactory(7).stream("weight", 4), 0, 5000)
    assert not np.array_equal(one, other)


@pytest.mark.parametrize("draw", ["uniform", "integers"])
def test_buffered_takes_are_a_fresh_streams_variates_in_whole_buffers(draw):
    # takes that end inside a 256-variate buffer, span several, take none
    # and take a whole one: together they are the stream's first variates,
    # and the stream is drawn only in whole buffers, each once it is needed
    def variates(stream, n):
        return stream.uniform(n) if draw == "uniform" else stream.integers(n, 7)

    stream = StreamFactory(7).stream("policy", 2)
    coins = Buffered(lambda n: variates(stream, n))
    takes, total = [], 0
    for n in (37, 300, 0, 256, 1000, 1):
        takes.append(coins.take(n))
        total += n
        assert len(takes[-1]) == n
        assert stream.draws == -(-total // 256) * 256
    fresh = variates(StreamFactory(7).stream("policy", 2), total)
    assert np.array_equal(np.concatenate(takes), fresh)


def test_adopted_streams_are_shared():
    leader = StreamFactory(5, 1)
    leader.stream("weight", 0).uniform(4)
    leader.stream("backoff", 0).uniform(2)
    follower = StreamFactory(5, 1)
    follower.stream("policy", 0)          # a private stream does not block adoption
    follower.adopt(leader, ("weight", "increment"))
    assert follower.stream("weight", 0) is leader.stream("weight", 0)
    assert follower.draw_counts() == {("policy", 0): 0, ("weight", 0): 4}
    with pytest.raises(ValueError, match="already holds"):
        follower.adopt(leader, ("weight",))
    with pytest.raises(ValueError, match="same"):
        StreamFactory(5, 2).adopt(leader, ("weight",))
    with pytest.raises(ValueError, match="same"):
        StreamFactory(6, 1).adopt(leader, ("weight",))


@settings(max_examples=30)
@given(st.integers(0, 2**63 - 1))
def test_stream_counters_count_variates(seed):
    st_ = StreamFactory(seed).stream("policy", 0)
    st_.uniform(10)
    st_.normal(5)
    st_.integers(3, 8)
    assert st_.draws == 18
