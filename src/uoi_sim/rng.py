"""Named random streams with draw accounting.

Every source of randomness in a run is a separate stream addressed by
(replication, kind, terminal).  Streams are built on the counter-based
Philox generator so that the t-th variate of a stream is a pure function
of (seed, replication, kind, terminal, t) regardless of how draws are
batched.  Schedulers compared within one experiment therefore face
identical weight/increment/channel randomness (common random numbers),
and the per-stream draw counters make that verifiable.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

# Stream kinds.  "weight", "increment" and "channel" are consumed once per
# slot by every scheduler (the common-random-number contract); the rest are
# policy- or scheme-private.
KINDS = ("weight", "increment", "channel", "backoff", "policy", "scheduler")
COMMON_KINDS = KINDS[:3]
_KIND_CODE = {name: i for i, name in enumerate(KINDS)}


class Stream:
    """A counting wrapper around one numpy Generator."""

    __slots__ = ("_gen", "draws")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.draws = 0

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on [0, 1)."""
        self.draws += int(n)
        return self._gen.random(n)

    def normal(self, n: int) -> np.ndarray:
        """n i.i.d. standard normals."""
        self.draws += int(n)
        return self._gen.standard_normal(n)

    def integers(self, n: int, high: int) -> np.ndarray:
        """n i.i.d. uniform integers on {0, ..., high-1}."""
        self.draws += int(n)
        return self._gen.integers(0, high, size=n)


class StreamFactory:
    """Creates and caches the named streams of one (seed, replication)."""

    def __init__(self, seed: int, replication: int = 0):
        self.seed = int(seed)
        self.replication = int(replication)
        self._streams: dict[tuple[str, int], Stream] = {}

    def stream(self, kind: str, terminal: int = 0) -> Stream:
        if kind not in _KIND_CODE:
            raise ValueError(f"unknown stream kind {kind!r}")
        key = (kind, int(terminal))
        st = self._streams.get(key)
        if st is None:
            ss = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(self.replication, _KIND_CODE[kind], int(terminal)),
            )
            st = Stream(np.random.Generator(np.random.Philox(ss)))
            self._streams[key] = st
        return st

    def adopt(self, leader: StreamFactory, kinds: tuple[str, ...]) -> None:
        """Take `leader`'s streams of `kinds` as this factory's own.

        The two factories then share those Stream objects, variates and draw
        counters alike: a draw through either advances both.  Both must
        address the same (seed, replication), and this factory must not hold
        a stream of `kinds` yet."""
        if (self.seed, self.replication) != (leader.seed, leader.replication):
            raise ValueError("adopted streams must come from the same (seed, replication)")
        if self.draw_counts(kinds):
            raise ValueError(f"factory already holds a stream of kinds {kinds}")
        self._streams.update((key, st) for key, st in leader._streams.items()
                             if key[0] in kinds)

    def draw_counts(self, kinds: tuple[str, ...] | None = None) -> dict[tuple[str, int], int]:
        """Draw counters per (kind, terminal), optionally filtered by kind."""
        return {
            key: st.draws
            for key, st in sorted(self._streams.items())
            if kinds is None or key[0] in kinds
        }


# Variates a Buffered draws from its stream at a time.
_BUFFER = 256


class Buffered:
    """Amortized one-at-a-time draws from a stream: `draw(n)` returns the
    stream's next n variates, e.g. `stream.uniform`.  `next()` returns the
    next variate; the stream is drawn _BUFFER variates at a time, each block
    only once the previous one is used up."""

    __slots__ = ("next",)

    def __init__(self, draw: Callable[[int], np.ndarray]):
        blocks = iter(lambda: draw(_BUFFER).tolist(), None)  # lists are never None
        self.next = itertools.chain.from_iterable(blocks).__next__
