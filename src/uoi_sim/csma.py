"""Decentralized threshold-plus-contention scheduling.

Each terminal compares its own update index against a local dynamic
threshold; terminals above it contend for the K sub-channels inside a
window of at most W mini-slots.  A contender with backoff l listens for l
mini-slots, tracking the lowest sub-channel not yet reserved, then sends a
reservation intention there.  Contenders that pick the same mini-slot all
target the same sub-channel and collide; the channel still reads as
occupied to later listeners and the colliders' data transmissions are
wasted.  The threshold drifts down when sub-channels go idle and up when
the window closes faster than its expected length K/(K+1) * (W+1).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import is_integer, require

# A contention mini-slot lasts 10 us, a fixed figure of the channel model.
MINI_SLOTS_PER_MS = 100


@dataclass(frozen=True)
class ContentionConfig:
    w: int
    k: int

    def __post_init__(self):
        require(is_integer(self.k) and self.k >= 1, "k", self.k, "an integer at least 1")
        require(is_integer(self.w) and self.w >= self.k, "w", self.w,
                f"an integer at least k = {self.k} so the winners fit in the window")

    @property
    def slot_scale(self) -> float:
        """Slot length in ms: 1 ms data phase plus W mini-slots."""
        return 1.0 + self.w / MINI_SLOTS_PER_MS

    @property
    def expected_window(self) -> float:
        """Mean closing mini-slot with exactly k distinct-backoff contenders."""
        return self.k / (self.k + 1.0) * (self.w + 1.0)


class ContentionLanes:
    """The distributed lanes of one fleet run, lane c contending every slot in
    window `windows[c]` with threshold step `delta_j[c]`.  Terminal i of lane
    c has flat id c * n + i; backoff[tid]() returns its next backoff, uniform
    on {0, ..., W-1}.  j_th holds the lanes' thresholds; window_sum,
    collider_sum and idle_sum their monitors summed over the slots so far;
    collided the colliders' flat ids until the caller empties it; and hist
    a traced lane's threshold after each slot (None for an untraced lane)."""

    def __init__(self, windows: Sequence[ContentionConfig], n: int,
                 delta_j: Sequence[float], backoff: Sequence[Callable[[], int]],
                 traced: Sequence[bool] = ()):
        lanes = len(windows)
        self._lanes = [((c + 1) * n, cfg.w, cfg.k, cfg.expected_window, dj)
                       for c, (cfg, dj) in enumerate(zip(windows, delta_j))]
        self._backoff = backoff
        self.j_th = [0.0] * lanes
        # -j_th[c] in every entry of row c: a same-shape compare is cheaper
        # than one against a broadcast column
        self._neg_j = np.zeros((lanes, n))
        self._neg_j_rows = list(self._neg_j)
        self._over = np.empty((lanes, n), dtype=bool)
        self._over_flat = self._over.reshape(-1)
        self.window_sum, self.collider_sum, self.idle_sum = [0] * lanes, [0] * lanes, [0] * lanes
        self.collided: list[int] = []
        self.hist = [[] if t else None for t in traced or [False] * lanes]

    def step(self, neg_index: np.ndarray, sent: np.ndarray) -> None:
        """Resolve one slot's windows.  Terminal i of lane c contends when
        neg_index[c, i], its negated update index, lies below -j_th[c].  A
        winner gets sent[flat id] = True, a collider joins `collided`.

        Each mini-slot claims at most one sub-channel, as every contender has
        heard every earlier intention.  The window closes at the mini-slot that
        reserves the K-th, else after W mini-slots with the rest left idle.
        Then the threshold moves by delta_j: down after idle channels (too few
        contenders), clamped at zero, and up after a window that closed
        before its `expected_window` length (too many)."""
        np.less(neg_index, self._neg_j, self._over)
        active = self._over_flat.nonzero()[0].tolist()
        backoff, collided, j_th, neg_j = self._backoff, self.collided, self.j_th, self._neg_j_rows
        window_sum, collider_sum, idle_sum, hist = (
            self.window_sum, self.collider_sum, self.idle_sum, self.hist)
        lo = 0
        for c, (end, w, k, expected, delta_j) in enumerate(self._lanes):
            window_len, idle = w, k
            hi = bisect_left(active, end, lo)
            if hi > lo:
                by_backoff: dict[int, list[int]] = {}
                for tid in active[lo:hi]:
                    l = backoff[tid]()
                    senders = by_backoff.get(l)
                    if senders is None:
                        by_backoff[l] = [tid]
                    else:
                        senders.append(tid)
                lo = hi
                fired = sorted(by_backoff)
                if fired[0] < 0 or fired[-1] >= w:
                    bad = fired[0] if fired[0] < 0 else fired[-1]
                    raise ValueError(f"backoff {bad} outside [0, {w - 1}]")
                for l in fired:
                    idle -= 1
                    senders = by_backoff[l]
                    if len(senders) == 1:
                        sent[senders[0]] = True
                    else:
                        collided += senders
                        collider_sum[c] += len(senders)
                    if not idle:
                        window_len = l + 1
                        break
            window_sum[c] += window_len
            if idle:
                idle_sum[c] += idle
                j_th[c] = max(0.0, j_th[c] - delta_j)
                neg_j[c].fill(-j_th[c])
            elif window_len < expected:
                j_th[c] += delta_j
                neg_j[c].fill(-j_th[c])
            if hist[c] is not None:
                hist[c].append(j_th[c])


def default_delta_j(omega_bar: np.ndarray, sigma2: np.ndarray) -> float:
    """Expected per-slot growth of average UoI when nothing is delivered."""
    return float(np.mean(np.asarray(omega_bar) * np.asarray(sigma2)))
