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

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import require

# A contention mini-slot lasts 10 us, a fixed figure of the channel model.
MINI_SLOTS_PER_MS = 100


@dataclass(frozen=True)
class ContentionConfig:
    w: int
    k: int

    def __post_init__(self):
        require(self.k >= 1, "k", self.k, "at least 1")
        require(self.w >= self.k, "w", self.w,
                f"at least k = {self.k} so the winners fit in the window")

    @property
    def slot_scale(self) -> float:
        """Slot length in ms: 1 ms data phase plus W mini-slots."""
        return 1.0 + self.w / MINI_SLOTS_PER_MS

    @property
    def expected_window(self) -> float:
        """Mean closing mini-slot with exactly k distinct-backoff contenders."""
        return self.k / (self.k + 1.0) * (self.w + 1.0)


def contend(active: Iterable[int], cfg: ContentionConfig,
            backoff: Sequence[Callable[[], int]]) -> tuple[list[int], list[int], int, int]:
    """Resolve one contention window: (winners, colliders, window_len,
    idle_channels).

    backoff[tid]() must return terminal tid's next uniform backoff on
    {0, ..., W-1}; the fleet simulator wires it to per-terminal streams.
    Winners come in sub-channel order, colliders channel by channel in the
    order of `active`.  The window closes at the mini-slot that reserves the
    K-th sub-channel, else after W mini-slots with the rest left idle.

    Because every waiting terminal has heard every earlier intention, all
    terminals that fire in the same mini-slot target the same lowest idle
    sub-channel, so each mini-slot claims at most one channel.
    """
    w, k = cfg.w, cfg.k
    by_backoff: dict[int, list[int]] = {}
    for tid in active:
        l = backoff[tid]()
        if not 0 <= l < w:
            raise ValueError(f"backoff {l} outside [0, {w - 1}]")
        senders = by_backoff.get(l)
        if senders is None:
            by_backoff[l] = [tid]
        else:
            senders.append(tid)

    winners: list[int] = []
    colliders: list[int] = []
    channel = 0
    for l in sorted(by_backoff):
        channel += 1
        senders = by_backoff[l]
        if len(senders) == 1:
            winners.append(senders[0])
        else:
            colliders += senders
        if channel == k:
            return winners, colliders, l + 1, 0
    return winners, colliders, w, k - channel


def adapt_threshold(j_th: float, delta_j: float, idle_channels: int, window_len: int,
                    expected: float) -> float:
    """The next threshold after one window, moved by `delta_j`: idle channels
    mean too few contenders (lower the bar); a window that closed before its
    `expected` length, `ContentionConfig.expected_window`, means too many
    (raise it).  Clamped at zero."""
    if idle_channels > 0:
        return max(0.0, j_th - delta_j)
    if window_len < expected:
        return j_th + delta_j
    return j_th


def default_delta_j(omega_bar: np.ndarray, sigma2: np.ndarray) -> float:
    """Expected per-slot growth of average UoI when nothing is delivered."""
    return float(np.mean(np.asarray(omega_bar) * np.asarray(sigma2)))
