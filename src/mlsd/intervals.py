"""Recurrent intervals: cyclic wait/play patterns over the state space.

An interval I(u, l) with u >= 1 and l <= -1 is the cycle that waits from
state +1 up to u, plays once at u, keeps playing down to l+1, and rests once
at l, returning to +1. Any single-arm play sequence splits into such cycles
(after normalization), which is what the relaxation optimizes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import PayoffTable, check_state, state_column, transition


class IntervalError(ValueError):
    """Raised on invalid intervals, out-of-range states, or bad sequences."""


@dataclass(frozen=True)
class RecurrentInterval:
    u: int
    l: int

    def __post_init__(self):
        if self.u < 1:
            raise IntervalError(f"u must be >= 1, got {self.u}")
        if self.l > -1:
            raise IntervalError(f"l must be <= -1, got {self.l}")

    @property
    def length(self) -> int:
        """Number of rounds in one cycle."""
        return self.u - self.l

    @property
    def plays_per_cycle(self) -> int:
        return -self.l

    def _check_member(self, tau: int) -> int:
        check_state(tau)
        if not (self.l <= tau <= self.u):
            raise IntervalError(f"state {tau} outside interval [{self.l}, {self.u}]")
        return tau

    def prescribes_play(self, tau: int) -> bool:
        """Characteristic trajectory: play at states l+1..-1 and at u."""
        self._check_member(tau)
        return tau == self.u or (tau < 0 and tau > self.l)

    def step(self, tau: int) -> int:
        """Cycle transition: follow the prescribed action from ``tau``."""
        self._check_member(tau)
        return transition(tau, self.prescribes_play(tau))

    def cycle_states(self) -> tuple[int, ...]:
        """The cycle's states starting from +1, in visiting order."""
        states = [1]
        for _ in range(self.length - 1):
            states.append(self.step(states[-1]))
        return tuple(states)

    def to_dict(self) -> dict:
        return {"u": self.u, "l": self.l}

    @staticmethod
    def from_dict(d: dict) -> "RecurrentInterval":
        return RecurrentInterval(u=d["u"], l=d["l"])


def aggregated_payoff(table: PayoffTable, arm, interval: RecurrentInterval):
    """Total mean payoff an arm collects over one cycle of the interval:
    the payoff of the first play at u plus the payoffs of the consecutive
    plays at l+1 up to -1, added in that order. ``arm`` is an arm index
    (giving a float) or any row index of ``table.means`` (giving one total
    per selected arm)."""
    taus = np.arange(interval.l, 0)
    taus[0] = interval.u  # u, then l+1 .. -1
    p = table.means[arm][..., state_column(taus, table.tau_min, table.tau_max)]
    return np.cumsum(p, axis=-1)[..., -1]  # left to right; np.sum adds pairwise


def normalize_schedule(plays: Sequence[bool], tau_L: int) -> list[bool]:
    """Cap play runs at -tau_L and drop the final play.

    Scanning from the start, every (1 - tau_L)-th consecutive play is turned
    into a non-play; the omission breaks the run, so counting restarts after
    it. The last remaining play is also dropped, which guarantees the output
    ends with a non-play (or contains no play at all).
    """
    if tau_L > -1:
        raise IntervalError(f"tau_L must be <= -1, got {tau_L}")
    out = list(plays)
    cap = 1 - tau_L
    run = 0
    for t, p in enumerate(out):
        if not p:
            run = 0
            continue
        run += 1
        if run == cap:
            out[t] = False
            run = 0
    for t in range(len(out) - 1, -1, -1):
        if out[t]:
            out[t] = False
            break
    return out


def decompose(plays: Sequence[bool]) -> tuple[list[RecurrentInterval], int]:
    """Split a play sequence into recurrent intervals plus trailing rests.

    Cutting at every play -> non-play switch, a sequence that starts at state
    +1 splits into blocks of (u-1 waits, -l plays, 1 rest) = one interval
    each. The sequence must end with a rest after its last play; returns the
    intervals in order and the count of trailing all-rest rounds.
    """
    intervals: list[RecurrentInterval] = []
    i = 0
    n = len(plays)
    while i < n:
        j = i
        while j < n and not plays[j]:
            j += 1
        if j == n:
            return intervals, n - i
        u = j - i + 1
        c = 0
        while j < n and plays[j]:
            c += 1
            j += 1
        if j == n:
            raise IntervalError("sequence ends mid-interval (last round is a play)")
        intervals.append(RecurrentInterval(u=u, l=-c))
        i = j + 1
    return intervals, 0
