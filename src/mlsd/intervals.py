"""Recurrent intervals: cyclic wait/play patterns over the state space.

An interval I(u, l) with u >= 1 and l <= -1 is the cycle that waits from
state +1 up to u, plays once at u, keeps playing down to l+1, and rests once
at l, returning to +1. Any single-arm play sequence splits into such cycles
(after normalization), which is what the relaxation optimizes over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PayoffTable, require_int, state_column


def interval_grid(tau_max: int, depth: int):
    """The intervals I(u, l) with 1 <= u <= tau_max and -depth <= l <= -1 in
    variable order, u major and l descending from -1: two int arrays ``u``
    and ``l`` of length tau_max * depth. An interval plays -l rounds per
    cycle of u - l rounds."""
    u, d = np.divmod(np.arange(tau_max * depth), depth)
    return u + 1, -1 - d


def cycle_phase(u, L, pos):
    """State and play flag at phase ``pos`` of the cycles I(u, u - L), in
    closed form: phases 0..u-1 hold states 1..u and phases u..L-1 states
    -1..l; the cycle plays at u and at -1..l+1."""
    return np.where(pos < u, pos + 1, u - pos - 1), (pos >= u - 1) & (pos < L - 1)


@dataclass(frozen=True)
class RecurrentInterval:
    u: int
    l: int

    def __post_init__(self):
        require_int("u", self.u, least=1)
        require_int("l", self.l, most=-1)

    @property
    def length(self) -> int:
        """Number of rounds in one cycle."""
        return self.u - self.l

    def cycle_states(self) -> tuple[int, ...]:
        """The cycle's states starting from +1, in visiting order."""
        states, _ = cycle_phase(self.u, self.length, np.arange(self.length))
        return tuple(states.tolist())


def aggregated_payoff(table: PayoffTable, u, l) -> np.ndarray:
    """Total mean payoff every arm collects over one cycle of each interval
    I(u[j], l[j]), shape (n, len(u)): the payoff of the first play at u plus
    the payoffs of the consecutive plays at l+1 up to -1, added in that
    order. Shorter cycles are padded with -0.0, which leaves every sum
    exact (x + -0.0 == x, also for x = -0.0)."""
    u, l = np.asarray(u), np.asarray(l)
    term = np.arange(-l.min(initial=-1))  # the cycle of I(u, l) plays -l times
    taus = l[:, None] + term  # term m >= 1 is the play at state l + m
    taus[:, 0] = u
    used = term < -l[:, None]
    p = np.where(used, table.means[:, state_column(taus, table.tau_min, table.tau_max)], -0.0)
    return np.cumsum(p, axis=-1)[..., -1]  # left to right; np.sum adds pairwise
