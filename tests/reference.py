"""Scalar reference twins of vectorized library code, used only by tests."""

from __future__ import annotations

import numpy as np

from mlsd.learning import ExplorationResult
from mlsd.model import Instance, transition


def step_states(played: np.ndarray, init) -> np.ndarray:
    """States of a (n, T) play matrix by stepping ``transition`` round by round."""
    n, T = played.shape
    out = np.empty((n, T), dtype=np.int64)
    states = [int(s) for s in init]
    for t in range(T):
        out[:, t] = states
        states = [transition(s, bool(played[i, t])) for i, s in enumerate(states)]
    return out


def simulate_exploration(
    instance: Instance,
    schedule: list[frozenset[int]],
    tau_L: int,
    noise_rng: np.random.Generator,
) -> ExplorationResult:
    """One noise draw per play, round by round and arms ascending, with the
    totals accumulated in that order."""
    n = instance.n
    width = instance.tau_max - tau_L
    counts = np.zeros((n, width), dtype=np.int64)
    sums = np.zeros((n, width))
    states = [1] * n
    realized_total = 0.0
    mean_total = 0.0
    for played in schedule:
        for i in sorted(played):
            tau = states[i]
            p = instance.payoff(i, tau)
            hit = 1.0 if noise_rng.random() < p else 0.0
            realized_total += hit
            mean_total += p
            key = min(tau, instance.tau_max) if tau > 0 else tau
            if key >= tau_L:
                col = key - tau_L if key < 0 else -tau_L + key - 1
                counts[i, col] += 1
                sums[i, col] += hit
        states = [transition(tau, i in played) for i, tau in enumerate(states)]
    return ExplorationResult(
        counts=counts,
        sums=sums,
        realized_total=realized_total,
        mean_total=mean_total,
        end_states=tuple(states),
    )
