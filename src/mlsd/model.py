"""Core model: integer arm states, saturating payoff tables, and transitions.

An arm's state is a nonzero integer. A positive state tau means the arm has
been idle for tau consecutive rounds; a negative state means it has been
played for -tau consecutive rounds. Payoffs are monotone non-decreasing in
the state and saturate outside [tau_min, tau_max].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class ModelError(ValueError):
    """Raised on malformed states, tables, instances, or play sets."""


def check_state(tau: int) -> int:
    if tau == 0:
        raise ModelError("0 is not a valid arm state")
    return tau


def transition(tau: int, played: bool) -> int:
    """Advance one arm state by one round.

    Played arms move to -1 from positive states and decrement negative
    states; idle arms move to +1 from negative states and increment positive
    states. The result is never 0.
    """
    check_state(tau)
    if tau < 0:
        return tau - 1 if played else 1
    return -1 if played else tau + 1


@dataclass(frozen=True)
class PayoffTable:
    """Mean payoffs over the clipped state range [tau_min, -1] + [1, tau_max].

    ``values`` is dense: first the negative states in increasing order
    (tau_min .. -1), then the positive states (1 .. tau_max). Evaluation
    outside the range clamps to the nearest boundary (finite saturation).
    """

    tau_min: int
    tau_max: int
    values: tuple[float, ...]

    def __post_init__(self):
        if not (self.tau_min < 0 < self.tau_max):
            raise ModelError(
                f"need tau_min < 0 < tau_max, got [{self.tau_min}, {self.tau_max}]"
            )
        if len(self.values) != self.tau_max - self.tau_min:
            raise ModelError(
                f"expected {self.tau_max - self.tau_min} values, got {len(self.values)}"
            )
        for v in self.values:
            if not (0.0 <= v <= 1.0):
                raise ModelError(f"payoff {v} outside [0, 1]")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise ModelError("payoff table is not monotone non-decreasing")

    def index(self, tau: int) -> int:
        """Dense index of a state inside the clipped range (0 is skipped)."""
        tau = check_state(max(self.tau_min, min(self.tau_max, tau)))
        if tau < 0:
            return tau - self.tau_min
        return (-self.tau_min) + tau - 1

    def value(self, tau: int) -> float:
        return self.values[self.index(tau)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class Instance:
    """A bandit instance: per-round budget k and one payoff table per arm.

    All arms share the saturation bounds. The single-arm examples used
    throughout the experiments have k == n, so k == n is allowed even though
    multi-arm instances normally have k < n.
    """

    k: int
    payoffs: tuple[PayoffTable, ...]

    def __post_init__(self):
        n = len(self.payoffs)
        if n == 0:
            raise ModelError("instance needs at least one arm")
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ModelError(f"k must be an integer, got {self.k!r}")
        if not (1 <= self.k <= n):
            raise ModelError(f"need 1 <= k <= n, got k={self.k}, n={n}")
        t0 = self.payoffs[0]
        for t in self.payoffs[1:]:
            if (t.tau_min, t.tau_max) != (t0.tau_min, t0.tau_max):
                raise ModelError("arms must share saturation bounds")

    @property
    def n(self) -> int:
        return len(self.payoffs)

    @property
    def tau_max(self) -> int:
        return self.payoffs[0].tau_max

    @property
    def tau_min(self) -> int:
        return self.payoffs[0].tau_min

    def payoff(self, arm: int, tau: int) -> float:
        """Mean payoff of playing ``arm`` at state ``tau`` (saturation-clamped)."""
        if not (0 <= arm < self.n):
            raise ModelError(f"arm index {arm} out of range [0, {self.n})")
        return self.payoffs[arm].value(tau)

    def payoff_matrix(self) -> np.ndarray:
        """(n, tau_max - tau_min) array in table order."""
        return np.stack([t.as_array() for t in self.payoffs])


def initial_states(n: int) -> tuple[int, ...]:
    """All arms start at state +1."""
    return (1,) * n


def step_environment(
    instance: Instance, states: Sequence[int], played: Iterable[int]
) -> tuple[int, ...]:
    """Apply one round of transitions given the set of played arms."""
    played = frozenset(played)
    if len(played) > instance.k:
        raise ModelError(f"{len(played)} arms played, budget is {instance.k}")
    for i in played:
        if not (0 <= i < instance.n):
            raise ModelError(f"arm index {i} out of range")
    return tuple(
        transition(tau, i in played) for i, tau in enumerate(states)
    )


def instance_to_dict(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "k": instance.k,
        "tau_max": instance.tau_max,
        "tau_min": instance.tau_min,
        "payoffs": [list(t.values) for t in instance.payoffs],
    }


def require_keys(d: dict, what: str, *keys: str) -> None:
    """Raise ModelError naming the first of ``keys`` missing from ``d``."""
    for key in keys:
        if key not in d:
            raise ModelError(f"{what} is missing the key {key!r}")


def instance_from_dict(d: dict) -> Instance:
    require_keys(d, "instance", "k", "tau_min", "tau_max", "payoffs")
    tables = tuple(
        PayoffTable(tau_min=d["tau_min"], tau_max=d["tau_max"], values=tuple(vals))
        for vals in d["payoffs"]
    )
    if d.get("n") is not None and d["n"] != len(tables):
        raise ModelError(f"n={d['n']} does not match {len(tables)} payoff rows")
    return Instance(k=d["k"], payoffs=tables)


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as f:
        json.dump(instance_to_dict(instance), f, indent=2)
        f.write("\n")


def load_instance(path) -> Instance:
    with open(path) as f:
        return instance_from_dict(json.load(f))


def random_instance(
    n: int,
    k: int,
    tau_max: int,
    tau_min: int,
    rng: np.random.Generator,
) -> Instance:
    """Random monotone instance: each table is a sorted vector of uniforms."""
    tables = []
    for _ in range(n):
        vals = np.sort(rng.uniform(0.0, 1.0, size=tau_max - tau_min))
        tables.append(PayoffTable(tau_min=tau_min, tau_max=tau_max, values=tuple(vals)))
    return Instance(k=k, payoffs=tuple(tables))
