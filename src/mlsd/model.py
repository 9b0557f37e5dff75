"""Core model: integer arm states, saturating payoff tables, and transitions.

An arm's state is a nonzero integer. A positive state tau means the arm has
been idle for tau consecutive rounds; a negative state means it has been
played for -tau consecutive rounds. Payoffs saturate outside
[tau_min, tau_max]; an instance's payoffs are also monotone non-decreasing
in the state, while estimated and perturbed tables need not be.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_MAX_RANDOM_CELLS = 2**24  # payoff cells random_instance may draw


class ModelError(ValueError):
    """The one type the library raises for input it refuses: malformed
    states, tables, plans or files, out-of-range parameters, and problems
    past a size cap."""


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


def require_int(what: str, value, least: int | None = None, most: int | None = None) -> None:
    """Raise ModelError unless ``value`` is an integer (bools are not) that
    is at least ``least`` and at most ``most``, when given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ModelError(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ModelError(f"{what} must be <= {most}, got {value}")


def state_column(tau, tau_min: int, tau_max: int):
    """Column of state ``tau`` in a payoff table over [tau_min, -1] + [1, tau_max].

    Columns hold the negative states in increasing order, then the positive
    ones (0 is skipped). States outside the range clamp to the nearest
    boundary (finite saturation). ``tau`` is an integer or an integer array.
    """
    clipped = np.minimum(np.maximum(tau, tau_min), tau_max)
    return clipped - tau_min - (clipped > 0)


def column_state(col, tau_min: int):
    """The state held by column ``col``: the inverse of ``state_column``."""
    return col + tau_min + (col >= -tau_min)


def _has_bool(rows) -> bool:
    """Whether nested payoff rows hold a boolean, which np.array would
    silently turn into 0.0 or 1.0 next to numbers: an array by its dtype, a
    list row by the types of its items."""
    if isinstance(rows, np.ndarray):
        return rows.dtype.kind == "b"
    types = set()
    for row in rows:
        if isinstance(row, np.ndarray):
            if row.dtype.kind == "b":
                return True
        else:
            types.update(map(type, row))
    return not types.isdisjoint((bool, np.bool_))


@dataclass(frozen=True, eq=False)
class PayoffTable:
    """Per-round budget k and mean payoffs of n arms over the clipped state
    range [tau_min, -1] + [1, tau_max].

    ``means`` is a read-only (n, tau_max - tau_min) float array with one row
    per arm and the columns laid out by ``state_column``. Evaluation outside
    the range clamps to the nearest boundary. Estimated and perturbed tables
    are plain PayoffTables; only an ``Instance`` must be monotone.
    """

    k: int
    tau_min: int
    tau_max: int
    means: np.ndarray

    def __post_init__(self):
        require_int("tau_min", self.tau_min)
        require_int("tau_max", self.tau_max)
        if not (self.tau_min < 0 < self.tau_max):
            raise ModelError(
                f"need tau_min < 0 < tau_max, got [{self.tau_min}, {self.tau_max}]"
            )
        width = self.tau_max - self.tau_min
        try:
            means = np.array(self.means)
        except ValueError:  # ragged rows
            raise ModelError(f"expected {width} values in every payoff row") from None
        if means.ndim >= 1 and len(means) == 0:
            raise ModelError("instance needs at least one arm")
        if means.dtype.kind not in "iuf" or means.ndim != 2 or _has_bool(self.means):
            raise ModelError("payoffs must be rows of numbers")
        if means.shape[1] != width:
            raise ModelError(f"expected {width} values, got {means.shape[1]}")
        means = means.astype(float, copy=False)
        bad = ~((means >= 0.0) & (means <= 1.0))
        if bad.any():
            raise ModelError(f"payoff {means[bad][0]} outside [0, 1]")
        require_int("k", self.k)
        if not (1 <= self.k <= len(means)):
            raise ModelError(f"need 1 <= k <= n, got k={self.k}, n={len(means)}")
        means.flags.writeable = False
        object.__setattr__(self, "means", means)

    @property
    def n(self) -> int:
        return len(self.means)

    def payoff(self, arm: int, tau: int) -> float:
        """Mean payoff of playing ``arm`` at state ``tau`` (saturation-clamped)."""
        if not (0 <= arm < self.n):
            raise ModelError(f"arm index {arm} out of range [0, {self.n})")
        check_state(tau)
        return float(self.means[arm, state_column(tau, self.tau_min, self.tau_max)])


class Instance(PayoffTable):
    """A bandit instance: a payoff table whose rows are monotone
    non-decreasing in the state.

    The single-arm examples used throughout the experiments have k == n, so
    k == n is allowed even though multi-arm instances normally have k < n.
    """

    def __post_init__(self):
        super().__post_init__()
        if (np.diff(self.means, axis=1) < 0).any():
            raise ModelError("payoff table is not monotone non-decreasing")


def instance_to_dict(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "k": instance.k,
        "tau_max": instance.tau_max,
        "tau_min": instance.tau_min,
        "payoffs": instance.means.tolist(),
    }


def require_keys(d: dict, what: str, *keys: str) -> None:
    """Raise ModelError unless ``d`` is a dict, naming the first of ``keys``
    missing from it."""
    if not isinstance(d, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(d).__name__}")
    for key in keys:
        if key not in d:
            raise ModelError(f"{what} is missing the key {key!r}")


def instance_from_dict(d: dict) -> Instance:
    require_keys(d, "instance", "k", "tau_min", "tau_max", "payoffs")
    instance = Instance(k=d["k"], tau_min=d["tau_min"], tau_max=d["tau_max"], means=d["payoffs"])
    if d.get("n") is not None and d["n"] != instance.n:
        raise ModelError(f"n={d['n']} does not match {instance.n} payoff rows")
    return instance


def save_json(payload: dict, path) -> None:
    """Write ``payload`` as indented JSON with a trailing newline, in one
    write (``json.dump`` writes each token on its own)."""
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2) + "\n")


def save_instance(instance: Instance, path) -> None:
    save_json(instance_to_dict(instance), path)


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
    """Random monotone instance: each row is a sorted vector of uniforms.
    Raises ModelError, before drawing, unless n >= 1 and tau_min < 0 <
    tau_max, or past _MAX_RANDOM_CELLS payoff cells."""
    if not (tau_min < 0 < tau_max):  # else the cell count below is <= 0
        raise ModelError(f"need tau_min < 0 < tau_max, got [{tau_min}, {tau_max}]")
    if n < 1:
        raise ModelError("instance needs at least one arm")
    if n * (tau_max - tau_min) > _MAX_RANDOM_CELLS:
        raise ModelError(
            f"a random {n} x {tau_max - tau_min} payoff table has more than "
            f"{_MAX_RANDOM_CELLS} cells"
        )
    means = np.sort(rng.uniform(0.0, 1.0, size=(n, tau_max - tau_min)), axis=1)
    return Instance(k=k, tau_min=tau_min, tau_max=tau_max, means=means)
