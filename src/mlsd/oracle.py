"""Exact optimal planning values for desk-size instances.

Backward induction over the joint clipped state space gives OPT(T) exactly:
payoffs saturate outside [tau_min, tau_max], so clipping states at the
boundaries preserves every future payoff. A brute-force enumeration over
action sequences (running the unclipped dynamics) serves as an independent
cross-check; both accumulate payoffs in the same order, so agreement is
exact, not approximate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Instance, column_state, state_column, transition

_MAX_CELLS = 2**24  # (action, state) cells dp_optimal may hold, ~36 B each at its peak
_MAX_POLICY = 2**26  # (round, state) cells of dp_optimal's int32 policy table, 256 MiB


class OracleBudgetError(RuntimeError):
    """The requested computation exceeds the evaluation budget or the memory cap."""

    def __init__(self, cost: int, budget: int, what: str, unit: str = "state-action evaluations"):
        super().__init__(f"{what} needs ~{cost:.3g} {unit}, budget is {budget:.3g}")
        self.cost = cost
        self.budget = budget


def action_sets(n: int, k: int) -> list[tuple[int, ...]]:
    """All plays of at most k arms, ordered by size then lexicographically."""
    out: list[tuple[int, ...]] = []
    for size in range(min(n, k) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


def dp_optimal(instance: Instance, T: int, budget: float = 1e8) -> tuple[float, np.ndarray]:
    """OPT(T) and one optimal play schedule as an (n, T) bool matrix (arm i
    plays in round t + 1 where it is set), by exact backward induction over
    the table columns of every arm's clipped state. Raises
    OracleBudgetError, before allocating anything, when the evaluations
    exceed ``budget``, the (action, state) tables exceed _MAX_CELLS or the
    (round, state) policy exceeds _MAX_POLICY, and ValueError unless
    ``budget`` is positive."""
    if not budget > 0:
        raise ValueError(f"the oracle budget must be positive, got {budget}")
    n, k = instance.n, instance.k
    tau_min, tau_max = instance.tau_min, instance.tau_max
    M = tau_max - tau_min
    J = M**n
    cells = J * sum(math.comb(n, size) for size in range(min(n, k) + 1))
    if cells * T > budget:
        raise OracleBudgetError(cells * T, int(budget), "dp_optimal")
    if cells > _MAX_CELLS:
        raise OracleBudgetError(cells, _MAX_CELLS, "dp_optimal", "(action, state) cells in memory")
    if T * J > _MAX_POLICY:
        raise OracleBudgetError(T * J, _MAX_POLICY, "dp_optimal", "(round, state) policy cells")
    actions = action_sets(n, k)

    # successor column of each column: a play moves a positive state to -1
    # and a negative one a step down; an idle round does the mirror image
    states = column_state(np.arange(M), tau_min)
    play_next = state_column(np.where(states > 0, -1, states - 1), tau_min, tau_max)
    idle_next = state_column(np.where(states > 0, states + 1, 1), tau_min, tau_max)
    member = np.array([[i in act for i in range(n)] for act in actions])

    # (actions, J) per-round rewards and successor indices, summed arm by arm
    # in ascending order (adding 0.0 for an idle arm is exact)
    rewards = np.zeros((len(actions), J))
    nexts = np.zeros((len(actions), J), dtype=np.int64)
    for i in range(n):
        digit = (np.arange(J) // M**i) % M
        plays = member[:, i : i + 1]
        rewards += np.where(plays, instance.means[i][digit], 0.0)
        nexts += np.where(plays, play_next[digit], idle_next[digit]) * M**i

    value = np.zeros(J)
    policy = np.zeros((T, J), dtype=np.int32)
    for t in range(T - 1, -1, -1):
        q = rewards + value[nexts]
        policy[t] = q.argmax(axis=0)
        value = q.max(axis=0)

    one = state_column(1, tau_min, tau_max)
    start = s = sum(one * M**i for i in range(n))
    path = []
    for t in range(T):
        a = int(policy[t, s])
        path.append(a)
        s = int(nexts[a, s])
    return float(value[start]), member[path].T


def exhaustive_optimal(instance: Instance, T: int, budget: float = 1e7) -> float:
    """OPT(T) by enumerating every action sequence on the raw dynamics;
    raises ValueError unless ``budget`` is positive."""
    if not budget > 0:
        raise ValueError(f"the oracle budget must be positive, got {budget}")
    n, k = instance.n, instance.k
    actions = action_sets(n, k)
    cost = len(actions) ** T
    if cost > budget:
        raise OracleBudgetError(cost, int(budget), "exhaustive_optimal")
    action_members = [frozenset(a) for a in actions]

    def best(states: tuple[int, ...], t: int) -> float:
        if t == T:
            return 0.0
        top = -np.inf
        for act, members in zip(actions, action_members):
            r = 0.0
            for i in act:
                r = r + instance.payoff(i, states[i])
            nxt = tuple(
                transition(tau, i in members) for i, tau in enumerate(states)
            )
            v = r + best(nxt, t + 1)
            if v > top:
                top = v
        return top

    return float(best((1,) * n, 0))
