"""Exact optimal planning values for desk-size instances.

Backward induction over the joint clipped state space gives OPT(T) exactly:
payoffs saturate outside [tau_min, tau_max], so clipping states at the
boundaries preserves every future payoff. The tests hold a brute-force
twin that enumerates action sequences on the unclipped dynamics; both add
payoffs in the same order, so they agree exactly, not approximately.

``dp_optimal`` runs the induction in numpy over (action, state) reward and
successor tables, one array expression per backward step, with ties broken
to the first action; it peaks at the ~36 bytes per cell that ``_MAX_CELLS``
assumes. Its policy takes one byte per (round, state) up to 256 actions,
two past that, and grows with the rounds computed. One walk reads the
schedule off it.

On exact tables (every reward a multiple of 2^-e with T * max reward * 2^e
< 2^53, as 0/1 payoffs are) every float sum is exact: the induction stops
at the first round h whose values are a checkpoint round's (1, 2, 4, ...)
plus a constant, as policy rows repeat from there on, ties and all, with
period c. The walk reads them in place and, once its path repeats, copies
whole laps of it, so its Python work is O(h * cells + c * J) for J states,
plus an O(T) byte copy. Other tables run all T rounds. The refusals still
count ``cells * T``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Instance, ModelError, column_state, require_int, state_column

_MAX_CELLS = 2**24  # (action, state) cells dp_optimal may hold, ~36 B each at its peak
_MAX_POLICY = 2**26  # (round, state) policy cells of dp_optimal, 1 or 2 B each


class OracleBudgetError(ModelError):
    """The requested computation exceeds the evaluation budget or the memory cap."""

    def __init__(self, cost: int, budget: int, what: str, unit: str = "state-action evaluations"):
        super().__init__(f"{what} needs ~{cost:.3g} {unit}, budget is {budget:.3g}")


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
    (round, state) policy exceeds _MAX_POLICY, and ModelError unless
    ``budget`` is positive and ``T`` is a non-negative integer."""
    if not budget > 0:
        raise ModelError(f"the oracle budget must be positive, got {budget}")
    require_int("T", T, least=0)
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
    rewards, nexts, member, start = _tables(instance)
    value, path = _induct(rewards, nexts, T, start)
    return value, member[path].T


def _tables(instance: Instance):
    """The (actions, states) per-round rewards and successor states of the
    joint clipped state space, the (actions, n) bool membership of every
    action and the index of the joint start state (every arm at state 1)."""
    n, k = instance.n, instance.k
    tau_min, tau_max = instance.tau_min, instance.tau_max
    M = tau_max - tau_min
    J = M**n
    actions = action_sets(n, k)

    # successor column of each column: a play moves a positive state to -1
    # and a negative one a step down; an idle round does the mirror image
    states = column_state(np.arange(M), tau_min)
    play_next = state_column(np.where(states > 0, -1, states - 1), tau_min, tau_max)
    idle_next = state_column(np.where(states > 0, states + 1, 1), tau_min, tau_max)
    member = np.array([[i in act for i in range(n)] for act in actions])

    # rewards and successor indices summed arm by arm in ascending order
    # (adding 0.0 for an idle arm is exact)
    rewards = np.zeros((len(actions), J))
    nexts = np.zeros((len(actions), J), dtype=np.int64)
    for i in range(n):
        digit = (np.arange(J) // M**i) % M
        plays = member[:, i : i + 1]
        rewards += np.where(plays, instance.means[i][digit], 0.0)
        nexts += np.where(plays, play_next[digit], idle_next[digit]) * M**i

    one = int(state_column(1, tau_min, tau_max))
    return rewards, nexts, member, sum(one * M**i for i in range(n))


def _induct(rewards: np.ndarray, nexts: np.ndarray, T: int, start: int):
    """OPT from state ``start`` over T rounds and the action index of each
    round on an optimal path, one array expression per backward step."""
    J = rewards.shape[1]
    value = np.zeros(J)
    # row h: h + 1 rounds to go, its rows doubled up to T as the rounds go
    # on, so a stop at a repeat holds no T-row buffer
    policy = np.empty((0, J), dtype=np.uint8 if len(rewards) <= 256 else np.uint16)
    exact, mark, h, h0 = _exact(rewards, T), [0, None], 0, 0
    for h in range(1, T + 1):
        if h > len(policy):
            policy = np.concatenate((policy, np.empty((min(h, T + 1 - h), J), policy.dtype)))
        q = rewards + value[nexts]
        policy[h - 1] = q.argmax(axis=0)
        value = q.max(axis=0)
        if exact and (h0 := _repeat(mark, h, (value - value[0]).tobytes())):
            break
    flat = [memoryview(table.reshape(-1)) for table in (policy, nexts, rewards)]
    return _walk(*flat, value, T, start, h, h0)


def _exact(rewards: np.ndarray, T: int) -> bool:
    """Whether every reward is a multiple of 2^-e for an e >= 0 with
    T * max reward * 2^e < 2^53, which makes every sum of dp_optimal exact."""
    e = 53 - math.frexp(T * float(rewards.max()))[1]  # the largest such e
    scaled = np.ldexp(rewards, max(e, 0))
    return e >= 0 and bool((scaled == np.rint(scaled)).all())


def _repeat(mark: list, h: int, key) -> int:
    """Brent's cycle finding: ``key`` is the values after round h less the
    first, ``mark`` the [round, key] checkpoint taken at rounds 1, 2, 4, ...
    Returns the checkpoint's round if its key equals this one, else 0."""
    if key == mark[1]:
        return mark[0]
    if h & (h - 1) == 0:
        mark[:] = h, key
    return 0


def _walk(policy, succ, rewards, value, T, start, h, h0):
    """OPT(T) from ``start`` and the action index of each round on its path
    from the h policy rows and ``value``, the values after round h; the
    policy, successor and reward tables come flat, cell (a, s) at a * J + s.
    If h < T, those values equal the values after round h0 plus a constant,
    so on exact tables row h0 + (t - h0) mod c, c = h - h0, serves t + 1 > h
    rounds to go, and the value adds up the (exact) rewards until h rounds
    are left. That part runs in blocks of c rounds: once a block starts at
    a state an earlier one started at (within J blocks), the path repeats,
    so whole laps of it are copied in place and their reward sum added at
    once. The walk reads at most h + 2 * c * J policy cells, whatever T."""
    J = len(value)
    path = np.empty(T, policy.format)
    out = memoryview(path)
    total, s, i = 0.0, start, 0
    c = h - h0  # round k of every block reads the row at flat offset rows[k]
    rows = [(h0 + (T - 1 - k - h0) % c) * J for k in range(min(c, T - h))]
    marks = {}  # state -> (round index, total) where a block first started at it
    while i < T - h:
        i1, total1 = marks.setdefault(s, (i, total))
        if i1 < i:
            laps = (T - h - i) // (i - i1)
            total += laps * (total - total1)  # exact, as every sum here is
            end = i + laps * (i - i1)
            while i < end:  # path[i1:i] doubled until end
                step = min(i - i1, end - i)
                out[i : i + step] = out[i1 : i1 + step]
                i += step
        for row in rows[: T - h - i]:
            a = out[i] = policy[row + s]
            total += rewards[a * J + s]
            s = succ[a * J + s]
            i += 1
    total += value[s]
    for t in range(h - 1, -1, -1):
        a = out[i] = policy[t * J + s]
        s = succ[a * J + s]
        i += 1
    return float(total), path
