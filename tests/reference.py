"""Scalar reference twins of vectorized library code, the HiGHS reference
solver of the relaxation, the Monte Carlo candidate-triple sampler of
criterion 4, the brute-force oracle of criterion 2 and the schedule
normalization and decomposition of criterion 10, the full-hull twin of
the greedy relaxation solver, the list-built exploration schedule, and
the full actual states of planner runs with the twin of ETC that scores
its commit from them; used only by tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from mlsd.intervals import RecurrentInterval, cycle_phase, interval_grid
from mlsd.learning import ExplorationResult, estimate_payoffs, etc_config, exploration_length
from mlsd.learning import simulate_exploration as library_exploration
from mlsd.lp import LpProblem, LpSolution, build_lp as library_build_lp, solve_lp as library_solve_lp
from mlsd.model import (
    Instance, ModelError, PayoffTable, column_state, require_int, state_column, transition,
)
from mlsd.oracle import OracleBudgetError, action_sets
from mlsd.planner import Plan, PlannerRuns, _arm_distribution, simulate_planner, states_from_actions
from mlsd.rng import stream


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


def schedule_payoff(instance: Instance, schedule: np.ndarray) -> float:
    """Total mean payoff of running a fixed (n, T) play matrix from all-ones."""
    states = (1,) * instance.n
    total = 0.0
    for column in schedule.T.tolist():
        r = 0.0
        for i, play in enumerate(column):
            if play:
                r = r + instance.payoff(i, states[i])
        total = total + r
        states = tuple(
            transition(tau, play) for tau, play in zip(states, column)
        )
    return total


def prescribes_play(interval: RecurrentInterval, tau: int) -> bool:
    """The characteristic trajectory plays at u and at l+1 .. -1."""
    return tau == interval.u or interval.l < tau < 0


def cycle_walk(interval: RecurrentInterval, steps: Optional[int] = None) -> list[tuple[int, bool]]:
    """One period of (state, play) pairs from state +1, stepped with
    ``transition``: the scalar twin of ``cycle_phase``. With ``steps``, only
    the first ``min(steps, length)`` pairs, for cycles too long to walk."""
    tau, out = 1, []
    for _ in range(interval.length if steps is None else min(steps, interval.length)):
        play = prescribes_play(interval, tau)
        out.append((tau, play))
        tau = transition(tau, play)
    return out


def interval_action_sequence(interval: RecurrentInterval) -> list[bool]:
    """One period of the interval's actions, starting from state +1."""
    return [play for _, play in cycle_walk(interval)]


def normalize_schedule(plays: Sequence[bool], tau_L: int) -> list[bool]:
    """Cap play runs at -tau_L and drop the final play.

    Scanning from the start, every (1 - tau_L)-th consecutive play is turned
    into a non-play; the omission breaks the run, so counting restarts after
    it. The last remaining play is also dropped, which guarantees the output
    ends with a non-play (or contains no play at all).
    """
    require_int("tau_L", tau_L, most=-1)
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
            raise ModelError("sequence ends mid-interval (last round is a play)")
        intervals.append(RecurrentInterval(u=u, l=-c))
        i = j + 1
    return intervals, 0


def aggregated_payoff(table: PayoffTable, arm: int, interval: RecurrentInterval) -> float:
    """Payoff of the play at u, then of the plays at l+1 .. -1, one by one."""
    total = table.payoff(arm, interval.u)
    for tau in range(interval.l + 1, 0):
        total += table.payoff(arm, tau)
    return total


@dataclass(frozen=True)
class DenseLp:
    """The relaxation as a dense program: maximize objective . x subject to
    a_ub x <= b_ub and x >= 0, the variables in ``interval_grid`` order."""

    n: int
    k: int
    tau_max: int
    tau_L: int
    objective: np.ndarray
    a_ub: np.ndarray  # (1 + n, num_vars) budget row then per-arm rows
    b_ub: np.ndarray  # k, then 1 per arm

    @property
    def depth(self) -> int:
        return -self.tau_L


def build_lp(table: PayoffTable, tau_L: int) -> DenseLp:
    """The relaxation filled one variable at a time."""
    n, k, tau_max = table.n, table.k, table.tau_max
    depth = -tau_L
    num_vars = n * tau_max * depth
    c = np.zeros(num_vars)
    a = np.zeros((1 + n, num_vars))
    b = np.zeros(1 + n)
    b[0] = float(k)
    b[1:] = 1.0
    idx = 0
    for i in range(n):
        for u in range(1, tau_max + 1):
            for d in range(depth):
                l = -(d + 1)
                c[idx] = aggregated_payoff(table, i, RecurrentInterval(u=u, l=l))
                a[0, idx] = -l
                a[1 + i, idx] = u - l
                idx += 1
    return DenseLp(n=n, k=k, tau_max=tau_max, tau_L=tau_L, objective=c, a_ub=a, b_ub=b)


class HighsError(RuntimeError):
    """HiGHS ended without an optimal solution."""


def solve_lp(problem: DenseLp) -> LpSolution:
    """Maximize the dense program ``a_ub``, ``b_ub`` with HiGHS: the
    general-purpose twin of the greedy ``lp.solve_lp``."""
    res = linprog(
        -problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise HighsError(f"HiGHS status {res.status}: {res.message}")
    x = np.asarray(res.x).reshape(problem.n, problem.tau_max, problem.depth)
    return LpSolution(x=x, objective=float(-res.fun), tau_L=problem.tau_L)


def greedy_lp(problem: LpProblem) -> LpSolution:
    """The greedy of ``lp.solve_lp`` over each arm's whole upper concave
    hull: every point enters the stack walk, dominated ones included, and
    only the increments of positive slope are kept afterwards. The twin of
    ``lp.solve_lp``'s skip of dominated points."""
    n = problem.n
    u, l = interval_grid(problem.tau_max, problem.depth)
    length = u - l
    w = (-l / length).tolist()
    v = (problem.objective.reshape(n, -1) / length).tolist()
    by_weight = sorted(range(len(w)), key=w.__getitem__)

    increments = []  # (-slope, arm, step, column, previous column or -1)
    for arm, values in enumerate(v):
        hull = [(0.0, 0.0, -1, np.inf)]  # (w, v, column, slope into it)
        for j in by_weight:
            wj, vj = w[j], values[j]
            if wj == hull[-1][0]:
                if vj <= hull[-1][1]:
                    continue
                hull.pop()
            while True:
                w0, v0, _, slope_in = hull[-1]
                slope = (vj - v0) / (wj - w0)
                if slope < slope_in:
                    break
                hull.pop()
            hull.append((wj, vj, j, slope))
        for step, (_, _, j, slope) in enumerate(hull[1:]):
            if slope <= 0.0:
                break
            increments.append((-slope, arm, step, j, hull[step][2]))
    increments.sort()

    plays, cycle = (-l).tolist() + [0], length.tolist() + [1]
    y = np.zeros((n, len(w)))
    room, scale = problem.k, 1
    for _, arm, _, j, j0 in increments:
        c, c0 = cycle[j], cycle[j0]
        if scale % c or scale % c0:
            grown = math.lcm(scale, c, c0)
            room, scale = room * (grown // scale), grown
        dw = plays[j] * (scale // c) - plays[j0] * (scale // c0)
        t = 1.0 if dw <= room else room / dw
        y[arm, j] = t
        if j0 >= 0:
            y[arm, j0] = 1.0 - t
        if dw > room:
            break
        room -= dw
    x = y / length
    return LpSolution(
        x=x.reshape(n, problem.tau_max, problem.depth),
        objective=float(problem.objective @ x.ravel()),
        tau_L=problem.tau_L,
    )


def step_states(played: np.ndarray, init) -> np.ndarray:
    """States of a (n, T) play matrix by stepping ``transition`` round by round."""
    n, T = played.shape
    out = np.empty((n, T), dtype=np.int64)
    states = [int(s) for s in init]
    for t in range(T):
        out[:, t] = states
        states = [transition(s, bool(played[i, t])) for i, s in enumerate(states)]
    return out


def exploration_schedule(n: int, k: int, tau_max: int, tau_L: int, m: int) -> np.ndarray:
    """The (n, rounds) play matrix of ``learning.exploration_schedule``,
    each cohort's rounds listed one play at a time: its positive walk by
    accumulating the gaps, then its m dive waves one range each."""
    length = exploration_length(n, k, tau_max, tau_L, m)
    plays: list[list[int]] = [[] for _ in range(0, n, k)]  # per cohort, its 1-based rounds
    t = 0
    if tau_max >= 2:
        gaps = [tau_max + 1] * (m - 1) + [g for g in range(tau_max, 2, -1) for _ in range(m)]
        for rounds in plays:
            rounds.extend(itertools.accumulate([max(t + 1, tau_max)] + gaps + [2]))
            t = rounds[-1]
    for rounds in plays:
        for _ in range(m):  # a rest round, then -tau_L + 1 plays
            rounds.extend(range(t + 2, t + 3 - tau_L))
            t += 2 - tau_L
    schedule = np.zeros((len(plays), length), dtype=bool)
    for c, rounds in enumerate(plays):
        schedule[c, np.array(rounds) - 1] = True
    return schedule[np.arange(n) // k]


def simulate_exploration(
    instance: Instance,
    schedule: np.ndarray,
    tau_L: int,
    noise_rng: np.random.Generator,
) -> ExplorationResult:
    """One noise draw per play of the (n, rounds) play matrix, round by
    round and arms ascending, with the totals accumulated in that order."""
    n = instance.n
    width = instance.tau_max - tau_L
    counts = np.zeros((n, width), dtype=np.int64)
    sums = np.zeros((n, width))
    states = [1] * n
    realized_total = 0.0
    mean_total = 0.0
    for column in schedule.T.tolist():
        for i in [j for j, play in enumerate(column) if play]:
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
        states = [transition(tau, play) for tau, play in zip(states, column)]
    return ExplorationResult(
        counts=counts,
        sums=sums,
        realized_total=realized_total,
        mean_total=mean_total,
        end_states=tuple(states),
    )


def virtual_state(interval: RecurrentInterval, offset: int, t: int) -> int:
    """Virtual state at round t >= 0 (t = 0 is the pre-play initialization)."""
    return cycle_walk(interval)[(offset + t) % interval.length][0]


@dataclass(frozen=True)
class PlannerState:
    """Online-phase state: per-arm cycle, phase, and current virtual state.

    ``virtual`` holds None for arms that received no interval; those arms
    are never candidates and never played.
    """

    intervals: tuple[Optional[RecurrentInterval], ...]
    offsets: tuple[int, ...]
    t: int
    virtual: tuple[Optional[int], ...]

    @property
    def active_arms(self) -> tuple[int, ...]:
        return tuple(i for i, iv in enumerate(self.intervals) if iv is not None)


def draw_offsets(
    intervals: Sequence[Optional[RecurrentInterval]], rng: np.random.Generator
) -> list[int]:
    """Uniform phase offset in [0, cycle length) for each sampled arm, one
    ``rng.integers`` call per sampled arm in arm order (0 for the others)."""
    return [int(rng.integers(iv.length)) if iv is not None else 0 for iv in intervals]


def init_offsets(
    intervals: Sequence[Optional[RecurrentInterval]], rng: np.random.Generator
) -> PlannerState:
    """Draw uniform offsets and place each virtual state r steps into its
    cycle, so that after the first advance it is uniform over the cycle."""
    offsets = draw_offsets(intervals, rng)
    virtual = tuple(
        virtual_state(iv, off, 0) if iv is not None else None
        for iv, off in zip(intervals, offsets)
    )
    return PlannerState(
        intervals=tuple(intervals), offsets=tuple(offsets), t=0, virtual=virtual
    )


def set_str(column: np.ndarray) -> str:
    """The arms set in one round's bool column of an (n, T) play matrix."""
    return ";".join(map(str, np.flatnonzero(column).tolist()))


def trace_rows(runs: PlannerRuns) -> tuple[list[str], Iterator[list[str]]]:
    """The header and one row per round of run 0; ``nu_i`` is blank for an
    arm without an interval, whose virtual state is 0."""
    header = ["t"] + [f"nu_{i}" for i in range(runs.n)] + [
        "candidates", "played", "virtual_payoff", "actual_payoff",
    ]
    virtual, cand, played = runs.virtual[0], runs.candidates[0], runs.played[0]
    vp, ap = (p[0].tolist() for p in payoffs(runs))
    rows = (
        [str(t + 1)] + [str(nu) if nu else "" for nu in virtual[:, t].tolist()] + [
            set_str(cand[:, t]),
            set_str(played[:, t]),
            format(vp[t], ".12g"),
            format(ap[t], ".12g"),
        ]
        for t in range(runs.T)
    )
    return header, rows


def write_trace(path, runs: PlannerRuns) -> None:
    """Row-wise twin of the CLI's trace writer: one row formatted and
    written per round."""
    header, rows = trace_rows(runs)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def payoffs(runs: PlannerRuns) -> tuple[np.ndarray, np.ndarray]:
    """The (S, T) virtual and actual payoff rows of ``runs``, its window's
    two payoff series gathered out to all T rounds by ``columns``."""
    return runs.columns(0, runs.T, *runs.window[4:])


def actual_states(runs: PlannerRuns, init=None) -> np.ndarray:
    """The full (S, n, T) actual states of ``runs`` from ``init`` (all +1
    when omitted): ``states_from_actions`` on each run's ``played``."""
    played = runs.played
    states = [states_from_actions(run, init) for run in played]
    return np.array(states, dtype=np.int64).reshape(played.shape)


def copied_fields(runs: PlannerRuns, *series: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each (S, ..., W) window ``series`` (by default ``virtual``,
    ``candidates`` and ``played``) out to T rounds, filled one (run, round)
    column at a time: round t copies window column t below W and
    W - P + (t - W) mod P past it, P the runs' joint period."""
    series = series or runs.window[:3]
    W, P = runs.window[0].shape[2], runs.period
    out = tuple(np.empty((*w.shape[:-1], runs.T), dtype=w.dtype) for w in series)
    for s in range(runs.window[0].shape[0]):
        for t in range(runs.T):
            c = t if t < W else W - P + (t - W) % P
            for field, window in zip(out, series):
                field[s, ..., t] = window[s, ..., c]
    return out


def domination_margin(runs: PlannerRuns, tau_max: int, init=None) -> int:
    """min(0, min of tau - nu over the full (S, n, T) fields from round
    tau_max >= 1 on), the runs started from ``init``."""
    gap = actual_states(runs, init)[..., tau_max - 1:] - runs.virtual[..., tau_max - 1:]
    return int(gap.min(initial=0))


def step_planner(state: PlannerState, model) -> tuple[frozenset[int], PlannerState]:
    """Advance every virtual state one cycle step, then play the top-k
    candidates ranked by the model's payoff at the virtual state (ties to
    the lowest arm index)."""
    nxt = tuple(
        transition(nu, prescribes_play(iv, nu)) if iv is not None else None
        for iv, nu in zip(state.intervals, state.virtual)
    )
    candidates = [
        i
        for i, (iv, nu) in enumerate(zip(state.intervals, nxt))
        if iv is not None and prescribes_play(iv, nu)
    ]
    ranked = sorted(candidates, key=lambda i: (-model.payoff(i, nxt[i]), i))
    played = frozenset(ranked[: model.k])
    new_state = PlannerState(
        intervals=state.intervals, offsets=state.offsets, t=state.t + 1, virtual=nxt
    )
    return played, new_state


def marginal_expectations(solution: LpSolution) -> dict:
    """Exact triple probabilities implied by the occupancies: each play-state
    of I(u, l) carries probability x[i, u, l]."""
    out = {}
    for i, j, d in np.argwhere(solution.x > 0.0).tolist():
        iv = RecurrentInterval(u=j + 1, l=-(d + 1))
        for tau, play in cycle_walk(iv):
            if play:
                out[(i, iv.u, iv.l, tau)] = float(solution.x[i, j, d])
    return out


def candidate_marginals(
    solution: LpSolution, t: int, num_samples: int, seed: int
) -> tuple[dict, int]:
    """Monte Carlo frequencies of candidate triples (arm, u, l, nu) at round t.

    Each sample redraws the offline phase from the library's interval
    distribution; a triple is recorded when the arm's cycle prescribes a
    play at its virtual state. Frequencies estimate the occupancy variables
    themselves (``marginal_expectations``).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    u, l, cum = _arm_distribution(solution)
    L = u - l
    span, lo = int(L.max()) + 1, int(l.min())  # (interval, state) key: j * span + state - lo
    rng_round = stream(seed, "rounding")
    rng_off = stream(seed, "offsets")
    counts: dict[tuple[int, int, int, int], int] = {}
    for arm in range(solution.n):
        picks = np.searchsorted(cum[arm], rng_round.random(num_samples), side="right")
        offs = rng_off.random(num_samples)
        on = picks < u.size
        j = picks[on]
        r = np.floor(offs[on] * L[j]).astype(int)
        nu, play = cycle_phase(u[j], L[j], (r + t) % L[j])
        keys, freq = np.unique(j[play] * span + nu[play] - lo, return_counts=True)
        for key, c in zip(keys.tolist(), freq.tolist()):
            jj, state = divmod(key, span)
            counts[(arm, int(u[jj]), int(l[jj]), state + lo)] = c
    return counts, num_samples


def round_intervals(
    solution: LpSolution, rng: np.random.Generator
) -> list[Optional[RecurrentInterval]]:
    """One uniform draw per arm, walking the arm's interval list until the
    running selection mass (cycle length x occupancy) exceeds it."""
    n, tau_max, depth = solution.x.shape
    chosen: list[Optional[RecurrentInterval]] = []
    for arm in range(n):
        intervals, probs = [], []
        for u in range(1, tau_max + 1):
            for d in range(depth):
                intervals.append(RecurrentInterval(u=u, l=-(d + 1)))
                probs.append(max((u + d + 1) * float(solution.x[arm, u - 1, d]), 0.0))
        total = sum(probs)
        if total > 1.0:
            probs = [p / total for p in probs]
        r = rng.random()
        acc = 0.0
        pick = None
        for interval, p in zip(intervals, probs):
            acc += p
            if r < acc:
                pick = interval
                break
        chosen.append(pick)
    return chosen


def run_planner(
    instance: Instance,
    intervals: Sequence[Optional[RecurrentInterval]],
    offsets: Sequence[int],
    T: int,
    selection=None,
    init_states: Optional[Sequence[int]] = None,
) -> PlannerRuns:
    """Arm by arm: cycles from ``cycle_walk``, payoffs from ``payoff``,
    states by stepping ``transition``; one run (a leading axis of 1)."""
    n, k = instance.n, instance.k
    selection = instance if selection is None else selection
    virtual = np.zeros((n, T), dtype=np.int64)
    cand = np.zeros((n, T), dtype=bool)
    selp = np.zeros((n, T))
    for i, iv in enumerate(intervals):
        if iv is None:
            continue
        cycle = cycle_walk(iv, offsets[i] + T + 1)  # the phases a run reaches
        for t in range(T):
            virtual[i, t], cand[i, t] = cycle[(offsets[i] + t + 1) % iv.length]
            selp[i, t] = selection.payoff(i, int(virtual[i, t]))
    scores = np.where(cand, selp, -1.0)
    played = np.zeros((n, T), dtype=bool)
    for t in range(T):
        ranked = sorted(np.flatnonzero(cand[:, t]), key=lambda i: (-scores[i, t], i))
        played[ranked[:k], t] = True
    actual = step_states(played, [1] * n if init_states is None else init_states)
    actual_p = np.array([[instance.payoff(i, int(s)) for s in actual[i]] for i in range(n)])
    return PlannerRuns(
        window=(virtual[None], cand[None], played[None], actual[None],
                np.where(played, selp, 0.0).sum(axis=0)[None],
                np.where(played, actual_p, 0.0).sum(axis=0)[None]),
        period=T,
        T=T,
    )


def simulate_seeds(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seeds: Sequence[int],
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
) -> list[PlannerRuns]:
    """The planner one seed at a time: rounding, offsets, then T rounds."""
    traces = []
    for seed in seeds:
        intervals = round_intervals(solution, stream(seed, "rounding"))
        offsets = draw_offsets(intervals, stream(seed, "offsets"))
        traces.append(run_planner(instance, intervals, offsets, T, selection=selection,
                                  init_states=init_states))
    return traces


def plan_lists(plan: Plan, row: int = 0) -> tuple[list[Optional[RecurrentInterval]], list[int]]:
    """Run ``row`` of a plan as the twins' per-arm lists: an interval (None
    where u == 0) and an offset per arm."""
    intervals = [
        RecurrentInterval(u=u, l=l) if u > 0 else None
        for u, l in zip(plan.u[row].tolist(), plan.l[row].tolist())
    ]
    return intervals, plan.offsets[row].tolist()


def plan_of(intervals: Sequence[Optional[RecurrentInterval]], offsets: Sequence[int]) -> Plan:
    """The one-run Plan of per-arm lists, the inverse of ``plan_lists``."""
    return Plan(
        u=np.array([[iv.u if iv is not None else 0 for iv in intervals]], dtype=np.int64),
        l=np.array([[iv.l if iv is not None else 0 for iv in intervals]], dtype=np.int64),
        offsets=np.array([offsets], dtype=np.int64),
    )


def dp_optimal(instance: Instance, T: int) -> tuple[float, np.ndarray]:
    """Backward induction with per-action lists of rewards and successors,
    the successors found by stepping ``transition`` from every state; the
    schedule is filled in one round at a time."""
    n, k = instance.n, instance.k
    tau_min, tau_max = instance.tau_min, instance.tau_max
    M = tau_max - tau_min
    J = M**n
    actions = action_sets(n, k)
    states = column_state(np.arange(M), tau_min)
    idle_next = state_column(np.array([transition(int(s), False) for s in states]), tau_min, tau_max)
    play_next = state_column(np.array([transition(int(s), True) for s in states]), tau_min, tau_max)
    digits = [(np.arange(J) // M**i) % M for i in range(n)]

    rewards = []
    nexts = []
    for act in actions:
        r = np.zeros(J)
        nxt = np.zeros(J, dtype=np.int64)
        for i in range(n):
            if i in act:
                r = r + instance.means[i][digits[i]]
                nxt += play_next[digits[i]] * M**i
            else:
                nxt += idle_next[digits[i]] * M**i
        rewards.append(r)
        nexts.append(nxt)

    one = state_column(1, tau_min, tau_max)
    value, path = induct(rewards, nexts, T, sum(one * M**i for i in range(n)))
    schedule = np.zeros((n, T), dtype=bool)
    for t, a in enumerate(path):
        for i in actions[a]:
            schedule[i, t] = True
    return value, schedule


def induct(rewards, nexts, T: int, start: int) -> tuple[float, list[int]]:
    """OPT from state ``start`` over T rounds and the action index of each
    round on an optimal path, from one row of rewards and one of successor
    states per action: every round computed, a full (T, states) policy,
    ties to the first action."""
    value = np.zeros(len(rewards[0]))
    policy = np.zeros((T, len(value)), dtype=np.int32)
    for t in range(T - 1, -1, -1):
        stacked = np.stack([rewards[a] + value[nexts[a]] for a in range(len(rewards))])
        policy[t] = stacked.argmax(axis=0)
        value = stacked.max(axis=0)

    s = start
    path = []
    for t in range(T):
        a = int(policy[t, s])
        path.append(a)
        s = int(nexts[a][s])
    return float(value[start]), path


def exhaustive_optimal(instance: Instance, T: int, budget: float = 1e7) -> float:
    """OPT(T) by enumerating every action sequence on the raw dynamics;
    raises ModelError unless ``budget`` is positive and ``T`` is a
    non-negative integer."""
    if not budget > 0:
        raise ModelError(f"the oracle budget must be positive, got {budget}")
    require_int("T", T, least=0)
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


def totals_of_row(row: np.ndarray, W: int, P: int) -> np.ndarray:
    """``PlannerRuns.totals(series, 0)`` of a series from its full (..., T)
    row: the first W rounds, plus q times the P rounds after them, plus the
    last r rounds, q, r = divmod(T - W, P), added in ``totals``' order."""
    total = row[..., :W].sum(axis=-1)
    T = row.shape[-1]
    if W < T:
        q, r = divmod(T - W, P)
        total = total + q * row[..., W:W + P].sum(axis=-1) + row[..., T - r:].sum(axis=-1)
    return total


def commit_hits(instance: Instance, commit: PlannerRuns, init, noise: np.random.Generator) -> int:
    """``learning._commit_hits`` from the commit's full fields, one cell at
    a time: one uniform per (arm, round) of the first W, a hit where the arm
    played below its true mean, then one binomial per (arm, column) of the
    last period, over the rounds past W that repeat it."""
    W, P, T = commit.window[0].shape[2], commit.period, commit.T
    played = commit.played[0]
    actual = actual_states(commit, init)[0]
    draws = noise.random(size=(instance.n, W))
    hits = 0
    for arm in range(instance.n):
        for t in range(W):
            if played[arm, t]:
                hits += bool(draws[arm, t] < instance.payoff(arm, int(actual[arm, t])))
    if W < T:
        for arm in range(instance.n):
            for j in range(P):
                t = W - P + j
                p = instance.payoff(arm, int(actual[arm, t])) if played[arm, t] else 0.0
                hits += int(noise.binomial(len(range(W + j, T, P)), p))
    return hits


def etc_totals(instance: Instance, T: int, epsilon: float, seed: int) -> tuple[float, float, float]:
    """``etc_run``'s realized, mean and planner totals, the commit scored
    from its full (n, T - rounds) fields by ``commit_hits`` and both mean
    totals summed from full payoff rows by ``totals_of_row``: exploration,
    estimates and commit first, then the full-information reference."""
    cfg = etc_config(instance, T, epsilon)
    args = instance.n, instance.k, instance.tau_max, cfg.tau_L, cfg.m
    noise = stream(seed, "noise")
    expl = library_exploration(instance, exploration_schedule(*args), cfg.tau_L, noise)
    estimates = estimate_payoffs(instance.k, instance.tau_max, cfg.tau_L, expl.counts, expl.sums)
    solution = library_solve_lp(library_build_lp(estimates, cfg.tau_L))
    commit = simulate_planner(instance, solution, T - exploration_length(*args), seed,
                              selection=estimates, init_states=expl.end_states)
    hits = commit_hits(instance, commit, expl.end_states, noise)
    full_info = library_solve_lp(library_build_lp(instance, cfg.tau_L))
    runs = simulate_planner(instance, full_info, T, seed)
    planner_total = float(totals_of_row(payoffs(runs)[1], runs.window[0].shape[2], runs.period)[0])
    mean = totals_of_row(payoffs(commit)[1], commit.window[0].shape[2], commit.period)[0]
    return expl.realized_total + float(hits), expl.mean_total + float(mean), planner_total
