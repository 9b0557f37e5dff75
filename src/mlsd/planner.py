"""Randomized-rounding planner with mirrored virtual state evolution.

Offline: sample at most one recurrent interval per arm (probability
proportional to occupancy times cycle length) and a uniform phase offset, so
the arm's fictitious "virtual" state starts anywhere in its cycle
equiprobably. Online: advance every virtual state along its cycle; arms
whose cycle prescribes a play form the candidate set, and the k candidates
with the best payoff at their virtual states are played. Selection may use a
different payoff model (e.g. estimates) than the environment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .intervals import RecurrentInterval
from .lp import LpSolution
from .model import Instance, ModelError
from .rng import stream

_MASS_TOL = 1e-9


class RoundingError(RuntimeError):
    """Per-arm selection mass exceeds 1 beyond numerical tolerance."""


def _arm_distribution(solution: LpSolution, arm: int):
    """Interval list and selection probabilities (cycle length x occupancy)."""
    n, tau_max, depth = solution.x.shape
    intervals = []
    probs = []
    for u in range(1, tau_max + 1):
        for d in range(depth):
            l = -(d + 1)
            p = (u - l) * float(solution.x[arm, u - 1, d])
            if p < -_MASS_TOL:
                raise RoundingError(f"negative selection mass {p} for arm {arm}")
            intervals.append(RecurrentInterval(u=u, l=l))
            probs.append(max(p, 0.0))
    total = sum(probs)
    if total > 1.0 + _MASS_TOL:
        raise RoundingError(f"arm {arm} selection mass {total} exceeds 1")
    if total > 1.0:
        probs = [p / total for p in probs]
    return intervals, probs


def round_intervals(
    solution: LpSolution, rng: np.random.Generator
) -> list[Optional[RecurrentInterval]]:
    """Sample one interval (or none) per arm, independently across arms."""
    chosen: list[Optional[RecurrentInterval]] = []
    for arm in range(solution.n):
        intervals, probs = _arm_distribution(solution, arm)
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


def draw_offsets(
    intervals: Sequence[Optional[RecurrentInterval]], rng: np.random.Generator
) -> list[int]:
    """Uniform phase offset in [0, cycle length) for each sampled arm."""
    return [
        int(rng.integers(iv.length)) if iv is not None else 0 for iv in intervals
    ]


def virtual_state(
    interval: RecurrentInterval, offset: int, t: int
) -> int:
    """Virtual state at round t >= 0 (t = 0 is the pre-play initialization)."""
    cycle = interval.cycle_states()
    return cycle[(offset + t) % interval.length]


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


def step_planner(state: PlannerState, model) -> tuple[frozenset[int], PlannerState]:
    """Advance every virtual state one cycle step, then play the top-k
    candidates ranked by the model's payoff at the virtual state (ties to
    the lowest arm index)."""
    nxt = tuple(
        iv.step(nu) if iv is not None else None
        for iv, nu in zip(state.intervals, state.virtual)
    )
    candidates = [
        i
        for i, (iv, nu) in enumerate(zip(state.intervals, nxt))
        if iv is not None and iv.prescribes_play(nu)
    ]
    ranked = sorted(candidates, key=lambda i: (-model.payoff(i, nxt[i]), i))
    played = frozenset(ranked[: model.k])
    new_state = PlannerState(
        intervals=state.intervals, offsets=state.offsets, t=state.t + 1, virtual=nxt
    )
    return played, new_state


@dataclass
class PlannerTrace:
    """Round-by-round record of one planner run (t = 1..T at row t-1).

    ``virtual`` holds 0 for arms that received no interval (0 is not a valid
    state, so it cannot collide). ``realized`` is present only when payoff
    noise was simulated.
    """

    intervals: list[Optional[RecurrentInterval]]
    offsets: list[int]
    virtual: np.ndarray        # (T, n) int
    candidates: np.ndarray     # (T, n) bool
    played: np.ndarray         # (T, n) bool
    actual_states: np.ndarray  # (T, n) int
    virtual_payoff: np.ndarray     # (T,) selection payoff of played arms at nu
    actual_payoff: np.ndarray      # (T,) true mean payoff at actual states
    realized: Optional[np.ndarray] = None  # (T,) noisy collected payoff

    @property
    def T(self) -> int:
        return self.virtual.shape[0]

    @property
    def n(self) -> int:
        return self.virtual.shape[1]


def _payoff_columns(tau: np.ndarray, tau_min: int, tau_max: int) -> np.ndarray:
    clipped = np.clip(tau, tau_min, tau_max)
    return np.where(clipped < 0, clipped - tau_min, -tau_min + clipped - 1)


def states_from_actions(played: np.ndarray, init=None) -> np.ndarray:
    """Actual states implied by a (n, T) play matrix, starting from ``init``.

    ``init`` holds one nonzero state per arm (all +1 when omitted). The state
    at round t is the signed length of the current action run: +r after r
    consecutive idles, -r after r consecutive plays. The run in progress at
    round 0 is the one ``init`` describes, so an arm that has not switched
    since then keeps growing from ``|init|``.
    """
    n, T = played.shape
    # the run in progress at round 0 is of plays where lead is set, and began
    # at round before = 1 - |init|
    if init is None:
        lead, before = False, 0
    else:
        init = np.asarray(init)
        if init.shape != (n,) or init.dtype.kind not in "iu" or not init.all():
            raise ModelError(f"init states must be {n} nonzero integers, got {init.tolist()}")
        lead, before = (init < 0)[:, None], 1 - np.abs(init.astype(np.int64))[:, None]
    b = np.empty((n, T), dtype=bool)
    b[:, :1] = lead
    b[:, 1:] = played[:, :-1]
    change = np.zeros((n, T), dtype=bool)
    change[:, 1:] = b[:, 1:] != b[:, :-1]
    idx = np.arange(T)
    run = idx - np.maximum.accumulate(np.where(change, idx, before), axis=1) + 1
    return np.where(b, -run, run)


def _selection_payoffs(model, n: int, arms, cycles) -> list[Optional[np.ndarray]]:
    out: list[Optional[np.ndarray]] = [None] * n
    for i in arms:
        out[i] = np.array([model.payoff(i, tau) for tau in cycles[i]])
    return out


def run_planner(
    instance: Instance,
    intervals: Sequence[Optional[RecurrentInterval]],
    offsets: Sequence[int],
    T: int,
    selection=None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerTrace:
    """Run T rounds of the online phase against the true environment.

    ``selection`` is the payoff model consulted for ranking candidates
    (defaults to the instance itself). The environment always pays according
    to ``instance`` at the actual states, which start from ``init_states``
    (all +1 when omitted).
    """
    n, k = instance.n, instance.k
    selection = instance if selection is None else selection
    arms = [i for i in range(n) if intervals[i] is not None]
    cycles = {i: np.array(intervals[i].cycle_states()) for i in arms}
    play_flags = {
        i: np.array([intervals[i].prescribes_play(tau) for tau in cycles[i]])
        for i in arms
    }
    sel_payoff = _selection_payoffs(selection, n, arms, cycles)

    t_range = 1 + np.arange(T)
    virtual = np.zeros((n, T), dtype=np.int64)
    cand = np.zeros((n, T), dtype=bool)
    selp = np.zeros((n, T))
    for i in arms:
        pos = (offsets[i] + t_range) % intervals[i].length
        virtual[i] = cycles[i][pos]
        cand[i] = play_flags[i][pos]
        selp[i] = sel_payoff[i][pos]

    scores = np.where(cand, selp, -1.0)
    order = np.argsort(-scores, axis=0, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n)[:, None], axis=0)
    played = cand & (ranks < k)

    actual = states_from_actions(played, init_states)

    pm = instance.payoff_matrix()
    cols = _payoff_columns(actual, instance.tau_min, instance.tau_max)
    actual_p = np.take_along_axis(pm, cols, axis=1)

    virtual_payoff = np.where(played, selp, 0.0).sum(axis=0)
    actual_payoff = np.where(played, actual_p, 0.0).sum(axis=0)

    realized = None
    if noise_rng is not None:
        draws = noise_rng.random(size=(n, T))
        realized = np.where(played & (draws < actual_p), 1.0, 0.0).sum(axis=0)

    return PlannerTrace(
        intervals=list(intervals),
        offsets=list(offsets),
        virtual=virtual.T.copy(),
        candidates=cand.T.copy(),
        played=played.T.copy(),
        actual_states=actual.T.copy(),
        virtual_payoff=virtual_payoff,
        actual_payoff=actual_payoff,
        realized=realized,
    )


def simulate_planner(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seed: int,
    selection=None,
    init_states: Optional[Sequence[int]] = None,
    with_noise: bool = False,
) -> PlannerTrace:
    """Full pipeline for one seed: rounding, offsets, then T online rounds."""
    intervals = round_intervals(solution, stream(seed, "rounding"))
    offsets = draw_offsets(intervals, stream(seed, "offsets"))
    noise = stream(seed, "noise") if with_noise else None
    return run_planner(
        instance,
        intervals,
        offsets,
        T,
        selection=selection,
        init_states=init_states,
        noise_rng=noise,
    )


def domination_margin(trace: PlannerTrace, tau_max: int) -> int:
    """min over arms with intervals and rounds t >= tau_max of tau - nu.

    Nonnegative means the actual state dominates the virtual state wherever
    the guarantee applies.
    """
    arms = [i for i, iv in enumerate(trace.intervals) if iv is not None]
    if not arms or trace.T < tau_max:
        return 0
    diff = trace.actual_states[tau_max - 1:, arms] - trace.virtual[tau_max - 1:, arms]
    return int(diff.min())


def candidate_marginals(
    solution: LpSolution, t: int, num_samples: int, seed: int
) -> tuple[dict, int]:
    """Monte Carlo frequencies of candidate triples (arm, u, l, nu) at round t.

    Each sample redraws the offline phase; a triple is recorded when the
    arm's cycle prescribes a play at its virtual state. Frequencies estimate
    the occupancy variables themselves.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    rng_round = stream(seed, "rounding")
    rng_off = stream(seed, "offsets")
    counts: dict[tuple[int, int, int, int], int] = {}
    for arm in range(solution.n):
        intervals, probs = _arm_distribution(solution, arm)
        cum = np.cumsum(probs)
        draws = rng_round.random(num_samples)
        picks = np.searchsorted(cum, draws, side="right")
        offs = rng_off.random(num_samples)
        for j, interval in enumerate(intervals):
            mask = picks == j
            m = int(mask.sum())
            if m == 0:
                continue
            L = interval.length
            cycle = np.array(interval.cycle_states())
            flags = np.array([interval.prescribes_play(s) for s in cycle])
            r = np.floor(offs[mask] * L).astype(int)
            nu = cycle[(r + t) % L]
            play = flags[(r + t) % L]
            for state in np.unique(nu[play]):
                key = (arm, interval.u, interval.l, int(state))
                counts[key] = counts.get(key, 0) + int(np.sum(nu[play] == state))
    return counts, num_samples


def marginal_expectations(solution: LpSolution) -> dict:
    """Exact triple probabilities implied by the occupancies: each play-state
    of I(u, l) carries probability x[i, u, l]."""
    out = {}
    for i, u, l, v in solution.iter_entries():
        if v <= 0.0:
            continue
        interval = RecurrentInterval(u=u, l=l)
        for tau in interval.cycle_states():
            if interval.prescribes_play(tau):
                out[(i, u, l, tau)] = v
    return out


def plan_to_dict(
    solution: LpSolution,
    intervals: Sequence[Optional[RecurrentInterval]],
    offsets: Sequence[int],
) -> dict:
    return {
        "tau_L": solution.tau_L,
        "lp_objective": solution.objective,
        "arms": [
            {
                "interval": iv.to_dict() if iv is not None else None,
                "offset": off,
            }
            for iv, off in zip(intervals, offsets)
        ],
    }


def plan_from_dict(d: dict) -> tuple[list[Optional[RecurrentInterval]], list[int]]:
    intervals = [
        RecurrentInterval.from_dict(a["interval"]) if a["interval"] else None
        for a in d["arms"]
    ]
    offsets = [a["offset"] for a in d["arms"]]
    return intervals, offsets


def save_plan(plan: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(plan, f, indent=2)
        f.write("\n")
