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
from typing import Iterator, Optional, Sequence

import numpy as np

from .intervals import RecurrentInterval, cycle_phase, interval_grid
from .lp import LpSolution
from .model import Instance, ModelError, PayoffTable, require_int, require_keys, state_column
from .rng import stream

_MASS_TOL = 1e-9
_CHUNK_CELLS = 8000  # (seed, arm, round) cells per array pass of planner_runs


class RoundingError(RuntimeError):
    """Per-arm selection mass exceeds 1 beyond numerical tolerance."""


class PlannerError(RuntimeError):
    """A planner run broke one of the paper's invariants."""


def _arm_distribution(solution: LpSolution):
    """Every arm's interval distribution: ``u``, ``l`` and cycle length ``L``
    of the ``interval_grid``, and per arm the cumulative selection
    probabilities (cycle length x occupancy) over it, shape (n, intervals)."""
    n, tau_max, depth = solution.x.shape
    u, l = interval_grid(tau_max, depth)
    p = (u - l) * solution.x.reshape(n, -1)
    if (p < -_MASS_TOL).any():
        arm, j = np.argwhere(p < -_MASS_TOL)[0]
        raise RoundingError(f"negative selection mass {p[arm, j]} for arm {arm}")
    p = np.maximum(p, 0.0)
    cum = np.cumsum(p, axis=1)  # left to right, as the sampler walks the list
    total = cum[:, -1:]
    if (total > 1.0).any():
        arm = int(np.argmax(total))
        if total[arm, 0] > 1.0 + _MASS_TOL:
            raise RoundingError(f"arm {arm} selection mass {total[arm, 0]} exceeds 1")
        big = total[:, 0] > 1.0
        cum[big] = np.cumsum(p[big] / total[big], axis=1)
    return u, l, u - l, cum


def _pick(cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Index of the interval each uniform draw ``r[..., arm]`` selects from
    its arm's row of ``cum`` (== number of intervals when it selects none)."""
    return (cum <= r[..., None]).sum(axis=-1)


def round_intervals(
    solution: LpSolution, rng: np.random.Generator
) -> list[Optional[RecurrentInterval]]:
    """Sample one interval (or none) per arm, independently across arms."""
    u, l, _, cum = _arm_distribution(solution)
    return [
        RecurrentInterval(u=int(u[j]), l=int(l[j])) if j < u.size else None
        for j in _pick(cum, rng.random(solution.n)).tolist()
    ]


def draw_offsets(
    intervals: Sequence[Optional[RecurrentInterval]], rng: np.random.Generator
) -> list[int]:
    """Uniform phase offset in [0, cycle length) for each sampled arm."""
    return [
        int(rng.integers(iv.length)) if iv is not None else 0 for iv in intervals
    ]


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


@dataclass
class PlannerRuns:
    """S planner runs as (S, n, T) arrays, round t in column t-1; the
    payoff series are (S, T). ``actual_p`` is the true mean payoff of every
    arm at its actual state."""

    virtual: np.ndarray
    candidates: np.ndarray
    played: np.ndarray
    actual_states: np.ndarray
    actual_p: np.ndarray
    virtual_payoff: np.ndarray
    actual_payoff: np.ndarray


def _check_invariants(played, virtual, actual, k: int, tau_max: int, from_ones: bool):
    """Raise PlannerError unless every round plays at most k arms and, for
    runs that start at +1, the actual state dominates the virtual one from
    round tau_max on (arms without interval hold virtual 0 and never play,
    so their positive actual states pass)."""
    most = int(played.sum(axis=1).max(initial=0))
    if most > k:
        raise PlannerError(f"{most} arms played in a round, budget is {k}")
    margin = int((actual - virtual)[..., tau_max - 1:].min(initial=0)) if from_ones else 0
    if margin < 0:
        raise PlannerError(f"actual state {-margin} below virtual state after round {tau_max}")


def _simulate(instance, u, L, offsets, active, T, selection=None, init_states=None):
    """The online phase of S runs at once, from (S, n) arrays of interval
    parameters ``u``, cycle lengths ``L``, offsets and active flags."""
    S, n = u.shape
    pos = (offsets[..., None] + np.arange(1, T + 1)) % L[..., None]
    state, play = cycle_phase(u[..., None], L[..., None], pos)
    virtual = np.where(active[..., None], state, 0)
    cand = active[..., None] & play

    arm = np.arange(n)[:, None]
    sel = instance if selection is None else selection
    selp = sel.means[arm, state_column(virtual, sel.tau_min, sel.tau_max)]
    played = cand
    if instance.k < n:  # else every candidate fits the budget
        order = np.argsort(-np.where(cand, selp, -1.0), axis=1, kind="stable")
        played = np.zeros_like(cand)  # top k, ties to the lowest arm
        np.put_along_axis(played, order[:, :instance.k], True, axis=1)
        played &= cand

    init = None if init_states is None else np.tile(np.asarray(init_states), S)
    actual = states_from_actions(played.reshape(S * n, T), init).reshape(S, n, T)
    actual_p = instance.means[arm, state_column(actual, instance.tau_min, instance.tau_max)]
    from_ones = init is None or bool((init == 1).all())
    _check_invariants(played, virtual, actual, instance.k, instance.tau_max, from_ones)
    return PlannerRuns(
        virtual=virtual,
        candidates=cand,
        played=played,
        actual_states=actual,
        actual_p=actual_p,
        virtual_payoff=np.where(played, selp, 0.0).sum(axis=1),
        actual_payoff=np.where(played, actual_p, 0.0).sum(axis=1),
    )


def run_planner(
    instance: Instance,
    intervals: Sequence[Optional[RecurrentInterval]],
    offsets: Sequence[int],
    T: int,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerTrace:
    """Run T rounds of the online phase against the true environment.

    ``selection`` is the payoff model consulted for ranking candidates
    (defaults to the instance itself). The environment always pays according
    to ``instance`` at the actual states, which start from ``init_states``
    (all +1 when omitted).
    """
    if len(intervals) != instance.n or len(offsets) != instance.n:
        raise ModelError(f"plan has {len(intervals)} arms, instance has {instance.n}")
    runs = _simulate(
        instance,
        np.array([[iv.u if iv is not None else 1 for iv in intervals]]),
        np.array([[iv.length if iv is not None else 1 for iv in intervals]]),
        np.array([offsets]),
        np.array([[iv is not None for iv in intervals]]),
        T,
        selection,
        init_states,
    )
    played = runs.played[0]
    realized = None
    if noise_rng is not None:
        draws = noise_rng.random(size=played.shape)
        realized = np.where(played & (draws < runs.actual_p[0]), 1.0, 0.0).sum(axis=0)

    return PlannerTrace(
        intervals=list(intervals),
        offsets=list(offsets),
        virtual=runs.virtual[0].T.copy(),
        candidates=runs.candidates[0].T.copy(),
        played=played.T.copy(),
        actual_states=runs.actual_states[0].T.copy(),
        virtual_payoff=runs.virtual_payoff[0],
        actual_payoff=runs.actual_payoff[0],
        realized=realized,
    )


def planner_runs(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seeds: Sequence[int],
    init_states: Optional[Sequence[int]] = None,
) -> Iterator[PlannerRuns]:
    """``simulate_planner`` for every seed, in chunks of about _CHUNK_CELLS
    (seed, arm, round) cells. Each seed draws its intervals and offsets from
    its own streams exactly as ``simulate_planner`` does, so run s of the
    concatenated chunks equals ``simulate_planner(..., seeds[s], ...)``."""
    n = solution.n
    u, _, L, cum = _arm_distribution(solution)
    per = max(1, _CHUNK_CELLS // max(1, n * T))
    for lo in range(0, len(seeds), per):
        chunk = seeds[lo:lo + per]
        picks = _pick(cum, np.array([stream(s, "rounding").random(n) for s in chunk]))
        active = picks < u.size
        j = np.where(active, picks, 0)
        offsets = np.zeros(picks.shape, dtype=np.int64)
        for row, s in enumerate(chunk):
            rng = stream(s, "offsets")
            for i in np.flatnonzero(active[row]):
                offsets[row, i] = rng.integers(L[j[row, i]])
        yield _simulate(instance, u[j], L[j], offsets, active, T, init_states=init_states)


def simulate_planner(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seed: int,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerTrace:
    """Full pipeline for one seed: rounding, offsets, then T online rounds
    (see ``run_planner`` for ``selection``, ``init_states`` and ``noise_rng``)."""
    intervals = round_intervals(solution, stream(seed, "rounding"))
    offsets = draw_offsets(intervals, stream(seed, "offsets"))
    return run_planner(
        instance,
        intervals,
        offsets,
        T,
        selection=selection,
        init_states=init_states,
        noise_rng=noise_rng,
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
    """Intervals and offsets of a plan; raises ModelError unless interval
    bounds are integers and each offset lies in [0, cycle length)."""
    require_keys(d, "plan", "arms")
    intervals, offsets = [], []
    for i, a in enumerate(d["arms"]):
        require_keys(a, "plan arm", "interval", "offset")
        iv = None
        if a["interval"]:
            require_keys(a["interval"], "plan interval", "u", "l")
            for bound in ("u", "l"):
                require_int(f"arm {i}'s interval bound {bound}", a["interval"][bound])
            iv = RecurrentInterval.from_dict(a["interval"])
        require_int(f"arm {i}'s offset", a["offset"])
        if iv is not None and not (0 <= a["offset"] < iv.length):
            raise ModelError(
                f"arm {i}'s offset {a['offset']} is outside [0, {iv.length}), its cycle length"
            )
        intervals.append(iv)
        offsets.append(a["offset"])
    return intervals, offsets


def save_plan(plan: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(plan, f, indent=2)
        f.write("\n")
