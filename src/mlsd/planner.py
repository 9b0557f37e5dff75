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
_MAX_CELLS = 2**23  # (run, arm, round) cells of one simulation, ~74 B each


class PlannerError(RuntimeError):
    """The planner cannot proceed: a selection mass out of range, a run past
    the size cap, or a run that broke one of the paper's invariants."""


def _arm_distribution(solution: LpSolution):
    """Every arm's interval distribution: ``u``, ``l`` and cycle length ``L``
    of the ``interval_grid``, and per arm the cumulative selection
    probabilities (cycle length x occupancy) over it, shape (n, intervals)."""
    n, tau_max, depth = solution.x.shape
    u, l = interval_grid(tau_max, depth)
    p = (u - l) * solution.x.reshape(n, -1)
    if (p < -_MASS_TOL).any():
        arm, j = np.argwhere(p < -_MASS_TOL)[0]
        raise PlannerError(f"negative selection mass {p[arm, j]} for arm {arm}")
    p = np.maximum(p, 0.0)
    cum = np.cumsum(p, axis=1)  # left to right, as the sampler walks the list
    total = cum[:, -1:]
    if (total > 1.0).any():
        arm = int(np.argmax(total))
        if total[arm, 0] > 1.0 + _MASS_TOL:
            raise PlannerError(f"arm {arm} selection mass {total[arm, 0]} exceeds 1")
        big = total[:, 0] > 1.0
        cum[big] = np.cumsum(p[big] / total[big], axis=1)
    return u, l, u - l, cum


def _draw(dist, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The offline phase for every seed, as (S, n) arrays: each arm's interval
    index, picked by one ``"rounding"`` uniform per arm (== number of
    intervals when it picks none), and a uniform phase offset in [0, cycle
    length), drawn from the seed's ``"offsets"`` stream in arm order for the
    arms that picked an interval (0 for the others)."""
    u, _, L, cum = dist
    r = np.array([stream(s, "rounding").random(cum.shape[0]) for s in seeds])
    picks = (cum <= r[..., None]).sum(axis=-1)
    offsets = np.zeros(picks.shape, dtype=np.int64)
    for row, s in enumerate(seeds):
        rng = stream(s, "offsets")
        for i in np.flatnonzero(picks[row] < u.size):
            offsets[row, i] = rng.integers(L[picks[row, i]])
    return picks, offsets


def round_intervals(
    solution: LpSolution, seed: int
) -> tuple[list[Optional[RecurrentInterval]], list[int]]:
    """One seed's offline phase: an interval (or none) per arm, sampled
    independently across arms, and each sampled arm's phase offset."""
    dist = u, l, _, _ = _arm_distribution(solution)
    picks, offsets = _draw(dist, [seed])
    intervals = [
        RecurrentInterval(u=int(u[j]), l=int(l[j])) if j < u.size else None
        for j in picks[0].tolist()
    ]
    return intervals, offsets[0].tolist()


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
    payoff series are (S, T). ``virtual`` holds 0 for arms that received no
    interval (0 is not a valid state, so it cannot collide). ``actual_p`` is
    the true mean payoff of every arm at its actual state; ``realized``, the
    noisy collected payoff, is present only when noise was simulated."""

    virtual: np.ndarray
    candidates: np.ndarray
    played: np.ndarray
    actual_states: np.ndarray
    actual_p: np.ndarray
    virtual_payoff: np.ndarray
    actual_payoff: np.ndarray
    realized: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.virtual.shape[1]

    @property
    def T(self) -> int:
        return self.virtual.shape[2]


def domination_margin(runs: PlannerRuns, tau_max: int) -> int:
    """min(0, min of tau - nu over every run, arm and round t >= tau_max).

    Negative means an actual state fell below its virtual state where the
    guarantee applies. The margin only means something for runs that start
    at +1: there an arm without an interval holds nu = 0 below its positive
    actual state, so it never counts.
    """
    return int((runs.actual_states - runs.virtual)[..., tau_max - 1:].min(initial=0))


def _simulate(instance, u, L, offsets, active, T, selection=None, init_states=None):
    """The online phase of S runs at once, from (S, n) arrays of interval
    parameters ``u``, cycle lengths ``L``, offsets and active flags. Raises
    PlannerError past _MAX_CELLS cells, before allocating, and unless every
    round plays at most k arms and, for runs that start at +1, the actual
    state dominates the virtual one from round tau_max on."""
    S, n = u.shape
    if S * n * T > _MAX_CELLS:
        raise PlannerError(
            f"{S} x {n} x {T} (run, arm, round) cells exceed the planner's cap of {_MAX_CELLS}"
        )
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
    most = int(played.sum(axis=1).max(initial=0))
    if most > instance.k:
        raise PlannerError(f"{most} arms played in a round, budget is {instance.k}")

    init = None if init_states is None else np.tile(np.asarray(init_states), S)
    actual = states_from_actions(played.reshape(S * n, T), init).reshape(S, n, T)
    actual_p = instance.means[arm, state_column(actual, instance.tau_min, instance.tau_max)]
    runs = PlannerRuns(
        virtual=virtual,
        candidates=cand,
        played=played,
        actual_states=actual,
        actual_p=actual_p,
        virtual_payoff=np.where(played, selp, 0.0).sum(axis=1),
        actual_payoff=np.where(played, actual_p, 0.0).sum(axis=1),
    )
    if init is None or (init == 1).all():
        margin = domination_margin(runs, instance.tau_max)
        if margin < 0:
            raise PlannerError(
                f"actual state {-margin} below virtual state after round {instance.tau_max}"
            )
    return runs


def run_planner(
    instance: Instance,
    intervals: Sequence[Optional[RecurrentInterval]],
    offsets: Sequence[int],
    T: int,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerRuns:
    """Run T rounds of the online phase against the true environment, as
    one run (S = 1).

    ``selection`` is the payoff model consulted for ranking candidates
    (defaults to the instance itself). The environment always pays according
    to ``instance`` at the actual states, which start from ``init_states``
    (all +1 when omitted). With ``noise_rng``, each play pays 1 with its
    mean as probability, summed per round into ``realized``.
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
    if noise_rng is not None:
        draws = noise_rng.random(size=runs.played.shape)
        runs.realized = np.where(runs.played & (draws < runs.actual_p), 1.0, 0.0).sum(axis=1)
    return runs


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
    dist = u, _, L, _ = _arm_distribution(solution)
    per = max(1, _CHUNK_CELLS // max(1, solution.n * T))
    for lo in range(0, len(seeds), per):
        picks, offsets = _draw(dist, seeds[lo:lo + per])
        active = picks < u.size
        j = np.where(active, picks, 0)
        yield _simulate(instance, u[j], L[j], offsets, active, T, init_states=init_states)


def simulate_planner(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seed: int,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerRuns:
    """Full pipeline for one seed: rounding and offsets, then T online rounds
    (see ``run_planner`` for ``selection``, ``init_states`` and ``noise_rng``)."""
    intervals, offsets = round_intervals(solution, seed)
    return run_planner(
        instance,
        intervals,
        offsets,
        T,
        selection=selection,
        init_states=init_states,
        noise_rng=noise_rng,
    )


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
    """Intervals and offsets of a plan; raises ModelError unless ``arms`` is
    a list, interval bounds are integers and each offset lies in [0, cycle
    length)."""
    require_keys(d, "plan", "arms")
    if not isinstance(d["arms"], list):
        raise ModelError(f"plan arms must be a list, got {type(d['arms']).__name__}")
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
