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

from .intervals import cycle_phase, interval_grid
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
    """Every arm's interval distribution: ``u`` and ``l`` of the
    ``interval_grid``, and per arm the cumulative selection probabilities
    (cycle length x occupancy) over it, shape (n, intervals)."""
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
    return u, l, cum


@dataclass(frozen=True)
class Plan:
    """The offline phase of S runs as (S, n) int64 arrays: each arm's
    interval I(u, l) and phase offset in [0, u - l). ``u == 0`` (with ``l``
    and offset 0) marks an arm that drew no interval, as ``virtual == 0``
    does in ``PlannerRuns``."""

    u: np.ndarray
    l: np.ndarray
    offsets: np.ndarray


def round_intervals(solution: LpSolution, seeds: Sequence[int]) -> Plan:
    """The offline phase for every seed, one row each: per arm, an interval
    (or none) picked by one ``"rounding"`` uniform, independently across
    arms, then a uniform phase offset drawn from the seed's ``"offsets"``
    stream in arm order for the arms that picked an interval."""
    u, l, cum = _arm_distribution(solution)
    r = np.array([stream(s, "rounding").random(cum.shape[0]) for s in seeds])
    picks = (cum <= r.reshape(-1, cum.shape[0], 1)).sum(axis=-1)  # u.size: picked none
    u, l = np.append(u, 0)[picks], np.append(l, 0)[picks]
    offsets = np.zeros(picks.shape, dtype=np.int64)
    for row, s in enumerate(seeds):
        rng = stream(s, "offsets")
        for i in np.flatnonzero(u[row]):
            offsets[row, i] = rng.integers(u[row, i] - l[row, i])
    return Plan(u=u, l=l, offsets=offsets)


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
    interval (0 is not a valid state, so it cannot collide). ``realized``,
    the noisy collected payoff, is present only when noise was simulated."""

    virtual: np.ndarray
    candidates: np.ndarray
    played: np.ndarray
    actual_states: np.ndarray
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


def run_planner(
    instance: Instance,
    plan: Plan,
    T: int,
    *,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerRuns:
    """The online phase of every run of ``plan``: T rounds against the true
    environment.

    ``selection`` is the payoff model consulted for ranking candidates
    (defaults to the instance itself). The environment always pays according
    to ``instance`` at the actual states, which start from ``init_states``
    (all +1 when omitted). With ``noise_rng``, each play pays 1 with its
    mean as probability, summed per round into ``realized``.

    Raises ModelError for a plan of another arm count or with an interval
    bound u above tau_max, and PlannerError past _MAX_CELLS cells, before
    allocating, and unless every round plays at most k arms and, for runs
    that start at +1, the actual state dominates the virtual one from round
    tau_max on.
    """
    S, n = plan.u.shape
    if n != instance.n:
        raise ModelError(f"plan has {n} arms, instance has {instance.n}")
    if (plan.u > instance.tau_max).any():
        run, arm = np.argwhere(plan.u > instance.tau_max)[0]
        raise ModelError(
            f"arm {arm}'s interval bound u={plan.u[run, arm]} exceeds tau_max={instance.tau_max}"
        )
    if S * n * T > _MAX_CELLS:
        raise PlannerError(
            f"{S} x {n} x {T} (run, arm, round) cells exceed the planner's cap of {_MAX_CELLS}"
        )
    active = (plan.u > 0)[..., None]
    L = np.maximum(plan.u - plan.l, 1)[..., None]  # 1 for arms without an interval
    pos = (plan.offsets[..., None] + np.arange(1, T + 1)) % L
    state, play = cycle_phase(plan.u[..., None], L, pos)
    virtual = np.where(active, state, 0)
    cand = active & play

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
        virtual_payoff=np.where(played, selp, 0.0).sum(axis=1),
        actual_payoff=np.where(played, actual_p, 0.0).sum(axis=1),
    )
    if init is None or (init == 1).all():
        margin = domination_margin(runs, instance.tau_max)
        if margin < 0:
            raise PlannerError(
                f"actual state {-margin} below virtual state after round {instance.tau_max}"
            )
    if noise_rng is not None:
        draws = noise_rng.random(size=played.shape)
        runs.realized = np.where(played & (draws < actual_p), 1.0, 0.0).sum(axis=1)
    return runs


def planner_runs(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seeds: Sequence[int],
    init_states: Optional[Sequence[int]] = None,
) -> Iterator[PlannerRuns]:
    """``simulate_planner`` for every seed: one plan for all seeds, run in
    chunks of about _CHUNK_CELLS (seed, arm, round) cells; run s of the
    concatenated chunks equals ``simulate_planner(..., seeds[s], ...)``."""
    plan = round_intervals(solution, seeds)
    per = max(1, _CHUNK_CELLS // max(1, solution.n * T))
    for lo in range(0, len(seeds), per):
        rows = slice(lo, lo + per)
        chunk = Plan(u=plan.u[rows], l=plan.l[rows], offsets=plan.offsets[rows])
        yield run_planner(instance, chunk, T, init_states=init_states)


def simulate_planner(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seed: int,
    *,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> PlannerRuns:
    """Full pipeline for one seed: rounding and offsets, then T online rounds
    (see ``run_planner`` for ``selection``, ``init_states`` and ``noise_rng``)."""
    return run_planner(
        instance,
        round_intervals(solution, [seed]),
        T,
        selection=selection,
        init_states=init_states,
        noise_rng=noise_rng,
    )


def plan_to_dict(solution: LpSolution, plan: Plan) -> dict:
    """Run 0 of ``plan`` with the relaxation it was rounded from."""
    rows = zip(plan.u[0].tolist(), plan.l[0].tolist(), plan.offsets[0].tolist())
    return {
        "tau_L": solution.tau_L,
        "lp_objective": solution.objective,
        "arms": [
            {"interval": {"u": u, "l": l} if u else None, "offset": off}
            for u, l, off in rows
        ],
    }


def plan_from_dict(d: dict) -> Plan:
    """A plan file as a one-run Plan; raises ModelError unless ``arms`` is a
    list, interval bounds are integers with u >= 1, l <= -1 and u - l <=
    2**62, and each offset lies in [0, cycle length)."""
    require_keys(d, "plan", "arms")
    if not isinstance(d["arms"], list):
        raise ModelError(f"plan arms must be a list, got {type(d['arms']).__name__}")
    rows = []
    for i, a in enumerate(d["arms"]):
        require_keys(a, "plan arm", "interval", "offset")
        u = l = 0
        if a["interval"] is not None:
            require_keys(a["interval"], "plan interval", "u", "l")
            for bound in ("u", "l"):
                require_int(f"arm {i}'s interval bound {bound}", a["interval"][bound])
            u, l = a["interval"]["u"], a["interval"]["l"]
            if u < 1 or l > -1:
                raise ModelError(f"arm {i}'s interval I({u}, {l}) needs u >= 1 and l <= -1")
            if u - l > 2**62:  # keeps offsets + rounds inside int64
                raise ModelError(f"arm {i}'s interval I({u}, {l}) has a cycle past 2**62 rounds")
        require_int(f"arm {i}'s offset", a["offset"])
        if u and not (0 <= a["offset"] < u - l):
            raise ModelError(
                f"arm {i}'s offset {a['offset']} is outside [0, {u - l}), its cycle length"
            )
        rows.append((u, l, a["offset"] if u else 0))
    u, l, offsets = np.array(rows, dtype=np.int64).reshape(-1, 3).T[:, None]
    return Plan(u=u, l=l, offsets=offsets)


def save_plan(plan: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(plan, f, indent=2)
        f.write("\n")
