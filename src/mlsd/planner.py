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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .intervals import cycle_phase, interval_grid
from .lp import LpSolution
from .model import Instance, ModelError, PayoffTable, require_int, require_keys, state_column
from .rng import bounded, outputs, streams, uniforms

_MASS_TOL = 1e-9
_CHUNK_CELLS = 2**14  # (seed, arm, window column) cells of one planner_runs chunk
# (seed, arm, round) cells over T rounds of one planner_runs chunk: still
# bounds the (S, n, T) fields and columns(0, T) gathers a caller may read
# (no src/ caller does: the experiments and etc_run sum with totals, and
# etc_run draws its commit's hits from the window)
_CHUNK_ROUNDS = 2**17
_ROUND_CELLS = 2**18  # comparisons and draw words of one round_intervals block
_DRAW_WORDS = 16  # about the uint64 temporaries rng.outputs holds per (seed, arm) pair
_MAX_ROUNDED = 2**23  # (seed, arm) pairs of one round_intervals call, ~40 B each
_MAX_CELLS = 2**23  # (run, arm, round) cells of one simulation, ~74 B each
# Seeds from which a round_intervals block reads one rng.outputs pass instead
# of one rng.streams generator a key. Whole calls, median of 40 runs of 50
# calls on a 2-vCPU VM: on a 4-arm relaxation 4 seeds took 312 us by
# generators against 337 us by one pass, 5 seeds 378 against 338; on the
# 1-arm step instance 5 seeds took 351 against 382, 6 seeds 405 against 372.
# One seed takes about 70 us against 190 us.
_BATCH_SEEDS = 5


class PlannerError(RuntimeError):
    """A run broke one of the paper's invariants (the budget of k plays per
    round or the domination of virtual states): a bug, not bad input."""


def _arm_distribution(solution: LpSolution):
    """Every arm's interval distribution: ``u`` and ``l`` of the
    ``interval_grid``, and per arm the cumulative selection probabilities
    (cycle length x occupancy) over it, shape (n, intervals)."""
    n, tau_max, depth = solution.x.shape
    u, l = interval_grid(tau_max, depth)
    p = (u - l) * solution.x.reshape(n, -1)
    ok = p >= -_MASS_TOL  # NaN fails it too
    if not ok.all():
        arm, j = np.argwhere(~ok)[0]
        what = "negative" if p[arm, j] < 0 else "undefined"
        raise ModelError(f"{what} selection mass {p[arm, j]} for arm {arm}")
    p = np.maximum(p, 0.0)
    cum = np.cumsum(p, axis=1)  # left to right, as the sampler walks the list
    total = cum[:, -1:]
    if (total > 1.0).any():
        arm = int(np.argmax(total))
        if total[arm, 0] > 1.0 + _MASS_TOL:
            raise ModelError(f"arm {arm} selection mass {total[arm, 0]} exceeds 1")
        big = total[:, 0] > 1.0
        cum[big] = np.cumsum(p[big] / total[big], axis=1)
    return u, l, cum


@dataclass(frozen=True)
class Plan:
    """The offline phase of S runs as (S, n) int64 arrays: each arm's
    interval I(u, l) and phase offset in [0, u - l). ``u == 0`` (with ``l``
    and offset 0) marks an arm that drew no interval, as ``virtual == 0``
    does in ``PlannerRuns``. Raises ModelError unless the three are 2-d
    int64 arrays of one shape: narrower ints would wrap u - l."""

    u: np.ndarray
    l: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in ("u", "l", "offsets"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 2
                    and a.shape == self.u.shape):
                got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
                raise ModelError(f"plan {name} must be 2-d int64 of u's shape, got {got}")


def round_intervals(solution: LpSolution, seeds: Sequence[int]) -> Plan:
    """The offline phase for every seed, one row each: per arm, an interval
    (or none) picked by one ``"rounding"`` uniform, independently across
    arms, then a uniform phase offset drawn from the seed's ``"offsets"``
    stream in arm order for the arms that picked an interval.

    Seeds go in blocks of about _ROUND_CELLS cells, n (intervals +
    _DRAW_WORDS) a seed: its (seed, arm, interval) comparisons and the
    draw words of its (seed, arm) pairs. A block of fewer than
    _BATCH_SEEDS seeds draws from one ``rng.streams`` generator a key. A
    larger one reads the first n outputs of all its keys from one
    ``rng.outputs`` pass and turns them into the same uniforms and offsets;
    only a seed where numpy may have rejected an offset word draws its
    offsets again from its generator.
    Raises ModelError, before drawing, past _MAX_ROUNDED (seed, arm) pairs.
    """
    S, n = len(seeds), solution.n
    if S * n > _MAX_ROUNDED:
        raise ModelError(
            f"{S} x {n} (seed, arm) pairs exceed the rounding's cap of {_MAX_ROUNDED}"
        )
    u, l, cum = _arm_distribution(solution)
    u, l = np.append(u, 0), np.append(l, 0)  # index u.size - 1: picked none
    plan = Plan(u=np.empty((S, n), dtype=np.int64), l=np.empty((S, n), dtype=np.int64),
                offsets=np.empty((S, n), dtype=np.int64))
    per = max(1, _ROUND_CELLS // max(1, n * (cum.shape[1] + _DRAW_WORDS)))
    for lo in range(0, S, per):
        block = seeds[lo:lo + per]
        batched = len(block) >= _BATCH_SEEDS
        if batched:
            raw = outputs(block, ("rounding", "offsets"), n)
            r = uniforms(raw[0])
        else:
            rngs = streams([(s, "rounding") for s in block] + [(s, "offsets") for s in block])
            r = np.array([next(rngs).random(n) for _ in block])
        picks = (cum <= r[..., None]).sum(axis=-1)
        rows = slice(lo, lo + len(block))
        plan.u[rows], plan.l[rows] = u[picks], l[picks]
        lengths = plan.u[rows] - plan.l[rows]  # 0 where no interval
        redo = range(len(block))  # the seeds whose offsets come from a generator
        if batched:
            plan.offsets[rows], exact = bounded(raw[1], lengths)
            redo = np.flatnonzero(~exact)  # numpy may have rejected an offset word
            rngs = streams([(block[s], "offsets") for s in redo])
        for s, rng in zip(redo, rngs):
            plan.offsets[lo + s] = [rng.integers(x) if x else 0 for x in lengths[s].tolist()]
    return plan


def _init_states(init, n: int) -> np.ndarray:
    """``init`` as an array, or ModelError unless it holds n nonzero integers."""
    try:
        states = np.asarray(init)
    except ValueError:  # ragged: no array holds it
        states = None
    if states is None or states.shape != (n,) or states.dtype.kind not in "iu" or not states.all():
        got = init if states is None else states.tolist()
        raise ModelError(f"init states must be {n} nonzero integers, got {got}")
    return states


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
    init = np.ones(n, dtype=np.int64) if init is None else _init_states(init, n)
    lead, before = (init < 0)[:, None], 1 - np.abs(init.astype(np.int64))[:, None]
    b = np.empty((n, T), dtype=bool)
    b[:, :1] = lead
    b[:, 1:] = played[:, :-1]
    change = np.zeros((n, T), dtype=bool)
    change[:, 1:] = b[:, 1:] != b[:, :-1]
    idx = np.arange(T)
    run = idx - np.maximum.accumulate(np.where(change, idx, before), axis=1) + 1
    return np.where(b, -run, run)


@dataclass(frozen=True)
class PlannerRuns:
    """S planner runs of T rounds, held as the window of W <= T columns the
    kernel computed: the (S, n, W) virtual states, candidates, plays and
    actual states, then the (S, W) virtual and actual payoff series; round
    t is column t-1. An arm without an interval has virtual state 0, never
    a valid state. The virtual payoff is scored by the selection table, so
    an ETC commit scores it by its estimates.

    Past column W, every run repeats its window with the one joint period
    ``period``, P: round t > W copies window column W - P + (t - W) mod P.
    The record has two reads by that rule: ``totals`` sums a series of the
    window over rounds a+1..T from one period, with nothing T-sized, and
    ``columns`` gathers rounds a+1..b of any window series. ``virtual``,
    ``candidates`` and ``played``, (S, n, T) each, are ``columns(0, T)``,
    built together on first read and kept. Run s's full actual states are
    ``states_from_actions(played[s], init)``. Every array a result hands
    out is read-only; arrays may share memory (with k >= n, ``played`` is
    ``candidates``)."""

    window: tuple[np.ndarray, ...]
    period: int  # P, the lcm of every cycle length of the runs, capped at T + 1
    T: int

    n = property(lambda self: self.window[0].shape[1])

    @cached_property
    def _fields(self) -> tuple[np.ndarray, ...]:
        return self.columns(0, self.T)

    virtual = property(lambda self: self._fields[0])
    candidates = property(lambda self: self._fields[1])
    played = property(lambda self: self._fields[2])

    def _width(self, *series: np.ndarray) -> int:
        """W, or ModelError unless every series has W columns."""
        W = self.window[0].shape[2]
        for s in series:
            if s.shape[-1] != W:
                raise ModelError(f"a window series must have W = {W} columns, got {s.shape[-1]}")
        return W

    def totals(self, series: np.ndarray, a: int) -> np.ndarray:
        """Per-run sums of a (..., W) window ``series`` over rounds a+1..T:
        the window's columns from a on, plus q times the last period's sum,
        plus its first r columns, q, r = divmod(T - W, P), added left to
        right. Exact for integer series; a float total rounds in that
        stated order, not in a sum over the T - a rounds. Raises
        ModelError unless 0 <= a <= W and the series is W columns wide."""
        W = self._width(series)
        if not 0 <= a <= W:
            raise ModelError(f"totals from round {a + 1} need 0 <= a <= W = {W}")
        total = series[..., a:].sum(axis=-1)
        if W < self.T:
            q, r = divmod(self.T - W, self.period)
            last = series[..., W - self.period:]
            total = total + q * last.sum(axis=-1) + last[..., :r].sum(axis=-1)
        return total

    def columns(self, a: int, b: int, *series: np.ndarray) -> tuple[np.ndarray, ...]:
        """Rounds a+1..b of each (..., W) window ``series`` (by default
        ``virtual``, ``candidates`` and ``played``), (..., b - a) each:
        views of the series when b <= W, else read-only C-ordered copies,
        one take each by the (b - a,) int32 window column index (T <= 2^23
        and P < T). Raises ModelError unless 0 <= a <= b <= T and every
        series is W columns wide."""
        if not 0 <= a <= b <= self.T:
            raise ModelError(f"columns({a}, {b}) needs 0 <= a <= b <= T = {self.T}")
        series = series or self.window[:3]
        W = self._width(*series)
        if b <= W:
            return tuple(s[..., a:b] for s in series)
        cols = np.arange(a, b, dtype=np.int32)
        tail = cols[max(0, W - a):]  # the rounds past the window
        np.remainder(tail - W, self.period, out=tail)
        tail += W - self.period
        out = tuple(s.take(cols, axis=-1) for s in series)
        for s in out:
            s.flags.writeable = False
        return out


def domination_margin(runs: PlannerRuns, tau_max: int) -> int:
    """min(0, min of tau - nu over every run, arm and round t >= tau_max).

    Negative means an actual state fell below its virtual state where the
    guarantee applies. The margin only means something for runs that start
    at +1: there an arm without an interval holds nu = 0 below its positive
    actual state, so it never counts.

    It reads ``runs.window`` alone, for ``tau_max`` up to the one of the
    instance the runs were computed for: past column W, every run copies
    columns from W - P >= tau_max on, and an arm that never plays only
    grows its actual state. Runs go in blocks of about _CHUNK_CELLS (run,
    arm, window column) cells, and a ``planner_runs`` chunk is one block.
    """
    require_int("tau_max", tau_max, least=1)
    virtual, actual = runs.window[0], runs.window[3]
    S, n, W = virtual.shape
    per = max(1, _CHUNK_CELLS // max(1, n * W))
    margin = 0
    for lo in range(0, S, per):
        gap = actual[lo:lo + per, :, tau_max - 1:] - virtual[lo:lo + per, :, tau_max - 1:]
        margin = min(margin, int(gap.min(initial=0)))
        del gap  # before the next block's
    return margin


def _joint_period(lengths, T: int, period: int = 1) -> int:
    """The lcm of ``period`` and the cycle ``lengths`` (1 for an arm without
    an interval) in exact Python ints, capped at T + 1. The lcm stops
    growing at the cap, so the ints stay small."""
    for length in lengths:
        period = math.lcm(period, length)
        if period > T:
            return T + 1
    return period


def _window_width(period: int, T: int, tau_max: int) -> int:
    """The columns run_planner computes for runs of joint period
    ``period``: all T, or min(T, max(2P + 1, tau_max + P)) when P < T, which
    hold a whole period past column max(P, tau_max - 1). Never decreases
    with ``period``."""
    if period >= T:
        return T
    return min(T, max(2 * period + 1, tau_max + period))


def run_planner(
    instance: Instance,
    plan: Plan,
    T: int,
    *,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
) -> PlannerRuns:
    """The online phase of every run of ``plan``: T rounds against the true
    environment.

    ``selection`` is the payoff model consulted for ranking candidates
    (defaults to the instance itself). The environment always pays according
    to ``instance`` at the actual states, which start from ``init_states``
    (all +1 when omitted).

    Plays repeat with the plan's joint period P, the lcm of every cycle
    length in it, computed once from the set of lengths in exact Python ints
    and capped at T + 1. P is a multiple of each run's own period P_s. An
    arm that plays at all switches in every P_s columns from column 2 on, so
    its actual states repeat from column P_s + 1 on. When P < T, every
    per-cell quantity (virtual states, candidates, plays, the budget check,
    actual states, both payoffs and the domination check) is computed over
    the first W = min(T, max(2P + 1, tau_max + P)) columns only, which hold
    a whole period P past column max(P, tau_max - 1). The result holds that
    window alone, so nothing allocated here grows with T. What it hands out
    (see ``PlannerRuns``) is read-only and bit-identical to computing every
    (run, arm, round) cell.

    Raises ModelError, before allocating, unless T is an integer >= 0, the
    plan and ``selection``, when given, have the instance's arm count, the
    plan has interval bounds u up to tau_max and at most _MAX_CELLS cells
    over T rounds, and ``init_states``, when given, holds n nonzero
    integers; raises PlannerError unless every round plays
    at most k arms and, for runs that start at +1, the actual state
    dominates the virtual one from round tau_max on.
    """
    require_int("T", T, least=0)
    S, n = plan.u.shape
    if n != instance.n:
        raise ModelError(f"plan has {n} arms, instance has {instance.n}")
    if selection is not None and selection.n != n:
        raise ModelError(f"selection table has {selection.n} arms, instance has {n}")
    if (plan.u > instance.tau_max).any():
        run, arm = np.argwhere(plan.u > instance.tau_max)[0]
        raise ModelError(
            f"arm {arm}'s interval bound u={plan.u[run, arm]} exceeds tau_max={instance.tau_max}"
        )
    if S * n * T > _MAX_CELLS:
        raise ModelError(
            f"{S} x {n} x {T} (run, arm, round) cells exceed the planner's cap of {_MAX_CELLS}"
        )
    init = None if init_states is None else np.tile(_init_states(init_states, n), S)
    L = np.maximum(plan.u - plan.l, 1)  # 1 for arms without an interval
    period = _joint_period(set(L.ravel().tolist()), T)
    W = _window_width(period, T, instance.tau_max)
    active = (plan.u > 0)[..., None]
    pos = plan.offsets[..., None] + np.arange(1, W + 1)
    pos %= L[..., None]
    virtual, cand = cycle_phase(plan.u[..., None], L[..., None], pos)
    del pos  # per-cell temporaries go once used: they set a chunk's peak memory
    virtual *= active  # state 0 and no candidate for an arm without an interval
    cand &= active

    arm = np.arange(n)[:, None]
    sel = instance if selection is None else selection
    selp = sel.means[arm, state_column(virtual, sel.tau_min, sel.tau_max)]
    if instance.k < n:
        order = np.argsort(-np.where(cand, selp, -1.0), axis=1, kind="stable")
        played = np.zeros_like(cand)  # top k, ties to the lowest arm
        np.put_along_axis(played, order[:, :instance.k], True, axis=1)
        del order
        played &= cand
    else:  # every candidate fits the budget
        played = cand
    most = int(played.sum(axis=1).max(initial=0))
    if most > instance.k:
        raise PlannerError(f"{most} arms played in a round, budget is {instance.k}")

    actual = states_from_actions(played.reshape(S * n, W), init).reshape(S, n, W)
    actual_p = instance.means[arm, state_column(actual, instance.tau_min, instance.tau_max)]
    window = (virtual, cand, played, actual,
              np.where(played, selp, 0.0).sum(axis=1), np.where(played, actual_p, 0.0).sum(axis=1))
    for a in window:
        a.flags.writeable = False
    runs = PlannerRuns(window=window, period=period, T=T)
    if init is None or (init == 1).all():
        margin = domination_margin(runs, instance.tau_max)
        if margin < 0:
            raise PlannerError(
                f"actual state {-margin} below virtual state after round {instance.tau_max}"
            )
    return runs


def planner_runs(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seeds: Sequence[int],
    *,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
) -> Iterator[PlannerRuns]:
    """Rounding, offsets and T online rounds for every seed (see ``run_planner``
    for the options): one plan, run in chunks of consecutive seeds. A chunk
    runs with one joint period, the lcm of its seeds' cycle lengths, and
    grows by the next seed while S_c n W <= _CHUNK_CELLS, W the window
    ``run_planner`` computes for the lcm with that seed's cycles, and S_c n T
    <= _CHUNK_ROUNDS, which caps the full fields and ``columns(0, T)``
    gathers a caller may read (``totals`` builds neither). Run s of the
    chunks is ``seeds[s]``'s run."""
    require_int("T", T, least=0)  # before it sizes the chunks
    plan = round_intervals(solution, seeds)
    lengths = np.maximum(plan.u - plan.l, 1).tolist()
    lo = 0
    while lo < len(seeds):
        hi, period = lo + 1, _joint_period(set(lengths[lo]), T)
        while hi < len(seeds):
            rows = (hi + 1 - lo) * solution.n  # (seed, arm) rows with seed hi added
            if rows * T > _CHUNK_ROUNDS:
                break
            joint = _joint_period(set(lengths[hi]), T, period)
            if rows * _window_width(joint, T, instance.tau_max) > _CHUNK_CELLS:
                break
            period = joint
            hi += 1
        chunk = Plan(u=plan.u[lo:hi], l=plan.l[lo:hi], offsets=plan.offsets[lo:hi])
        yield run_planner(instance, chunk, T, selection=selection, init_states=init_states)
        lo = hi


def simulate_planner(
    instance: Instance,
    solution: LpSolution,
    T: int,
    seed: int,
    *,
    selection: Optional[PayoffTable] = None,
    init_states: Optional[Sequence[int]] = None,
) -> PlannerRuns:
    """``planner_runs`` for one seed, with the same options."""
    (runs,) = planner_runs(instance, solution, T, [seed], selection=selection,
                           init_states=init_states)
    return runs


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
