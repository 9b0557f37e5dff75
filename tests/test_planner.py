import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import draw_instance
from reference import (
    candidate_marginals,
    cycle_walk,
    draw_offsets,
    init_offsets,
    marginal_expectations,
    plan_lists,
    plan_of,
    step_planner,
    step_states,
    virtual_state,
)

from mlsd import learning, planner
from mlsd.analysis import make_step_instance, tightness_experiment
from mlsd.intervals import RecurrentInterval, cycle_phase
from mlsd.lp import LpSolution, build_lp, solve_lp
from mlsd.model import Instance, ModelError, PayoffTable, random_instance, transition
from mlsd.planner import (
    Plan,
    PlannerError,
    PlannerRuns,
    domination_margin,
    plan_from_dict,
    planner_runs,
    round_intervals,
    run_planner,
    simulate_planner,
    states_from_actions,
)
from mlsd.rng import stream


def _step_solution() -> LpSolution:
    return solve_lp(build_lp(make_step_instance(), -2))


def test_rounding_step_instance_is_deterministic():
    sol = _step_solution()
    plan = round_intervals(sol, range(20))
    for seed in range(20):
        ivs, _ = plan_lists(plan, seed)
        assert ivs == [RecurrentInterval(u=1, l=-2)]


def test_rounding_zero_solution_never_plays():
    sol = LpSolution(x=np.zeros((2, 2, 2)), objective=0.0, tau_L=-2)
    plan = round_intervals(sol, [0])
    ivs, offs = plan_lists(plan)
    assert ivs == [None, None]
    assert offs == [0, 0]
    inst = draw_instance(8, n_range=(2, 2), tau_max_range=(2, 2))
    trace = run_planner(inst, plan, 50)
    assert trace.played.sum() == 0


def test_rounding_rejects_excess_mass():
    x = np.zeros((1, 1, 2))
    x[0, 0, 0] = 0.30
    x[0, 0, 1] = 0.25  # masses 2*0.30 + 3*0.25 = 1.35 > 1
    sol = LpSolution(x=x, objective=0.0, tau_L=-2)
    with pytest.raises(ModelError):
        round_intervals(sol, [0])


def test_rounding_rejects_negative_mass():
    x = np.zeros((2, 1, 2))
    x[1, 0, 1] = -1e-6  # beyond the 1e-9 tolerance, on arm 1
    sol = LpSolution(x=x, objective=0.0, tau_L=-2)
    with pytest.raises(ModelError, match="negative selection mass .* for arm 1"):
        round_intervals(sol, [0])


def test_rounding_rejects_undefined_mass():
    # all-NaN occupancies drew I(1, -1) on every arm, and the planner ran them
    sol = LpSolution(x=np.full((2, 1, 2), np.nan), objective=0.0, tau_L=-2)
    with pytest.raises(ModelError, match="^undefined selection mass nan for arm 0$"):
        round_intervals(sol, [0, 1])


def test_rounding_renormalizes_tiny_excess():
    x = np.zeros((1, 1, 1))
    x[0, 0, 0] = 0.5 * (1 + 2e-10)  # mass 1 + 2e-10
    sol = LpSolution(x=x, objective=0.0, tau_L=-1)
    ivs, _ = plan_lists(round_intervals(sol, [0]))
    assert ivs == [RecurrentInterval(u=1, l=-1)]


def test_rounding_frequencies_match_marginals():
    inst = draw_instance(21, n_range=(2, 3), tau_max_range=(2, 3))
    sol = solve_lp(build_lp(inst, -2))
    N = 20000
    counts = {}
    plan = round_intervals(sol, range(N))
    for s in range(N):
        for arm, iv in enumerate(plan_lists(plan, s)[0]):
            if iv is not None:
                counts[(arm, iv.u, iv.l)] = counts.get((arm, iv.u, iv.l), 0) + 1
    for arm in range(inst.n):
        for u in range(1, inst.tau_max + 1):
            for l in (-1, -2):
                p = (u - l) * sol.x[arm, u - 1, -l - 1]
                freq = counts.get((arm, u, l), 0) / N
                se = math.sqrt(max(p * (1 - p), 1e-12) / N)
                assert abs(freq - p) <= max(3 * se, 2e-3)


def test_offsets_give_expected_initial_virtual_states():
    i11 = RecurrentInterval(u=1, l=-1)
    assert virtual_state(i11, 0, 0) == 1
    assert virtual_state(i11, 1, 0) == -1
    i32 = RecurrentInterval(u=3, l=-2)
    assert virtual_state(i32, 3, 0) == -1  # 1 -> 2 -> 3 -> -1


def test_first_round_virtual_state_uniform():
    iv = RecurrentInterval(u=3, l=-2)
    counts = {tau: 0 for tau in iv.cycle_states()}
    N = 30000
    rng = stream(5, "offsets")
    for _ in range(N):
        off = draw_offsets([iv], rng)[0]
        counts[virtual_state(iv, off, 1)] += 1
    for tau, c in counts.items():
        assert abs(c / N - 1 / 5) <= 4 * math.sqrt(0.2 * 0.8 / N)


def test_step_planner_empty_candidates():
    iv = RecurrentInterval(u=3, l=-1)
    inst = draw_instance(2, n_range=(2, 2), tau_max_range=(3, 3))
    state = init_offsets([iv, None], stream(1, "offsets"))
    # force a phase where the arm is waiting
    state = state.__class__(
        intervals=state.intervals, offsets=state.offsets, t=0, virtual=(1, None)
    )
    played, nxt = step_planner(state, inst)
    assert played == frozenset()
    assert nxt.virtual[0] == 2


def test_step_planner_top_k_selection_and_ties():
    inst = Instance(k=2, tau_min=-1, tau_max=1, means=[[0.0, v] for v in (0.9, 0.1, 0.5)])
    ivs = [RecurrentInterval(u=1, l=-1)] * 3
    state = init_offsets(ivs, stream(0, "offsets"))
    state = state.__class__(
        intervals=state.intervals, offsets=state.offsets, t=0,
        virtual=(-1, -1, -1),  # next step puts every arm at 1, all candidates
    )
    played, _ = step_planner(state, inst)
    assert played == frozenset({0, 2})

    tie = Instance(k=2, tau_min=-1, tau_max=1, means=[[0.0, 0.5]] * 3)
    played, _ = step_planner(state, tie)
    assert played == frozenset({0, 1})  # lowest indices win ties


def test_step_planner_matches_run_planner():
    inst = draw_instance(33, n_range=(3, 3), tau_max_range=(2, 3))
    sol = solve_lp(build_lp(inst, -2))
    ivs, _ = plan_lists(round_intervals(sol, [7]))
    state = init_offsets(ivs, stream(7, "offsets"))
    offsets = list(state.offsets)
    trace = run_planner(inst, plan_of(ivs, offsets), 40)
    for t in range(40):
        played, state = step_planner(state, inst)
        assert played == frozenset(np.flatnonzero(trace.played[0, :, t]))
        for i in state.active_arms:
            assert state.virtual[i] == trace.virtual[0, i, t]


def test_budget_respected_always():
    for seed in range(15):
        inst = draw_instance(600 + seed, n_range=(3, 5))
        sol = solve_lp(build_lp(inst, -2))
        trace = simulate_planner(inst, sol, 100, seed)
        assert trace.played.sum(axis=1).max() <= inst.k


def test_step_instance_play_rate():
    inst = make_step_instance()
    trace = simulate_planner(inst, _step_solution(), 300, seed=2)
    # one cycle of I(1,-2) is 3 rounds with 2 plays
    assert trace.played.sum() == pytest.approx(200, abs=1)


def test_virtual_state_periodicity():
    inst = draw_instance(44, n_range=(2, 3))
    sol = solve_lp(build_lp(inst, -3))
    trace = simulate_planner(inst, sol, 60, seed=3)
    ivs, _ = plan_lists(round_intervals(sol, [3]))
    for i, iv in enumerate(ivs):
        if iv is None:
            continue
        L = iv.length
        for t in range(60 - L):
            assert trace.virtual[0, i, t] == trace.virtual[0, i, t + L]


def test_actual_dominates_virtual_after_burn_in():
    for seed in range(50):
        inst = draw_instance(700 + seed, n_range=(2, 5))
        sol = solve_lp(build_lp(inst, -2))
        trace = simulate_planner(inst, sol, 150, seed)
        assert domination_margin(trace, inst.tau_max) >= 0
        # payoff streams inherit the dominance via monotone tables
        start = inst.tau_max - 1
        assert np.all(
            trace.actual_payoff[:, start:] >= trace.virtual_payoff[:, start:] - 1e-12
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_states_from_actions_matches_iterative(data):
    # any nonzero start, including negative ones and |init| above any tau_max
    n = data.draw(st.integers(1, 4))
    T = data.draw(st.integers(0, 30))
    init = data.draw(st.lists(st.integers(-40, 40).filter(bool), min_size=n, max_size=n))
    flat = data.draw(st.lists(st.booleans(), min_size=n * T, max_size=n * T))
    played = np.array(flat, dtype=bool).reshape(n, T)
    assert np.array_equal(states_from_actions(played, init), step_states(played, init))
    assert np.array_equal(states_from_actions(played), step_states(played, [1] * n))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(0, 40), lift=st.integers(0, 6))
def test_run_planner_tracks_states_from_init(seed, T, lift):
    inst = draw_instance(seed, n_range=(1, 4), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -2))
    plan = round_intervals(sol, [seed])
    rng = stream(seed, "misc")
    init = [int(s) for s in rng.choice([-1, 1], inst.n) * (rng.integers(1, 3, inst.n) + lift)]
    trace = run_planner(inst, plan, T, init_states=init)
    want = step_states(trace.played[0], init)
    assert reference.actual_states(trace, init).shape == (1, inst.n, T)
    assert np.array_equal(reference.actual_states(trace, init)[0], want)
    W = trace.window[3].shape[2]
    assert np.array_equal(trace.window[3][0], want[:, :W])


@pytest.mark.parametrize("init", [[0], [1, 1], [2, 0], [1.5]])
def test_run_planner_rejects_invalid_init_states(init):
    inst = make_step_instance()
    with pytest.raises(ValueError, match="init states"):
        run_planner(inst, plan_of([RecurrentInterval(u=1, l=-2)], [0]), 5, init_states=init)


@pytest.mark.parametrize("init, given", [([1, 2], r"\[1, 2\]"),
                                         ([[1], [1], [1]], r"\[\[1\], \[1\], \[1\]\]")])
def test_planner_runs_check_init_states_against_arms_before_tiling(monkeypatch, init, given):
    # four seeds of a 3-arm instance: the error names the 3 arms and the list
    # as given, not its 12 tiled copies, and comes before any window work
    inst = draw_instance(5, n_range=(3, 3))
    sol = solve_lp(build_lp(inst, -2))
    monkeypatch.setattr(planner, "cycle_phase", lambda *args: pytest.fail("window work first"))
    with pytest.raises(ModelError, match=rf"^init states must be 3 nonzero integers, got {given}$"):
        list(planner_runs(inst, sol, 10, range(4), init_states=init))


@pytest.mark.parametrize("n, call", [
    (1, lambda init: run_planner(make_step_instance(), plan_of([RecurrentInterval(u=1, l=-2)], [0]),
                                 5, init_states=init)),
    (1, lambda init: list(planner_runs(make_step_instance(), _step_solution(), 5, range(2),
                                       init_states=init))),
    (2, lambda init: states_from_actions(np.zeros((2, 5), dtype=bool), init)),
], ids=["run_planner", "planner_runs", "states_from_actions"])
def test_ragged_init_states_are_refused_as_model_errors(n, call):
    # no array holds a ragged list, so it fails before any shape check
    with pytest.raises(ModelError,
                       match=rf"^init states must be {n} nonzero integers, got \[\[1\], \[1, 2\]\]$"):
        call([[1], [1, 2]])


def test_candidate_marginals_match_occupancies():
    inst = make_step_instance()
    sol = _step_solution()
    expect = marginal_expectations(sol)
    assert set(expect) == {(0, 1, -2, 1), (0, 1, -2, -1)}
    counts, N = candidate_marginals(sol, t=1, num_samples=50000, seed=9)
    for key, x in expect.items():
        freq = counts.get(key, 0) / N
        se = math.sqrt(x * (1 - x) / N)
        assert abs(freq - x) <= 4 * se


def test_candidate_marginals_zero_solution():
    sol = LpSolution(x=np.zeros((2, 1, 1)), objective=0.0, tau_L=-1)
    counts, _ = candidate_marginals(sol, t=3, num_samples=2000, seed=0)
    assert counts == {}


def test_fixed_round_payoff_meets_scaled_lp_value():
    # the sharp per-round form: at one fixed round t >= tau_max, the mean
    # virtual payoff over the offline randomness is >= gamma_k * LP*
    from mlsd.analysis import gamma_k

    for seed0 in (0, 1):
        inst = draw_instance(910 + seed0, n_range=(3, 4), tau_max_range=(1, 2))
        sol = solve_lp(build_lp(inst, -2))
        t = inst.tau_max
        vals = run_planner(inst, round_intervals(sol, range(2000)), t).virtual_payoff[:, t - 1]
        bound = gamma_k(inst.k) * sol.objective
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() >= bound - 3 * se


def test_triples_independent_across_arms():
    # joint frequency of two arms' triples factorizes into the marginals
    inst = draw_instance(77, n_range=(2, 2), tau_max_range=(2, 2))
    sol = solve_lp(build_lp(inst, -1))
    expected = marginal_expectations(sol)
    keys0 = [k for k in expected if k[0] == 0]
    keys1 = [k for k in expected if k[0] == 1]
    if not keys0 or not keys1:
        pytest.skip("degenerate relaxation for this draw")
    k0, k1 = keys0[0], keys1[0]
    N = 40000
    joint = 0
    plan = round_intervals(sol, range(N))
    for s in range(N):
        ivs, offs = plan_lists(plan, s)
        hit0 = (
            ivs[0] is not None
            and (ivs[0].u, ivs[0].l) == (k0[1], k0[2])
            and virtual_state(ivs[0], offs[0], 2) == k0[3]
        )
        hit1 = (
            ivs[1] is not None
            and (ivs[1].u, ivs[1].l) == (k1[1], k1[2])
            and virtual_state(ivs[1], offs[1], 2) == k1[3]
        )
        joint += hit0 and hit1
    p = expected[k0] * expected[k1]
    se = math.sqrt(p * (1 - p) / N)
    assert abs(joint / N - p) <= max(4 * se, 2e-3)


def test_per_arm_triples_mutually_exclusive():
    # at most one triple per arm per sample: total per-arm frequency <= 1
    inst = draw_instance(88, n_range=(2, 3))
    sol = solve_lp(build_lp(inst, -2))
    counts, N = candidate_marginals(sol, t=2, num_samples=40000, seed=1)
    per_arm = {}
    for (arm, _, _, _), c in counts.items():
        per_arm[arm] = per_arm.get(arm, 0) + c
    for arm, c in per_arm.items():
        assert c <= N


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


_FIELDS = ("virtual", "candidates", "played")  # the (S, n, T) fields
_FIVE_FIELDS = (*_FIELDS, "virtual_payoff", "actual_payoff")
_SIX_FIELDS = (*_FIELDS, "actual_states", "virtual_payoff", "actual_payoff")


def _six(runs, init=None) -> dict:
    """The six quantities of ``runs`` by name, the full actual states from
    ``reference.actual_states``."""
    return {name: reference.actual_states(runs, init) if name == "actual_states"
            else getattr(runs, name) for name in _SIX_FIELDS}


def _twin_six(twin) -> dict:
    """The six quantities of a scalar twin by name; its window is all T
    rounds and holds its stepped actual states."""
    return {name: twin.window[3] if name == "actual_states" else getattr(twin, name)
            for name in _SIX_FIELDS}


def _assert_same_trace(got, want, init=None):
    """``got`` matches the scalar twin ``want`` in all six quantities, and
    its window's actual states match the twin's first W columns."""
    got_six, want_six = _six(got, init), _twin_six(want)
    for name in _FIELDS + ("actual_states",):
        assert np.array_equal(got_six[name], want_six[name]), name
    W = got.window[3].shape[2]
    assert np.array_equal(got.window[3], want.window[3][..., :W])
    assert _hex(got.virtual_payoff) == _hex(want.virtual_payoff)
    assert _hex(got.actual_payoff) == _hex(want.actual_payoff)


@pytest.mark.parametrize("u", range(1, 7))
@pytest.mark.parametrize("l", range(-6, 0))
def test_closed_form_cycle_matches_transition(u, l):
    # step the paper's characteristic trajectory from +1: play at u and at
    # -1..l+1, rest elsewhere; one period must close back at +1
    walk = cycle_walk(RecurrentInterval(u=u, l=l))
    tau, play = walk[-1]
    assert transition(tau, play) == 1
    state, play = cycle_phase(u, u - l, np.arange(u - l))
    assert list(zip(state.tolist(), play.tolist())) == walk


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    T=st.integers(1, 80),
    S=st.integers(1, 9),
    cells=st.integers(1, 1000),
    lift=st.one_of(st.none(), st.integers(0, 5)),
    thin=st.booleans(),
    perturb=st.booleans(),
)
def test_planner_runs_match_per_seed_twin(seed, T, S, cells, lift, thin, perturb):
    # chunks of consecutive seeds within cells (seed, arm, window column)
    # cells and 8 cells (seed, arm, round) cells, so S is often not a multiple;
    # cycles are at most 6 rounds long, so a joint period is at most 60: T
    # from 61 on always takes the window of run_planner, small T often the
    # full width; rounding blocks of max(1, cells // (n (intervals + 16))) seeds
    inst = draw_instance(seed, n_range=(1, 5), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -1 - seed % 3))
    if thin:  # half the selection mass: many arms draw no interval
        sol = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    init = None
    if lift is not None:
        rng = stream(seed, "misc")
        init = [int(s) for s in rng.choice([-1, 1], inst.n) * (rng.integers(1, 3, inst.n) + lift)]
    selection = None
    if perturb:  # non-monotone selection tables, as robustness_gap builds them
        noise = stream(seed, "perturb").uniform(-0.3, 0.3, inst.means.shape)
        selection = PayoffTable(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max,
                                means=np.clip(inst.means + noise, 0.0, 1.0))
    seeds = range(seed, seed + S)
    with mock.patch.object(planner, "_CHUNK_CELLS", cells), \
            mock.patch.object(planner, "_CHUNK_ROUNDS", 8 * cells), \
            mock.patch.object(planner, "_ROUND_CELLS", cells):
        chunks = list(planner_runs(inst, sol, T, seeds, selection=selection, init_states=init))
    want = reference.simulate_seeds(inst, sol, T, seeds, selection=selection, init_states=init)
    rows = [(c, r) for c in chunks for r in range(c.played.shape[0])]
    assert len(rows) == S
    for (c, r), trace in zip(rows, want):
        got, twin = _six(c, init), _twin_six(trace)
        for name in _FIELDS + ("actual_states",):
            assert np.array_equal(got[name][r], twin[name][0]), name
        assert _hex(c.virtual_payoff[r]) == _hex(trace.virtual_payoff)
        assert _hex(c.actual_payoff[r]) == _hex(trace.actual_payoff)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(0, 25), perturb=st.booleans())
def test_run_planner_matches_scalar_twin(seed, T, perturb):
    inst = draw_instance(seed, n_range=(1, 9), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -2))
    plan = round_intervals(sol, [seed])
    ivs, offs = plan_lists(plan)
    assert ivs == reference.round_intervals(sol, stream(seed, "rounding"))
    assert offs == draw_offsets(ivs, stream(seed, "offsets"))
    selection = None
    if perturb:  # non-monotone selection tables, as robustness_gap builds them
        noise = stream(seed, "perturb").uniform(-0.3, 0.3, inst.means.shape)
        selection = PayoffTable(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max,
                                means=np.clip(inst.means + noise, 0.0, 1.0))
    _assert_same_trace(
        run_planner(inst, plan, T, selection=selection),
        reference.run_planner(inst, ivs, offs, T, selection=selection),
    )


@pytest.mark.parametrize("T", [1, 7, 40])
def test_window_matches_twin_on_cycles_near_2_62(T):
    # cycles of 2**62 and 2**62 - 1 rounds: their lcm, about 2**124, would
    # wrap in int64; the run keeps the full width of T rounds
    inst = draw_instance(11, n_range=(4, 4))
    arms = [(1, -(2**62 - 1), 3), (1, -(2**62 - 2), 0), (1, -1, 1), (1, -2, 2)]
    plan = plan_from_dict({"arms": [
        {"interval": {"u": u, "l": l}, "offset": off} for u, l, off in arms
    ]})
    assert plan.u.shape == (1, 4) and plan.l[0, 0] == -(2**62 - 1)
    _assert_same_trace(run_planner(inst, plan, T), reference.run_planner(inst, *plan_lists(plan), T))
    # without the long cycles the joint period is 6 rounds, a window for T = 7, 40
    short = plan_of([RecurrentInterval(u=1, l=-1), RecurrentInterval(u=1, l=-2)] * 2, [1, 2, 0, 1])
    _assert_same_trace(run_planner(inst, short, T), reference.run_planner(inst, *plan_lists(short), T))


def _plan_rows(*runs) -> Plan:
    """One Plan of several runs, each an (intervals, offsets) pair."""
    plans = [plan_of(*run) for run in runs]
    return Plan(*(np.vstack([getattr(p, f) for p in plans]) for f in ("u", "l", "offsets")))


def _kernel_window(plan: Plan, tau_max: int) -> tuple[int, int]:
    """The joint period W of ``plan``, the lcm of all its cycle lengths, and
    the width max(2W + 1, tau_max + W) that run_planner computes when it is
    below T."""
    W = math.lcm(*np.maximum(plan.u - plan.l, 1).ravel().tolist())
    return W, max(2 * W + 1, tau_max + W)


_I = RecurrentInterval
_BOUNDARY_CASES = {
    # joint periods 6 and 30: 2W + 1 = 61 sets the width
    "periods": (
        Instance(k=1, tau_min=-3, tau_max=2, means=[[0.1, 0.2, 0.3, 0.5, 0.6],
                                                    [0.0, 0.25, 0.5, 0.75, 1.0],
                                                    [0.2, 0.2, 0.4, 0.4, 0.9]]),
        _plan_rows(([_I(1, -1), _I(2, -1), None], [0, 2, 0]),
                   ([_I(2, -3), _I(1, -1), _I(1, -2)], [4, 1, 0])),
    ),
    # tau_max = 12 > W + 1 = 5: tau_max + W = 16 sets the width
    "tau_max": (
        Instance(k=2, tau_min=-2, tau_max=12, means=np.linspace([0.0, 0.1], [0.9, 1.0], 14).T),
        _plan_rows(([_I(1, -1), _I(3, -1)], [1, 2]), ([_I(2, -2), _I(1, -1)], [3, 1])),
    ),
    # arms 0 and 1 are candidates in the same rounds and arm 1 always loses
    # the one play; the second run has no interval at all
    "starved": (
        Instance(k=1, tau_min=-2, tau_max=1, means=[[0.5, 0.6, 0.7], [0.1, 0.2, 0.3],
                                                    [0.0, 0.0, 1.0]]),
        _plan_rows(([_I(1, -1), _I(1, -1), None], [0, 0, 0]), ([None] * 3, [0] * 3)),
    ),
}


@pytest.mark.parametrize("case", sorted(_BOUNDARY_CASES))
@pytest.mark.parametrize("init", [None, "ones", "negative", "large"])
@pytest.mark.parametrize("perturb", [False, True])
def test_window_edges_match_scalar_twin(case, init, perturb):
    # T just below, at and past the kernel's width, a period past it, and 500
    inst, plan = _BOUNDARY_CASES[case]
    n = inst.n
    init = {None: None, "ones": [1] * n, "negative": [-1, -3, -2][:n],
            "large": [10**6, -(10**6), 999_983][:n]}[init]
    selection = None
    if perturb:  # non-monotone, so the ranking differs from the instance's
        noise = stream(n, "perturb").uniform(-0.3, 0.3, inst.means.shape)
        selection = PayoffTable(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max,
                                means=np.clip(inst.means + noise, 0.0, 1.0))
    W, W2 = _kernel_window(plan, inst.tau_max)
    if case == "tau_max":
        assert inst.tau_max > W + 1 and W2 == inst.tau_max + W
    for T in (W2 - 1, W2, W2 + 1, W2 + W, 500):
        runs = run_planner(inst, plan, T, selection=selection, init_states=init)
        for s in range(plan.u.shape[0]):
            ivs, offs = plan_lists(plan, s)
            want = reference.run_planner(inst, ivs, offs, T, selection=selection, init_states=init)
            run = SimpleNamespace(window=tuple(w[s:s + 1] for w in runs.window),
                                  **{f: getattr(runs, f)[s:s + 1] for f in _FIVE_FIELDS})
            _assert_same_trace(run, want, init)
        if case == "starved" and not perturb:
            assert not runs.played[0, 1].any() and runs.candidates[0, 1].any()


@pytest.mark.parametrize("case", ["periods", "tau_max"])
def test_kernel_tracks_and_checks_exactly_its_window(monkeypatch, case):
    # k = n plays every candidate, so from the first rest on each sampled
    # arm's actual state equals its virtual one, a margin of 0
    inst, plan = _BOUNDARY_CASES[case]
    inst = Instance(k=inst.n, tau_min=inst.tau_min, tau_max=inst.tau_max, means=inst.means)
    plan = Plan(u=plan.u[1:], l=plan.l[1:], offsets=plan.offsets[1:])  # one run, period W
    W, W2 = _kernel_window(plan, inst.tau_max)
    T = W2 + 3 * W
    real = planner.states_from_actions
    widths = []

    def spy(played, init=None):
        widths.append(played.shape[1])
        return real(played, init)

    monkeypatch.setattr(planner, "states_from_actions", spy)
    runs = run_planner(inst, plan, T)
    assert widths == [W2]
    margin = (reference.actual_states(runs) - runs.virtual)[0, :, W2 - W:W2]
    assert (margin.min(axis=0) == 0).all()
    for c in range(W2 - W, W2):  # the last period of the window, one column at a time
        def lowered(played, init=None, c=c):
            states = real(played, init)
            states[:, c] -= 1
            return states

        monkeypatch.setattr(planner, "states_from_actions", lowered)
        with pytest.raises(PlannerError, match="actual state 1 below virtual state"):
            run_planner(inst, plan, T)


def _same_bits(got, want, name):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


@settings(max_examples=80, deadline=None)
@given(
    source=st.one_of(st.sampled_from(sorted(_BOUNDARY_CASES)), st.integers(0, 10**6)),
    init=st.sampled_from([None, "ones", "negative", "large"]),
    perturb=st.booleans(),
    T=st.integers(0, 130),
    cuts=st.lists(st.integers(0, 130), max_size=6),
)
def test_block_reads_match_full_fields_and_twin(source, init, perturb, T, cuts):
    # the boundary cases (arms with no interval, a starved arm, windows set
    # by 2P + 1 or tau_max + P) or a random 1-4 arm instance at half its
    # selection mass; blocks split T at random cuts, plus one that straddles
    # the kernel's width W; every block of the three (S, n, T) fields is
    # read before and after the five fields and the full actual states,
    # which must match the scalar twin bit for bit, and so must the
    # stretched per-round counts
    if isinstance(source, str):
        inst, plan = _BOUNDARY_CASES[source]
    else:
        inst = draw_instance(source, n_range=(1, 4), allow_k_equal_n=True)
        sol = solve_lp(build_lp(inst, -2))
        thin = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
        plan = round_intervals(thin, range(source, source + 3))
    n = inst.n
    rng = stream(n * 1000 + T, "misc")
    init = {None: None, "ones": [1] * n,
            "negative": [-int(x) for x in rng.integers(1, 4, n)],
            "large": [int(x) for x in rng.choice([-1, 1], n) * rng.integers(1, 10**6, n)]}[init]
    selection = None
    if perturb:  # non-monotone, so the ranking differs from the instance's
        noise = rng.uniform(-0.3, 0.3, inst.means.shape)
        selection = PayoffTable(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max,
                                means=np.clip(inst.means + noise, 0.0, 1.0))
    runs = run_planner(inst, plan, T, selection=selection, init_states=init)
    W = runs.window[0].shape[2]
    bounds = sorted({0, T, *(c for c in cuts if c <= T)})
    blocks = [*zip(bounds, bounds[1:]), (max(W - 2, 0), min(W + 2, T))]
    before = [runs.columns(a, b) for a, b in blocks]
    full = _six(runs, init)
    for s in range(plan.u.shape[0]):
        ivs, offs = plan_lists(plan, s)
        want = _twin_six(reference.run_planner(inst, ivs, offs, T, selection=selection,
                                               init_states=init))
        for name in _SIX_FIELDS:
            _same_bits(full[name][s:s + 1], want[name], name)
    for (a, b), first in zip(blocks, before):
        again = runs.columns(a, b)
        for name, got, got_again in zip(_FIELDS, first, again, strict=True):
            whole = full[name][..., a:b]
            _same_bits(got, whole, name)
            _same_bits(got_again, whole, name)
    # per-round counts of the window, stretched out to T as the fields are
    stretched = runs.stretch(*(w.sum(axis=1) for w in runs.window[1:3]))
    for name, got in zip(("candidates", "played"), stretched, strict=True):
        _same_bits(got, getattr(runs, name).sum(axis=1), name)


def _assert_copies_window(runs: PlannerRuns, blocks) -> None:
    """Every array ``runs`` hands out, each ``columns`` block of ``blocks``
    and the three full fields, is its window columns under the copy rule."""
    got = [runs.columns(a, b) for a, b in blocks]
    want = reference.copied_fields(runs)
    for (a, b), fields in zip(blocks, got):
        for name, block, field in zip(_FIELDS, fields, want, strict=True):
            _same_bits(block, field[..., a:b], name)
    for name, field in zip(_FIELDS, want):
        _same_bits(getattr(runs, name), field, name)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(0, 150), S=st.integers(1, 4),
       lift=st.one_of(st.none(), st.integers(0, 5)), perturb=st.booleans(),
       cuts=st.lists(st.integers(0, 150), max_size=4))
def test_every_handed_out_column_copies_its_window_column(seed, T, S, lift, perturb, cuts):
    # random 1-4 arm instances at half their selection mass, so some arms
    # never play; init states and a perturbed selection table make a run
    # like an ETC commit phase; blocks split T at random cuts, plus one that
    # straddles the window's width W
    inst = draw_instance(seed, n_range=(1, 4), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -1 - seed % 3))
    thin = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    rng = stream(seed, "misc")
    init = None
    if lift is not None:
        init = [int(s) for s in rng.choice([-1, 1], inst.n) * (rng.integers(1, 3, inst.n) + lift)]
    selection = None
    if perturb:
        noise = rng.uniform(-0.3, 0.3, inst.means.shape)
        selection = PayoffTable(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max,
                                means=np.clip(inst.means + noise, 0.0, 1.0))
    plan = round_intervals(thin, range(seed, seed + S))
    runs = run_planner(inst, plan, T, selection=selection, init_states=init)
    W = runs.window[0].shape[2]
    bounds = sorted({0, T, *(c for c in cuts if c <= T)})
    _assert_copies_window(runs, [*zip(bounds, bounds[1:]), (max(W - 2, 0), min(W + 2, T))])


@pytest.mark.parametrize("source, T", [("step", 400), ("step", 5000), (7, 3000), (42, 3000)])
def test_etc_commit_runs_copy_their_window(monkeypatch, source, T):
    # the commit phase of etc_run, from the exploration's end states and
    # ranked by the estimates, and its full-information reference
    inst = make_step_instance() if source == "step" else draw_instance(source, n_range=(3, 4))
    runs = []
    real = learning.simulate_planner

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(learning, "simulate_planner", spy)
    learning.etc_run(inst, T, 0.5, source if source != "step" else 3)
    assert len(runs) == 2 and runs[1].window[0].shape[2] < runs[1].T
    for r in runs:
        W = r.window[0].shape[2]
        _assert_copies_window(r, [(0, r.T), (W - 1, r.T), (max(W - 5, 0), W)])


def test_payoff_reads_build_no_full_array():
    # 8 arms with cycles of at most 4 rounds (tau_max 2, tau_min -2): a
    # window of a few dozen rounds against T = 2^17, one seed per chunk;
    # reading the payoff series alone stays below one (S, n, T) int64 array
    inst = random_instance(8, 2, 2, -2, np.random.default_rng(5))
    sol = solve_lp(build_lp(inst, -2))
    T = 2**17
    full = 8 * inst.n * T
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        (runs,) = planner_runs(inst, sol, T, [3])
        totals = runs.virtual_payoff.sum(), runs.actual_payoff.sum()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < full, f"payoff reads peaked at {peak / 2**20:.1f} MiB"
    assert runs.window[0].shape[:2] == (1, inst.n) and runs.window[0].shape[2] < 100
    assert min(totals) > 0


def test_rounding_refuses_too_many_seeds_before_drawing(no_alloc, monkeypatch):
    # 2**23 // 50 + 1 seeds of a 50-arm relaxation: 3.3 KB a seed of
    # comparisons in one block, and still 0.2 GB of plan rows in small ones
    solution = LpSolution(x=np.full((50, 50, 1), 1 / 51 / 50), objective=0.0, tau_L=-1)
    monkeypatch.setattr(planner, "streams", lambda keys: pytest.fail("drew past a size guard"))
    monkeypatch.setattr(planner, "outputs", lambda *args: pytest.fail("drew past a size guard"))
    with pytest.raises(ModelError, match=r"167773 x 50 \(seed, arm\) pairs exceed the "
                                         r"rounding's cap of 8388608"):
        round_intervals(solution, range(2**23 // 50 + 1))


def test_rounding_cap_boundary(monkeypatch):
    monkeypatch.setattr(planner, "_MAX_ROUNDED", 3)
    assert round_intervals(_step_solution(), range(3)).u.shape == (3, 1)
    with pytest.raises(ModelError, match=r"4 x 1 \(seed, arm\) pairs exceed"):
        round_intervals(_step_solution(), range(4))


def test_kernel_rejects_round_over_budget(monkeypatch):
    # I(1,-1) at offset 0 makes all three arms candidates in every even round
    means = [[0.0, 0.5]] * 3
    plan = plan_of([RecurrentInterval(u=1, l=-1)] * 3, [0, 0, 0])
    within = Instance(k=3, tau_min=-1, tau_max=1, means=means)
    assert run_planner(within, plan, 4).played[0, :, 1].all()
    # a top-k scatter that marks every arm plays all three candidates
    monkeypatch.setattr(np, "put_along_axis", lambda played, *args, **kwargs: played.fill(True))
    with pytest.raises(PlannerError, match="3 arms played in a round, budget is 2"):
        run_planner(Instance(k=2, tau_min=-1, tau_max=1, means=means), plan, 4)


def test_kernel_checks_budget_of_every_run(monkeypatch):
    # every arm draws I(1,-1): a candidate in every other round, so some round
    # of each run has at least two of the three arms as candidates
    inst = Instance(k=1, tau_min=-1, tau_max=1, means=[[0.0, 0.5]] * 3)
    sol = LpSolution(x=np.full((3, 1, 1), 0.5), objective=1.5, tau_L=-1)
    (runs,) = planner_runs(inst, sol, 4, range(2))
    assert runs.played.shape[0] == 2 and (runs.candidates.sum(axis=1) >= 2).any(axis=1).all()
    # a top-k scatter that marks every arm of the last run only
    monkeypatch.setattr(np, "put_along_axis", lambda played, *args, **kwargs: played[-1].fill(True))
    with pytest.raises(PlannerError, match="arms played in a round, budget is 1"):
        list(planner_runs(inst, sol, 4, range(2)))


def test_kernel_rejects_broken_domination(monkeypatch):
    # a valid plan keeps the actual state at or above the virtual one, so
    # the state tracking is broken instead: every arm reads state -3
    inst, plan = make_step_instance(), plan_of([RecurrentInterval(u=1, l=-2)], [1])
    monkeypatch.setattr(planner, "states_from_actions",
                        lambda played, init=None: np.full(played.shape, -3))
    for init in (None, [1]):
        with pytest.raises(PlannerError, match="below virtual state"):
            run_planner(inst, plan, 5, init_states=init)
    # domination is only promised for runs that start at +1
    assert run_planner(inst, plan, 5, init_states=[4]).T == 5


def test_kernel_rejects_interval_beyond_tau_max():
    # u = 3 lies beyond tau_max = 1: no actual state could dominate the cycle
    with pytest.raises(ModelError, match="arm 0's interval bound u=3 exceeds tau_max=1"):
        run_planner(make_step_instance(), plan_of([RecurrentInterval(u=3, l=-1)], [1]), 5)
    # l below tau_min = -2 is fine: the relaxation's grid reaches past tau_min
    # when epsilon < 1/|tau_min|, and payoffs saturate there
    plan = plan_of([RecurrentInterval(u=1, l=-5)], [0])
    assert run_planner(make_step_instance(), plan, 12).played[0, 0].sum() == 10


@pytest.mark.parametrize("arms", [5, 2])
def test_run_planner_rejects_selection_of_other_size(monkeypatch, arms):
    # a 5-arm table once ranked a 3-arm instance's candidates by its first
    # three rows, and a 2-arm one raised IndexError
    inst = Instance(k=1, tau_min=-2, tau_max=2, means=[[0.1, 0.2, 0.3, 0.4]] * 3)
    table = PayoffTable(k=1, tau_min=-2, tau_max=2, means=[[0.5, 0.2, 0.7, 0.4]] * arms)
    plan = plan_of([RecurrentInterval(u=1, l=-1)] * 3, [0, 1, 0])
    monkeypatch.setattr(planner, "cycle_phase", lambda *args: pytest.fail("ran past the check"))
    with pytest.raises(ModelError, match=f"selection table has {arms} arms, instance has 3"):
        run_planner(inst, plan, 5, selection=table)


def test_run_planner_rejects_plan_of_other_size():
    with pytest.raises(ModelError, match="plan has 2 arms"):
        run_planner(make_step_instance(), plan_of([None, None], [0, 0]), 5)


@pytest.mark.parametrize("name, value, got", [
    ("u", np.ones(3, dtype=np.int64), "int64 (3,)"),
    ("l", np.full((1, 3), -1.0), "float64 (1, 3)"),
    ("offsets", np.zeros((1, 2), dtype=np.int64), "int64 (1, 2)"),
    ("offsets", [[0, 0, 0]], "list"),
    ("l", np.full((1, 3), -1, dtype=np.int8), "int8 (1, 3)"),
])
def test_plan_refuses_a_shape_it_cannot_hold(name, value, got):
    # unchecked, run_planner raised "not enough values to unpack" on a 1-d
    # plan and a TypeError on a float one, and int8 bounds would wrap u - l
    arrays = {"u": np.ones((1, 3), dtype=np.int64), "l": np.full((1, 3), -1, dtype=np.int64),
              "offsets": np.zeros((1, 3), dtype=np.int64)}
    with pytest.raises(ModelError,
                       match=rf"^plan {name} must be 2-d int64 of u's shape, got {re.escape(got)}$"):
        Plan(**{**arrays, name: value})


def test_kernel_memory_is_set_by_the_window():
    # 4 runs of 8 arms with joint period 6 keep W = 13 columns at any
    # horizon, so the kernel's traced peak and the size of its result do
    # not grow with T. Stretching both payoff series to (S, T) in the
    # kernel peaked at 19 MiB and held 16 MiB at T = 2**18.
    inst = random_instance(8, 2, 2, -2, np.random.default_rng(5))
    plan = round_intervals(solve_lp(build_lp(inst, -2)), range(4))
    sizes = []
    for T in (2**10, 2**18):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            runs = run_planner(inst, plan, T)
            sizes.append([m - base for m in tracemalloc.get_traced_memory()])  # held, peak
        finally:
            tracemalloc.stop()
        assert runs.window[0].shape == (4, 8, 13)
        del runs
    for what, short, long in zip(("held", "peak"), *sizes):
        assert abs(long - short) < 8 * 2**18, f"{what} {short} B at T = 2**10, {long} B at 2**18"


def test_full_reads_hold_no_per_cell_index():
    # a windowed 50-seed result of 4 arms over T = 500: reading the three
    # (S, n, T) fields allocates them and at most one (S, T) int64 index
    # besides, not an (S, n, T) one
    inst = random_instance(4, 2, 2, -2, np.random.default_rng(5))
    plan = round_intervals(solve_lp(build_lp(inst, -2)), range(50))
    runs = run_planner(inst, plan, 500)
    S, n, W = runs.window[0].shape
    assert W < 100
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fields = [runs.virtual, runs.candidates, runs.played]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(f.nbytes for f in fields)
    assert peak <= held + 8 * S * runs.T, f"peaked {peak - held} B past the {held} B read"


@pytest.mark.parametrize("T", [3, 40])
def test_fields_are_read_only(T):
    # k = n plays every candidate; the one-arm run of period 3 computes all
    # of T = 3 rounds, and 7 columns of T = 40; a block inside the window is
    # a view of it, one past it a copy, and neither takes a write
    runs = run_planner(make_step_instance(), plan_of([RecurrentInterval(u=1, l=-2)], [0]), T)
    W = runs.window[0].shape[2]
    assert W == {3: 3, 40: 7}[T]
    blocks = [*runs.columns(0, 2), *runs.columns(W - 1, T)]
    arrays = [getattr(runs, name) for name in _FIVE_FIELDS] + [*runs.window, *blocks]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[..., :1] = 0
    assert np.array_equal(runs.played, runs.candidates)


@pytest.mark.parametrize("a, b", [(0, 45), (0, 41), (-3, 2), (10, 5), (-1, -1), (41, 41)])
def test_columns_refuse_rounds_outside_the_run(a, b):
    # the one-arm run of period 3 keeps 7 of T = 40 columns; unchecked, (0,
    # 45) read 45 rounds and (-3, 2) and (10, 5) empty blocks
    runs = run_planner(make_step_instance(), plan_of([RecurrentInterval(u=1, l=-2)], [0]), 40)
    with pytest.raises(ModelError, match=rf"^columns\({a}, {b}\) needs 0 <= a <= b <= T = 40$"):
        runs.columns(a, b)
    assert [runs.columns(a, b)[0].shape for a, b in [(0, 0), (40, 40), (0, 40)]] == [
        (1, 1, 0), (1, 1, 0), (1, 1, 40)]


def _spy_chunks(monkeypatch) -> list:
    """Every (plan, T, result) that planner_runs hands to run_planner."""
    calls = []
    real = planner.run_planner

    def spy(instance, plan, T, **kwargs):
        runs = real(instance, plan, T, **kwargs)
        calls.append((plan, T, runs))
        return runs

    monkeypatch.setattr(planner, "run_planner", spy)
    return calls


def _width(plan: Plan, lo: int, hi: int, T: int, tau_max: int) -> int:
    """The columns run_planner computes for runs lo..hi-1 of ``plan``: the
    window of the lcm of all their cycle lengths."""
    P = math.lcm(*np.maximum(plan.u[lo:hi] - plan.l[lo:hi], 1).ravel().tolist())
    return T if P >= T else min(T, max(2 * P + 1, tau_max + P))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(0, 300), S=st.integers(1, 40),
       cells=st.integers(1, 3000), rounds=st.integers(1, 30000), thin=st.booleans())
def test_chunks_keep_both_bounds_and_take_every_seed_that_fits(seed, T, S, cells, rounds, thin):
    # chunks are consecutive seeds; a chunk of more than one seed keeps
    # S_c n W <= _CHUNK_CELLS, W the window of the lcm of its cycle lengths,
    # and S_c n T <= _CHUNK_ROUNDS, and a chunk ends only where the next seed
    # would break one
    inst = draw_instance(seed, n_range=(1, 5), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -1 - seed % 3))
    if thin:  # half the selection mass: many arms draw no interval
        sol = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    seeds = range(seed, seed + S)
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_chunks(patch)
        patch.setattr(planner, "_CHUNK_CELLS", cells)
        patch.setattr(planner, "_CHUNK_ROUNDS", rounds)
        list(planner_runs(inst, sol, T, seeds))
    plan = round_intervals(sol, seeds)
    n, lo = inst.n, 0
    for chunk, t, runs in calls:
        S_c = chunk.u.shape[0]
        hi = lo + S_c
        assert t == T and runs.T == T
        for f in ("u", "l", "offsets"):
            assert np.array_equal(getattr(chunk, f), getattr(plan, f)[lo:hi])
        W = runs.window[0].shape[2]
        assert W == _width(plan, lo, hi, T, inst.tau_max)
        if S_c > 1:
            assert S_c * n * W <= cells and S_c * n * T <= rounds
        if hi < S:
            wider = _width(plan, lo, hi + 1, T, inst.tau_max)
            assert (S_c + 1) * n * wider > cells or (S_c + 1) * n * T > rounds
        lo = hi
    assert lo == S


@pytest.mark.parametrize("cells, rounds, calls", [(14, 1000, 1), (13, 1000, 2), (14, 999, 2)])
def test_chunk_bounds_are_inclusive(monkeypatch, cells, rounds, calls):
    # the step instance's one arm cycles every 3 rounds: two seeds at T =
    # 500 make 2 x 7 window cells and 2 x 500 cells over T
    chunks = _spy_chunks(monkeypatch)
    monkeypatch.setattr(planner, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(planner, "_CHUNK_ROUNDS", rounds)
    list(planner_runs(make_step_instance(), _step_solution(), 500, range(2)))
    assert [runs.window[0].shape for _, _, runs in chunks] == (
        [(2, 1, 7)] if calls == 1 else [(1, 1, 7)] * 2)

def test_short_periods_take_one_or_two_kernel_calls(monkeypatch):
    # 4 arms with cycles of at most 4 rounds: joint periods up to 12 and
    # windows up to 25 columns, so 50 seeds fit 2^14 window cells
    inst = random_instance(4, 2, 2, -2, np.random.default_rng(7))
    calls = _spy_chunks(monkeypatch)
    chunks = list(planner_runs(inst, solve_lp(build_lp(inst, -2)), 500, range(50)))
    assert 1 <= len(calls) <= 2
    assert sum(c.virtual_payoff.shape[0] for c in chunks) == 50


def test_long_horizons_keep_one_seed_a_chunk(monkeypatch):
    # one arm at T = 10^5 keeps a window of a few rounds: bounded by window
    # cells alone, 100 seeds would form one chunk of 10^7 cells over T,
    # past the kernel's cap of 2^23
    calls = _spy_chunks(monkeypatch)
    result = tightness_experiment(k=1, m=1, T=10**5, n_seeds=100, seed=0)
    assert len(calls) == 100 and all(plan.u.shape == (1, 1) for plan, _, _ in calls)
    assert max(runs.window[0].shape[2] for _, _, runs in calls) < 10
    assert (result.coverage, result.ratio) == (0.5, 1.0)  # the one arm is a candidate every other round


@pytest.mark.parametrize("plan, key", [
    ({"tau_L": -2}, "arms"),
    ({"arms": [{"interval": {"u": 1, "l": -2}}]}, "offset"),
])
def test_plan_from_dict_names_missing_key(plan, key):
    with pytest.raises(ModelError, match=f"missing the key '{key}'"):
        plan_from_dict(plan)


def test_domination_margin_spans_every_run_and_ignores_unsampled_arms():
    inst = draw_instance(5, n_range=(3, 3))
    sol = solve_lp(build_lp(inst, -2))
    thin = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    (runs,) = planner_runs(inst, thin, 20, range(4))
    idle = runs.virtual == 0  # arms without an interval
    assert idle.any() and (reference.actual_states(runs)[idle] > 0).all()
    assert domination_margin(runs, inst.tau_max) == 0
    W = runs.window[0].shape[2]
    lowered = _lowered(runs, (3, 2, W - 1), 2)  # last run and arm, last window column
    assert domination_margin(lowered, inst.tau_max) == -2
    assert domination_margin(lowered, 21) == 0  # no round from tau_max on


def test_domination_margin_refuses_rounds_before_the_first():
    # gaps [-6, -5, -5, 0, 0, 0] over rounds 1..6; a tau_max below 1 names no round
    inst = make_step_instance()
    runs = simulate_planner(inst, solve_lp(build_lp(inst, -2)), 6, 0, init_states=[-5])
    assert domination_margin(runs, 1) == -6
    for tau_max in (0, -3):
        with pytest.raises(ModelError, match=f"tau_max must be >= 1, got {tau_max}"):
            domination_margin(runs, tau_max)


def _lowered(runs: PlannerRuns, cell: tuple, by: int) -> PlannerRuns:
    """``runs`` with the actual state at (run, arm, window column) ``cell``
    set ``by`` below its virtual state, from a writable copy of the window."""
    window = [w.copy() for w in runs.window]
    window[3][cell] = window[0][cell] - by
    return dataclasses.replace(runs, window=tuple(window))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(1, 120), S=st.integers(1, 4),
       signed=st.booleans())
def test_window_margin_matches_full_fields(seed, T, S, signed):
    # random 1-4 arm instances at half their selection mass, so some arms
    # draw no interval; signed init states let the margin go negative. The
    # margin read from the window equals the one over the full fields for
    # every round up to tau_max, or every round when the window is all T
    inst = draw_instance(seed, n_range=(1, 4), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -1 - seed % 3))
    thin = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    rng = stream(seed, "misc")
    init = None
    if signed:
        init = [int(x) for x in rng.choice([-1, 1], inst.n) * rng.integers(1, 6, inst.n)]
    runs = run_planner(inst, round_intervals(thin, range(seed, seed + S)), T, init_states=init)
    last = T + 1 if runs.window[0].shape[2] == T else inst.tau_max
    for t in range(1, last + 1):
        assert domination_margin(runs, t) == reference.domination_margin(runs, t, init), t


def test_run_size_cap_boundary(monkeypatch):
    inst, plan = make_step_instance(), plan_of([RecurrentInterval(u=1, l=-2)], [0])
    monkeypatch.setattr(planner, "_MAX_CELLS", 6)
    assert run_planner(inst, plan, 6).T == 6
    with pytest.raises(ModelError, match=r"1 x 1 x 7 \(run, arm, round\) cells exceed"):
        run_planner(inst, plan, 7)
    (runs,) = planner_runs(inst, _step_solution(), 3, range(2))  # one chunk of 6 cells
    assert runs.played.shape == (2, 1, 3)
    monkeypatch.setattr(planner, "_MAX_CELLS", 5)
    with pytest.raises(ModelError, match="2 x 1 x 3 .* cap of 5"):
        list(planner_runs(inst, _step_solution(), 3, range(2)))


def test_planner_refuses_negative_horizon():
    # unchecked, it would return empty (1, 1, 0) runs
    with pytest.raises(ModelError, match="T must be >= 0, got -1"):
        simulate_planner(make_step_instance(), _step_solution(), -1, 0)


def test_planner_runs_refuse_fractional_horizon():
    # unchecked, the chunk size would be a float and range() a TypeError
    for run in (lambda: simulate_planner(make_step_instance(), _step_solution(), 1.5, 0),
                lambda: list(planner_runs(make_step_instance(), _step_solution(), 1.5, [0]))):
        with pytest.raises(ModelError, match="T must be an integer, got 1.5"):
            run()


def test_domination_margin_holds_one_block_of_runs(monkeypatch):
    # a windowed 50-seed result of 4 arms over T = 500, its fields already
    # read: the margin's temporaries stay within one block of _CHUNK_CELLS
    # (run, arm, round) cells and numpy's reduction buffer, far below one
    # full field
    inst = random_instance(4, 2, 2, -2, np.random.default_rng(5))
    runs = run_planner(inst, round_intervals(solve_lp(build_lp(inst, -2)), range(50)), 500)
    assert runs.window[0].shape[2] < 100
    full = reference.actual_states(runs).nbytes + runs.virtual.nbytes  # virtual is kept
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert domination_margin(runs, inst.tau_max) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    block = 8 * (planner._CHUNK_CELLS + np.getbufsize())
    assert peak <= block + 2**12 < full // 4, f"peaked at {peak} B"
    # blocks of one run still reach the last run, arm and window column
    W = runs.window[0].shape[2]
    monkeypatch.setattr(planner, "_CHUNK_CELLS", 4 * W)
    assert domination_margin(_lowered(runs, (49, 3, W - 1), 3), inst.tau_max) == -3


def test_rounding_batches_from_the_threshold(monkeypatch):
    # fewer than _BATCH_SEEDS seeds draw from one generator a key, from
    # there on from one rng.outputs pass; both give the reference
    # draws, here across the seed where a key grows a third entropy word
    reads = []
    real = planner.outputs
    monkeypatch.setattr(planner, "outputs", lambda *args: reads.append(args) or real(*args))
    inst = random_instance(4, 2, 3, -2, np.random.default_rng(11))
    sol = solve_lp(build_lp(inst, -2))
    thin = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    first = planner._BATCH_SEEDS  # the fewest seeds that take the batch
    for solution in (sol, thin):
        for S in (first - 1, first, first + 1):
            seeds = range(2**32 - 2, 2**32 - 2 + S)
            reads.clear()
            plan = round_intervals(solution, seeds)
            assert len(reads) == (S >= first), S
            for s, seed in enumerate(seeds):
                ivs, offs = plan_lists(plan, s)
                assert ivs == reference.round_intervals(solution, stream(seed, "rounding"))
                assert offs == draw_offsets(ivs, stream(seed, "offsets"))


def test_rounding_memory_counts_the_draw_words(monkeypatch):
    # One arm with one interval: a block holds few comparisons but every
    # seed's draws. 2^16 seeds peaked at 24 MiB when only the comparisons
    # sized the blocks, against 1.5 MiB of plan rows.
    S = 2**16
    solution = LpSolution(x=np.full((1, 1, 1), 0.5), objective=0.5, tau_L=-1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = round_intervals(solution, range(S))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = 3 * plan.u.nbytes
    block = 32 * planner._ROUND_CELLS  # one block's temporaries, about 22 B a cell
    assert peak < rows + block, f"rounding peaked at {peak / 2**20:.1f} MiB"
    assert (plan.u == 1).all() and set(plan.offsets[:, 0].tolist()) == {0, 1}
    # the largest approximation-experiment relaxation (4 arms, 12
    # intervals) still rounds its 50 seeds in one block
    reads = []
    real = planner.outputs
    monkeypatch.setattr(planner, "outputs", lambda *args: reads.append(args) or real(*args))
    inst = random_instance(4, 2, 3, -2, np.random.default_rng(11))
    round_intervals(solve_lp(build_lp(inst, -4)), range(50))
    assert len(reads) == 1


def test_rounding_redraws_the_offsets_bounded_cannot_vouch_for(monkeypatch):
    # a seed whose Lemire words numpy may have rejected takes its offsets
    # from its own generator, whatever rng.bounded returned for it
    real = planner.bounded

    def doubt(out, highs):
        values, exact = real(out, highs)
        exact[::3], values[::3] = False, -1
        return values, exact

    monkeypatch.setattr(planner, "bounded", doubt)
    inst = random_instance(3, 1, 3, -2, np.random.default_rng(12))
    sol = solve_lp(build_lp(inst, -2))
    seeds = range(2**64 - 12, 2**64)
    plan = round_intervals(sol, seeds)
    for s, seed in enumerate(seeds):
        ivs, offs = plan_lists(plan, s)
        assert ivs == reference.round_intervals(sol, stream(seed, "rounding"))
        assert offs == draw_offsets(ivs, stream(seed, "offsets"))
