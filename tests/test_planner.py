import math
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
    step_planner,
    step_states,
    virtual_state,
)

from mlsd import planner
from mlsd.analysis import make_step_instance
from mlsd.intervals import RecurrentInterval, cycle_phase
from mlsd.lp import LpSolution, build_lp, solve_lp
from mlsd.model import Instance, ModelError, PayoffTable, transition
from mlsd.planner import (
    PlannerError,
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
    for seed in range(20):
        ivs, _ = round_intervals(sol, seed)
        assert ivs == [RecurrentInterval(u=1, l=-2)]


def test_rounding_zero_solution_never_plays():
    sol = LpSolution(x=np.zeros((2, 2, 2)), objective=0.0, tau_L=-2)
    ivs, offs = round_intervals(sol, 0)
    assert ivs == [None, None]
    assert offs == [0, 0]
    inst = draw_instance(8, n_range=(2, 2), tau_max_range=(2, 2))
    trace = run_planner(inst, ivs, [0, 0], 50)
    assert trace.played.sum() == 0


def test_rounding_rejects_excess_mass():
    x = np.zeros((1, 1, 2))
    x[0, 0, 0] = 0.30
    x[0, 0, 1] = 0.25  # masses 2*0.30 + 3*0.25 = 1.35 > 1
    sol = LpSolution(x=x, objective=0.0, tau_L=-2)
    with pytest.raises(PlannerError):
        round_intervals(sol, 0)


def test_rounding_rejects_negative_mass():
    x = np.zeros((2, 1, 2))
    x[1, 0, 1] = -1e-6  # beyond the 1e-9 tolerance, on arm 1
    sol = LpSolution(x=x, objective=0.0, tau_L=-2)
    with pytest.raises(PlannerError, match="negative selection mass .* for arm 1"):
        round_intervals(sol, 0)


def test_rounding_renormalizes_tiny_excess():
    x = np.zeros((1, 1, 1))
    x[0, 0, 0] = 0.5 * (1 + 2e-10)  # mass 1 + 2e-10
    sol = LpSolution(x=x, objective=0.0, tau_L=-1)
    ivs, _ = round_intervals(sol, 0)
    assert ivs == [RecurrentInterval(u=1, l=-1)]


def test_rounding_frequencies_match_marginals():
    inst = draw_instance(21, n_range=(2, 3), tau_max_range=(2, 3))
    sol = solve_lp(build_lp(inst, -2))
    N = 20000
    counts = {}
    for s in range(N):
        for arm, iv in enumerate(round_intervals(sol, s)[0]):
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
    ivs, _ = round_intervals(sol, 7)
    state = init_offsets(ivs, stream(7, "offsets"))
    offsets = list(state.offsets)
    trace = run_planner(inst, ivs, offsets, 40)
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
    ivs, _ = round_intervals(sol, 3)
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
    ivs, offs = round_intervals(sol, seed)
    rng = stream(seed, "misc")
    init = [int(s) for s in rng.choice([-1, 1], inst.n) * (rng.integers(1, 3, inst.n) + lift)]
    trace = run_planner(inst, ivs, offs, T, init_states=init)
    assert trace.actual_states.shape == (1, inst.n, T)
    assert np.array_equal(trace.actual_states[0], step_states(trace.played[0], init))


@pytest.mark.parametrize("init", [[0], [1, 1], [2, 0], [1.5]])
def test_run_planner_rejects_invalid_init_states(init):
    inst = make_step_instance()
    with pytest.raises(ValueError, match="init states"):
        run_planner(inst, [RecurrentInterval(u=1, l=-2)], [0], 5, init_states=init)


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
        vals = np.array([
            run_planner(inst, *round_intervals(sol, s), t).virtual_payoff[0, t - 1]
            for s in range(2000)
        ])
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
    for s in range(N):
        ivs, offs = round_intervals(sol, s)
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


def _assert_same_trace(got, want):
    for name in ("virtual", "candidates", "played", "actual_states"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
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
    T=st.integers(1, 25),
    S=st.integers(1, 9),
    cells=st.integers(1, 120),
    lift=st.one_of(st.none(), st.integers(0, 5)),
    thin=st.booleans(),
)
def test_planner_runs_match_per_seed_twin(seed, T, S, cells, lift, thin):
    # chunks of max(1, cells // (n T)) seeds, so S is often not a multiple
    inst = draw_instance(seed, n_range=(1, 5), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -1 - seed % 3))
    if thin:  # half the selection mass: many arms draw no interval
        sol = LpSolution(x=0.5 * sol.x, objective=0.5 * sol.objective, tau_L=sol.tau_L)
    init = None
    if lift is not None:
        rng = stream(seed, "misc")
        init = [int(s) for s in rng.choice([-1, 1], inst.n) * (rng.integers(1, 3, inst.n) + lift)]
    seeds = range(seed, seed + S)
    with mock.patch.object(planner, "_CHUNK_CELLS", cells):
        chunks = list(planner_runs(inst, sol, T, seeds, init_states=init))
    want = reference.simulate_seeds(inst, sol, T, seeds, init_states=init)
    rows = [(c, r) for c in chunks for r in range(c.played.shape[0])]
    assert len(rows) == S
    for (c, r), trace in zip(rows, want):
        for name in ("virtual", "candidates", "played", "actual_states"):
            assert np.array_equal(getattr(c, name)[r], getattr(trace, name)[0]), name
        assert _hex(c.virtual_payoff[r]) == _hex(trace.virtual_payoff)
        assert _hex(c.actual_payoff[r]) == _hex(trace.actual_payoff)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(0, 25), perturb=st.booleans())
def test_run_planner_matches_scalar_twin(seed, T, perturb):
    inst = draw_instance(seed, n_range=(1, 9), allow_k_equal_n=True)
    sol = solve_lp(build_lp(inst, -2))
    ivs, offs = round_intervals(sol, seed)
    assert ivs == reference.round_intervals(sol, stream(seed, "rounding"))
    assert offs == draw_offsets(ivs, stream(seed, "offsets"))
    selection = None
    if perturb:  # non-monotone selection tables, as robustness_gap builds them
        noise = stream(seed, "perturb").uniform(-0.3, 0.3, inst.means.shape)
        selection = PayoffTable(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max,
                                means=np.clip(inst.means + noise, 0.0, 1.0))
    _assert_same_trace(
        run_planner(inst, ivs, offs, T, selection=selection),
        reference.run_planner(inst, ivs, offs, T, selection=selection),
    )


def test_kernel_rejects_round_over_budget(monkeypatch):
    # I(1,-1) at offset 0 makes all three arms candidates in every even round
    means = [[0.0, 0.5]] * 3
    ivs = [RecurrentInterval(u=1, l=-1)] * 3
    within = Instance(k=3, tau_min=-1, tau_max=1, means=means)
    assert run_planner(within, ivs, [0, 0, 0], 4).played[0, :, 1].all()
    # a top-k scatter that marks every arm plays all three candidates
    monkeypatch.setattr(np, "put_along_axis", lambda played, *args, **kwargs: played.fill(True))
    with pytest.raises(PlannerError, match="3 arms played in a round, budget is 2"):
        run_planner(Instance(k=2, tau_min=-1, tau_max=1, means=means), ivs, [0, 0, 0], 4)


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


def test_kernel_rejects_broken_domination():
    # u = 3 lies beyond tau_max = 1: at round 1 the hand-built cycle is at
    # state 3 while the arm has idled for one round only
    inst = make_step_instance()
    iv = [RecurrentInterval(u=3, l=-1)]
    for init in (None, [1]):
        with pytest.raises(PlannerError, match="below virtual state"):
            run_planner(inst, iv, [1], 5, init_states=init)
    # domination is only promised for runs that start at +1
    assert run_planner(inst, iv, [1], 5, init_states=[4]).T == 5


def test_run_planner_rejects_plan_of_other_size():
    with pytest.raises(ModelError, match="plan has 2 arms"):
        run_planner(make_step_instance(), [None, None], [0, 0], 5)


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
    assert idle.any() and (runs.actual_states[idle] > 0).all()
    assert domination_margin(runs, inst.tau_max) == 0
    runs.actual_states[3, 2, 19] = runs.virtual[3, 2, 19] - 2  # last run, arm and round
    assert domination_margin(runs, inst.tau_max) == -2
    assert domination_margin(runs, 21) == 0  # no round from tau_max on


def test_run_size_cap_boundary(monkeypatch):
    inst, iv = make_step_instance(), [RecurrentInterval(u=1, l=-2)]
    monkeypatch.setattr(planner, "_MAX_CELLS", 6)
    assert run_planner(inst, iv, [0], 6).T == 6
    with pytest.raises(PlannerError, match=r"1 x 1 x 7 \(run, arm, round\) cells exceed"):
        run_planner(inst, iv, [0], 7)
    (runs,) = planner_runs(inst, _step_solution(), 3, range(2))  # one chunk of 6 cells
    assert runs.played.shape == (2, 1, 3)
    monkeypatch.setattr(planner, "_MAX_CELLS", 5)
    with pytest.raises(PlannerError, match="2 x 1 x 3 .* cap of 5"):
        list(planner_runs(inst, _step_solution(), 3, range(2)))
