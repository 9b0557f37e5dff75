import dataclasses
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import draw_instance, vertex_optimal

from mlsd import lp
from mlsd.analysis import make_step_instance, make_tight_instance
from mlsd.intervals import interval_grid
from mlsd.lp import (
    LpSolution,
    build_lp,
    check_feasible,
    solution_to_dict,
    solve_lp,
    tau_L_from_epsilon,
)
from mlsd.model import Instance, ModelError, PayoffTable
from mlsd.oracle import dp_optimal


def test_problem_shape():
    inst = Instance(k=1, tau_min=-2, tau_max=2, means=[[0.0, 0.1, 0.5, 0.9]])
    prob = build_lp(inst, -2)
    assert prob.num_vars == 4
    assert prob.a_ub.shape == (2, 4)


def test_objective_and_constraint_coefficients():
    inst = draw_instance(1)
    prob = build_lp(inst, -2)
    u, l = interval_grid(inst.tau_max, 2)
    for arm in range(inst.n):
        for g in range(u.size):
            j = arm * u.size + g
            if l[g] == -1:
                assert prob.objective[j] == pytest.approx(inst.payoff(arm, int(u[g])))
            assert prob.a_ub[1 + arm, j] == u[g] - l[g]
            assert prob.a_ub[0, j] == -l[g]


def test_step_instance_lp_value():
    sol = solve_lp(build_lp(make_step_instance(), -2))
    assert sol.objective == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert sol.x[0, 0, 1] == pytest.approx(1.0 / 3.0, abs=1e-6)  # I(1, -2)


def test_exactly_binding_budget_leaves_no_rounding_residue():
    # three cycles I(1, -2) of 2/3 budget each fill k = 2 exactly, so no
    # arm keeps a rounding-size occupancy on a neighbouring interval
    inst = Instance(k=2, tau_min=-1, tau_max=1, means=[[0.75, 1.0]] * 3)
    entries = solution_to_dict(solve_lp(build_lp(inst, tau_L_from_epsilon(0.34))))["entries"]
    assert entries == [{"i": i, "u": 1, "l": -2, "value": 1 / 3} for i in range(3)]


def test_zero_payoffs_give_zero():
    zero = Instance(k=1, tau_min=-1, tau_max=2, means=[[0.0, 0.0, 0.0]] * 2)
    assert solve_lp(build_lp(zero, -2)).objective == pytest.approx(0.0, abs=1e-9)


def test_threshold_instance_against_vertex_enumeration():
    # k=1, m=3: the greedy guess x = 1/3 per arm violates the per-arm row
    # (4/3 > 1); the true optimum puts 1/(m+1) on each arm's threshold cycle
    inst = make_tight_instance(1, 3)
    sol = solve_lp(build_lp(inst, -1))
    ref = reference.build_lp(inst, -1)
    exact = vertex_optimal(ref.objective, ref.a_ub, ref.b_ub)
    assert sol.objective == pytest.approx(exact, abs=1e-6)
    assert sol.objective == pytest.approx(3.0 / 4.0, abs=1e-6)
    for arm in range(inst.n):
        assert sol.x[arm, 2, 0] == pytest.approx(0.25, abs=1e-6)  # I(3, -1)


def test_solver_matches_vertex_enumeration_on_random_instances():
    for seed in range(12):
        inst = draw_instance(seed, n_range=(1, 2), tau_max_range=(1, 2))
        tau_L = -1 - (seed % 2)
        sol = solve_lp(build_lp(inst, tau_L))
        ref = reference.build_lp(inst, tau_L)
        exact = vertex_optimal(ref.objective, ref.a_ub, ref.b_ub)
        assert sol.objective == pytest.approx(exact, abs=1e-7)


def test_check_feasible_zero_and_violation():
    inst = make_step_instance()
    zero = LpSolution(x=np.zeros((1, 1, 2)), objective=0.0, tau_L=-2)
    rep = check_feasible(zero, inst)
    assert rep.feasible and rep.max_violation == 0.0

    bad = np.zeros((1, 1, 2))
    bad[0, 0, 0] = 1.0  # x[arm 0, u=1, l=-1] = 1: per-arm row gives 2 > 1
    rep = check_feasible(LpSolution(x=bad, objective=1.0, tau_L=-2), inst)
    assert not rep.feasible
    assert rep.max_violation == pytest.approx(1.0)


def test_solver_output_feasible_on_random_instances():
    for seed in range(20):
        inst = draw_instance(100 + seed)
        sol = solve_lp(build_lp(inst, -2))
        rep = check_feasible(sol, inst)
        assert rep.feasible, rep.max_violation


def test_lp_value_at_most_k():
    for seed in range(10):
        inst = draw_instance(200 + seed)
        sol = solve_lp(build_lp(inst, -3))
        assert sol.objective <= inst.k + 1e-8


def test_lp_monotone_in_payoffs():
    inst = draw_instance(31)
    base = solve_lp(build_lp(inst, -2)).objective
    means = inst.means.copy()
    vals = means[0]
    vals[-1] = min(1.0, vals[-1] + (1.0 - vals[-1]) / 2 + 1e-6) if vals[-1] < 1 else 1.0
    bumped = Instance(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max, means=means)
    assert solve_lp(build_lp(bumped, -2)).objective >= base - 1e-9


def test_scaling_one_arm_scales_its_contribution():
    table = [0.0, 0.4, 0.8]
    zero = [0.0, 0.0, 0.0]
    solo = Instance(k=1, tau_min=-1, tau_max=2, means=[table, zero])
    full = solve_lp(build_lp(solo, -1)).objective
    half_vals = [v / 2 for v in table]
    halved = Instance(k=1, tau_min=-1, tau_max=2, means=[half_vals, zero])
    assert solve_lp(build_lp(halved, -1)).objective == pytest.approx(full / 2, abs=1e-7)


def test_relaxation_upper_bound_on_optimum():
    # T * LP* >= (1 - 1/(1 - tau_L)) * OPT(T) - n on small instances
    for seed in range(8):
        inst = draw_instance(300 + seed, n_range=(2, 2), tau_max_range=(1, 3))
        for tau_L in (-1, -2):
            sol = solve_lp(build_lp(inst, tau_L))
            for T in (5, 9):
                opt, _ = dp_optimal(inst, T)
                lhs = T * sol.objective
                rhs = (1.0 - 1.0 / (1.0 - tau_L)) * opt - inst.n
                assert lhs + 1e-7 >= rhs


def test_solution_json_round_trip():
    sol = solve_lp(build_lp(draw_instance(5), -3))
    d = solution_to_dict(sol)
    assert (d["objective"], d["tau_L"], d["n"], d["tau_max"]) == (
        sol.objective, sol.tau_L, sol.n, sol.tau_max
    )
    keys = [(e["i"], e["u"], -e["l"]) for e in d["entries"]]
    assert keys == sorted(keys)  # variable order
    back = np.zeros_like(sol.x)
    for e in d["entries"]:
        assert e["value"] > 0.0
        back[e["i"], e["u"] - 1, -e["l"] - 1] = e["value"]
    assert np.array_equal(back, np.maximum(sol.x, 0.0))


def test_tau_L_from_epsilon():
    assert tau_L_from_epsilon(0.5) == -2
    assert tau_L_from_epsilon(0.25) == -4
    assert tau_L_from_epsilon(0.3) == -4
    with pytest.raises(ValueError):
        tau_L_from_epsilon(0.0)


def payoff_table(seed: int, n: int, tau_max: int, tau_min: int, kind: str, monotone: bool):
    """A random table whose payoffs are uniform floats, 0/1 or quarter steps."""
    rng = np.random.default_rng(seed)
    shape = (n, tau_max - tau_min)
    means = {
        "random": lambda: rng.uniform(size=shape),
        "binary": lambda: rng.integers(0, 2, size=shape).astype(float),
        "quarter": lambda: rng.integers(0, 5, size=shape) / 4,
    }[kind]()
    k = int(rng.integers(1, n + 1))
    if monotone:
        return Instance(k=k, tau_min=tau_min, tau_max=tau_max, means=np.sort(means))
    # non-monotone, as estimated and perturbed tables are
    return PayoffTable(k=k, tau_min=tau_min, tau_max=tau_max, means=means)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    tau_max=st.integers(1, 5),
    tau_min=st.integers(-5, -1),
    tau_L=st.integers(-7, -1),
    monotone=st.booleans(),
)
def test_build_lp_matches_scalar_twin(seed, n, tau_max, tau_min, tau_L, monotone):
    table = payoff_table(seed, n, tau_max, tau_min, "random", monotone)
    fast, slow = build_lp(table, tau_L), reference.build_lp(table, tau_L)
    assert (fast.n, fast.k, fast.tau_max, fast.tau_L) == (slow.n, slow.k, slow.tau_max, slow.tau_L)
    assert [x.hex() for x in fast.objective.tolist()] == [x.hex() for x in slow.objective.tolist()]
    assert np.array_equal(fast.a_ub, slow.a_ub)
    assert np.array_equal(fast.b_ub, slow.b_ub)


def test_build_lp_makes_one_aggregated_payoff_call():
    with mock.patch.object(lp, "aggregated_payoff", wraps=lp.aggregated_payoff) as spy:
        build_lp(draw_instance(2), -3)
    assert spy.call_count == 1


def test_solver_failure_names_highs_status():
    # nothing bounds x: the HiGHS reference solver reports the program unbounded
    prob = lp.LpProblem(n=1, k=1, tau_max=1, tau_L=-1, objective=np.ones(1),
                        a_ub=np.zeros((2, 1)), b_ub=np.ones(2))
    with pytest.raises(reference.HighsError, match=r"^HiGHS status 3: .*unbounded"):
        reference.solve_lp(prob)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    tau_max=st.integers(1, 6),
    tau_min=st.integers(-4, -1),
    tau_L=st.integers(-4, -1),
    monotone=st.booleans(),
)
def test_greedy_matches_highs_reference(seed, n, tau_max, tau_min, tau_L, monotone):
    table = payoff_table(seed, n, tau_max, tau_min, "random", monotone)
    prob = build_lp(table, tau_L)
    sol = solve_lp(prob)
    highs = reference.solve_lp(reference.build_lp(table, tau_L))
    assert sol.objective == pytest.approx(highs.objective, abs=1e-9)
    assert check_feasible(sol, table).feasible
    spread = np.count_nonzero(sol.x.reshape(n, -1) > 0.0, axis=1)
    assert spread.max() <= 2 and np.count_nonzero(spread == 2) <= 1
    # deterministic, and blind to the dense rows
    again = solve_lp(dataclasses.replace(prob, a_ub=None, b_ub=None))
    assert again.x.tobytes() == sol.x.tobytes()
    assert again.objective == sol.objective


def assert_same_bits(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective.hex() == b.objective.hex()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    tau_max=st.integers(1, 8),
    tau_min=st.integers(-4, -1),
    tau_L=st.integers(-9, -1),
    kind=st.sampled_from(["random", "binary", "quarter"]),
    monotone=st.booleans(),
)
def test_greedy_skip_matches_full_hull_twin(seed, n, tau_max, tau_min, tau_L, kind, monotone):
    # skipping the points no higher than an earlier one leaves every
    # increment, and so every bit of the solution, as the full hull gives it
    prob = build_lp(payoff_table(seed, n, tau_max, tau_min, kind, monotone), tau_L)
    assert_same_bits(solve_lp(prob), reference.greedy_lp(prob))


def test_greedy_skip_keeps_ties_and_collinear_points():
    # Below tau_min = -1 every state reads the payoff at -1, so each arm's
    # points (w, v) = (-l, q) / (u - l) fall on few lines: arm 0's on one
    # line through the null point, repeated at equal w (I(1, -1) and
    # I(2, -2), say); arm 2's all at v = 0, tied with the null point.
    inst = Instance(k=2, tau_min=-1, tau_max=3, means=[
        [0.5, 0.5, 0.5, 0.5], [0.25, 0.5, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [0.25, 0.75, 0.75, 1.0],
    ])
    for tau_L in range(-1, -10, -1):
        prob = build_lp(inst, tau_L)
        u, l = interval_grid(inst.tau_max, -tau_L)
        v = prob.objective.reshape(inst.n, -1) / (u - l)
        if tau_L <= -2:
            assert np.unique(np.c_[-l / (u - l), v[0]], axis=0).shape[0] < u.size
        assert_same_bits(solve_lp(prob), reference.greedy_lp(prob))


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import mlsd, mlsd.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_build_lp_size_guard_boundary(monkeypatch):
    inst = make_step_instance()  # n = 1, tau_max = 1
    monkeypatch.setattr(lp, "_MAX_CELLS", 2 * (1 + 1 + 2))
    assert build_lp(inst, -2).num_vars == 2  # exactly at the limit
    with pytest.raises(ModelError, match="too large"):
        build_lp(inst, -3)


def test_build_lp_refuses_tiny_epsilon(no_alloc):
    with pytest.raises(ModelError, match="variables, too large"):
        build_lp(make_step_instance(), tau_L_from_epsilon(1e-9))
