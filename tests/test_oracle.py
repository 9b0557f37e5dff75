import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import draw_instance
from reference import schedule_payoff

from mlsd import oracle
from mlsd.analysis import make_step_instance, make_tight_instance
from mlsd.model import Instance
from mlsd.oracle import OracleBudgetError, dp_optimal, exhaustive_optimal


def test_step_instance_small_horizons():
    inst = make_step_instance()
    value, schedule = dp_optimal(inst, 3)
    assert value == 2.0
    assert schedule_payoff(inst, schedule) == pytest.approx(2.0)
    for m in (1, 2, 3, 4):
        v, _ = dp_optimal(inst, 3 * m)
        assert v == pytest.approx(2.0 * m)
    v30, _ = dp_optimal(inst, 30)
    assert abs(v30 / 30 - 2.0 / 3.0) <= 1.0 / 30


def test_constant_arm_two_rounds():
    inst = Instance(k=1, tau_min=-1, tau_max=1, means=[[0.5, 0.5]])
    value, _ = dp_optimal(inst, 2)
    assert value == pytest.approx(1.0)
    assert exhaustive_optimal(inst, 2) == pytest.approx(1.0)


def test_two_arm_threshold_rate():
    # k=1, threshold at state 2, two arms: a productive play needs a gap of
    # m+1 = 3 rounds per arm, so the long-run optimal rate is 2/3
    inst = make_tight_instance(1, 2)
    v12, _ = dp_optimal(inst, 12)
    assert v12 == pytest.approx(8.0)
    v6 = exhaustive_optimal(inst, 6)
    v6dp, _ = dp_optimal(inst, 6)
    assert v6 == v6dp


def test_dp_equals_exhaustive_exactly():
    for seed in range(30):
        inst = draw_instance(
            seed, n_range=(1, 2), tau_max_range=(1, 3), tau_min_range=(-2, -1),
            allow_k_equal_n=True,
        )
        T = 4 + seed % 4
        dp, _ = dp_optimal(inst, T)
        assert dp == exhaustive_optimal(inst, T)


def test_opt_monotone_in_horizon_and_bounded():
    inst = draw_instance(77, n_range=(2, 2))
    prev = 0.0
    for T in range(1, 9):
        v, _ = dp_optimal(inst, T)
        assert v + 1e-12 >= prev
        assert v <= inst.k * T + 1e-12
        prev = v


def test_monotone_payoff_bump_never_decreases_opt():
    inst = draw_instance(55, n_range=(2, 2), tau_max_range=(2, 2))
    base, _ = dp_optimal(inst, 6)
    means = inst.means.copy()
    means[1, -1] = 1.0  # raise the top entry, monotonicity preserved
    bumped = Instance(k=inst.k, tau_min=inst.tau_min, tau_max=inst.tau_max, means=means)
    v, _ = dp_optimal(bumped, 6)
    assert v + 1e-12 >= base


def test_budget_refusal():
    inst = draw_instance(3, n_range=(3, 3), tau_max_range=(3, 3))
    with pytest.raises(OracleBudgetError):
        dp_optimal(inst, 1000, budget=1e3)
    with pytest.raises(OracleBudgetError):
        exhaustive_optimal(inst, 50)


def test_dp_refuses_oversized_tables_whatever_the_horizon(no_alloc):
    # 10^7 joint states x 8 actions: 8e7 evaluations at T = 1 fit the
    # default budget, but the tables would take ~3 GiB
    inst = Instance(k=1, tau_min=-2, tau_max=8, means=[[0.5] * 10] * 7)
    with pytest.raises(OracleBudgetError, match=r"needs ~8e\+07 \(action, state\) cells"):
        dp_optimal(inst, 1)


def test_dp_table_cap_boundary(monkeypatch):
    inst = make_step_instance()  # 3 states x 2 actions
    monkeypatch.setattr(oracle, "_MAX_CELLS", 6)
    assert dp_optimal(inst, 3)[0] == 2.0  # exactly at the cap
    monkeypatch.setattr(oracle, "_MAX_CELLS", 5)
    with pytest.raises(OracleBudgetError, match="cells in memory, budget is 5"):
        dp_optimal(inst, 3)


@pytest.mark.parametrize("budget", [float("inf"), 1e12])
def test_dp_refuses_oversized_policy_whatever_the_budget(no_alloc, budget):
    # 3 states x 1e9 rounds: a 12 GB policy table however large the budget
    with pytest.raises(OracleBudgetError,
                       match=r"needs ~3e\+09 \(round, state\) policy cells, budget is 6.71e\+07"):
        dp_optimal(make_step_instance(), 10**9, budget=budget)


def test_dp_policy_cap_boundary(monkeypatch):
    inst = make_step_instance()  # 3 states
    monkeypatch.setattr(oracle, "_MAX_POLICY", 9)
    assert dp_optimal(inst, 3)[0] == 2.0  # exactly at the cap
    with pytest.raises(OracleBudgetError, match="policy cells, budget is 9"):
        dp_optimal(inst, 4)


@pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0])
def test_oracles_refuse_budget_that_is_not_positive(no_alloc, budget):
    for oracle_fn in (dp_optimal, exhaustive_optimal):
        with pytest.raises(ValueError, match=f"oracle budget must be positive, got {budget}"):
            oracle_fn(make_step_instance(), 3, budget=budget)


def test_schedule_replay_matches_value():
    for seed in range(10):
        inst = draw_instance(400 + seed, n_range=(2, 2))
        value, schedule = dp_optimal(inst, 7)
        assert schedule.shape == (inst.n, 7) and schedule.dtype == bool
        assert schedule.sum(axis=0).max() <= inst.k
        assert schedule_payoff(inst, schedule) == pytest.approx(value, abs=1e-12)


def _same_as_twin(inst, T):
    value, schedule = dp_optimal(inst, T)
    twin_value, twin_schedule = reference.dp_optimal(inst, T)
    assert value.hex() == twin_value.hex()
    assert schedule.dtype == twin_schedule.dtype
    assert np.array_equal(schedule, twin_schedule)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_k=st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    tau_max=st.integers(1, 3),
    tau_min=st.integers(-3, -1),
    T=st.integers(1, 40),
    coarse=st.booleans(),
)
@example(seed=0, n_k=(3, 3), tau_max=3, tau_min=-2, T=1, coarse=False)  # 3-arm sums round
def test_dp_matches_scalar_twin(seed, n_k, tau_max, tau_min, T, coarse):
    n, k = n_k
    means = np.sort(np.random.default_rng(seed).uniform(size=(n, tau_max - tau_min)))
    if coarse:  # quarter steps make many actions tie
        means = np.round(means * 4) / 4
    _same_as_twin(Instance(k=k, tau_min=tau_min, tau_max=tau_max, means=means), T)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 3), T=st.integers(1, 40))
def test_dp_matches_scalar_twin_on_reference_instances(m, T):
    _same_as_twin(make_step_instance(), T)
    _same_as_twin(make_tight_instance(1, m), T)
