import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import draw_instance
from reference import exhaustive_optimal, schedule_payoff

from mlsd import oracle
from mlsd.analysis import make_step_instance, make_tight_instance
from mlsd.model import Instance, ModelError
from mlsd.oracle import OracleBudgetError, dp_optimal


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


@pytest.mark.parametrize("oracle_fn", [dp_optimal, exhaustive_optimal])
@pytest.mark.parametrize("T, message", [
    (-3, "T must be >= 0, got -3"),
    (2.0, "T must be an integer, got 2.0"),
    (True, "T must be an integer, got True"),
])
def test_oracles_refuse_horizon_that_is_not_a_count(no_alloc, oracle_fn, T, message):
    # unchecked, exhaustive_optimal would return 2.0 for T = 2.0
    with pytest.raises(ModelError, match=message):
        oracle_fn(make_step_instance(), T)


def test_oracles_at_horizon_zero():
    for inst in (make_step_instance(), make_tight_instance(2, 2)):
        value, schedule = dp_optimal(inst, 0)
        assert value == 0.0 and schedule.shape == (inst.n, 0)
        assert exhaustive_optimal(inst, 0) == 0.0


def test_dp_memory_per_table_cell():
    # _MAX_CELLS's ~0.6 GiB promise is 2**24 cells at ~36 B each. On a
    # 90,112-cell table dp_optimal peaks at ~33 B a cell; Python lists of
    # the tables, or tuples and floats per cell, would take ~210 B.
    inst = make_tight_instance(2, 3)
    cells = oracle._tables(inst)[0].size
    assert cells > 10**4
    tracemalloc.start()
    try:
        dp_optimal(inst, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * cells

@st.composite
def _random_tables(draw, kinds=("uniform", "quarter", "integer")):
    """(rewards, nexts, start): random tables of 1..8 actions by 1..40
    states; quarter-step and integer rewards (0..3) make many actions tie
    and are exact, so the induction may stop at a repeat."""
    A = draw(st.integers(1, 8))
    J = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rewards = rng.uniform(size=(A, J))
    kind = draw(st.sampled_from(kinds))
    if kind == "quarter":
        rewards = np.round(rewards * 4) / 4
    elif kind == "integer":
        rewards = np.floor(rewards * 4)
    nexts = rng.integers(0, J, size=(A, J))
    return rewards, nexts, draw(st.integers(0, J - 1))


@settings(max_examples=150, deadline=None)
@given(tables=_random_tables(), T=st.integers(0, 40))
@example(tables=(np.full((2, 3), 0.5), np.array([[1, 2, 0], [0, 0, 0]]), 0), T=5)  # all tie
@example(tables=(np.full((8, 40), 0.25), np.zeros((8, 40), dtype=np.int64), 39), T=3)
def test_engines_agree_bit_for_bit(tables, T):
    # the induction against the reference's, which runs every round
    rewards, nexts, start = tables
    value, path = oracle._induct(rewards, nexts, T, start)
    ref_value, ref_path = reference.induct(rewards, nexts, T, start)
    assert type(value) is float and value.hex() == ref_value.hex()
    assert list(path) == ref_path


@settings(max_examples=40, deadline=None)
@given(tables=_random_tables(kinds=("quarter", "integer")), T=st.integers(0, 3000))
def test_stop_at_repeat_matches_every_round(tables, T):
    # on exact tables the induction may stop at a repeat; with the
    # exactness test made to fail, it runs all T rounds, as without the stop
    rewards, nexts, start = tables
    with mock.patch.object(oracle, "_exact", return_value=False):
        full_value, full_path = oracle._induct(rewards, nexts, T, start)
    value, path = oracle._induct(rewards, nexts, T, start)
    assert value.hex() == full_value.hex()
    assert list(path) == list(full_path)


class _CountingPolicy:
    """A flat policy that counts the cells read from it."""

    def __init__(self, policy):
        self.policy, self.reads = policy, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.policy[index]

    def __getattr__(self, name):
        return getattr(self.policy, name)


def _run_counting_walk(rewards, nexts, T, start):
    """The induction's value and path, and its walk's policy reads, stop
    round h, period c = h - h0 and states J."""
    walk, seen = oracle._walk, {}

    def spy(policy, succ, rewards, value, T, start, h, h0):
        seen.update(policy=_CountingPolicy(policy), h=h, c=h - h0, J=len(value))
        return walk(seen["policy"], succ, rewards, value, T, start, h, h0)

    with mock.patch.object(oracle, "_walk", spy):
        value, path = oracle._induct(rewards, nexts, T, start)
    return value, path, seen["policy"].reads, seen["h"], seen["c"], seen["J"]


# the ids keep the names these cases had while a second, Python-float
# induction ran them too
@pytest.mark.parametrize("inst", [make_step_instance(), make_tight_instance(1, 2)],
                         ids=["inst0-_induct_numpy", "inst1-_induct_numpy"])
def test_walk_reads_are_bounded_whatever_the_horizon(inst):
    # past h rounds to go the path repeats within J blocks of c rounds, so
    # whole laps are copied, not walked: a walk that reads a cell a round
    # would read 2^20
    rewards, nexts, _, start = oracle._tables(inst)
    for T in (2**10, 2**20):
        value, path, reads, h, c, J = _run_counting_walk(rewards, nexts, T, start)
        assert h < T and len(path) == T
        assert reads <= h + 2 * c * J < 100
    assert abs(value - 2 * T / 3) <= 1  # both instances earn 2 in every 3 rounds


_QUARTER = Instance(k=1, tau_min=-2, tau_max=3, means=[[0.25, 0.25, 0.5, 1.0, 1.0],
                                                       [0.25, 0.25, 0.25, 0.5, 1.0]])


@pytest.mark.parametrize("inst, h, T", [
    # the step instance stops at h = 7 (c = 3); its path repeats every 3 rounds
    (make_step_instance(), 7, 8),  # T = h + 1
    (make_step_instance(), 7, 9),  # no full lap fits
    (make_step_instance(), 7, 17),  # 2 laps after the first, then 1 round
    (make_step_instance(), 7, 18),  # first repeat mid-block (rounds 2 and 5)
    # _QUARTER stops at h = 12 (c = 4); its path repeats every 8 rounds
    (_QUARTER, 12, 13),  # T = h + 1
    (_QUARTER, 12, 16),  # no full lap fits
    (_QUARTER, 12, 28),  # a block repeats, no lap after it fits
    (_QUARTER, 12, 41),  # 1 lap after the first, then 1 round
    (_QUARTER, 12, 1000),  # first repeat mid-block (rounds 3 and 11)
    (_QUARTER, 12, 1003),  # first repeat mid-block (rounds 30 and 38), 7 rounds left
])
def test_tiled_walk_matches_every_round(inst, h, T):
    rewards, nexts, _, start = oracle._tables(inst)
    with mock.patch.object(oracle, "_exact", return_value=False):
        full_value, full_path = oracle._induct(rewards, nexts, T, start)
    value, path, _, stop, _, _ = _run_counting_walk(rewards, nexts, T, start)
    assert stop == h
    assert value.hex() == full_value.hex()
    assert list(path) == list(full_path)


def test_numpy_engine_path_holds_wide_action_index():
    # past 256 actions an action index needs more than a byte
    rewards = np.zeros((300, 2))
    rewards[299] = 1.0
    value, path = oracle._induct(rewards, np.zeros((300, 2), dtype=np.int64), 5, 0)
    assert value == 5.0 and list(path) == [299] * 5


def _policy_peak(rewards, nexts, T, start):
    tracemalloc.start()
    try:
        value, path = oracle._induct(rewards, nexts, T, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path) == T
    return value, peak


def test_policy_memory_per_round_and_state():
    # the policy must stay within 4 bytes per (round, state), twice over,
    # at T = 2e4 on the 3-state step instance; one Python list per round
    # would take ~88 bytes per round (a peak of 1.95 MB against the bound's
    # 0.48 MB); bound and mutant both grow in proportion to T. The step
    # instance stops at round 7, which would hide that cost, so it runs
    # again scaled by 0.7: rewards that are not dyadic run all T rounds
    T = 20_000
    rewards, nexts, _, start = oracle._tables(make_step_instance())
    J = rewards.shape[1]
    for scale in (1.0, 0.7):
        value, peak = _policy_peak(rewards * scale, nexts, T, start)
        assert value == pytest.approx(scale * T * 2 / 3, abs=1)
        assert peak <= 2 * 4 * T * J


def test_stop_at_repeat_keeps_no_full_policy():
    # step instance, exact: the policy stops at round 7, so at T = 2^18 the
    # peak is the 1-byte-a-round path, a third of the T * J bytes a full
    # policy takes (2^18, not 2^20: under tracemalloc every float the walk
    # adds is traced, and 2^20 rounds take ~2.5 s)
    T = 2**18
    rewards, nexts, _, start = oracle._tables(make_step_instance())
    J = rewards.shape[1]
    value, peak = _policy_peak(rewards, nexts, T, start)
    assert value == 2 * (T // 3) + min(T % 3, 2)
    assert peak < T * J / 2


def test_exactness_bound_on_horizon_decides_the_stop():
    # rewards 1 - 2^-40 are multiples of 2^-40: exact while T * 2^40 stays
    # below 2^53 (T < 8192), so T = 8000 stops at the repeat and keeps no
    # full policy, while T = 10,000 runs every round and keeps all T * J
    # bytes; both agree with the twin
    inst = Instance(k=1, tau_min=-2, tau_max=1, means=[[0.0, 1 - 2**-40, 1 - 2**-40]])
    rewards, nexts, _, start = oracle._tables(inst)
    J = rewards.shape[1]
    for T, stops in ((8000, True), (10_000, False)):
        _, peak = _policy_peak(rewards, nexts, T, start)
        assert (peak < T * J) == stops
        _same_as_twin(inst, T)


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
    T=st.integers(1, 40) | st.integers(41, 3000),
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
@example(m=1, T=6)  # the step instance stops at round 7: before,
@example(m=1, T=7)  # at
@example(m=1, T=8)  # and after it
@example(m=1, T=9)
def test_dp_matches_scalar_twin_on_reference_instances(m, T):
    _same_as_twin(make_step_instance(), T)
    _same_as_twin(make_tight_instance(1, m), T)
