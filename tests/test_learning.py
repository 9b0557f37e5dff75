import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_SEEDS, draw_instance
import reference

from mlsd import learning
from mlsd.analysis import make_step_instance
from mlsd.learning import (
    ExplorationTooLongError,
    estimate_payoffs,
    etc_config,
    etc_run,
    exploration_length,
    exploration_schedule,
    robustness_gap,
    schedule_length_bound,
    simulate_exploration,
)
from mlsd.lp import build_lp, solve_lp
from mlsd.model import Instance, ModelError, PayoffTable, random_instance
from mlsd.planner import round_intervals, run_planner
from mlsd.rng import stream


def test_etc_config_formulas():
    inst = make_step_instance()
    cfg = etc_config(inst, T=1024, epsilon=0.25)
    assert cfg.tau_L == -4
    assert cfg.delta == pytest.approx(1 / 1024)
    span = inst.tau_max - cfg.tau_L
    eta = ((inst.n * (inst.tau_max**2 - cfg.tau_L + 2) * math.log(2 * inst.n * span * 1024))
           / (2 * inst.k * 1024)) ** (1 / 3)
    assert cfg.eta == pytest.approx(eta)
    assert cfg.m == math.ceil(math.log(2 * inst.n * span * 1024) / (2 * eta**2))


def test_small_schedule_example():
    # two arms, budget 1, saturation at 1, depth 1, one sample each
    sched = exploration_schedule(n=2, k=1, tau_max=1, tau_L=-1, m=1)
    assert sched.shape[1] <= 2 * (1 + 3)
    assert sched.sum(axis=0).max() <= 1
    inst = random_instance(2, 1, 1, -1, stream(0, "instance"))
    res = simulate_exploration(inst, sched, -1, stream(0, "noise"))
    assert res.counts.min() >= 1


def test_schedule_feasibility_coverage_and_length():
    rng = stream(77, "misc")
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        tau_max = int(rng.integers(1, 5))
        tau_L = -int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        sched = exploration_schedule(n, k, tau_max, tau_L, m)
        assert sched.shape[0] == n
        assert sched.sum(axis=0).max() <= k
        assert sched.shape[1] == exploration_length(n, k, tau_max, tau_L, m)
        assert sched[:, -1].any()  # no idle tail: the closed form is not too long
        assert sched.shape[1] <= schedule_length_bound(n, k, tau_max, tau_L, m)
        if n % k == 0:
            assert sched.shape[1] <= n * m * (tau_max**2 - tau_L + 2) / k
        inst = random_instance(n, k, tau_max, min(tau_L, -1), stream(n * 31 + m, "instance"))
        res = simulate_exploration(inst, sched, tau_L, stream(1, "noise"))
        assert res.counts.min() >= m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simulate_exploration_matches_scalar_reference(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, n))
    tau_max = data.draw(st.integers(1, 4))
    tau_min = data.draw(st.integers(-4, -1))
    tau_L = data.draw(st.integers(-4, -1))
    inst = random_instance(n, k, tau_max, tau_min, stream(data.draw(st.integers(0, 99)), "instance"))
    if data.draw(st.booleans()):
        sched = exploration_schedule(n, k, tau_max, tau_L, data.draw(st.integers(1, 3)))
    else:
        arms = st.frozensets(st.integers(0, n - 1), max_size=k)
        rounds = data.draw(st.lists(arms, max_size=40))
        sched = np.zeros((n, len(rounds)), dtype=bool)
        for t, played in enumerate(rounds):
            sched[list(played), t] = True
    seed = data.draw(st.integers(0, 99))
    fast_rng, ref_rng = stream(seed, "noise"), stream(seed, "noise")
    fast = simulate_exploration(inst, sched, tau_L, fast_rng)
    ref = reference.simulate_exploration(inst, sched, tau_L, ref_rng)
    assert np.array_equal(fast.counts, ref.counts)
    assert fast.counts.dtype == ref.counts.dtype
    assert np.array_equal(fast.sums, ref.sums)
    assert fast.end_states == ref.end_states
    assert fast.realized_total.hex() == ref.realized_total.hex()
    assert fast.mean_total.hex() == ref.mean_total.hex()
    assert fast_rng.random() == ref_rng.random()


def test_simulate_exploration_rejects_schedule_of_other_arm_count():
    inst = random_instance(2, 1, 1, -1, stream(0, "instance"))
    one_arm = exploration_schedule(n=1, k=1, tau_max=1, tau_L=-1, m=1)
    with pytest.raises(ModelError, match="the schedule has 1 arms, the instance 2"):
        simulate_exploration(inst, one_arm, -1, stream(0, "noise"))


def test_estimates_exact_for_deterministic_payoffs():
    inst = make_step_instance()
    sched = exploration_schedule(1, 1, 1, -2, m=1)
    res = simulate_exploration(inst, sched, -2, stream(3, "noise"))
    est = estimate_payoffs(inst.k, inst.tau_max, -2, res.counts, res.sums)
    for tau in (-2, -1, 1):
        assert est.payoff(0, tau) == inst.payoff(0, tau)


def test_estimates_all_zero_payoffs():
    zero = Instance(k=1, tau_min=-1, tau_max=1, means=[[0.0, 0.0]])
    sched = exploration_schedule(1, 1, 1, -1, m=2)
    res = simulate_exploration(zero, sched, -1, stream(0, "noise"))
    est = estimate_payoffs(1, 1, -1, res.counts, res.sums)
    assert np.all(est.means == 0.0)


def test_estimate_missing_pair_raises():
    counts = np.array([[2, 0, 2]])
    sums = np.zeros((1, 3))
    with pytest.raises(ModelError, match="no samples"):
        estimate_payoffs(1, 1, -2, counts, sums)


def test_hoeffding_calibration():
    # Bernoulli(0.5), m = 5000, eta = 0.05: the empirical mean misses by
    # more than eta with probability ~2e-22, so 1000 trials all land inside
    rng = stream(2024, "noise")
    m, eta, trials = 5000, 0.05, 1000
    means = rng.binomial(m, 0.5, size=trials) / m
    hit = np.abs(means - 0.5) <= eta
    assert hit.mean() >= 0.99


def test_etc_matches_full_information_when_payoffs_deterministic():
    inst = make_step_instance()
    T, eps, seed = 700, 0.25, 11
    res = etc_run(inst, T, eps, seed)
    cfg = etc_config(inst, T, eps)
    # payoffs are 0/1 so one sample pins every mean: the committed planner
    # re-derives the full-information plan and the paired runs coincide
    assert res.regret_vs_planner == pytest.approx(
        res.planner_total - res.realized_total
    )
    sol = solve_lp(build_lp(inst, cfg.tau_L))
    fi = run_planner(inst, round_intervals(sol, [seed]), T - res.exploration_length)
    commit_mean = res.mean_total - _exploration_mean(inst, cfg, seed)
    assert commit_mean == pytest.approx(float(fi.actual_payoff.sum()), abs=2.0)


def _exploration_mean(inst, cfg, seed):
    sched = exploration_schedule(inst.n, inst.k, inst.tau_max, cfg.tau_L, cfg.m)
    res = simulate_exploration(inst, sched, cfg.tau_L, stream(seed, "noise"))
    return res.mean_total


def test_etc_refuses_small_horizon():
    inst = make_step_instance()
    with pytest.raises(ExplorationTooLongError) as info:
        etc_run(inst, 10, 0.25, seed=0)
    assert info.value.min_viable_T > 10


def test_etc_refuses_long_exploration_before_building_it(no_alloc):
    # the schedule at epsilon 1e-9 would take about a billion rounds per sample
    with pytest.raises(ExplorationTooLongError, match="^T=512 is too small: exploration needs"):
        etc_run(make_step_instance(), 512, 1e-9, seed=0)


def test_etc_regret_rate_decreases():
    inst = make_step_instance()
    T = 4096
    lo = np.mean([etc_run(inst, T // 4, 0.25, s).regret_vs_planner for s in range(6)])
    hi = np.mean([etc_run(inst, T, 0.25, s).regret_vs_planner for s in range(6)])
    assert hi > 0
    assert hi / T < lo / (T // 4)


def test_etc_literal_regret_negative_on_step_instance():
    # the planner's per-round value 2/3 beats the scaled benchmark
    # (1-eps) * gamma_1 * 2/3, so the recorded regret is negative
    from mlsd.analysis import gamma_k
    from mlsd.oracle import dp_optimal

    inst = make_step_instance()
    T = 2048
    opt, _ = dp_optimal(inst, T)
    bench = 0.75 * gamma_k(1) * opt
    res = etc_run(inst, T, 0.25, seed=4, benchmark_total=bench)
    assert res.regret is not None and res.regret < 0


def test_robustness_zero_eta_zero_gap():
    inst = draw_instance(5, n_range=(3, 3))
    rep = robustness_gap(inst, [0.0], T=150, n_seeds=10, epsilon=0.5, seed=2)
    assert rep.deficits == [0.0]


def test_robustness_trend_and_envelope():
    inst = random_instance(4, 2, 3, -2, stream(11, "instance"))
    etas = [0.0, 0.05, 0.1, 0.2]
    rep = robustness_gap(inst, etas, T=300, n_seeds=50, epsilon=0.5, seed=0)
    # zero at zero, then a non-decreasing trend up to noise
    assert rep.deficits[0] == 0.0
    for lo, hi, se in zip(rep.deficits, rep.deficits[1:], rep.standard_errors[1:]):
        assert hi >= lo - 3 * se
    # per-round deficit stays inside the 3*eta*k envelope plus noise
    for eta, d, se in zip(etas, rep.deficits, rep.standard_errors):
        assert d <= 3 * eta * inst.k + 3 * se + 1e-9
    assert rep.fitted_slope >= 0.0


def test_robustness_feasibility_under_perturbation():
    inst = random_instance(3, 1, 2, -2, stream(9, "instance"))
    signs = np.where(stream(1, "perturb").random((3, 4)) < 0.5, -1.0, 1.0)
    tables = PayoffTable(
        k=1, tau_min=-2, tau_max=2,
        means=np.clip(inst.means + 0.3 * signs, 0.0, 1.0),
    )
    sol = solve_lp(build_lp(tables, -2))
    trace = run_planner(inst, round_intervals(sol, [0]), 200, selection=tables)
    assert trace.played.sum(axis=1).max() <= inst.k


def test_robustness_rejects_zero_seeds():
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        robustness_gap(make_step_instance(), [0.1], T=150, n_seeds=0, epsilon=0.5, seed=0)


@pytest.mark.parametrize("T, message", [
    (0, "T must be >= 1, got 0"),
    (-3, "T must be >= 1, got -3"),
    (100.5, "T must be an integer, got 100.5"),
])
def test_etc_refuses_horizon_that_is_not_a_positive_count(T, message):
    # unchecked, T <= 0 would fail in etc_config with "math domain error"
    # and T = 100.5 with an IndexError
    with pytest.raises(ModelError, match=message):
        etc_run(make_step_instance(), T, 0.25, seed=0)


def test_robustness_refuses_horizon_zero():
    # unchecked, it would report deficits [nan, nan]
    with pytest.raises(ModelError, match="T must be >= 1, got 0"):
        robustness_gap(make_step_instance(), [0.0, 0.1], 0, 3, 0.5, 0)


@pytest.mark.parametrize("eta", [-1.0, -1e-9, float("nan"), float("inf")])
def test_robustness_refuses_eta_that_is_negative_or_not_finite(monkeypatch, eta):
    # unchecked, -1 fit the slope on a negative eta * k and nan failed late
    # with "payoff nan outside [0, 1]"; the refusal comes before any run
    def no_run(*args):
        raise AssertionError("solved an LP before checking the etas")

    monkeypatch.setattr(learning, "solve_lp", no_run)
    with pytest.raises(ModelError, match=f"eta must be finite and >= 0, got {eta}"):
        robustness_gap(make_step_instance(), [0.0, eta], 150, 3, 0.5, 0)


def test_robustness_refuses_empty_eta_list(monkeypatch):
    # unchecked, it reported etas [] with fitted_slope 0.0 after the
    # unperturbed runs
    monkeypatch.setattr(learning, "solve_lp", lambda *args: pytest.fail("solved an LP"))
    with pytest.raises(ModelError, match=r"^the slope needs at least one eta, got \[\]$"):
        robustness_gap(make_step_instance(), [], 60, 3, 0.5, 0)


@pytest.mark.parametrize("seed, message", BAD_SEEDS.values(), ids=list(BAD_SEEDS))
def test_etc_refuses_bad_seeds(seed, message):
    # unchecked, seed 1.5 ran seed 1 (realized_total 283.0 for both)
    with pytest.raises(ModelError) as info:
        etc_run(make_step_instance(), 512, 0.25, seed)
    assert str(info.value) == message
