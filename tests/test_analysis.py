import math

import numpy as np
import pytest

from conftest import BAD_SEEDS

from mlsd.analysis import (
    approximation_experiment,
    gamma_k,
    make_step_instance,
    make_tight_instance,
    regret_trend,
    tightness_experiment,
)
from mlsd import analysis, learning, lp, planner
from mlsd.learning import robustness_gap
from mlsd.lp import build_lp, solve_lp
from mlsd.model import Instance, ModelError, random_instance
from mlsd.oracle import OracleBudgetError
from mlsd.planner import round_intervals
from mlsd.rng import stream


def test_gamma_values():
    assert gamma_k(1) == pytest.approx(1 - 1 / math.e, abs=1e-9)
    assert gamma_k(1) == pytest.approx(0.632121, abs=1e-6)
    assert gamma_k(2) == pytest.approx(1 - 2 / math.e**2, abs=1e-12)
    assert gamma_k(2) == pytest.approx(0.729329, abs=1e-6)


def test_gamma_increasing_to_one():
    vals = [gamma_k(k) for k in range(1, 40)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert gamma_k(500) > 0.97


def test_gamma_matches_stirling_for_large_k():
    # Stirling: k^k / (e^k k!) ~ 1 / sqrt(2 pi k)
    assert abs(gamma_k(100) - (1 - 1 / math.sqrt(2 * math.pi * 100))) <= 1e-3


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_k(0)


def test_tight_instance_shape():
    inst = make_tight_instance(1, 3)
    assert inst.n == 3 and inst.k == 1 and inst.tau_max == 3
    assert inst.payoff(0, 2) == 0.0
    assert inst.payoff(0, 3) == 1.0
    inst2 = make_tight_instance(2, 5)
    assert inst2.n == 10


@pytest.mark.parametrize("k, m, message", [
    (0, 2, "k must be >= 1, got 0"),
    (2, 0, "m must be >= 1, got 0"),
    (1.5, 2, "k must be an integer, got 1.5"),
    (2, 2.0, "m must be an integer, got 2.0"),
])
def test_tight_instance_refuses_bad_k_and_m(k, m, message):
    with pytest.raises(ModelError) as info:
        make_tight_instance(k, m)
    assert str(info.value) == message


def test_tight_instance_size_guard(monkeypatch):
    def no_instance(**kwargs):
        raise AssertionError("the table was built")

    with pytest.raises(ValueError, match="1024 x 1025 payoff table, more than 1048576 cells"):
        make_tight_instance(1, 1024)
    monkeypatch.setattr(analysis, "_MAX_TIGHT_CELLS", 2 * 3 * 4)
    assert make_tight_instance(2, 3).n == 6  # exactly at the limit
    monkeypatch.setattr(analysis, "Instance", no_instance)
    with pytest.raises(ValueError, match="k=1, m=5 has a 5 x 6 payoff table"):
        make_tight_instance(1, 5)


def test_tight_instance_candidate_probability():
    # exact occupancy is 1/(m+1) per arm, so the per-round candidate chance
    # is 1/(m+1); the coarser 1/m description is its large-m limit
    m = 4
    inst = make_tight_instance(1, m)
    sol = solve_lp(build_lp(inst, -1))
    for arm in range(inst.n):
        assert sol.x[arm, m - 1, 0] == pytest.approx(1 / (m + 1), abs=1e-6)  # I(m, -1)
    N = 20000
    cand = int((round_intervals(sol, range(200)).u > 0).sum())
    # every arm receives its cycle with probability (m+1) * 1/(m+1) = 1
    assert cand == 200 * inst.n


def test_tightness_degenerate_m1():
    # with m=1 every arm cycles (play, rest), so half the arms are
    # candidates per round; that coverage of k/2 is exactly the optimal rate
    res = tightness_experiment(k=2, m=1, T=200, n_seeds=30, seed=0)
    assert res.ratio == pytest.approx(1.0, abs=1e-12)
    assert res.coverage == pytest.approx(0.5, abs=1e-12)


def test_tightness_small_case_tracks_gamma():
    res = tightness_experiment(k=1, m=20, T=3000, n_seeds=30, seed=1)
    assert abs(res.ratio - gamma_k(1)) < 0.05


def test_approximation_experiment_step_instance():
    report = approximation_experiment(
        make_step_instance(), epsilon=0.5, T=400, n_seeds=40, seed=0,
        descriptor="step",
    )
    assert report.lp_value == pytest.approx(2 / 3, abs=1e-6)
    assert report.bound_satisfied
    assert report.actual_dominates
    assert report.mean_virtual >= report.gamma * report.lp_value - 3 * report.se_virtual


def test_approximation_experiment_zero_instance():
    zero = Instance(k=1, tau_min=-1, tau_max=1, means=[[0.0, 0.0]] * 2)
    report = approximation_experiment(zero, 0.5, 200, 30, 0, descriptor="zero")
    assert report.lp_value == pytest.approx(0.0, abs=1e-9)
    assert report.mean_actual == pytest.approx(0.0, abs=1e-12)
    assert report.bound_satisfied


def test_experiment_needs_thirty_seeds():
    with pytest.raises(ValueError):
        approximation_experiment(make_step_instance(), 0.5, 100, 10, 0)


def test_seed_count_checked_before_any_seed_runs(monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("a seed was simulated")

    monkeypatch.setattr(analysis, "planner_runs", no_runs)
    with pytest.raises(ValueError, match="need >= 30 seeds"):
        approximation_experiment(make_step_instance(), 0.5, 100, 29, 0)


@pytest.mark.parametrize("n_seeds, seed, message", [
    (30.5, 0, "n_seeds (need >= 30 seeds for the interval) must be an integer, got 30.5"),
    (True, 0, "n_seeds (need >= 30 seeds for the interval) must be an integer, got True"),
    (29, 0, "n_seeds (need >= 30 seeds for the interval) must be >= 30, got 29"),
    (30, 1.5, "seed must be an integer, got 1.5"),
    (30, -1, "seed must be >= 0, got -1"),
], ids=["fractional-count", "bool-count", "few-seeds", "fractional-seed", "negative-seed"])
def test_experiment_refuses_bad_seed_count_and_seed(monkeypatch, n_seeds, seed, message):
    # unchecked, 30.5 and 1.5 were a TypeError from range
    monkeypatch.setattr(analysis, "planner_runs", lambda *a, **k: pytest.fail("a seed was simulated"))
    with pytest.raises(ModelError) as info:
        approximation_experiment(make_step_instance(), 0.5, 100, n_seeds, seed)
    assert str(info.value) == message


def test_tightness_rejects_zero_seeds():
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        tightness_experiment(k=1, m=5, T=100, n_seeds=0, seed=0)


def test_tightness_refuses_oversized_relaxation_before_building_instance(monkeypatch, no_alloc):
    # m = 20000 would first build a 20000 x 20001 payoff table, about 6 GB
    def no_instance(k, m):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(analysis, "make_tight_instance", no_instance)
    with pytest.raises(ModelError, match="n=20000, tau_max=20000, tau_L=-1 has 400000000 variables"):
        tightness_experiment(k=1, m=20000, T=100, n_seeds=1, seed=0)
    with pytest.raises(ModelError, match="n=512, tau_max=512"):
        tightness_experiment(k=1, m=512, T=100, n_seeds=1, seed=0)
    lp.check_lp_size(511, 511, -1)  # m = 511 fits the cap, m = 512 is the first past it


def test_chunked_runs_match_single_chunk(monkeypatch):
    inst = make_step_instance()
    runs = {}
    for cells in (1, 10**9):  # one seed per chunk, then all seeds in one
        monkeypatch.setattr(planner, "_CHUNK_CELLS", cells)
        runs[cells] = (
            tightness_experiment(k=1, m=5, T=400, n_seeds=30, seed=3).to_dict(),
            approximation_experiment(inst, 0.5, 300, 31, 4).to_dict(),
        )
    assert runs[1] == runs[10**9]


def test_approximation_experiment_rejects_horizon_below_tau_max():
    inst = make_tight_instance(1, 4)
    with pytest.raises(ValueError, match="no round from tau_max=4"):
        approximation_experiment(inst, 0.5, 3, 30, 0)


def test_regret_trend_rejects_zero_seeds():
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        regret_trend(make_step_instance(), [512, 1024], 0, 0.25, 0)


def test_regret_trend_needs_two_horizons():
    with pytest.raises(ValueError, match="two distinct horizons"):
        regret_trend(make_step_instance(), [512, 512], 2, 0.25, 0)


def test_tightness_refuses_horizon_zero():
    # unchecked, it would report ratio=nan
    with pytest.raises(ModelError, match="T must be >= 1, got 0"):
        tightness_experiment(1, 5, 0, 5, 0)


EXPERIMENTS = {
    "approximation": lambda seed: approximation_experiment(
        make_step_instance(), 0.5, 100, 30, seed),
    "tightness": lambda seed: tightness_experiment(1, 5, 100, 30, seed),
    "regret-trend": lambda seed: regret_trend(make_step_instance(), [256, 512], 2, 0.25, seed),
    "robustness": lambda seed: robustness_gap(make_step_instance(), [0.0], 50, 3, 0.5, seed),
}


@pytest.fixture
def no_streams(monkeypatch):
    """Make every stream start and batched stream read in the experiments fail."""
    def refuse(*args, **kwargs):
        pytest.fail("a stream was started")

    monkeypatch.setattr(planner, "streams", refuse)
    monkeypatch.setattr(planner, "outputs", refuse)
    monkeypatch.setattr(learning, "stream", refuse)


@pytest.mark.parametrize("seed, message", BAD_SEEDS.values(), ids=list(BAD_SEEDS))
@pytest.mark.parametrize("experiment", EXPERIMENTS.values(), ids=list(EXPERIMENTS))
def test_experiments_refuse_bad_seeds_before_drawing(no_streams, experiment, seed, message):
    # unchecked, 1.5 was a TypeError from range in tightness and robustness,
    # and ran seeds 1, 2, ... in regret-trend
    with pytest.raises(ModelError) as info:
        experiment(seed)
    assert str(info.value) == message


@pytest.mark.parametrize("experiment", EXPERIMENTS.values(), ids=list(EXPERIMENTS))
def test_experiments_refuse_a_last_seed_past_the_bound(no_streams, experiment):
    with pytest.raises(ModelError, match=r"^the last seed must be <= 18446744073709551615, got "):
        experiment(2**64 - 1)


def test_regret_trend_checks_epsilon_before_the_oracle(monkeypatch):
    # before, this spent ~0.6 s in the oracle, then etc_run refused epsilon
    monkeypatch.setattr(analysis, "dp_optimal", lambda *a, **k: pytest.fail("the oracle ran"))
    inst = Instance(k=1, tau_min=-2, tau_max=1, means=[[0.1, 0.35, 0.7]])
    with pytest.raises(ModelError, match=r"^epsilon must be in \(0, 1\), got 1.5$"):
        regret_trend(inst, [200000, 400000], 2, 1.5, 0, oracle_budget=1e9)


def test_regret_trend_checks_the_oracle_budget_before_any_run(monkeypatch):
    # the largest horizon's oracle comes first; before, T = 2**10 and 2**11
    # ran their learning runs and only then was 2**20 refused
    monkeypatch.setattr(analysis, "etc_run", lambda *a, **k: pytest.fail("a learning run started"))
    inst = random_instance(3, 2, 3, -2, stream(0, "instance"))
    with pytest.raises(OracleBudgetError, match=r"dp_optimal needs ~9.18e\+08 state-action"):
        regret_trend(inst, [2**10, 2**11, 2**20], 2, 0.25, 0)
