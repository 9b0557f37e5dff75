"""Cross-module checks on the seams the unit tests do not reach."""

import json
import math

import numpy as np
import pytest

from conftest import draw_instance, vertex_optimal
from reference import candidate_marginals, marginal_expectations

from mlsd.analysis import make_step_instance
from mlsd.cli import main
from mlsd.learning import (
    estimate_payoffs,
    etc_config,
    etc_run,
    exploration_schedule,
    simulate_exploration,
)
from mlsd.lp import build_lp, solve_lp
from mlsd.model import PayoffTable, random_instance
from mlsd.planner import round_intervals, run_planner
from mlsd.rng import stream


def test_vertex_oracle_on_known_program():
    # max x + y s.t. x + y <= 1, x <= 0.25: optimum 1 at (0.25, 0.75)
    value = vertex_optimal([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.25])
    assert value == pytest.approx(1.0)


def test_triple_distribution_time_invariant():
    # the candidate-triple marginals do not depend on the round queried
    inst = draw_instance(501, n_range=(2, 2), tau_max_range=(2, 3))
    sol = solve_lp(build_lp(inst, -2))
    expected = marginal_expectations(sol)
    N = 60000
    for t in (1, 4, 11):
        counts, _ = candidate_marginals(sol, t, N, seed=77)
        for key, x in expected.items():
            se = math.sqrt(x * (1 - x) / N)
            assert abs(counts.get(key, 0) / N - x) <= 5 * se


def test_selection_and_environment_payoffs_are_separate():
    # ranking consults the selection tables, collection consults the truth
    inst = make_step_instance()
    wrong = PayoffTable(
        k=1, tau_min=inst.tau_min, tau_max=inst.tau_max,
        means=np.array([[0.25, 0.25, 0.25]]),
    )
    sol = solve_lp(build_lp(inst, -2))
    trace = run_planner(inst, round_intervals(sol, [3]), 60, selection=wrong)
    played_rounds = trace.played[0, 0]
    assert trace.virtual_payoff[0, played_rounds].max() == pytest.approx(0.25)
    # the environment still pays the true means, which reach 1
    assert trace.actual_payoff.max() == pytest.approx(1.0)


def test_exploration_counts_are_exact_where_construction_promises():
    # negative states and inner positive states 2..tau_max-1 get exactly m
    # samples; state 1 and tau_max absorb bonus wave lead-ins (>= m)
    for (n, k, tau_max, tau_L, m) in [(4, 2, 4, -2, 3), (3, 3, 3, -3, 2), (2, 1, 1, -2, 4)]:
        sched = exploration_schedule(n, k, tau_max, tau_L, m)
        inst = random_instance(n, k, tau_max, min(tau_L, -1), stream(5, "instance"))
        res = simulate_exploration(inst, sched, tau_L, stream(5, "noise"))
        width_neg = -tau_L
        for arm in range(n):
            for tau in range(tau_L, 0):
                assert res.counts[arm, tau - tau_L] == m
            for tau in range(2, tau_max):
                assert res.counts[arm, width_neg + tau - 1] == m
            assert res.counts[arm, width_neg] >= m
            assert res.counts[arm, width_neg + tau_max - 1] >= m


def test_etc_commit_continues_from_exploration_states():
    cases = [(make_step_instance(), 400, 0.25, 8),
             (random_instance(3, 1, 2, -2, stream(42, "instance")), 3000, 0.5, 2)]
    for inst, T, eps, seed in cases:
        cfg = etc_config(inst, T, eps)
        sched = exploration_schedule(inst.n, inst.k, inst.tau_max, cfg.tau_L, cfg.m)
        noise = stream(seed, "noise")
        expl = simulate_exploration(inst, sched, cfg.tau_L, noise)
        est = estimate_payoffs(inst.k, inst.tau_max, cfg.tau_L, expl.counts, expl.sums)
        sol = solve_lp(build_lp(est, cfg.tau_L))
        trace = run_planner(
            inst, round_intervals(sol, [seed]), T - sched.shape[1],
            selection=est, init_states=expl.end_states,
        )
        assert tuple(trace.actual_states[0, :, 0].tolist()) == expl.end_states
        # the commit's payoffs continue the same noise stream: one draw per
        # (arm, round) cell, a hit where the arm played below its true mean
        draws = noise.random(size=trace.played.shape)[0]
        hits = 0
        for arm in range(inst.n):
            for t in range(trace.T):
                if trace.played[0, arm, t]:
                    tau = int(trace.actual_states[0, arm, t])
                    hits += bool(draws[arm, t] < inst.payoff(arm, tau))
        want = expl.realized_total + hits
        assert etc_run(inst, T, eps, seed).realized_total.hex() == want.hex()


def test_trace_csv_golden(tmp_path):
    inst_path = tmp_path / "c2.json"
    out = tmp_path / "trace.csv"
    main(["gen", "appendix-c2", "--out", str(inst_path)])
    main(["simulate", "--instance", str(inst_path), "--T", "3",
          "--epsilon", "0.5", "--seed", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "t,nu_0,candidates,played,virtual_payoff,actual_payoff"
    # seed 1 places the cycle so rounds go -1, -2, 1 (verified by rerun)
    states = [int(line.split(",")[1]) for line in lines[1:]]
    cycle = {(-1, -2, 1), (-2, 1, -1), (1, -1, -2)}
    assert tuple(states) in cycle
    for line in lines[1:]:
        t, nu, cand, played, vp, ap = line.split(",")
        if int(nu) in (1, -1):
            assert cand == "0" and played == "0" and vp == "1" and ap == "1"
        else:
            assert cand == "" and played == "" and vp == "0"


@pytest.mark.parametrize("n, k, gen_seed, seed, idle", [
    (3, 2, 2, 6, False),
    (3, 2, 2, 1, False),
    (3, 3, 2, 6, False),  # k = n: every candidate plays
    (3, 3, 1, 0, False),
    (4, 1, 0, 0, True),  # some arm draws no interval
    (4, 1, 0, 4, True),
    (4, 1, 0, 1, False),
], ids=["n3k2-seed6", "n3k2-seed1", "k=n-seed6", "k=n-seed0", "idle-arm-seed0",
        "idle-arm-seed4", "n4k1-seed1"])
def test_simulate_with_plan_file(tmp_path, n, k, gen_seed, seed, idle):
    inst_path = tmp_path / "i.json"
    plan_path = tmp_path / "plan.json"
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen", "random", "--n", str(n), "--k", str(k), "--seed", str(gen_seed),
          "--out", str(inst_path)])
    main(["plan", "--instance", str(inst_path), "--epsilon", "0.5",
          "--seed", str(seed), "--out", str(plan_path)])
    arms = json.loads(plan_path.read_text())["arms"]
    assert any(a["interval"] is None for a in arms) == idle
    assert main(["simulate", "--instance", str(inst_path), "--plan", str(plan_path),
                 "--T", "30", "--out", str(t1)]) == 0
    assert main(["simulate", "--instance", str(inst_path), "--epsilon", "0.5",
                 "--seed", str(seed), "--T", "30", "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_experiment_commands(tmp_path):
    inst_path = tmp_path / "c2.json"
    main(["gen", "appendix-c2", "--out", str(inst_path)])

    out = tmp_path / "approx.json"
    assert main(["experiment", "approximation", "--instance", str(inst_path),
                 "--epsilon", "0.5", "--T", "200", "--seeds", "30",
                 "--seed", "0", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["bound_satisfied"] and d["actual_dominates"]

    out = tmp_path / "tight.json"
    assert main(["experiment", "tightness", "--k", "1", "--m", "5",
                 "--T", "300", "--seeds", "30", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert 0.0 < d["ratio"] <= 1.0

    out = tmp_path / "robust.json"
    assert main(["experiment", "robustness", "--instance", str(inst_path),
                 "--epsilon", "0.5", "--T", "150", "--seeds", "10",
                 "--eta-list", "0.0,0.1", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["deficits"][0] == 0.0

    out = tmp_path / "trend.csv"
    assert main(["plot-data", "regret-vs-T", "--instance", str(inst_path),
                 "--epsilon", "0.25", "--T-list", "512,1024", "--seeds", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "series,x,y"
    assert len(lines) == 5

    out_json, out_csv = tmp_path / "t2.json", tmp_path / "t2.csv"
    assert main(["experiment", "tightness", "--k", "1", "--m", "4",
                 "--T", "200", "--seeds", "30", "--out", str(out_json),
                 "--csv", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("ratio,") for line in lines)


def test_learn_falls_back_to_lp_bound(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    main(["gen", "random", "--n", "3", "--k", "1", "--tau-max", "2",
          "--tau-min", "-2", "--seed", "4", "--out", str(inst_path)])
    capsys.readouterr()
    assert main(["learn", "--instance", str(inst_path), "--T", "3000",
                 "--epsilon", "0.5", "--seed", "0", "--budget", "100",
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert "benchmark=LP*_upper_bound" in capsys.readouterr().out


def test_etc_on_multi_arm_instance():
    inst = random_instance(3, 1, 2, -2, stream(42, "instance"))
    results = [etc_run(inst, 3000, 0.5, seed=s) for s in range(4)]
    for res in results:
        assert res.exploration_length < 3000
        assert 0.0 <= res.realized_total <= inst.k * 3000
        assert res.min_sample_count >= res.config.m
    # committed play on estimates tracks the full-information planner
    mean_gap = np.mean([r.regret_vs_planner for r in results])
    assert mean_gap <= results[0].exploration_length + 0.1 * 3000


def test_check_feasible_shape_mismatch():
    from mlsd.lp import LpSolution, check_feasible

    inst = make_step_instance()
    wrong = LpSolution(x=np.zeros((2, 1, 2)), objective=0.0, tau_L=-2)
    with pytest.raises(ValueError, match="does not match"):
        check_feasible(wrong, inst)
