import json
import tracemalloc
import warnings

import pytest

from mlsd import cli, learning, oracle, planner
from mlsd.cli import main


def run(args):
    return main(args)


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "random", "--n", "3", "--tau-max", "3", "--tau-min", "-2",
                "--seed", "7", "--out", str(a)]) == 0
    assert run(["gen", "random", "--n", "3", "--tau-max", "3", "--tau-min", "-2",
                "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_named_instances(tmp_path):
    c2 = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(c2)])
    d = json.loads(c2.read_text())
    assert d["n"] == 1 and d["k"] == 1 and d["payoffs"] == [[0.0, 1.0, 1.0]]

    c1 = tmp_path / "c1.json"
    run(["gen", "appendix-c1", "--k", "2", "--m", "5", "--out", str(c1)])
    d = json.loads(c1.read_text())
    assert d["n"] == 10 and d["k"] == 2 and d["tau_max"] == 5


def test_oracle_prints_opt(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["oracle", "--instance", str(inst), "--T", "3"]) == 0
    assert capsys.readouterr().out.strip() == "OPT=2"


def test_plan_epsilon_sets_cutoff(tmp_path):
    inst = tmp_path / "c2.json"
    plan = tmp_path / "plan.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    assert run(["plan", "--instance", str(inst), "--epsilon", "0.5",
                "--seed", "3", "--out", str(plan)]) == 0
    d = json.loads(plan.read_text())
    assert d["tau_L"] == -2
    assert d["arms"][0]["interval"] == {"u": 1, "l": -2}


def test_simulate_trace_columns_and_determinism(tmp_path):
    inst = tmp_path / "i.json"
    run(["gen", "random", "--n", "3", "--k", "2", "--seed", "1", "--out", str(inst)])
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    common = ["simulate", "--instance", str(inst), "--T", "25",
              "--epsilon", "0.5", "--seed", "9"]
    assert run(common + ["--out", str(t1)]) == 0
    assert run(common + ["--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    header = t1.read_text().splitlines()[0]
    assert header == "t,nu_0,nu_1,nu_2,candidates,played,virtual_payoff,actual_payoff"


def test_simulate_leaves_nu_blank_for_arm_without_interval(tmp_path):
    inst, plan, out = tmp_path / "i.json", tmp_path / "plan.json", tmp_path / "t.csv"
    run(["gen", "random", "--n", "2", "--k", "1", "--tau-max", "1", "--tau-min", "-2",
         "--seed", "1", "--out", str(inst)])
    plan.write_text(json.dumps({"arms": [
        {"interval": None, "offset": 0},
        {"interval": {"u": 1, "l": -2}, "offset": 0},
    ]}))
    assert run(["simulate", "--instance", str(inst), "--plan", str(plan), "--T", "3",
                "--out", str(out)]) == 0
    rows = [line.split(",")[:5] for line in out.read_text().splitlines()[1:]]
    # I(1,-2) from offset 0 walks -1, -2, 1 and plays at -1 and 1
    assert rows == [["1", "", "-1", "1", "1"], ["2", "", "-2", "", ""], ["3", "", "1", "1", "1"]]


def test_learn_csv_columns_and_determinism(tmp_path):
    inst = tmp_path / "c2.json"
    out = tmp_path / "reg.csv"
    out2 = tmp_path / "reg2.csv"
    run(["gen", "appendix-c2", "--out", str(inst)])
    args = ["learn", "--instance", str(inst), "--T", "512", "--epsilon", "0.25",
            "--seed", "1", "--seeds", "2"]
    assert run(args + ["--out", str(out)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,T,exploration_length,R,Reg"
    assert len(lines) == 3
    assert out.read_bytes() == out2.read_bytes()


def test_missing_file_error(capsys):
    assert run(["oracle", "--instance", "/nonexistent.json", "--T", "3"]) == 1
    assert "missing file" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--T", "5", "--instance", "{dir}", "--out", "{tmp}/t.csv"],
    ["gen", "appendix-c2", "--out", "{dir}"],
], ids=["instance-dir", "out-dir"])
def test_directory_as_path_error(tmp_path, capsys, command):
    (tmp_path / "d").mkdir()
    args = [a.format(dir=tmp_path / "d", tmp=tmp_path) for a in command]
    assert run(args) == 1
    (line,) = _stderr_lines(capsys)
    assert line == f"error: [Errno 21] Is a directory: '{tmp_path / 'd'}'"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command, epsilon", [
    (["solve-lp"], "5e-324"),
    (["learn", "--T", "512", "--out", "{tmp}/r.csv"], "1e-320"),
], ids=["solve-lp", "learn"])
def test_epsilon_whose_inverse_overflows_rejected(tmp_path, capsys, command, epsilon):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    args = [a.format(tmp=tmp_path) for a in command]
    assert run(args + ["--instance", str(inst), "--epsilon", epsilon]) == 1
    assert _stderr_lines(capsys) == [f"error: epsilon {epsilon} is too small: 1/epsilon overflows"]


def test_oracle_budget_error(tmp_path, capsys):
    inst = tmp_path / "i.json"
    run(["gen", "random", "--n", "4", "--tau-max", "3", "--out", str(inst)])
    capsys.readouterr()
    assert run(["oracle", "--instance", str(inst), "--T", "100",
                "--budget", "10"]) == 1
    assert "oracle budget exceeded" in capsys.readouterr().err


def test_oracle_refuses_oversized_tables(tmp_path, capsys, no_alloc):
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps({"k": 1, "tau_min": -2, "tau_max": 8,
                                "payoffs": [[0.5] * 10] * 7}))
    assert run(["oracle", "--instance", str(inst), "--T", "1"]) == 1
    assert _stderr_lines(capsys) == [
        "error: oracle budget exceeded: dp_optimal needs ~8e+07 (action, state) cells "
        "in memory, budget is 1.68e+07"
    ]


def test_tightness_refuses_a_million_seeds_before_rounding(tmp_path, capsys, monkeypatch):
    # without the cap, the rounding's comparisons alone took about 3.3 KB a
    # seed at n = 50, 3.3 GB for a million seeds
    monkeypatch.setattr(planner, "streams", lambda keys: pytest.fail("drew past a size guard"))
    monkeypatch.setattr(planner, "outputs", lambda *args: pytest.fail("drew past a size guard"))
    tracemalloc.start()
    try:
        code = run(["experiment", "tightness", "--seeds", "1000000",
                    "--out", str(tmp_path / "t.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 16 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"
    assert _stderr_lines(capsys) == [
        "error: 1000000 x 50 (seed, arm) pairs exceed the rounding's cap of 8388608"
    ]
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--T", "3", "--budget", "nan"], "the oracle budget must be positive, got nan"),
    (["--T", "1000000000", "--budget", "inf"], "oracle budget exceeded: dp_optimal needs "
     "~3e+09 (round, state) policy cells, budget is 6.71e+07"),
], ids=["nan-budget", "policy-past-cap"])
def test_oracle_rejects_budget_and_horizon(tmp_path, capsys, no_alloc, flags, message):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["oracle", "--instance", str(inst)] + flags) == 1
    assert _stderr_lines(capsys) == [f"error: {message}"]


def test_learn_falls_back_to_lp_bound_past_table_cap(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    monkeypatch.setattr(oracle, "_MAX_CELLS", 5)  # the step instance needs 6
    capsys.readouterr()
    assert run(["learn", "--instance", str(inst), "--T", "512",
                "--out", str(tmp_path / "r.csv")]) == 0
    assert capsys.readouterr().out.startswith("benchmark=LP*_upper_bound ")


def test_learn_checks_epsilon_before_the_oracle(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    monkeypatch.setattr(oracle, "dp_optimal", lambda *a, **k: pytest.fail("the oracle ran"))
    capsys.readouterr()
    assert run(["learn", "--instance", str(inst), "--T", "512", "--epsilon", "1.5",
                "--out", str(tmp_path / "r.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: epsilon must be in (0, 1), got 1.5"]


def test_learn_horizon_too_small(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["learn", "--instance", str(inst), "--T", "10",
                "--epsilon", "0.25", "--out", str(tmp_path / "r.csv")]) == 1
    assert "minimum viable T" in capsys.readouterr().err


def test_learn_refuses_long_exploration_before_building_it(tmp_path, capsys, monkeypatch):
    def no_schedule(*args):
        raise AssertionError("the schedule was built")

    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    monkeypatch.setattr(learning, "exploration_schedule", no_schedule)
    capsys.readouterr()
    assert run(["learn", "--instance", str(inst), "--T", "512",
                "--epsilon", "1e-9", "--out", str(tmp_path / "r.csv")]) == 1
    (line,) = _stderr_lines(capsys)
    assert line.startswith("error: T=512 is too small: exploration needs ")
    assert not (tmp_path / "r.csv").exists()


def test_learn_refuses_horizon_past_planner_cap_before_exploring(tmp_path, capsys):
    # 20 arms over 2 * 10^6 rounds: the full-information reference's 4 * 10^7
    # (run, arm, round) cells are past the planner's cap, refused before the
    # (20, rounds) exploration is built, which peaked at 98.7 MiB
    inst, out = tmp_path / "inst20.json", tmp_path / "r.csv"
    run(["gen", "random", "--n", "20", "--k", "2", "--tau-max", "5", "--tau-min", "-3",
         "--out", str(inst)])
    capsys.readouterr()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = run(["learn", "--instance", str(inst), "--T", "2000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 8 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"
    assert _stderr_lines(capsys) == [
        "error: 1 x 20 x 2000000 (run, arm, round) cells exceed the planner's cap of 8388608"
    ]
    assert not out.exists()


def test_gen_refuses_oversized_tight_instance(tmp_path, capsys):
    out = tmp_path / "c1.json"
    assert run(["gen", "appendix-c1", "--k", "1", "--m", "20000", "--out", str(out)]) == 1
    assert _stderr_lines(capsys) == [
        "error: the tight instance with k=1, m=20000 has a 20000 x 20001 payoff table, "
        "more than 1048576 cells"
    ]
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["appendix-c1", "--k", "0"], "k must be >= 1, got 0"),
    (["random", "--tau-min", "0"], "need tau_min < 0 < tau_max, got [0, 3]"),
])
def test_gen_refuses_bad_bounds(tmp_path, capsys, flags, message):
    out = tmp_path / "i.json"
    assert run(["gen", *flags, "--out", str(out)]) == 1
    assert _stderr_lines(capsys) == [f"error: {message}"]
    assert not out.exists()


def test_plot_data_ratio_vs_m(tmp_path):
    out = tmp_path / "plot.csv"
    assert run(["plot-data", "ratio-vs-m", "--k", "1", "--m-list", "2,4",
                "--T", "300", "--seeds", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "series,x,y"
    assert len(lines) == 5  # ratio and gamma reference rows for both m values


def test_solve_lp_prints_value(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["solve-lp", "--instance", str(inst), "--epsilon", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("LP*=0.666666666667")


def _stderr_lines(capsys) -> list[str]:
    return capsys.readouterr().err.splitlines()


def test_fractional_k_rejected(tmp_path, capsys):
    inst = tmp_path / "i.json"
    run(["gen", "random", "--n", "3", "--k", "1", "--seed", "1", "--out", str(inst)])
    d = json.loads(inst.read_text())
    d["k"] = 1.5
    inst.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["simulate", "--instance", str(inst), "--T", "5",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: k must be an integer, got 1.5"]


def test_simulate_rejects_nonpositive_T(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["simulate", "--instance", str(inst), "--T", "0",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: --T must be positive, got 0"]


def test_learn_rejects_nonpositive_seeds(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["learn", "--instance", str(inst), "--T", "512", "--seeds", "0",
                "--out", str(tmp_path / "r.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: --seeds must be positive, got 0"]


def test_approximation_rejects_horizon_below_tau_max(tmp_path, capsys):
    inst = tmp_path / "c1.json"
    run(["gen", "appendix-c1", "--k", "1", "--m", "4", "--out", str(inst)])
    out = tmp_path / "a.json"
    capsys.readouterr()
    assert run(["experiment", "approximation", "--instance", str(inst), "--T", "3",
                "--seeds", "30", "--out", str(out)]) == 1
    assert _stderr_lines(capsys) == [
        "error: T=3 leaves no round from tau_max=4 on to average"
    ]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["approximation", "regret-trend", "robustness"])
def test_experiment_requires_instance(tmp_path, capsys, kind):
    assert run(["experiment", kind, "--out", str(tmp_path / "e.json")]) == 1
    assert _stderr_lines(capsys) == [f"error: {kind} needs --instance"]


@pytest.mark.parametrize("eta", ["-1", "nan"])
def test_robustness_rejects_bad_eta(tmp_path, capsys, eta):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    out = tmp_path / "e.json"
    capsys.readouterr()
    assert run(["experiment", "robustness", "--instance", str(inst), "--eta-list", f"0.1,{eta}",
                "--T", "60", "--seeds", "3", "--out", str(out)]) == 1
    assert _stderr_lines(capsys) == [f"error: eta must be finite and >= 0, got {float(eta)}"]
    assert not out.exists()


def test_regret_trend_rejects_single_horizon(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["experiment", "regret-trend", "--instance", str(inst),
                    "--T-list", "512", "--seeds", "2",
                    "--out", str(tmp_path / "e.json")]) == 1
    assert _stderr_lines(capsys) == [
        "error: the slope needs at least two distinct horizons, got [512]"
    ]


def test_instance_without_payoffs_rejected(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    d = json.loads(inst.read_text())
    del d["payoffs"]
    inst.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["solve-lp", "--instance", str(inst)]) == 1
    assert _stderr_lines(capsys) == ["error: instance is missing the key 'payoffs'"]


def test_plan_without_arms_rejected(tmp_path, capsys):
    inst, plan = tmp_path / "c2.json", tmp_path / "plan.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    plan.write_text(json.dumps({"tau_L": -2}))
    capsys.readouterr()
    assert run(["simulate", "--instance", str(inst), "--plan", str(plan), "--T", "5",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: plan is missing the key 'arms'"]


@pytest.mark.parametrize("change, message", [
    ({"payoffs": [["0.0", 1.0, 1.0]]}, "payoffs must be rows of numbers"),
    ({"payoffs": [[0.0, float("nan"), 1.0]]}, "payoff nan outside [0, 1]"),
    ({"payoffs": [[0.0, 1.0, 1.5]]}, "payoff 1.5 outside [0, 1]"),
    ({"tau_max": 2.5}, "tau_max must be an integer, got 2.5"),
    ({"payoffs": [[0.0, 1.0, 1.0], [0.0, 1.0]], "n": 2}, "expected 3 values in every payoff row"),
    ({"payoffs": [], "n": 0}, "instance needs at least one arm"),
], ids=["string", "nan", "above-1", "fractional-tau_max", "ragged", "no-arms"])
def test_bad_instance_table_rejected(tmp_path, capsys, change, message):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    d = json.loads(inst.read_text())
    d.update(change)
    inst.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["solve-lp", "--instance", str(inst)]) == 1
    assert _stderr_lines(capsys) == [f"error: {message}"]


def test_simulate_rejects_bool_payoff(tmp_path, capsys):
    inst = tmp_path / "bool.json"
    inst.write_text('{"k": 1, "tau_min": -1, "tau_max": 1, "payoffs": [[0.0, true]]}')
    assert run(["simulate", "--instance", str(inst), "--T", "5",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: payoffs must be rows of numbers"]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("arm, message", [
    ({"offset": 1.5}, "arm 0's offset must be an integer, got 1.5"),
    ({"interval": {"u": 2.5, "l": -2}}, "arm 0's interval bound u must be an integer, got 2.5"),
    ({"offset": -1}, "arm 0's offset -1 is outside [0, 3), its cycle length"),
    ({"offset": 99}, "arm 0's offset 99 is outside [0, 3), its cycle length"),
    ({"offset": True}, "arm 0's offset must be an integer, got True"),
    ({"interval": {"u": 9, "l": -1}, "offset": 0}, "arm 0's interval bound u=9 exceeds tau_max=1"),
    ({"interval": {"u": 0, "l": -2}}, "arm 0's interval I(0, -2) needs u >= 1 and l <= -1"),
    ({"interval": {"u": 1, "l": 0}}, "arm 0's interval I(1, 0) needs u >= 1 and l <= -1"),
    ({"interval": {"u": 1, "l": -2**62}},
     f"arm 0's interval I(1, {-2**62}) has a cycle past 2**62 rounds"),
    ({"interval": {"u": 1, "l": -2**70}},
     f"arm 0's interval I(1, {-2**70}) has a cycle past 2**62 rounds"),
    ({"interval": 0}, "plan interval must be a JSON object, got int"),
    ({"interval": False}, "plan interval must be a JSON object, got bool"),
    ({"interval": ""}, "plan interval must be a JSON object, got str"),
    ({"interval": []}, "plan interval must be a JSON object, got list"),
    ({"interval": {}}, "plan interval is missing the key 'u'"),
], ids=["fractional-offset", "fractional-u", "negative-offset", "offset-past-cycle",
        "bool-offset", "u-above-tau_max", "u-zero", "l-zero", "cycle-past-2**62",
        "l-past-int64", "interval-zero", "interval-false", "interval-empty-string",
        "interval-empty-list", "interval-empty-object"])
def test_bad_plan_rejected(tmp_path, capsys, arm, message):
    inst, plan = tmp_path / "c2.json", tmp_path / "plan.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    run(["plan", "--instance", str(inst), "--epsilon", "0.5", "--out", str(plan)])
    d = json.loads(plan.read_text())
    assert d["arms"][0]["interval"] == {"u": 1, "l": -2}  # cycle length 3
    d["arms"][0].update(arm)
    plan.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["simulate", "--instance", str(inst), "--plan", str(plan), "--T", "5",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == [f"error: {message}"]


def test_solve_lp_refuses_oversized_relaxation(tmp_path, capsys, no_alloc):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["solve-lp", "--instance", str(inst), "--epsilon", "1e-9"]) == 1
    (line,) = _stderr_lines(capsys)
    assert line.startswith("error: the relaxation with n=1, tau_max=1, tau_L=-")
    assert line.endswith("variables, too large for a dense program")


@pytest.mark.parametrize("plan, message", [
    ({"arms": 5}, "plan arms must be a list, got int"),
    ({"arms": [5]}, "plan arm must be a JSON object, got int"),
    ({"arms": [{"interval": "ul", "offset": 0}]}, "plan interval must be a JSON object, got str"),
], ids=["arms-int", "arm-int", "interval-str"])
def test_malformed_plan_container_rejected(tmp_path, capsys, plan, message):
    inst, path = tmp_path / "c2.json", tmp_path / "plan.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    path.write_text(json.dumps(plan))
    capsys.readouterr()
    assert run(["simulate", "--instance", str(inst), "--plan", str(path), "--T", "5",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == [f"error: {message}"]
    assert not (tmp_path / "t.csv").exists()


def test_instance_that_is_not_an_object_rejected(tmp_path, capsys):
    inst = tmp_path / "five.json"
    inst.write_text("5")
    assert run(["simulate", "--instance", str(inst), "--T", "5",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == ["error: instance must be a JSON object, got int"]
    assert not (tmp_path / "t.csv").exists()


def test_simulate_refuses_oversized_run(tmp_path, capsys, no_alloc):
    # one arm over 1e8 rounds would need about 7.4 GB of planner arrays
    inst, plan = tmp_path / "c2.json", tmp_path / "plan.json"
    inst.write_text('{"k": 1, "tau_min": -2, "tau_max": 1, "payoffs": [[0.0, 1.0, 1.0]]}')
    plan.write_text('{"arms": [{"interval": {"u": 1, "l": -2}, "offset": 0}]}')
    assert run(["simulate", "--instance", str(inst), "--plan", str(plan), "--T", "100000000",
                "--out", str(tmp_path / "t.csv")]) == 1
    assert _stderr_lines(capsys) == [
        "error: 1 x 1 x 100000000 (run, arm, round) cells exceed the planner's cap of 8388608"
    ]
    assert not (tmp_path / "t.csv").exists()


def test_main_parses_again_after_an_argparse_exit(tmp_path, capsys):
    # main builds its parser once per process; a bad flag must not spoil it
    with pytest.raises(SystemExit):
        run(["gen", "random", "--bogus"])
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "random", "--n", "4", "--seed", "2", "--out", str(a)]) == 0
    assert run(["gen", "random", "--out", str(b)]) == 0
    assert json.loads(a.read_text())["n"] == 4
    assert json.loads(b.read_text())["n"] == 3  # the default, not the last call's value


def test_regret_trend_refuses_horizon_zero(tmp_path, capsys):
    inst = tmp_path / "c2.json"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    assert run(["experiment", "regret-trend", "--instance", str(inst),
                "--T-list", "0,512", "--out", str(tmp_path / "e.json")]) == 1
    assert _stderr_lines(capsys) == ["error: T must be >= 1, got 0"]
    assert not (tmp_path / "e.json").exists()


def test_gen_refuses_oversized_random_instance(tmp_path, capsys, monkeypatch, no_draws):
    # 3 rows of 10**9 + 2 uniforms would take about 24 GB
    monkeypatch.setattr(cli, "stream", lambda seed, name: no_draws)
    assert run(["gen", "random", "--n", "3", "--tau-max", "1000000000",
                "--out", str(tmp_path / "i.json")]) == 1
    assert _stderr_lines(capsys) == [
        "error: a random 3 x 1000000002 payoff table has more than 16777216 cells"
    ]
    assert not (tmp_path / "i.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--n", "4000000", "--tau-max", "3", "--tau-min", "3"],
     "need tau_min < 0 < tau_max, got [3, 3]"),
    (["--tau-max", "2", "--tau-min", "3"], "need tau_min < 0 < tau_max, got [3, 2]"),
    (["--n", "0"], "instance needs at least one arm"),
])
def test_gen_random_refuses_bad_shape_before_building_rows(tmp_path, capsys, flags, message):
    # tau_max <= tau_min makes the cell count 0 or negative: unchecked, the
    # first case built 4 million rows (10 s, 677 MB) before Instance refused
    # them, and the second failed inside numpy
    tracemalloc.start()
    try:
        code = run(["gen", "random", *flags, "--out", str(tmp_path / "i.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"
    assert _stderr_lines(capsys) == [f"error: {message}"]
    assert not (tmp_path / "i.json").exists()


@pytest.mark.parametrize("command", [
    ["gen", "random"],
    ["plan", "--instance", "{inst}"],
    ["simulate", "--instance", "{inst}", "--T", "50"],
    ["learn", "--instance", "{inst}", "--T", "512"],
    ["experiment", "tightness"],
], ids=["gen", "plan", "simulate", "learn", "experiment-tightness"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, command):
    inst, out = tmp_path / "c2.json", tmp_path / "out"
    run(["gen", "appendix-c2", "--out", str(inst)])
    capsys.readouterr()
    args = [a.format(inst=inst) for a in command]
    assert run(args + ["--seed", "-1", "--out", str(out)]) == 1
    assert _stderr_lines(capsys) == ["error: seed must be >= 0, got -1"]
    assert not out.exists()


def test_simulate_memory_is_set_by_the_window(tmp_path):
    # The trace's payoff columns come block by block from the window and its
    # means from one period, so the command's traced peak does not grow with
    # T on a 3-arm instance, against 16 B a round when both (1, T) payoff
    # rows were gathered.
    inst, out = tmp_path / "inst3.json", tmp_path / "trace.csv"
    assert main(["gen", "random", "--n", "3", "--k", "1", "--tau-max", "3", "--tau-min", "-2",
                 "--out", str(inst)]) == 0
    peaks = []
    for T in (5 * 10**4, 10**5):
        tracemalloc.start()
        try:
            args = ["simulate", "--instance", str(inst), "--T", str(T), "--out", str(out)]
            assert main(args) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = (peaks[1] - peaks[0]) / (5 * 10**4)
    assert growth < 4, f"simulate peak grew {growth:.1f} B a round"
    with open(out) as f:
        assert sum(1 for _ in f) == 10**5 + 1


def test_oracle_schedule_memory_is_set_by_the_block(tmp_path):
    # The schedule CSV goes out in blocks of rounds, so the command's traced
    # peak grows with T by little more than the (n, T) schedule: on
    # appendix-c2 about 1.4 B a round from T = 10**5 to 2 * 10**5, against
    # about 70 B a round when every row was built before the first write.
    # The 10**6-row file is written untraced.
    c2, out = tmp_path / "c2.json", tmp_path / "schedule.csv"
    assert main(["gen", "appendix-c2", "--out", str(c2)]) == 0
    peaks = []
    for T in (10**5, 2 * 10**5):
        tracemalloc.start()
        try:
            assert main(["oracle", "--instance", str(c2), "--T", str(T), "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = (peaks[1] - peaks[0]) / 10**5
    assert growth < 8, f"oracle --out peak grew {growth:.1f} B a round"
    assert main(["oracle", "--instance", str(c2), "--T", "1000000", "--out", str(out)]) == 0
    with open(out) as f:
        assert sum(1 for _ in f) == 10**6 + 1
