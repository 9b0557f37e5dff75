"""The column-wise trace writer of ``mlsd simulate`` against its row-wise
twin in ``tests/reference.py``: the same bytes for any planner run, in any
number of blocks, with or without rows past the planner's window, with
state labels by arm pairs or one by one, and a peak memory and formatting
work set by the block and the window, not by the trace. Its arm sets, which
``oracle --out`` writes too, against a per-round join."""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsd import cli, lp, model, oracle, planner
from mlsd.cli import main

import reference as ref

# Payoff entries a round sums over; -0.0 pays into rounds that print 0.
PAYOFFS = np.array([-0.0, 0.0, 0.1, 1 / 3, 0.7, 1.0, 2.5e-13])


def random_runs(seed: int, n: int, T: int, k: int, ramp=None, span=None,
                idle=None) -> planner.PlannerRuns:
    """One run whose arms have no interval (state 0), small states, or
    states near -2**62, as a plan file's ``l`` allows; at most k plays per
    round, each a candidate; payoffs summed as the planner sums them.

    ``ramp = (rounds, extra)`` gives the first ``rounds`` rounds' c = n *
    rounds cells c distinct states, 0 among them, over a range of c + extra
    states (of c when c = 1). ``span = (rounds, R)`` draws the first
    ``rounds`` rounds' states from R consecutive states around 0, both
    ends among them. ``idle``, a (T,) bool mask, leaves its rounds with no
    candidate."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3, size=(n, 1))
    small = rng.choice([-6, -5, -2, -1, 1, 2, 10], size=(n, T))
    huge = -(2**62) + 1 + rng.integers(0, 2 * T, size=(n, T))
    virtual = np.where(kind == 0, 0, np.where(kind == 1, small, huge))
    if ramp is not None:
        rounds, extra = ramp
        states = np.arange(n * rounds) - n * rounds // 2
        if states.size > 1:
            states[-1] += extra
        virtual[:, :rounds] = rng.permutation(states).reshape(n, rounds)
    candidates = (rng.random((n, T)) < rng.random()) & (kind > 0)
    played = candidates & (rng.random((n, T)) < 0.7)
    played &= np.cumsum(played, axis=0) <= k
    pay = PAYOFFS[rng.integers(0, PAYOFFS.size, size=(2, n, T))]
    if span is not None:
        rounds, R = span
        lo = -(R // 2)
        states = lo + rng.integers(0, R, size=n * rounds)
        states[-1], states[0] = lo + R - 1, lo
        virtual[:, :rounds] = states.reshape(n, rounds)
    if idle is not None:
        candidates[:, idle] = played[:, idle] = False
    return planner.PlannerRuns(
        window=(virtual[None], candidates[None], played[None], np.zeros((1, n, T), dtype=np.int64)),
        period=T,
        T=T,
        virtual_payoff=np.where(played, pay[0], 0.0).sum(axis=0)[None],
        actual_payoff=np.where(played, pay[1], 0.0).sum(axis=0)[None],
    )


def written(writer, path, runs) -> bytes:
    writer(path, runs)
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    T=st.integers(1, 300),
    k_frac=st.floats(0.0, 1.0),
    block=st.sampled_from([1, 7, 64, 2**16]),
    extra=st.sampled_from([None, 0, 1]),
)
# the first block's states span as many states as it has cells, or one more:
# the two sides of the writer's choice between one table and ``_labels``
@example(seed=3, n=3, T=50, k_frac=0.5, block=64, extra=0)
@example(seed=3, n=3, T=50, k_frac=0.5, block=64, extra=1)
def test_writer_matches_row_wise_twin(tmp_path_factory, seed, n, T, k_frac, block, extra):
    k = 1 + int(k_frac * (n - 1))
    ramp = None if extra is None else (min(T, max(1, block // n)), extra)
    runs = random_runs(seed, n, T, k, ramp)
    d = tmp_path_factory.mktemp("trace")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_CELLS", block)
        got = written(cli._write_trace, d / "new.csv", runs)
    assert got == written(ref.write_trace, d / "ref.csv", runs)


IDLE = {  # rounds with no candidate, given the rounds and the block's rounds
    "first": lambda t, step: t % step == 0,
    "last": lambda t, step: (t % step == step - 1) | (t == t[-1]),
    "every": lambda t, step: np.ones(t.size, dtype=bool),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    T=st.integers(1, 200),
    k_frac=st.floats(0.0, 1.0),
    block=st.sampled_from([1, 7, 64, 2**16]),
    over=st.sampled_from([None, 0, 1]),
    idle=st.sampled_from([None, "first", "last", "every"]),
    case=st.none(),
)
# The first block's c cells span R = isqrt(c) + over states. R**2 equal to
# c: the arm pairs read one table of R**2 strings ...
@example(seed=4, n=4, T=50, k_frac=0.5, block=64, over=0, idle=None, case=0)
@example(seed=4, n=7, T=50, k_frac=0.5, block=49, over=0, idle=None, case=0)
@example(seed=4, n=1, T=100, k_frac=0.0, block=64, over=0, idle=None, case=0)
# ... R**2 one more than c: every arm reads its single label
@example(seed=4, n=7, T=50, k_frac=0.5, block=64, over=1, idle=None, case=1)
@example(seed=4, n=1, T=100, k_frac=0.0, block=63, over=1, idle=None, case=1)
# blocks of 12 rounds whose first or last round, or every round, has no
# candidate
@example(seed=6, n=5, T=50, k_frac=0.5, block=64, over=0, idle="first", case=None)
@example(seed=6, n=5, T=50, k_frac=0.5, block=64, over=0, idle="last", case=None)
@example(seed=6, n=5, T=50, k_frac=0.5, block=64, over=None, idle="every", case=None)
def test_writer_matches_twin_on_arm_pairs(tmp_path_factory, seed, n, T, k_frac, block, over,
                                          idle, case):
    k = 1 + int(k_frac * (n - 1))
    step = max(1, block // n)
    rounds = min(T, step)
    span = None
    if over is not None:
        span = (rounds, math.isqrt(n * rounds) + over)
        if case is not None:
            assert span[1] ** 2 - n * rounds == case
    mask = None if idle is None else IDLE[idle](np.arange(T), step)
    runs = random_runs(seed, n, T, k, span=span, idle=mask)
    d = tmp_path_factory.mktemp("trace")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_CELLS", block)
        got = written(cli._write_trace, d / "new.csv", runs)
    assert got == written(ref.write_trace, d / "ref.csv", runs)


def test_writer_matches_twin_across_blocks(tmp_path, monkeypatch):
    n, T = 5, 301
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 64)
    assert T > 2 * (cli._BLOCK_CELLS // n)  # three blocks or more, the last one short
    runs = random_runs(11, n, T, 2)
    assert runs.virtual.min() < -(2**61) and not runs.virtual[0].any(axis=1).all()
    new = written(cli._write_trace, tmp_path / "new.csv", runs)
    assert new == written(ref.write_trace, tmp_path / "ref.csv", runs)
    assert new.count(b"\n") == T + 1


def test_payoff_of_negative_zero_prints_zero(tmp_path):
    # The round sums add -0.0 payoffs to +0.0, so they print 0, never -0.
    inst, plan, out = tmp_path / "z.json", tmp_path / "plan.json", tmp_path / "z.csv"
    inst.write_text('{"k": 1, "tau_min": -2, "tau_max": 1, "payoffs": [[-0.0, -0.0, 1.0]]}')
    plan.write_text('{"arms": [{"interval": {"u": 1, "l": -2}, "offset": 0}]}')
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--instance", str(inst), "--plan", str(plan), "--T", "6",
                     "--out", str(out)]) == 0
    assert stdout.getvalue() == "T=6 mean_virtual=0.333333333333 mean_actual=0.5\n"
    assert out.read_text() == (
        "t,nu_0,candidates,played,virtual_payoff,actual_payoff\n"
        "1,-1,0,0,0,1\n"
        "2,-2,,,0,0\n"
        "3,1,0,0,1,1\n"
        "4,-1,0,0,0,0\n"
        "5,-2,,,0,0\n"
        "6,1,0,0,1,1\n"
    )


def test_writer_memory_is_set_by_the_block(tmp_path):
    # At n=100, T=20000 the blocked writer peaks at about 0.5 MiB under
    # tracemalloc, the row-wise twin at 1.3 MiB and an unblocked column-wise
    # writer at about 63 MiB.
    instance = model.random_instance(100, 5, 10, -4, np.random.default_rng(3))
    solution = lp.solve_lp(lp.build_lp(instance, lp.tau_L_from_epsilon(0.1)))
    runs = planner.simulate_planner(instance, solution, 20000, 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write_trace(tmp_path / "trace.csv", runs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"writer peaked at {peak / 2**20:.1f} MiB"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 8),
    k_frac=st.floats(0.0, 1.0),
    tau_max=st.integers(1, 4),
    tau_min=st.integers(-3, -1),
    T=st.integers(1, 400),
    block=st.sampled_from([1, 7, 64, 2**14]),
    case=st.none(),
)
# W = 25, P = 12: rows past the window reuse its last period's text ...
@example(seed=1, n=8, k_frac=0.5, tau_max=3, tau_min=-2, T=400, block=2**14, case="reuse")
# ... or are formatted, when the period holds more cells than a block
@example(seed=1, n=8, k_frac=0.5, tau_max=3, tau_min=-2, T=400, block=64, case="format")
# blocks of 21 rounds: the window ends 4 rounds into its second block, and
# the reused period's rows come from both
@example(seed=5, n=3, k_frac=0.5, tau_max=3, tau_min=-2, T=200, block=64, case="mid-block")
@example(seed=1, n=8, k_frac=0.5, tau_max=3, tau_min=-2, T=20, block=64, case="whole")
def test_writer_matches_twin_on_windowed_runs(tmp_path_factory, seed, n, k_frac, tau_max,
                                              tau_min, T, block, case):
    # a real planner run, which keeps only its window of W columns when its
    # joint period P is short enough
    k = 1 + int(k_frac * (n - 1))
    instance = model.random_instance(n, k, tau_max, tau_min, np.random.default_rng(seed))
    solution = lp.solve_lp(lp.build_lp(instance, lp.tau_L_from_epsilon(0.25)))
    runs = planner.simulate_planner(instance, solution, T, seed)
    W, P = runs.window[0].shape[2], runs.period
    if case == "whole":
        assert W == T
    elif case is not None:
        assert W < T and (P * n <= block) == (case != "format")
    if case == "mid-block":
        step = block // n
        assert W - P < W - W % step < W
    d = tmp_path_factory.mktemp("trace")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_CELLS", block)
        got = written(cli._write_trace, d / "new.csv", runs)
    assert got == written(ref.write_trace, d / "ref.csv", runs)


def test_formatting_work_is_set_by_the_window(tmp_path, monkeypatch):
    # The memory test's run (W = 23, P = 11) formats its window once and
    # writes every later round from its last period's text, whatever T is.
    instance = model.random_instance(100, 5, 10, -4, np.random.default_rng(3))
    solution = lp.solve_lp(lp.build_lp(instance, lp.tau_L_from_epsilon(0.1)))
    calls = []

    def counted(members):
        calls.append(members.shape[1])
        return arm_sets(members)

    arm_sets = cli._arm_sets
    monkeypatch.setattr(cli, "_arm_sets", counted)
    counts = []
    for T in (20000, 80000):
        runs = planner.simulate_planner(instance, solution, T, 7)
        assert (runs.window[0].shape[2], runs.period) == (23, 11)
        calls.clear()
        cli._write_trace(tmp_path / "trace.csv", runs)
        assert sum(calls) == 2 * 23  # candidates and played, window columns only
        counts.append(len(calls))
    assert counts[0] == counts[1]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    T=st.integers(0, 60),
    density=st.floats(0.0, 1.0),
    empty=st.lists(st.sampled_from(["start", "middle", "end", "all"]), max_size=3),
)
@example(seed=0, n=1, T=5, density=0.5, empty=[])
@example(seed=0, n=1, T=5, density=1.0, empty=["start", "end"])
@example(seed=0, n=4, T=7, density=0.6, empty=["start", "middle", "end"])
@example(seed=0, n=4, T=7, density=0.6, empty=["all"])
@example(seed=0, n=3, T=1, density=0.0, empty=[])
def test_arm_sets_match_per_round_joins(seed, n, T, density, empty):
    members = np.random.default_rng(seed).random((n, T)) < density
    for where in empty:
        members[:, {"start": slice(0, 2), "middle": slice(T // 2, T // 2 + 1),
                    "end": slice(T - 2, T), "all": slice(None)}[where]] = False
    assert cli._arm_sets(members) == [ref.set_str(members[:, t]) for t in range(T)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 4),
    k_frac=st.floats(0.0, 1.0),
    T=st.integers(1, 120),
    block=st.sampled_from([1, 7, 16, 2**14]),
)
@example(seed=2, n=3, k_frac=0.5, T=51, block=16)  # blocks of 5 rounds, the last of 1
def test_oracle_schedule_matches_twin_across_blocks(tmp_path_factory, seed, n, k_frac, T,
                                                    block):
    # ``oracle --out`` writes its schedule through ``_arm_sets`` in blocks of
    # rounds, like the trace
    k = 1 + int(k_frac * (n - 1))
    instance = model.random_instance(n, k, 2, -2, np.random.default_rng(seed))
    d = tmp_path_factory.mktemp("oracle")
    model.save_instance(instance, d / "inst.json")
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "_BLOCK_CELLS", block)
        assert main(["oracle", "--instance", str(d / "inst.json"), "--T", str(T),
                     "--out", str(d / "schedule.csv")]) == 0
    _, schedule = oracle.dp_optimal(model.load_instance(d / "inst.json"), T)
    assert (d / "schedule.csv").read_text() == "t,played\n" + "".join(
        f"{t + 1},{ref.set_str(schedule[:, t])}\n" for t in range(T)
    )
