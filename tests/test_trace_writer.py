"""The column-wise trace writer of ``mlsd simulate`` against its row-wise
twin in ``tests/reference.py``: the same bytes for any planner run, in any
number of blocks, and a peak memory set by the block, not by the trace."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsd import cli, lp, model, planner
from mlsd.cli import main

import reference as ref

# Payoff entries a round sums over; -0.0 pays into rounds that print 0.
PAYOFFS = np.array([-0.0, 0.0, 0.1, 1 / 3, 0.7, 1.0, 2.5e-13])


def random_runs(seed: int, n: int, T: int, k: int, ramp=None) -> planner.PlannerRuns:
    """One run whose arms have no interval (state 0), small states, or
    states near -2**62, as a plan file's ``l`` allows; at most k plays per
    round, each a candidate; payoffs summed as the planner sums them.

    ``ramp = (rounds, extra)`` gives the first ``rounds`` rounds' c = n *
    rounds cells c distinct states, 0 among them, over a range of c + extra
    states (of c when c = 1)."""
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
    return planner.PlannerRuns(
        window=(virtual[None], candidates[None], played[None], np.zeros((1, n, T), dtype=np.int64)),
        period=np.array([T]),
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
