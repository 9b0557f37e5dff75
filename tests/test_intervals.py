import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from reference import decompose, interval_action_sequence, normalize_schedule

from mlsd.analysis import make_step_instance
from mlsd.intervals import RecurrentInterval, aggregated_payoff, cycle_phase, interval_grid
from mlsd.model import ModelError, PayoffTable, random_instance, transition
from mlsd.rng import stream


def _phases(iv: RecurrentInterval):
    """States and play flags over one period of ``iv``, from state +1."""
    state, play = cycle_phase(iv.u, iv.length, np.arange(iv.length))
    return state.tolist(), play.tolist()


def test_trajectory_examples():
    assert _phases(RecurrentInterval(u=3, l=-2)) == (
        [1, 2, 3, -1, -2], [False, False, True, True, False]
    )
    assert _phases(RecurrentInterval(u=1, l=-1)) == ([1, -1], [True, False])
    state, play = _phases(RecurrentInterval(u=5, l=-1))
    assert [tau for tau, p in zip(state, play) if p] == [5]


def test_interval_grid_order():
    u, l = interval_grid(2, 3)
    assert u.tolist() == [1, 1, 1, 2, 2, 2]
    assert l.tolist() == [-1, -2, -3, -1, -2, -3]


def test_cycle_examples():
    assert RecurrentInterval(u=3, l=-2).cycle_states() == (1, 2, 3, -1, -2)
    assert RecurrentInterval(u=1, l=-1).cycle_states() == (1, -1)
    assert RecurrentInterval(u=2, l=-1).cycle_states() == (1, 2, -1)


def test_cycle_visits_each_state_once_then_repeats():
    for u in range(1, 7):
        for l in range(-6, 0):
            iv = RecurrentInterval(u=u, l=l)
            cyc = iv.cycle_states()
            assert len(cyc) == iv.length
            assert len(set(cyc)) == iv.length
            assert transition(cyc[-1], _phases(iv)[1][-1]) == cyc[0]


def test_step_matches_model_transition():
    iv = RecurrentInterval(u=4, l=-3)
    state, play = _phases(iv)
    for pos in range(iv.length):
        assert transition(state[pos], play[pos]) == state[(pos + 1) % iv.length]


def test_length_and_plays():
    for u, l, length in ((3, -2, 5), (1, -1, 2), (4, -3, 7)):
        iv = RecurrentInterval(u=u, l=l)
        assert iv.length == length
        assert sum(_phases(iv)[1]) == -l


def test_aggregated_payoff_examples():
    inst = make_step_instance()
    # l = -1 leaves only the first play
    assert aggregated_payoff(inst, [1, 1], [-1, -2]).tolist() == [[1.0, 2.0]]


def test_aggregated_payoff_bounded_by_plays():
    inst = random_instance(2, 1, 3, -3, stream(3, "instance"))
    u, l = interval_grid(3, 3)
    assert (aggregated_payoff(inst, u, l) <= -l + 1e-12).all()


def test_aggregated_payoff_equals_one_period_simulation():
    # independent check: run one period from state 1 playing per the cycle
    for seed in range(10):
        inst = random_instance(2, 1, 4, -3, stream(seed, "instance"))
        u, l = interval_grid(4, 3)
        totals = aggregated_payoff(inst, u, l)
        for j in range(u.size):
            iv = RecurrentInterval(u=int(u[j]), l=int(l[j]))
            total = sum(inst.payoff(1, tau) for tau, play in reference.cycle_walk(iv) if play)
            assert total == pytest.approx(totals[1, j])


def test_aggregated_payoff_padding_keeps_negative_zero():
    # short cycles are padded with -0.0, which adds nothing, not even a sign
    table = PayoffTable(k=1, tau_min=-3, tau_max=2, means=[[-0.0] * 4 + [0.5]])
    u, l = interval_grid(2, 3)
    want = [
        reference.aggregated_payoff(table, 0, RecurrentInterval(u=int(a), l=int(b)))
        for a, b in zip(u, l)
    ]
    assert [v.hex() for v in aggregated_payoff(table, u, l)[0].tolist()] == [
        v.hex() for v in want
    ]
    assert want[0].hex() == "-0x0.0p+0"


P, W = True, False


def test_normalize_examples():
    assert normalize_schedule([P, P, P, P, W, P], -2) == [P, P, W, P, W, W]
    assert normalize_schedule([P, P, P], -1) == [P, W, W]
    assert normalize_schedule([W, W, W], -3) == [W, W, W]


def test_normalize_properties():
    rng = stream(9, "misc")
    for _ in range(200):
        seq = [bool(rng.random() < 0.6) for _ in range(int(rng.integers(1, 30)))]
        tau_L = -int(rng.integers(1, 4))
        out = normalize_schedule(seq, tau_L)
        assert len(out) == len(seq)
        assert sum(out) <= sum(seq)
        assert all(not o or s for o, s in zip(out, seq))  # no new plays
        run = 0
        for o in out:
            run = run + 1 if o else 0
            assert run <= -tau_L
        if any(out):
            assert not out[max(i for i, o in enumerate(out) if o) + 1 :].count(True)
        assert not out or not out[-1]  # ends with a rest (or all rests)


def test_decompose_examples():
    assert decompose([W, W, P, P, W]) == ([RecurrentInterval(u=3, l=-2)], 0)
    assert decompose([P, W]) == ([RecurrentInterval(u=1, l=-1)], 0)
    assert decompose([W, W, W]) == ([], 3)


def test_decompose_rejects_trailing_play():
    with pytest.raises(ModelError):
        decompose([W, P])


def test_decompose_round_trip():
    for u in range(1, 7):
        for l in range(-6, 0):
            iv = RecurrentInterval(u=u, l=l)
            seq = interval_action_sequence(iv)
            assert decompose(seq) == ([iv], 0)


def test_decompose_concatenation_reproduces_sequence():
    rng = stream(4, "misc")
    for _ in range(100):
        seq = [bool(rng.random() < 0.5) for _ in range(int(rng.integers(2, 40)))]
        seq = normalize_schedule(seq, -int(rng.integers(1, 4)))
        intervals, trailing = decompose(seq)
        rebuilt = []
        for iv in intervals:
            rebuilt.extend(interval_action_sequence(iv))
        rebuilt.extend([W] * trailing)
        assert rebuilt == seq


@given(plays=st.lists(st.booleans(), max_size=60), tau_L=st.integers(-4, -1))
def test_normalized_schedule_decomposes_and_round_trips(plays, tau_L):
    seq = normalize_schedule(plays, tau_L)
    intervals, trailing = decompose(seq)
    assert all(-iv.l <= -tau_L for iv in intervals)
    rebuilt = [a for iv in intervals for a in interval_action_sequence(iv)]
    assert rebuilt + [W] * trailing == seq
