import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import interval_action_sequence

from mlsd.analysis import make_step_instance
from mlsd.intervals import (
    IntervalError,
    RecurrentInterval,
    aggregated_payoff,
    decompose,
    normalize_schedule,
)
from mlsd.model import random_instance, transition
from mlsd.rng import stream


def test_trajectory_examples():
    i32 = RecurrentInterval(u=3, l=-2)
    assert i32.prescribes_play(3)
    assert i32.prescribes_play(-1)
    assert not i32.prescribes_play(-2)
    assert not i32.prescribes_play(1)
    assert not i32.prescribes_play(2)

    i11 = RecurrentInterval(u=1, l=-1)
    assert i11.prescribes_play(1)
    assert not i11.prescribes_play(-1)

    i51 = RecurrentInterval(u=5, l=-1)
    plays = [tau for tau in [-1, 1, 2, 3, 4, 5] if i51.prescribes_play(tau)]
    assert plays == [5]


def test_trajectory_rejects_outside_states():
    i32 = RecurrentInterval(u=3, l=-2)
    with pytest.raises(IntervalError):
        i32.prescribes_play(4)
    with pytest.raises(IntervalError):
        i32.step(-3)


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
            assert iv.step(cyc[-1]) == cyc[0]


def test_step_matches_model_transition():
    iv = RecurrentInterval(u=4, l=-3)
    for tau in iv.cycle_states():
        assert iv.step(tau) == transition(tau, iv.prescribes_play(tau))


def test_length_and_plays():
    iv = RecurrentInterval(u=3, l=-2)
    assert iv.length == 5
    assert iv.plays_per_cycle == 2
    assert RecurrentInterval(u=1, l=-1).length == 2
    assert RecurrentInterval(u=1, l=-1).plays_per_cycle == 1
    assert RecurrentInterval(u=4, l=-3).length == 7


def test_aggregated_payoff_examples():
    inst = make_step_instance()
    # l = -1 leaves only the first play
    assert aggregated_payoff(inst, 0, RecurrentInterval(u=1, l=-1)) == 1.0
    assert aggregated_payoff(inst, 0, RecurrentInterval(u=1, l=-2)) == 2.0


def test_aggregated_payoff_bounded_by_plays():
    inst = random_instance(2, 1, 3, -3, stream(3, "instance"))
    for u in range(1, 4):
        for l in range(-3, 0):
            iv = RecurrentInterval(u=u, l=l)
            assert aggregated_payoff(inst, 0, iv) <= iv.plays_per_cycle + 1e-12


def test_aggregated_payoff_equals_one_period_simulation():
    # independent check: run one period from state 1 playing per the cycle
    for seed in range(10):
        inst = random_instance(2, 1, 4, -3, stream(seed, "instance"))
        for u in (1, 2, 4):
            for l in (-1, -3):
                iv = RecurrentInterval(u=u, l=l)
                tau, total = 1, 0.0
                for _ in range(iv.length):
                    play = iv.prescribes_play(tau)
                    if play:
                        total += inst.payoff(1, tau)
                    tau = transition(tau, play)
                assert total == pytest.approx(aggregated_payoff(inst, 1, iv))


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
    with pytest.raises(IntervalError):
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
