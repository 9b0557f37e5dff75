import numpy as np
import pytest

from mlsd.model import (
    Instance,
    ModelError,
    PayoffTable,
    initial_states,
    instance_from_dict,
    instance_to_dict,
    random_instance,
    step_environment,
    transition,
)
from mlsd.analysis import make_step_instance, make_tight_instance
from mlsd.rng import stream


def test_transition_rules():
    assert transition(3, True) == -1
    assert transition(-2, False) == 1
    assert transition(-2, True) == -3
    assert transition(5, False) == 6


def test_transition_rejects_zero():
    with pytest.raises(ModelError):
        transition(0, True)


def test_transition_never_zero():
    for tau in list(range(-6, 0)) + list(range(1, 7)):
        for played in (False, True):
            out = tau
            for _ in range(20):
                out = transition(out, played)
                assert out != 0


def test_step_instance_payoffs():
    inst = make_step_instance()
    assert inst.payoff(0, -1) == 1.0
    assert inst.payoff(0, -2) == 0.0
    assert inst.payoff(0, 1) == 1.0


def test_saturation_clamp():
    inst = make_step_instance()
    assert inst.payoff(0, inst.tau_max + 7) == inst.payoff(0, inst.tau_max)
    assert inst.payoff(0, inst.tau_min - 5) == inst.payoff(0, inst.tau_min)


def test_threshold_instance_payoffs():
    inst = make_tight_instance(1, 3)
    assert inst.payoff(0, 2) == 0.0
    assert inst.payoff(0, 3) == 1.0


def test_arm_index_out_of_range():
    inst = make_step_instance()
    with pytest.raises(ModelError):
        inst.payoff(1, 1)


def test_step_environment_examples():
    two = Instance(k=2, payoffs=make_tight_instance(1, 2).payoffs)
    assert step_environment(two, (1, 1), {0}) == (-1, 2)
    assert step_environment(two, (-1, 4), set()) == (1, 5)
    assert step_environment(two, (-3, 2), {0, 1}) == (-4, -1)


def test_step_environment_rejects_oversized_plays():
    inst = make_tight_instance(1, 2)  # k=1, n=2
    with pytest.raises(ModelError):
        step_environment(inst, (1, 1), {0, 1})


def test_table_rejects_non_monotone():
    with pytest.raises(ModelError):
        PayoffTable(tau_min=-1, tau_max=1, values=(0.5, 0.2))
    with pytest.raises(ModelError):
        PayoffTable(tau_min=-1, tau_max=1, values=(0.0, 1.5))


def test_instance_validation():
    table = PayoffTable(tau_min=-1, tau_max=1, values=(0.0, 1.0))
    with pytest.raises(ModelError):
        Instance(k=0, payoffs=(table,))
    with pytest.raises(ModelError):
        Instance(k=3, payoffs=(table, table))
    for k in (1.5, 1.0, True):
        with pytest.raises(ModelError, match="integer"):
            Instance(k=k, payoffs=(table, table))
    other = PayoffTable(tau_min=-2, tau_max=1, values=(0.0, 0.0, 1.0))
    with pytest.raises(ModelError):
        Instance(k=1, payoffs=(table, other))


def test_payoff_monotone_over_clipped_domain():
    inst = random_instance(3, 1, 4, -3, stream(7, "instance"))
    for arm in range(inst.n):
        vals = [inst.payoff(arm, tau) for tau in list(range(-3, 0)) + list(range(1, 5))]
        assert vals == sorted(vals)


def _clip_step(tau, played, tau_min, tau_max):
    if played:
        return max(tau - 1, tau_min) if tau < 0 else -1
    return 1 if tau < 0 else min(tau + 1, tau_max)


def test_clipping_equivalence():
    # payoff streams agree between raw states and clip-and-hold states
    rng = stream(42, "misc")
    for trial in range(25):
        inst = random_instance(3, 2, 3, -2, stream(trial, "instance"))
        raw = list(initial_states(inst.n))
        clipped = list(raw)
        for _ in range(40):
            played = {i for i in range(inst.n) if rng.random() < 0.4}
            played = set(list(played)[: inst.k])
            raw_pay = sum(inst.payoff(i, raw[i]) for i in played)
            clip_pay = sum(inst.payoff(i, clipped[i]) for i in played)
            assert raw_pay == pytest.approx(clip_pay, abs=0.0)
            raw = [transition(t, i in played) for i, t in enumerate(raw)]
            clipped = [
                _clip_step(t, i in played, inst.tau_min, inst.tau_max)
                for i, t in enumerate(clipped)
            ]


def test_instance_json_round_trip(tmp_path):
    inst = random_instance(3, 2, 3, -2, stream(5, "instance"))
    d = instance_to_dict(inst)
    back = instance_from_dict(d)
    assert back == inst
    assert d["payoffs"][0] == list(inst.payoffs[0].values)


def test_instance_from_dict_names_missing_key():
    d = instance_to_dict(make_step_instance())
    del d["payoffs"]
    with pytest.raises(ModelError, match="missing the key 'payoffs'"):
        instance_from_dict(d)
