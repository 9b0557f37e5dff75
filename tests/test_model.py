import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import initial_states, normalize_schedule, step_environment

import mlsd
from mlsd import model
from mlsd.model import (
    Instance,
    ModelError,
    PayoffTable,
    column_state,
    instance_from_dict,
    instance_to_dict,
    random_instance,
    state_column,
    transition,
)
from mlsd.analysis import make_step_instance, make_tight_instance
from mlsd.intervals import RecurrentInterval
from mlsd.learning import exploration_length
from mlsd.lp import build_lp
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
    tight = make_tight_instance(1, 2)
    two = Instance(k=2, tau_min=tight.tau_min, tau_max=tight.tau_max, means=tight.means)
    assert step_environment(two, (1, 1), {0}) == (-1, 2)
    assert step_environment(two, (-1, 4), set()) == (1, 5)
    assert step_environment(two, (-3, 2), {0, 1}) == (-4, -1)


def test_step_environment_rejects_oversized_plays():
    inst = make_tight_instance(1, 2)  # k=1, n=2
    with pytest.raises(ModelError):
        step_environment(inst, (1, 1), {0, 1})


def test_table_rejects_non_monotone():
    with pytest.raises(ModelError):
        Instance(k=1, tau_min=-1, tau_max=1, means=[[0.5, 0.2]])
    with pytest.raises(ModelError):
        Instance(k=1, tau_min=-1, tau_max=1, means=[[0.0, 1.5]])


def test_instance_validation():
    row = [0.0, 1.0]
    with pytest.raises(ModelError):
        Instance(k=0, tau_min=-1, tau_max=1, means=[row])
    with pytest.raises(ModelError):
        Instance(k=3, tau_min=-1, tau_max=1, means=[row, row])
    for k in (1.5, 1.0, True):
        with pytest.raises(ModelError, match="integer"):
            Instance(k=k, tau_min=-1, tau_max=1, means=[row, row])
    other = [0.0, 0.0, 1.0]
    with pytest.raises(ModelError):
        Instance(k=1, tau_min=-1, tau_max=1, means=[row, other])


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
    assert type(back) is Instance
    assert (back.k, back.tau_min, back.tau_max) == (inst.k, inst.tau_min, inst.tau_max)
    assert np.array_equal(back.means, inst.means)
    assert d["payoffs"][0] == list(inst.means[0])


def test_instance_from_dict_names_missing_key():
    d = instance_to_dict(make_step_instance())
    del d["payoffs"]
    with pytest.raises(ModelError, match="missing the key 'payoffs'"):
        instance_from_dict(d)


def test_payoff_table_is_a_read_only_copy():
    rows = np.array([[0.5, 0.2]])
    table = PayoffTable(k=1, tau_min=-1, tau_max=1, means=rows)  # need not be monotone
    rows[0, 0] = 0.0
    assert table.means.tolist() == [[0.5, 0.2]]
    with pytest.raises(ValueError):
        table.means[0, 0] = 1.0


@pytest.mark.parametrize("change, message", [
    ({"payoffs": [["0.0", 1.0, 1.0]]}, "payoffs must be rows of numbers"),
    ({"payoffs": [[0.0, True, 1.0]]}, "payoffs must be rows of numbers"),
    ({"payoffs": [[0.0, float("nan"), 1.0]]}, "payoff nan outside [0, 1]"),
    ({"payoffs": [[0.0, 1.0, 1.5]]}, "payoff 1.5 outside [0, 1]"),
    ({"payoffs": [[-0.5, 1.0, 1.0]]}, "payoff -0.5 outside [0, 1]"),
    ({"tau_max": 2.5}, "tau_max must be an integer, got 2.5"),
    ({"tau_min": -2.0}, "tau_min must be an integer, got -2.0"),
    ({"payoffs": [[0.0, 1.0, 1.0], [0.0, 1.0]], "n": 2}, "expected 3 values in every payoff row"),
    ({"payoffs": [[0.0, 1.0]]}, "expected 3 values, got 2"),
    ({"payoffs": [], "n": 0}, "instance needs at least one arm"),
    ({"n": 2}, "n=2 does not match 1 payoff rows"),
], ids=["string", "bool", "nan", "above-1", "below-0", "fractional-tau_max", "float-tau_min",
        "ragged", "short-row", "no-arms", "n-mismatch"])
def test_instance_from_dict_rejects_bad_tables(change, message):
    d = instance_to_dict(make_step_instance())
    d.update(change)
    with pytest.raises(ModelError) as info:
        instance_from_dict(d)
    assert str(info.value) == message


def test_table_rejects_bool_among_numbers():
    # np.array would read the bool as 1.0 next to the numbers
    for rows in ([[0.0, True]], [np.array([0.0, 1.0]), np.array([True, False])]):
        with pytest.raises(ModelError, match="payoffs must be rows of numbers"):
            PayoffTable(k=1, tau_min=-1, tau_max=1, means=rows)
    assert PayoffTable(k=1, tau_min=-1, tau_max=1, means=[[0, 1]]).means.tolist() == [[0.0, 1.0]]


@given(
    tau_min=st.integers(-6, -1),
    tau_max=st.integers(1, 6),
    taus=st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=20),
)
def test_state_column_scalar_array_inverse_and_clamp(tau_min, tau_max, taus):
    cols = state_column(np.array(taus), tau_min, tau_max)
    assert cols.tolist() == [int(state_column(t, tau_min, tau_max)) for t in taus]
    width = tau_max - tau_min
    states = column_state(np.arange(width), tau_min)
    assert states.tolist() == [t for t in range(tau_min, tau_max + 1) if t != 0]
    assert state_column(states, tau_min, tau_max).tolist() == list(range(width))
    for tau, col in zip(taus, cols.tolist()):
        clamped = min(max(tau, tau_min), tau_max)
        assert col == state_column(clamped, tau_min, tau_max)
        assert column_state(col, tau_min) == clamped


@pytest.mark.parametrize("refuse, message", [
    (lambda: build_lp(make_step_instance(), 0), "tau_L must be <= -1, got 0"),
    (lambda: normalize_schedule([True, False], 0), "tau_L must be <= -1, got 0"),
    (lambda: exploration_length(1, 1, 1, 0, 1), "tau_L must be <= -1, got 0"),
    (lambda: RecurrentInterval(1, 0), "l must be <= -1, got 0"),
    (lambda: PayoffTable(k=1, tau_min=0, tau_max=1, means=[[0.5]]),
     "need tau_min < 0 < tau_max, got [0, 1]"),
    (lambda: PayoffTable(k=1, tau_min=-1, tau_max=0, means=[[0.5]]),
     "need tau_min < 0 < tau_max, got [-1, 0]"),
], ids=["build_lp", "normalize_schedule", "exploration_length", "interval", "tau_min-0",
        "tau_max-0"])
def test_bounds_refused(refuse, message):
    with pytest.raises(ModelError) as info:
        refuse()
    assert str(info.value) == message


def test_unknown_stream_name_refused():
    with pytest.raises(KeyError, match="unknown stream 'round'; known: "):
        stream(0, "round")


def test_random_instance_refuses_oversized_table_before_drawing(no_draws):
    # 3 rows of 10**9 + 2 uniforms would take about 24 GB
    with pytest.raises(ModelError,
                       match="a random 3 x 1000000002 payoff table has more than 16777216 cells"):
        random_instance(3, 1, 10**9, -2, no_draws)


def test_random_instance_cap_boundary(monkeypatch, no_draws):
    monkeypatch.setattr(model, "_MAX_RANDOM_CELLS", 6)
    assert random_instance(2, 1, 1, -2, stream(0, "instance")).means.shape == (2, 3)
    with pytest.raises(ModelError, match="a random 2 x 4 payoff table has more than 6 cells"):
        random_instance(2, 1, 2, -2, no_draws)


def test_every_library_error_refuses_input_but_planner_error():
    # ModelError is the one type for refused input; PlannerError alone marks
    # a broken invariant, so a new module-specific error type fails here
    errors = {}
    for info in pkgutil.iter_modules(mlsd.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"mlsd.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                errors[name] = obj
    assert sorted(errors) == [
        "ExplorationTooLongError", "ModelError", "OracleBudgetError", "PlannerError",
    ]
    for name, cls in errors.items():
        assert issubclass(cls, ModelError) == (name != "PlannerError"), name
