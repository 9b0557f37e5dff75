"""``rng.outputs`` redoes numpy's SeedSequence and PCG64 seeding and output
in batch, and ``rng.uniforms`` and ``rng.bounded`` redo ``Generator.random``
and ``Generator.integers`` on its words; they must draw exactly what
``rng.stream`` draws, so a numpy release that seeds or draws differently
fails here."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BAD_SEEDS

from mlsd import rng
from mlsd.model import ModelError
from mlsd.rng import bounded, outputs, seed_range, stream, streams, uniforms

NAMES = sorted(rng._STREAMS)
# the seeds where a key grows from two entropy words to three, and the last seed
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
KEYS = st.tuples(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
                 st.sampled_from(NAMES))


@settings(max_examples=80, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=30))
@example(keys=[(seed, name) for seed in EDGE_SEEDS for name in NAMES])
def test_streams_draw_what_stream_draws(keys):
    # every key its own generator, in order, for lists of any length
    got = streams(keys)
    for key in keys:
        want, g = stream(*key), next(got)
        assert g.random(3).tolist() == want.random(3).tolist(), key
        highs = [2, 7, 2**31, 2**40]
        assert g.integers(highs).tolist() == [int(want.integers(h)) for h in highs], key
    assert next(got, None) is None


def test_stream_is_numpy_seeding_of_the_key():
    # the property above compares the batch with ``stream``; this pins ``stream``
    for seed in EDGE_SEEDS:
        key = np.random.SeedSequence((seed, rng._STREAMS["noise"]))
        want = np.random.Generator(np.random.PCG64(key))
        assert stream(seed, "noise").random(4).tolist() == want.random(4).tolist()


# cycle lengths around the 2**31 and 2**32 edges of Lemire's 32-bit method:
# 2**31 + 1 rejects about half its words, 2**32 - 1 almost none, 2**32 and
# above take numpy's other methods
HIGHS = st.one_of(st.integers(0, 100),
                  st.sampled_from([2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]),
                  st.integers(0, 2**62))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=8),
       names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
       highs=st.lists(HIGHS, min_size=1, max_size=6))
@example(seeds=EDGE_SEEDS, names=NAMES, highs=[0, 1, 2, 7, 2**31 + 1, 2**32])
def test_outputs_draw_what_stream_draws(seeds, names, highs):
    # the raw words, random() on them, and integers(x) for each x in turn on
    # every row that bounded() vouches for
    count = len(highs)
    got = outputs(seeds, names, count)
    assert got.shape == (len(names), len(seeds), count) and got.dtype == np.uint64
    for i, name in enumerate(names):
        values, exact = bounded(got[i], np.array([highs] * len(seeds), dtype=np.int64))
        for s, seed in enumerate(seeds):
            assert got[i, s].tolist() == stream(seed, name).bit_generator.random_raw(count).tolist()
            assert uniforms(got[i, s]).tolist() == stream(seed, name).random(count).tolist()
            g = stream(seed, name)
            drawn = [int(g.integers(x)) if x else 0 for x in highs]
            assert values[s].tolist() == drawn or not exact[s], (seed, name)
            assert exact[s] or any(x >= 2 for x in highs)


def test_bounded_flags_every_row_numpy_rejected_in():
    # 2**31 + 1 rejects a word when (w x) mod 2**32 < 2**31 - 1, about half
    # the time, and 2**31 - 1 flags as often though numpy keeps nearly every
    # word: every row whose draws differ from numpy's is flagged, and the
    # small cycle lengths of these seeds are vouched for
    seeds = list(range(2**32 - 20, 2**32 + 20))
    highs = np.array([[5, 2**31 + 1, 3, 2**31 + 1], [5, 2**31 - 1, 3, 9], [5, 7, 3, 9],
                      [2**32, 0, 0, 0]])
    got = outputs(seeds, ["offsets"], 2)[0]
    missed = []
    for row in highs:
        values, exact = bounded(got, np.tile(row, (len(seeds), 1)))
        for s, seed in enumerate(seeds):
            g = stream(seed, "offsets")
            drawn = [int(g.integers(x)) if x else 0 for x in row.tolist()]
            missed.append(values[s].tolist() != drawn)
            assert not missed[-1] or not exact[s], (seed, row)
        if row[0] == 2**32:
            assert not exact.any()
        elif row.max() < 10:
            assert exact.all()
    assert sum(missed) >= 10  # numpy really rejected words here


def test_outputs_check_each_seed_once(monkeypatch):
    # each seed goes through require_int once, for all the names
    real = rng.require_int
    for seeds in ([3, 2**64 - 1, 0], [3, np.uint64(2**64 - 1), 0]):
        checked = []
        monkeypatch.setattr(rng, "require_int", lambda what, value, **kw: checked.append(value)
                            or real(what, value, **kw))
        outputs(seeds, ["rounding", "offsets"], 2)
        assert checked == seeds


@pytest.mark.parametrize("seed, message", BAD_SEEDS.values(), ids=list(BAD_SEEDS))
def test_bad_seeds_are_refused(seed, message):
    calls = [lambda: stream(seed, "noise"), lambda: seed_range(seed, 1)]
    for count in (1, 10):  # one key and a batch of keys
        keys = [(0, "rounding")] * (count - 1) + [(seed, "offsets")]
        calls.append(lambda keys=keys: next(streams(keys)))
        seeds = [0] * (count - 1) + [seed]
        calls.append(lambda seeds=seeds: outputs(seeds, ["rounding", "offsets"], 2))
    for call in calls:
        with pytest.raises(ModelError) as info:
            call()
        assert str(info.value) == message


def test_seed_range_checks_its_last_seed():
    assert seed_range(2**64 - 3, 3) == range(2**64 - 3, 2**64)
    with pytest.raises(ModelError, match=r"the last seed must be <= 18446744073709551615, "
                                         r"got 18446744073709551616"):
        seed_range(2**64 - 3, 4)


@pytest.mark.parametrize("n_seeds", [0, -1, 1.5, True])
def test_seed_range_refuses_a_bad_seed_count(n_seeds):
    # checked before the seeds, so a bad count and a bad seed name the count
    for seed in (0, -1):
        with pytest.raises(ModelError, match=r"^n_seeds must be "):
            seed_range(seed, n_seeds)
