"""``rng.streams`` seeds many generators at once by redoing numpy's
SeedSequence and PCG64 seeding in batch; it must draw exactly what
``rng.stream`` draws, so a numpy release that seeds differently fails here."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BAD_SEEDS

from mlsd import rng
from mlsd.model import ModelError
from mlsd.rng import seed_range, stream, streams

NAMES = sorted(rng._STREAMS)
# the seeds where a key grows from two entropy words to three, and the last seed
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
KEYS = st.tuples(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
                 st.sampled_from(NAMES))


@settings(max_examples=80, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=3 * rng._BATCH_KEYS))
@example(keys=[(seed, name) for seed in EDGE_SEEDS for name in NAMES])
def test_streams_draw_what_stream_draws(keys):
    # lists below and from _BATCH_KEYS on take the per-key and the batched path
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


def test_streams_batch_from_the_threshold():
    # below the threshold every key gets its own generator, from it on one
    # generator is re-seeded for each key
    def distinct(count):
        return len({id(g) for g in list(streams([(s, "rounding") for s in range(count)]))})

    assert distinct(rng._BATCH_KEYS - 1) == rng._BATCH_KEYS - 1
    assert distinct(rng._BATCH_KEYS) == 1
    assert distinct(rng._BATCH_KEYS + 1) == 1


@pytest.mark.parametrize("seed, message", BAD_SEEDS.values(), ids=list(BAD_SEEDS))
def test_bad_seeds_are_refused(seed, message):
    calls = [lambda: stream(seed, "noise"), lambda: seed_range(seed, 1)]
    for count in (1, rng._BATCH_KEYS):  # the per-key and the batched path
        keys = [(0, "rounding")] * (count - 1) + [(seed, "offsets")]
        calls.append(lambda keys=keys: next(streams(keys)))
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
