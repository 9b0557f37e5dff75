"""``rng.streams`` seeds many generators at once by redoing numpy's
SeedSequence and PCG64 seeding in batch; it must draw exactly what
``rng.stream`` draws, so a numpy release that seeds differently fails here."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsd import rng
from mlsd.rng import stream, streams

KEYS = st.tuples(
    st.integers(0, 2**70),
    st.sampled_from(sorted(rng._STREAMS)),
    st.lists(st.integers(0, 2**40), max_size=2),
)


@settings(max_examples=80, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=3 * rng._BATCH_KEYS))
def test_streams_draw_what_stream_draws(keys):
    # seeds past 2**64 and extras make keys of up to 8 entropy words, so the
    # batch sees keys past its four-word pool as well
    keys = [(seed, name, *extra) for seed, name, extra in keys]
    got = streams(keys)
    for key in keys:
        want, g = stream(*key), next(got)
        assert g.random(3).tolist() == want.random(3).tolist(), key
        highs = [2, 7, 2**31, 2**40]
        assert g.integers(highs).tolist() == [int(want.integers(h)) for h in highs], key
    assert next(got, None) is None


def test_streams_batch_from_the_threshold():
    # below the threshold every key gets its own generator, from it on one
    # generator is re-seeded for each key
    def distinct(count):
        return len({id(g) for g in list(streams([(s, "rounding") for s in range(count)]))})

    assert distinct(rng._BATCH_KEYS - 1) == rng._BATCH_KEYS - 1
    assert distinct(rng._BATCH_KEYS) == 1
    assert distinct(rng._BATCH_KEYS + 1) == 1
