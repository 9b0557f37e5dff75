"""Named, independent random streams derived from a single run seed.

Each phase of a run (interval rounding, offset draws, payoff noise, ...)
gets its own generator so that changing how much randomness one phase
consumes does not perturb the others. Streams are keyed by (seed, stream
index, extra ints), so the same (seed, name) always yields the same stream.

``streams`` builds many such generators at once: it runs numpy's
``SeedSequence`` pool hash and ``PCG64`` seeding for all of them together,
which gives the same generator states bit for bit at a fraction of the cost
per stream.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np

_STREAMS = {
    "instance": 0,
    "rounding": 1,
    "offsets": 2,
    "noise": 3,
    "perturb": 4,
    "misc": 5,
}

# Keys from which ``streams`` seeds in one batch: 3 seeds of
# ``planner.round_intervals``, which takes two keys a seed. The batch costs
# about 70 us fixed and 4 us a key, a ``stream`` call about 15 us; measured,
# 4 keys took 84 us batched against 55 us one by one, 6 keys 86 against 91.
_BATCH_KEYS = 6

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hash steps and after the
    last, as a (count + 1, 1) uint32 column."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c, dtype=np.uint32)[:, None]


def _mix_constants():
    """SeedSequence mixes its pool with 16 hash steps: word i alone (steps
    0-3), then every source word into every other word, sources in order
    (steps 4-15). Per source, rows 0-3 hold the steps into each destination
    word; the source's own row holds 0, 0, so its hash is 0."""
    a = _hash_constants(_INIT_A, _MULT_A, 16)
    xor = np.zeros((_POOL, _POOL, 1), dtype=np.uint32)
    mul = np.zeros((_POOL, _POOL, 1), dtype=np.uint32)
    for src in range(_POOL):
        for j, dst in enumerate(d for d in range(_POOL) if d != src):
            step = _POOL + (_POOL - 1) * src + j
            xor[src, dst], mul[src, dst] = a[step], a[step + 1]
    return a[:_POOL], a[1:_POOL + 1], xor, mul


_XOR0, _MUL0, _XOR_MIX, _MUL_MIX = _mix_constants()
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_XOR_OUT, _MUL_OUT = _B[:-1], _B[1:]


def _key(seed: int, name: str, *extra: int) -> tuple[int, ...]:
    try:
        idx = _STREAMS[name]
    except KeyError:
        raise KeyError(f"unknown stream {name!r}; known: {sorted(_STREAMS)}") from None
    return (int(seed), idx) + tuple(int(e) for e in extra)


def _generator(key: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def stream(seed: int, name: str, *extra: int) -> np.random.Generator:
    return _generator(_key(seed, name, *extra))


def _words(key: tuple[int, ...]) -> list[int]:
    """SeedSequence's entropy words of ``key``: each int as its 32-bit words,
    least significant first, and 0 as one word."""
    out = []
    for v in key:
        if v < 0:
            raise ValueError("expected non-negative integer")
        out.append(v & _MASK32)
        v >>= 32
        while v:
            out.append(v & _MASK32)
            v >>= 32
    return out


def _pcg_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` for each column of a (4, N) uint32 entropy
    matrix, zero-padded past each key's words: SeedSequence's pool hash and
    ``generate_state(4, uint64)`` as uint32 array arithmetic, then PCG64's
    128-bit seeding on Python ints."""
    pool = (entropy ^ _XOR0) * _MUL0
    pool ^= pool >> 16
    for src in range(_POOL):
        h = (pool[src] ^ _XOR_MIX[src]) * _MUL_MIX[src]
        h ^= h >> 16
        keep = pool[src].copy()
        pool = _MIX_L * pool - _MIX_R * h
        pool ^= pool >> 16
        pool[src] = keep
    out = (np.concatenate([pool, pool]) ^ _XOR_OUT) * _MUL_OUT  # words 0-7 cycle the pool
    out ^= out >> 16
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def streams(keys: Sequence[tuple]) -> Iterator[np.random.Generator]:
    """``stream(*key)`` for each ``(seed, name, *extra)`` key in turn, the
    same generator draw for draw.

    From _BATCH_KEYS keys on, the generators are seeded in one batch and
    yielded as one reused Generator set to each key's state, so draw from
    each before taking the next. A key of more than four entropy words (a
    seed past 2**96, or extras) still goes through ``stream``.
    """
    keys = [_key(*k) for k in keys]
    if len(keys) < _BATCH_KEYS:
        yield from map(_generator, keys)
        return
    words = [_words(key) for key in keys]
    short = [w for w in words if len(w) <= _POOL]
    padded = chain.from_iterable(w + [0] * (_POOL - len(w)) for w in short)
    states = iter(_pcg_states(np.fromiter(padded, np.uint32).reshape(-1, _POOL).T))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for key, w in zip(keys, words):
        if len(w) > _POOL:
            yield _generator(key)
            continue
        state, inc = next(states)
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield gen
