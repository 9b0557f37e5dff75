"""Named, independent random streams derived from a single run seed.

Each phase of a run (interval rounding, offset draws, payoff noise, ...)
gets its own generator so that changing how much randomness one phase
consumes does not perturb the others. Streams are keyed by (seed, stream
index), so the same (seed, name) always yields the same stream. A seed is
an integer in [0, 2**64 - 1].

``streams`` builds many such generators at once: it runs numpy's
``SeedSequence`` pool hash and ``PCG64`` seeding for all of them together,
which gives the same generator states bit for bit at a fraction of the cost
per stream.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .model import require_int

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

_MAX_SEED = 2**64 - 1

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hash steps and after the
    last, ``init * mult**i`` modulo 2**32, as a (count + 1, 1) uint32 column."""
    return (np.uint32(init) * np.uint32(mult) ** np.arange(count + 1, dtype=np.uint32))[:, None]


def _mix_constants():
    """SeedSequence mixes its pool with 16 hash steps: word i alone (steps
    0-3), then every source word into every other word, sources in order
    (steps 4-15). Per source, rows 0-3 hold the steps into each destination
    word; the source's own row holds 0, 0, so its hash is 0."""
    a = _hash_constants(_INIT_A, _MULT_A, 16)
    src, dst = np.nonzero(~np.eye(_POOL, dtype=bool))  # steps 4-15 in order
    xor, mul = np.zeros((2, _POOL, _POOL, 1), dtype=np.uint32)
    xor[src, dst], mul[src, dst] = a[_POOL:-1], a[_POOL + 1:]
    return a[:_POOL], a[1:_POOL + 1], xor, mul


_XOR0, _MUL0, _XOR_MIX, _MUL_MIX = _mix_constants()
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_XOR_OUT, _MUL_OUT = _B[:-1], _B[1:]


def _key(seed: int, name: str) -> tuple[int, int]:
    require_int("seed", seed, least=0, most=_MAX_SEED)
    try:
        idx = _STREAMS[name]
    except KeyError:
        raise KeyError(f"unknown stream {name!r}; known: {sorted(_STREAMS)}") from None
    return int(seed), idx


def stream(seed: int, name: str) -> np.random.Generator:
    return next(streams([(seed, name)]))


def seed_range(seed: int, n_seeds: int) -> range:
    """``range(seed, seed + n_seeds)``, after checking n_seeds >= 1 and the first and last seed."""
    require_int("n_seeds", n_seeds, least=1)
    require_int("seed", seed, least=0, most=_MAX_SEED)
    require_int("the last seed", seed + n_seeds - 1, most=_MAX_SEED)
    return range(seed, seed + n_seeds)


def _pcg_states(entropy: np.ndarray) -> Iterator[tuple[int, int]]:
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
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def streams(keys: Sequence[tuple[int, str]]) -> Iterator[np.random.Generator]:
    """``stream(seed, name)`` for each ``(seed, name)`` key in turn, the same
    generator draw for draw.

    From _BATCH_KEYS keys on, the generators are seeded in one batch and
    yielded as one reused Generator set to each key's state, so draw from
    each before taking the next.
    """
    keys = [_key(*k) for k in keys]
    if len(keys) < _BATCH_KEYS:
        yield from (np.random.Generator(np.random.PCG64(np.random.SeedSequence(k))) for k in keys)
        return
    # SeedSequence's entropy words: the seed's low word, its high word if
    # nonzero, the stream index, then zeros up to the pool
    seed, idx = np.array(keys, dtype=np.uint64).T
    entropy = np.zeros((_POOL, len(keys)), dtype=np.uint32)
    entropy[0], entropy[1] = seed, seed >> np.uint64(32)  # cast to 32 bits: low word, high word
    entropy[1 + (entropy[1] != 0), np.arange(len(keys))] = idx
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for state, inc in _pcg_states(entropy):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield gen
