"""Named, independent random streams derived from a single run seed.

Each phase of a run (interval rounding, offset draws, payoff noise, ...)
gets its own generator so that changing how much randomness one phase
consumes does not perturb the others. Streams are keyed by (seed, stream
index), so the same (seed, name) always yields the same stream. A seed is
an integer in [0, 2**64 - 1].

``outputs`` reads the first words of many streams at once, with no
generator: it runs numpy's ``SeedSequence`` pool hash and ``PCG64`` seeding
for every key together as uint32 and uint64 array arithmetic, then jumps
each PCG64 (O'Neill's XSL-RR, 2014) ahead to its first outputs in one pass.
``uniforms`` and ``bounded`` turn those words into what ``Generator.random``
and ``Generator.integers`` draw from them (Lemire's bounded integers, *ACM
TOMACS* 2019), bit for bit.
"""

from __future__ import annotations

from functools import cache
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

_MAX_SEED = 2**64 - 1

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1
# uint64 operands only: numpy 1.x turns uint64 with a Python int into float64
# in some operations, and numpy 2 (NEP 50) into uint64
_1, _11, _32, _58, _63, _64 = (np.uint64(b) for b in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(2**32 - 1)


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


def _index(name: str) -> int:
    try:
        return _STREAMS[name]
    except KeyError:
        raise KeyError(f"unknown stream {name!r}; known: {sorted(_STREAMS)}") from None


def _key(seed: int, name: str) -> tuple[int, int]:
    require_int("seed", seed, least=0, most=_MAX_SEED)
    return int(seed), _index(name)


def stream(seed: int, name: str) -> np.random.Generator:
    return next(streams([(seed, name)]))


def streams(keys: Sequence[tuple[int, str]]) -> Iterator[np.random.Generator]:
    """``stream(seed, name)`` for each ``(seed, name)`` key in turn, every
    key checked before the first generator is made."""
    keys = [_key(*k) for k in keys]
    return (np.random.Generator(np.random.PCG64(np.random.SeedSequence(k))) for k in keys)


def seed_range(seed: int, n_seeds: int) -> range:
    """``range(seed, seed + n_seeds)``, after checking n_seeds >= 1 and the first and last seed."""
    require_int("n_seeds", n_seeds, least=1)
    require_int("seed", seed, least=0, most=_MAX_SEED)
    require_int("the last seed", seed + n_seeds - 1, most=_MAX_SEED)
    return range(seed, seed + n_seeds)


def _pcg_seeds(entropy: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64's seed words ``(state_hi, state_lo, inc_hi, inc_lo)``, (N,)
    uint64 each, for each column of a (4, N) uint32 entropy matrix,
    zero-padded past each key's words: SeedSequence's pool hash and
    ``generate_state(4, uint64)`` as uint32 array arithmetic."""
    pool = (entropy ^ _XOR0) * _MUL0
    pool ^= pool >> 16
    for src in range(_POOL):
        h = (pool[src] ^ _XOR_MIX[src]) * _MUL_MIX[src]
        h ^= h >> 16
        old, pool = pool, _MIX_L * pool - _MIX_R * h
        pool ^= pool >> 16
        pool[src] = old[src]
    out = (np.concatenate([pool, pool]) ^ _XOR_OUT) * _MUL_OUT  # words 0-7 cycle the pool
    out ^= out >> 16
    out = out.astype(np.uint64)
    return tuple(out[0::2] | out[1::2] << _32)  # little-endian word pairs


def _limbs(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit ints as (count,) uint64 arrays: the high word, the low word,
    and the low word's high and low 32 bits."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
    return hi, lo, lo >> _32, lo & _LOW32


@cache
def _jumps(count: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The limbs of A_j = M**j and C_j = sum of M**i over i < j, modulo
    2**128, for j = 2..count + 1: PCG64's state after its seeding's last step
    and j - 1 more steps is A_j (state + inc) + C_j inc."""
    a, c, mults, incs = _PCG_MULT, 1, [], []
    for _ in range(count):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        mults.append(a)
        incs.append(c)
    return _limbs(mults), _limbs(incs)


def _mul(k: tuple[np.ndarray, ...], hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k v) modulo 2**128 as (hi, lo) limbs, for constants ``k`` from
    ``_limbs`` and v = hi 2**64 + lo: the low words' full product from 32-bit
    halves, plus both cross products' low words."""
    k_hi, k_lo, k1, k0 = k
    v1, v0 = lo >> _32, lo & _LOW32
    p01, p10 = k0 * v1, k1 * v0
    mid = (k0 * v0 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    top = k1 * v1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32) + k_lo * hi + k_hi * lo
    return top, k_lo * lo


def outputs(seeds: Sequence[int], names: Sequence[str], count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of the PCG64 of ``stream(seed,
    name)`` for every name and seed, (len(names), len(seeds), count) uint64:
    what its ``bit_generator.random_raw(count)`` returns. Each seed is
    checked once, before anything is drawn.

    Every key's seeding comes from ``_pcg_seeds``; output j is the XSL-RR of
    the state j steps past seeding, reached by the jump of ``_jumps``.
    """
    for s in seeds:
        require_int("seed", s, least=0, most=_MAX_SEED)
    idx = [_index(name) for name in names]
    # SeedSequence's entropy words: the seed's low word, its high word if
    # nonzero, the stream index, then zeros up to the pool
    seed = np.tile(np.array(seeds, dtype=np.uint64), len(idx))
    entropy = np.zeros((_POOL, seed.size), dtype=np.uint32)
    entropy[0], entropy[1] = seed, seed >> _32  # cast to 32 bits: low word, high word
    entropy[1 + (entropy[1] != 0), np.arange(seed.size)] = np.repeat(idx, len(seeds))
    s_hi, s_lo, i_hi, i_lo = (w[:, None] for w in _pcg_seeds(entropy))
    inc_hi, inc_lo = i_hi << _1 | i_lo >> _63, i_lo << _1 | _1  # PCG64's odd increment
    t_lo = s_lo + inc_lo
    t_hi = s_hi + inc_hi + (t_lo < s_lo)
    mults, incs = _jumps(count)
    a_hi, a_lo = _mul(mults, t_hi, t_lo)
    c_hi, c_lo = _mul(incs, inc_hi, inc_lo)
    lo = a_lo + c_lo
    hi = a_hi + c_hi + (lo < a_lo)
    # XSL-RR: the two words' xor, rotated right by the state's top 6 bits
    x, r = hi ^ lo, hi >> _58
    return (x >> r | x << ((_64 - r) & _63)).reshape(len(idx), len(seeds), count)


def uniforms(out: np.ndarray) -> np.ndarray:
    """What ``Generator.random`` draws from PCG64 outputs ``out``, one
    float each: the output's top 53 bits over 2**53."""
    return (out >> _11).astype(np.float64) * 2.0**-53


def bounded(out: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``integers(x)`` returns for each x of row s of ``highs`` in turn,
    drawn from the (S, count) PCG64 outputs ``out`` of row s's stream, with
    2 count >= m: (S, m) int64, and 0 where x <= 1 draws nothing.

    Each x >= 2 takes the next 32-bit word, an output's low half and then its
    high half, and returns (w x) >> 32 (Lemire). numpy rejects the word and
    takes another where (w x) mod 2**32 falls below (2**32 - x) mod x, and
    x >= 2**32 takes numpy's other methods. So the second result, (S,) bool,
    is False for a row where some x >= 2 has (w x) mod 2**32 < x or x >=
    2**32: that row's values need not be numpy's.
    """
    words = np.ascontiguousarray(out, dtype="<u8").view("<u4")  # each low half, then high
    draws = highs >= 2
    w = np.take_along_axis(words, np.cumsum(draws, axis=1) - 1, axis=1)  # -1 where none yet
    x = highs.astype(np.uint64)
    wx = w * x
    values = ((wx >> _32) * draws).astype(np.int64)
    exact = ~(draws & ((wx & _LOW32) < x) | (highs >= 2**32)).any(axis=1)
    return values, exact
