"""Deterministic RNG stream derivation.

Every stochastic routine takes a stream key instead of a shared generator.
A key is a tuple of ints and short strings, e.g. ``(seed, path_index, "w")``;
the generator it produces depends only on the key, never on call order.  This
is what makes ensembles reproducible under any chunking or worker count, and
what lets the exact and Euler-Maruyama drivers share Brownian increments for
a common path index (same ``(seed, i, "w")`` key on both sides).

A key's generator is numpy's ``PCG64(SeedSequence(words))``, where ``words``
are the key's parts folded to 64 bits.  Building numpy's objects costs about
20 us a key (numpy 2.4 on x86-64), which an ensemble pays twice a path, so
`each` computes the PCG64 states of a whole batch of keys at once:
SeedSequence's pool mixing runs over uint32 arrays, one row per key, and
PCG64's 128-bit set-seed step runs on Python ints.  `generator` takes the
same route for one key.  The tests check states and draws bit for bit
against numpy's constructors.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Iterator

import numpy as np

StreamKey = tuple

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _fold(key_part) -> int:
    if isinstance(key_part, (bool, float)):
        raise TypeError(f"stream key parts must be int or str, got {key_part!r}")
    if isinstance(key_part, (int, np.integer)):
        return int(key_part) & _MASK64
    if isinstance(key_part, str):
        return _fold_str(key_part)
    raise TypeError(f"stream key parts must be int or str, got {key_part!r}")


@functools.lru_cache(maxsize=256)  # a batch repeats its few names once per key
def _fold_str(key_part: str) -> int:
    digest = hashlib.sha256(key_part.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _entropy_words(key) -> list[int]:
    """SeedSequence's uint32 entropy of a key: each folded part, low word first.

    A part below 2^32 is one word (zero included), any other part two.
    """
    if not key:
        raise ValueError("empty stream key")
    words = []
    for part in key:
        value = _fold(part)
        words.append(value & _MASK32)
        if value >> 32:
            words.append(value >> 32)
    return words


class _HashConst:
    """SeedSequence's running hash constant, identical for every key of a batch."""

    def __init__(self, init: int, mult: int):
        self.value = init
        self.mult = mult

    def hashmix(self, words: np.ndarray) -> np.ndarray:
        words = words ^ np.uint32(self.value)
        self.value = self.value * self.mult & _MASK32
        words = words * np.uint32(self.value)
        return words ^ (words >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ (out >> _XSHIFT)


def _seed_words(keys) -> list[list[int]]:
    """``SeedSequence(words).generate_state(4, uint64)`` for every key.

    Returns the four uint64 words as four lists of Python ints, one entry per key.

    The rows are the keys' entropy words, padded with zeros to the longest;
    a zero word below the pool size mixes exactly as a missing one, and a
    word past a key's length leaves that key's pool unchanged.
    """
    entropy = [_entropy_words(key) for key in keys]
    lengths = np.array([len(words) for words in entropy])
    width = max(_POOL_SIZE, int(lengths.max(initial=0)))
    rows = np.zeros((len(entropy), width), np.uint32)
    rows[np.arange(width) < lengths[:, None]] = [w for words in entropy for w in words]

    hash_a = _HashConst(_INIT_A, _MULT_A)
    pool = [hash_a.hashmix(rows[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a.hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        more = lengths > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(more, _mix(pool[dst], hash_a.hashmix(rows[:, src])),
                                 pool[dst])

    hash_b = _HashConst(_INIT_B, _MULT_B)
    state = [hash_b.hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [(state[2 * i] | state[2 * i + 1] << np.uint64(32)).tolist() for i in range(4)]


def _pcg64_states(keys) -> Iterator[dict]:
    """PCG64's state dict for every key: numpy's ``pcg64_set_seed`` on 128-bit ints."""
    for s0, s1, i0, i1 in zip(*_seed_words(keys)):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def each(keys: Iterable[StreamKey]) -> Iterator[np.random.Generator]:
    """Yield the generator of every key in turn, all states computed at once.

    One generator object is reseeded for each key, so a yielded generator is
    valid only until the next one is drawn.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for state in _pcg64_states(list(keys)):
        rng.bit_generator.state = state
        yield rng


def generator(*key) -> np.random.Generator:
    """Build the generator addressed by ``key`` (ints and strs, any length)."""
    return next(each([key]))
