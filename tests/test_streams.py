"""Stream discipline: every named key must map to one and only one RNG."""

import hashlib

import numpy as np
import pytest

from sloclab.streams import each, generator

SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
PARTS = ("w", 5, 2**40, "cond-analytic", 2**32, "x")
# 1 to 7 parts, so from 1 to 13 entropy words: past SeedSequence's pool of 4
KEYS = [(seed, *PARTS[:n]) for n in range(7) for seed in SEEDS]


def numpy_generator(*key):
    """The reference: numpy's own SeedSequence and PCG64 constructors on the folded key."""
    words = [int.from_bytes(hashlib.sha256(p.encode()).digest()[:8], "little")
             if isinstance(p, str) else p % 2**64 for p in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def test_batched_states_match_numpy():
    # one batch mixes keys of every entropy word count
    states = [rng.bit_generator.state for rng in each(KEYS)]
    assert states == [numpy_generator(*key).bit_generator.state for key in KEYS]


def test_batched_draws_match_numpy():
    for key, rng in zip(KEYS[::-1], each(KEYS[::-1])):
        ref = numpy_generator(*key)
        # an odd uint32 count leaves half a word buffered; the next key must not see it
        assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32),
                              ref.integers(0, 2**32, 3, dtype=np.uint32))
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
        assert np.array_equal(rng.uniform(-1.0, 1.0, 4), ref.uniform(-1.0, 1.0, 4))


def test_kept_generators_draw_one_unbroken_run():
    # a path keeps its generator and draws its stream a chunk at a time
    rngs = list(each(KEYS))
    first = [rng.standard_normal(3) for rng in rngs]
    rest = [rng.standard_normal(5) for rng in rngs]
    for key, a, b in zip(KEYS, first, rest):
        assert np.array_equal(np.concatenate([a, b]), numpy_generator(*key).standard_normal(8))


def test_generator_is_one_key_of_a_batch():
    for key in KEYS:
        assert np.array_equal(generator(*key).standard_normal(8),
                              numpy_generator(*key).standard_normal(8))
    a, b = generator(3, "a"), generator(3, "b")
    assert a is not b  # each call builds its own generator
    assert list(each([])) == []


def test_negative_parts_fold_to_64_bits():
    assert generator(-1, "w").bit_generator.state == generator(2**64 - 1, "w").bit_generator.state


def test_same_key_same_sequence():
    a = generator(7, "drift", 3).standard_normal(64)
    b = generator(7, "drift", 3).standard_normal(64)
    assert np.array_equal(a, b)


def test_different_trailing_index_differs():
    a = generator(7, "drift", 3).standard_normal(64)
    b = generator(7, "drift", 4).standard_normal(64)
    assert not np.array_equal(a, b)


def test_different_salt_differs():
    a = generator(0, "w", 0).standard_normal(64)
    b = generator(0, "ks", 0).standard_normal(64)
    assert not np.array_equal(a, b)


def test_string_part_not_conflated_with_int():
    # "1" and 1 must hash to different streams
    a = generator(0, "1").standard_normal(16)
    b = generator(0, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_key_order_matters():
    a = generator("a", "b").standard_normal(16)
    b = generator("b", "a").standard_normal(16)
    assert not np.array_equal(a, b)


def test_large_seed_accepted():
    # anything up to 64 bits should be usable as a seed word
    g = generator(2**63 + 11, "tilt", 0)
    assert g.standard_normal(4).shape == (4,)


@pytest.mark.parametrize("bad", [1.5, True, None])
def test_non_string_non_int_parts_rejected(bad):
    with pytest.raises(TypeError):
        generator(0, bad)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        generator()
