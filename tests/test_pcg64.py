"""``egl._pcg64`` draws what ``numpy.random.default_rng`` draws, bit for
bit, for every draw ``statics`` makes."""

import random

import numpy as np
import pytest

from egl._pcg64 import Generator

#: Integer ranges: one value (no draw), small ones like a family's goods
#: count, 2**31 + 1 (Lemire rejects about half of its draws), and the
#: widest the 32-bit method takes.
_SPANS = (1, 2, 3, 999, 2**31 + 1, 2**32 - 1, 2**32)


def seed_word(rnd: random.Random) -> int:
    """A seed of 0 to 5 32-bit words, so some seeds fill the pool of four
    and some run past it."""
    return rnd.getrandbits(rnd.choice((0, 1, 31, 32, 33, 64, 65, 130)))


def test_streams_match_numpy():
    rnd = random.Random(26)
    for stream in range(2500):
        seed = [seed_word(rnd), rnd.randrange(1000)]
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        # two integer draws in a row: the second reads the high half
        # numpy kept from the first's 64-bit draw
        draws = ["integers", "integers",
                 *rnd.choices(("uniform", "integers"), k=10)]
        for kind in draws:
            if kind == "uniform":
                low = rnd.uniform(-10.0, 10.0)
                high = low + rnd.choice((0.0, 1e-9, rnd.uniform(0, 100)))
                got, want = ours.uniform(low, high), theirs.uniform(low, high)
            else:
                low = rnd.randrange(-5, 5)
                high = low + rnd.choice(_SPANS)
                got, want = ours.integers(low, high), theirs.integers(low,
                                                                      high)
            assert got == want, (stream, seed, kind)
            assert type(got) is (float if kind == "uniform" else int)


def test_a_bare_integer_seed_matches_numpy():
    for seed in (0, 1, 42, 2**32, 2**64 + 5):
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        assert [ours.uniform(0.5, 5.0) for _ in range(5)] \
            == [theirs.uniform(0.5, 5.0) for _ in range(5)]


def test_a_negative_seed_is_refused_like_numpy():
    for seed in (-1, [3, -1]):
        with pytest.raises(ValueError):
            np.random.default_rng(seed)
        with pytest.raises(ValueError):
            Generator(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_a_range_outside_one_to_2_32_values_is_refused(low, high):
    with pytest.raises(ValueError):
        Generator([1, 0]).integers(low, high)
