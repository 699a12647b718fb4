"""The seeded draws randgen makes directly are numpy's own, bit for bit."""

import pytest

from helpers import make_rng
from wienerlab import randgen

#: small bounds, and large ones whose Lemire rejection threshold
#: ``2**32 mod b`` is a sizeable share of the words; ``2**32`` takes a whole
#: 32-bit half
BOUNDS = [*range(1, 10), 100, 2**31 + 5, 3 * 2**30, 2**32 - 1, 2**32]


def test_sample_is_generator_choice_without_replacement():
    # every population 1..8 and every width, the full population included,
    # where the first bound is one and nothing is drawn
    for seed in range(1000):
        a, b = make_rng(seed), make_rng(seed)
        for size in range(1, 9):
            coords = [3 * j + 2 for j in range(size)]
            for width in range(size + 1):
                want = b.choice(coords, size=width, replace=False).tolist()
                with randgen._Draws(a) as draws:
                    assert randgen._sample(draws, coords, width) == want
        assert a.random() == b.random()


def _same_stream(a, b):
    """The two generators' Philox states agree: counter, key, word buffer and 32-bit buffer."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    for field in ("has_uint32", "uinteger", "buffer_pos"):
        assert sa[field] == sb[field]
    assert sa["buffer"].tolist() == sb["buffer"].tolist()
    for field in ("counter", "key"):
        assert sa["state"][field].tolist() == sb["state"][field].tolist()


def test_uniform_is_generator_uniform():
    # scalar draws and the sized draw random_finite_rank_adapted stands in
    # for, interleaved with bounded draws that fill the 32-bit buffer, which
    # a uniform leaves alone
    a, b = make_rng(11), make_rng(11)
    with randgen._Draws(a) as draws:
        for k in range(10_000):
            assert draws.uniform().hex() == float(b.uniform(-1, 1)).hex()
            if k % 7 == 0:
                assert draws.below(5) == int(b.integers(0, 5))
            if k % 100 == 0:
                got = [draws.uniform().hex() for _ in range(3)]
                assert got == [float(x).hex() for x in b.uniform(-1, 1, size=3)]
    _same_stream(a, b)
    assert a.random() == b.random()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 104729])
def test_suite_size_draws_are_generator_integers(seed):
    # low + below(high - low) is int(rng.integers(low, high)) for the
    # suites' size ranges, one-value ranges included, which draw nothing
    ranges = [(2, 7), (1, 4), (1, 5), (2, 6), (1, 6), (2, 5), (1, 2), (0, 1), (3, 3 + 2**32)]
    a, b = make_rng(seed), make_rng(seed)
    with randgen._Draws(a) as draws:
        for _ in range(300):
            for low, high in ranges:
                assert low + draws.below(high - low) == int(b.integers(low, high))
    _same_stream(a, b)
    assert int(a.integers(0, 9)) == int(b.integers(0, 9))


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 104729])
def test_shuffle_is_generator_shuffle(seed):
    # lists of every length 0..9, the empty and one-item lists drawing
    # nothing, with a bounded draw between them so that the reader opens
    # on a buffered half as often as not
    a, b = make_rng(seed), make_rng(seed)
    for _ in range(50):
        with randgen._Draws(a) as draws:
            for length in range(10):
                x, y = [3 * j + 1 for j in range(length)], [3 * j + 1 for j in range(length)]
                draws.shuffle(x)
                b.shuffle(y)
                assert x == y
            assert draws.below(3) == int(b.integers(0, 3))
        _same_stream(a, b)
    assert a.random(2).tolist() == b.random(2).tolist()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 104729])
def test_below_is_generator_integers(seed):
    # draws of every bound interleaved with random(), which leaves the
    # 32-bit buffer alone; standard_normal and shuffle after close(), and
    # shuffle reads the buffer the reader hands back
    a, b = make_rng(seed), make_rng(seed)
    for _ in range(200):
        draws = randgen._Draws(a)
        for k, bound in enumerate(BOUNDS):
            want = int(b.integers(0, bound))
            assert draws.below(bound) == want
            if k % 3 == 0:
                assert a.random() == b.random()
        draws.close()
        assert a.standard_normal(2).tolist() == b.standard_normal(2).tolist()
        x, y = list(range(9)), list(range(9))
        a.shuffle(x)
        b.shuffle(y)
        assert x == y
    assert a.random(4).tolist() == b.random(4).tolist()


def test_below_takes_the_buffered_half_and_rejects_as_numpy_does():
    # the reader opens on a generator holding a buffered high half, and the
    # rejection branch draws a second word: the counter and the buffer state
    # left behind are numpy's
    for seed in range(50):
        a, b = make_rng(seed), make_rng(seed)
        a.integers(0, 5)
        b.integers(0, 5)
        with randgen._Draws(a) as draws:
            got = [draws.below(2**31 + 5) for _ in range(9)]
        assert got == [int(b.integers(0, 2**31 + 5)) for _ in range(9)]
        _same_stream(a, b)
