"""The seeded draws randgen makes directly are numpy's own, bit for bit."""

from helpers import make_rng
from wienerlab import randgen


def test_sample_is_generator_choice_without_replacement():
    # every population 1..8 and every width, the full population included,
    # where the first bound is one and nothing is drawn
    for seed in range(1000):
        a, b = make_rng(seed), make_rng(seed)
        for size in range(1, 9):
            coords = [3 * j + 2 for j in range(size)]
            for width in range(size + 1):
                want = b.choice(coords, size=width, replace=False).tolist()
                assert randgen._sample(a, coords, width) == want
        assert a.random() == b.random()


def test_uniform_is_generator_uniform():
    a, b = make_rng(11), make_rng(11)
    for _ in range(10_000):
        assert randgen._uniform(a).hex() == float(b.uniform(-1, 1)).hex()
    assert a.random() == b.random()
