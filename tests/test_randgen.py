"""Seeded instance generators: packed keys drawn directly, same draws as before."""

import numpy as np
import pytest

from helpers import draw_poly, make_rng, open_draws, packed
from wienerlab import randgen
from wienerlab.adapted import PredictableHField
from wienerlab.chaos import ChaosPoly, MultiIndex
from wienerlab.malliavin import OperatorField


# --- the generators written over (coordinate, order) pairs with numpy's
# own sampler, kept as oracles


def _reference_pairs(rng, n, degree, coords=None):
    if coords is None:
        coords = list(range(1, n + 1))
    if not coords or degree == 0:
        return ()
    width = min(len(coords), int(rng.integers(1, 4)))
    support = rng.choice(coords, size=width, replace=False)
    orders = {}
    budget = degree
    for c in support:
        if budget == 0:
            break
        k = int(rng.integers(0, budget + 1))
        if k:
            orders[int(c)] = k
            budget -= k
    return tuple(sorted(orders.items()))


def _reference_poly(rng, n, degree, n_terms=4, coords=None):
    terms = {}
    for _ in range(n_terms):
        key = packed(_reference_pairs(rng, n, degree, coords))
        terms[key] = terms.get(key, 0.0) + float(rng.uniform(-1, 1))
    return ChaosPoly(n, terms)


def _reference_representable_poly(rng, n, degree):
    terms = {}
    for _ in range(4):
        top = int(rng.integers(1, n + 1))
        orders = {top: 1}
        budget = degree - 1
        below = list(range(1, top))
        rng.shuffle(below)
        for c in below:
            if budget == 0:
                break
            k = int(rng.integers(0, budget + 1))
            if k:
                orders[c] = k
                budget -= k
        key = packed(orders)
        terms[key] = terms.get(key, 0.0) + float(rng.uniform(-1, 1))
    return ChaosPoly(n, terms)


def _reference_predictable(rng, n, degree):
    return PredictableHField(tuple(
        _reference_poly(rng, n, degree, 2, coords=list(range(1, i)))
        if i > 1 else ChaosPoly.constant(n, float(rng.uniform(-1, 1)))
        for i in range(1, n + 1)
    ))


def _reference_finite_rank(rng, n, d):
    fields, functionals = [], []
    for _ in range(2):
        fields.append(_reference_predictable(rng, n, 2))
        functionals.append(rng.uniform(-1, 1, size=d))
    Q, Y = OperatorField(tuple(fields)), np.array(functionals)
    return [Q.transpose_apply(Y[:, a]) for a in range(d)]


def _polys(field):
    """A field's polynomials in stored order, row by row."""
    if isinstance(field, OperatorField):
        return [p for row in field.rows for p in row.coords]
    return list(getattr(field, "coords", None) or field.components)


# (generator, reference) over (reader, n, d, degree) and (rng, n, d, degree);
# each reference returns the polynomials the generator stores, in order
FIELD_CASES = {
    "random_vfield": (
        lambda draws, n, d, degree: randgen.random_vfield(draws, n, d, degree),
        lambda rng, n, d, degree: [_reference_poly(rng, n, degree, 3) for _ in range(d)],
    ),
    "random_operator": (
        lambda draws, n, d, degree: randgen.random_operator(draws, n, d, degree),
        lambda rng, n, d, degree: [
            _reference_poly(rng, n, degree, 2) for _ in range(d) for _ in range(n)
        ],
    ),
    "random_predictable_field": (
        lambda draws, n, d, degree: randgen.random_predictable_field(draws, n, degree),
        lambda rng, n, d, degree: _polys(_reference_predictable(rng, n, degree)),
    ),
    "random_weakly_adapted": (
        lambda draws, n, d, degree: randgen.random_weakly_adapted(draws, n, d, degree),
        lambda rng, n, d, degree: [
            p for _ in range(d) for p in _polys(_reference_predictable(rng, n, degree))
        ],
    ),
    "random_finite_rank_adapted": (
        lambda draws, n, d, degree: randgen.random_finite_rank_adapted(draws, n, d),
        lambda rng, n, d, degree: [
            p for row in _reference_finite_rank(rng, n, d) for p in row.coords
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
@pytest.mark.parametrize("seed", [0, 3, 104729])
def test_field_generators_match_the_numpy_reference(name, seed):
    # same polynomials, terms in the same stored order with the same
    # coefficient bits, and the stream left where the numpy calls leave it;
    # the numpy draws between readers read the 32-bit buffer each hands back
    make, reference = FIELD_CASES[name]
    a, b = make_rng(seed), make_rng(seed)
    for n, d, degree in [(1, 1, 2), (2, 3, 1), (4, 2, 3), (5, 1, 4), (3, 2, 0)]:
        with randgen._Draws(a) as draws:
            got = _polys(make(draws, n, d, degree))
        want = reference(b, n, d, degree)
        assert [list(p.packed_terms.items()) for p in got] == [
            list(p.packed_terms.items()) for p in want
        ]
        assert int(a.integers(0, 7)) == int(b.integers(0, 7))
    assert a.random(4).tolist() == b.random(4).tolist()


def test_generators_refuse_a_bit_generator_other_than_philox():
    # the reader every generator draws through refuses to open
    for rng in (np.random.default_rng(5), np.random.Generator(np.random.MT19937(5))):
        with pytest.raises(TypeError, match="Philox"):
            randgen.random_poly(randgen._Draws(rng), 3, 2)
        with pytest.raises(TypeError, match="Philox"):
            randgen.random_operator(randgen._Draws(rng), 3, 2, 2)


CASES = [(1, 3, None), (3, 2, None), (4, 4, None), (6, 5, [2, 3, 5]), (3, 0, None), (5, 2, [])]


def _same_draws(make, reference, seed):
    # same terms in the same order, same coefficients, and the stream left
    # where the reference leaves it, once the reader hands its buffer back
    a, b = make_rng(seed), make_rng(seed)
    with randgen._Draws(a) as draws:
        for _ in range(5):
            p, q = make(draws), reference(b)
            assert list(p.packed_terms.items()) == list(q.packed_terms.items())
    assert a.random(4).tolist() == b.random(4).tolist()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 104729])
def test_generators_match_the_multiindex_reference(seed):
    for n, degree, coords in CASES:
        _same_draws(
            lambda draws: draw_poly(draws, n, degree, 8, coords),
            lambda rng: _reference_poly(rng, n, degree, n_terms=8, coords=coords),
            seed,
        )
        if coords is None:
            _same_draws(
                lambda draws: randgen.random_poly(draws, n, degree),
                lambda rng: _reference_poly(rng, n, degree),
                seed,
            )
        if degree:
            _same_draws(
                lambda draws: randgen.random_representable_poly(draws, n, degree),
                lambda rng: _reference_representable_poly(rng, n, degree),
                seed,
            )
        a, b = make_rng(seed), make_rng(seed)
        with randgen._Draws(a) as draws:
            key = randgen._key(draws, range(1, n + 1) if coords is None else coords, degree)
        assert key == packed(_reference_pairs(b, n, degree, coords))
        assert a.random(4).tolist() == b.random(4).tolist()


def test_generators_build_no_multiindex(monkeypatch):
    calls = []
    init = MultiIndex.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiIndex, "__init__", counting_init)
    draws = open_draws(5)
    randgen.random_poly(draws, 4, 4)
    draw_poly(draws, 4, 3, 4, [1, 2])
    randgen.random_representable_poly(draws, 4, 3)
    randgen.random_vfield(draws, 3, 2, 2)
    randgen.random_operator(draws, 3, 2, 2)
    randgen.random_predictable_field(draws, 4, 3)
    randgen.random_weakly_adapted(draws, 4, 2, 3)
    randgen.random_finite_rank_adapted(draws, 3, 2)
    randgen.random_representable_vfield(draws, 4, 2, 3)
    assert calls == []
