"""Pinned bits and term order of pure-Python kernel outputs.

Each digest is the SHA-256 of every polynomial's ``to_text()`` (canonical
order, ``repr`` coefficients) together with its terms in stored order, so a
change to the term store that moves one bit or one term's position fails
here.  The digests were recorded from the implementation that keyed terms by
``MultiIndex`` objects.  No numpy RNG or BLAS call feeds these values, so
they are the same on every platform that has IEEE doubles.
"""

import hashlib

import pytest

from wienerlab import dsl
from wienerlab.chaos import ChaosPoly, DegreeCapExceeded, hermite_product, refine
from wienerlab.clark import reconstruct, refine_and_reconstruct
from wienerlab.malliavin import VField, gradient_vector


def _digest(polys) -> str:
    text = repr([(p.dim, p.to_text(), [idx.pairs for idx in p.terms]) for p in polys])
    return hashlib.sha256(text.encode()).hexdigest()


def _vfield(text: str, n: int) -> VField:
    lowered = dsl.lower(dsl.parse_functional(text), n)
    return lowered if isinstance(lowered, VField) else VField((lowered,))


def _h3h3() -> ChaosPoly:
    return hermite_product(ChaosPoly.hermite(2, 1, 3), ChaosPoly.hermite(2, 2, 3))


#: the shapes of the represent-refine benchmark workload, fixed coefficients
FUNCTIONALS = {
    "h3h3": ("1.25*h3(x1)*h3(x2)", 2),
    "h8": ("0.75*h8(x1)", 1),
    "mixed3": ("[1.1*x1*x2 + 0.7*h2(x3), 0.9*h2(x1)*x2 - 1.3*x3]", 3),
    "cubic4": ("[0.8*x1*x2*x3 + 1.2*h3(x4), 0.6*x1 + 1.4]", 4),
}

PINNED_REFINE = {
    "h3h3_by_4": "aa441deb3168ff0d3e998be5b0a63ec8ccb94298167cbbd4016e24483de9b176",
    "h8_by_8": "c24932b70b36dd9f97a16fcd8195f3f876e4bb824ce1715db3caf54aecee6039",
}

PINNED_PRODUCT_DEGREE8 = "7c5a8b58b7662a7b0c2f898eaf4230dd2dec53a1672a56040134287270b8f9c0"

PINNED_GRADIENT = {
    "cubic4": "54fa6714734e33fe903703bed5de4f8dd81d72c42cea9e1d8ce051bcf2837ec2",
    "h3h3": "7a2e503d492d6a770a315ffdb106f6a52549a1e89f2719c01c10b43c170b0202",
    "h8": "651da1227927d76e3905b38b1500bbc57be2be8d55e1362c55948633691328b1",
    "mixed3": "42fc944c56421e70d1176f4b62e087d3e53ededdd2129d784b16a7ab04db7729",
}

PINNED_RECONSTRUCT = {
    "cubic4": (
        "d8c6a49375c05ac5a296e450d568e79073cc71c8fa803020286e65fff887db51",
        "2.9393876913398134",
    ),
    "h3h3": (
        "5fd71493bfe6854d5b72341b1001dd350fdefad6d26e4e42eddfe7882df342ee",
        "7.5",
    ),
    "h8": (
        "53931f920e084a32559ad14912bb58dc30564f32806d754bb59c95e41a67c59c",
        "150.5988047761336",
    ),
    "mixed3": (
        "e901cc99bb6042a58af5cbd7c3cfa11560a7bd82f2208067eb2921257730c29d",
        "0.9899494936611665",
    ),
}

PINNED_H8_RESIDUALS = [
    (1, "200.79840636817812"),
    (2, "197.63602910400712"),
    (4, "170.06156973284706"),
    (8, "131.31209468642825"),
]


def test_refine_bits_and_order_pinned():
    assert _digest([refine(_h3h3(), 4)]) == PINNED_REFINE["h3h3_by_4"]
    assert _digest([refine(ChaosPoly.hermite(1, 1, 8), 8)]) == PINNED_REFINE["h8_by_8"]


def test_degree8_product_bits_and_order_pinned():
    p = ChaosPoly(3, {((1, 2), (2, 2)): 1.0, ((2, 2), (3, 1)): 0.5, ((1, 1),): -1.25, (): 0.3})
    q = ChaosPoly(
        3,
        {
            ((1, 3), (3, 1)): 1.0,
            ((2, 3),): 0.75,
            ((1, 1), (2, 1), (3, 1)): -0.4,
            (): 2.0,
        },
    )
    out = hermite_product(p, q)
    assert max(idx.total_degree for idx in out.terms) == 8
    assert _digest([out]) == PINNED_PRODUCT_DEGREE8
    # past the cap the product raises instead of storing degree-12 terms
    p6 = ChaosPoly(3, {((1, 3), (2, 3)): 1.0, ((2, 2), (3, 1)): 0.5})
    q6 = ChaosPoly(3, {((1, 4), (3, 2)): 1.0, ((2, 3),): 0.75})
    with pytest.raises(DegreeCapExceeded) as err:
        hermite_product(p6, q6)
    assert err.value.degree == 12


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_gradient_and_reconstruct_pinned(name):
    v = _vfield(*FUNCTIONALS[name])
    K = gradient_vector(v)
    assert _digest([p for row in K.rows for p in row.coords]) == PINNED_GRADIENT[name]
    result = reconstruct(v)
    polys = [p for row in result.integrand.rows for p in row.coords]
    polys += list(result.reconstruction.components)
    assert (_digest(polys), repr(result.residual_l2)) == PINNED_RECONSTRUCT[name]


def test_refinement_table_residuals_pinned():
    v = _vfield("h8(x1)", 1)
    rows = refine_and_reconstruct(v, [1, 2, 4, 8])
    assert [(m, repr(r)) for m, r in rows] == PINNED_H8_RESIDUALS
