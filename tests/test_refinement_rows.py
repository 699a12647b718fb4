"""The refinement table's rows: the closed form, checked against built refinements.

``refine_and_reconstruct`` takes each row from ``clark.refinement_residual``,
the closed form over the coarse terms that ``represent`` prints, and builds
no fine term and no block table.  The independent oracle is the refined
functional itself: ``refine(p, m)`` is built, and the exact mass of its
terms of last-stage order 2 or more is summed in ``Fraction``s from its
packed keys, with none of the closed form's code.  The built refinement's
own m = 1 row is checked the same way under each stage table.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import STAGE_TABLES, draw_poly, exact_root, open_draws, refinement_residual as exact_row, stages
from wienerlab import chaos
from wienerlab.chaos import DEGREE_CAP, AlgebraError, ChaosPoly, refine
from wienerlab.clark import refine_and_reconstruct, refinement_residual
from wienerlab.dsl import lower, parse_functional
from wienerlab.malliavin import VField
from wienerlab.suites import run_suites

FACTORS = (2, 3, 4, 8)

#: the unit roundoff of a double
U = Fraction(1, 2**53)

#: perfbench's represent-refine shapes, with fixed coefficients and labels
REPRESENT_SHAPES = [
    ("0.812345*h3(x1)*h3(x2)", 2),
    ("1.234567*h8(x1)", 1),
    ("[0.7*x2*x3 + 1.1*h2(x1), 0.9*h2(x2)*x3 - 1.3*x1]", 3),
    ("[0.6*x1*x3*x4 + 1.4*h3(x2), 0.8*x1 + 1.2]", 4),
]


def _fields():
    """Seeded vector functionals: constant terms, a constant component, degrees 1 .. DEGREE_CAP."""
    draws = open_draws(3838)
    fields = []
    for degree in range(1, DEGREE_CAP + 1):
        for n in (1, 2, 3):
            c = float(draws.rng.uniform(-2.0, 2.0))
            polys = [draw_poly(draws, n, degree, 3) + ChaosPoly.constant(n, c) for _ in range(2)]
            fields.append(VField((*polys, ChaosPoly.constant(n, -c))))
    return fields


def _oracle_fields():
    """Seeded fields (n 1-3, degree <= 4), every He_k(x1) for k <= 8 and some He_a(x1) He_b(x2)."""
    draws = open_draws(4177)
    fields = []
    for _ in range(24):
        n = 1 + draws.below(3)
        fields.append(VField(tuple(draw_poly(draws, n, 1 + draws.below(4), 3) for _ in range(2))))
    fields += [VField((ChaosPoly.hermite(1, 1, k) * 0.75,)) for k in range(DEGREE_CAP + 1)]
    for a, b in [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4)]:
        fields.append(VField((ChaosPoly.hermite(2, 1, a) * ChaosPoly.hermite(2, 2, b) * -1.3,)))
    return fields


def _stage_mass(polys, past: bytes) -> Fraction:
    """Exact ``sum alpha! c**2`` over the terms of ``polys`` of last-stage order >= 2.

    ``past[i]`` is the largest coordinate of the stages before coordinate
    i's, as in a stage table of ``helpers.STAGE_TABLES``, so a key's
    last-stage order is the count of its bytes past ``past[key[-1]]``, and
    ``alpha!`` the product of the factorials of its byte counts.  The
    ``alpha!`` of each distinct coefficient are summed first, and each
    coefficient is squared once.
    """
    weights: dict[float, int] = {}
    for p in polys:
        for key, c in p.packed_terms.items():
            if key and sum(b > past[key[-1]] for b in key) >= 2:
                alpha = math.prod(math.factorial(key.count(i)) for i in set(key))
                weights[c] = weights.get(c, 0) + alpha
    return sum((w * Fraction(c) ** 2 for c, w in weights.items()), Fraction(0))


def _built_mass(v: VField, m: int) -> Fraction:
    """:func:`_stage_mass` of ``refine(p, m)`` for each component, one coordinate per stage."""
    return _stage_mass((refine(p, m) for p in v.components), STAGE_TABLES["identity"])


def _built_row(v: VField, m: int) -> float:
    """The m = 1 row of the built refinement: ``refinement_residual`` of ``refine(p, m)``."""
    return refinement_residual(VField(tuple(refine(p, m) for p in v.components)), 1)


def _fine_rows(p: ChaosPoly, m: int) -> int:
    """``refine(p, m)``'s terms before a zero is dropped: prod_i C(m + k_i - 1, k_i) per monomial."""
    return sum(math.prod(math.comb(m + k - 1, k) for _, k in index.pairs) for index in p.terms)


@pytest.mark.parametrize("m", FACTORS)
def test_rows_are_within_twelve_roundoffs_of_the_built_refinements_root(m):
    """Each row is within ``12 u`` of the root of the built refinement's exact mass.

    The row is the exact residual of the ideal refinement, rounded once:
    within ``u`` of it.  The built refinement's coefficients are not exact.
    A fine coefficient is ``c * ((c_1 * c_2) * ...)``, one block-table
    coefficient ``c_i`` per coordinate of the coarse monomial, at most
    ``r = 3`` of them here, formed with ``r`` roundings (the leading
    ``1.0 * c_1`` is exact), each within ``u``.  ``_block_average_table``
    keeps each ``c_i`` within 1.2 ulp of ``k!/alpha! m**(-k/2)`` for
    ``m <= 16``, and an ulp is at most ``2u`` of the value, so within
    ``2.4 u``.  A fine coefficient is then within ``(1 + 2.4u)**3 (1 + u)**3
    - 1 < 10.3 u`` of its exact value, and the root of a sum of
    ``alpha! c**2`` with every ``c`` within ``10.3 u`` is within ``10.3 u``
    of the exact root.  The two add to less than ``12 u``.  A relative
    defect of 1e-12 in the closed form's weights moves a nonzero row by
    5e-13, far past that.
    """
    bound = 1 + 12 * U
    zero = nonzero = 0
    for v in _oracle_fields():
        mass = _built_mass(v, m)
        [(got_m, row)] = refine_and_reconstruct(v, [m])
        assert got_m == m and row >= 0
        assert mass / bound**2 <= Fraction(row) ** 2 <= mass * bound**2, (v, m, row)
        zero += mass == 0
        nonzero += mass > 0
    assert zero and nonzero > 30


@pytest.mark.parametrize("name", list(STAGE_TABLES))
def test_rows_are_the_closed_form_bit_for_bit(name):
    # a row is refinement_residual at its factor, under any stage table; at
    # m = 1 the row follows the planted table (under the pairs the top two
    # coordinates share a stage), and m > 1 assumes one coordinate per stage
    moved = False
    with stages(STAGE_TABLES[name]):
        for v in _fields():
            rows = refine_and_reconstruct(v, [1, *FACTORS])
            assert [(m, r.hex()) for m, r in rows] == [
                (m, refinement_residual(v, m).hex()) for m in (1, *FACTORS)
            ]
            with stages(STAGE_TABLES["identity"]):
                moved |= rows[0] != refine_and_reconstruct(v, [1])[0]
    assert moved == (name != "identity")


def test_a_factor_past_the_term_budget_gives_the_row_represent_prints():
    # refine(h4(x1)*h4(x2), 64) would hold C(67, 4)**2 = 5.9e11 terms and
    # refine(h8(x1), 128) C(135, 8) = 2.2e12: refine refuses both, and the
    # rows are the closed form's
    h4h4 = ChaosPoly.hermite(2, 1, 4) * ChaosPoly.hermite(2, 2, 4)
    h8 = ChaosPoly.hermite(1, 1, 8)
    for p, m in [(h4h4, 64), (h8, 128)]:
        with pytest.raises(AlgebraError, match="past the budget"):
            refine(p, m)
    assert refine_and_reconstruct(VField((h4h4,)), [64]) == [(64, 4.2260353760942415)]
    v = VField((h8,))
    assert refine_and_reconstruct(v, [1, 128]) == [(1, exact_row(v, 1)), (128, exact_row(v, 128))]


@pytest.mark.parametrize("c", [1e308, -1e308])
def test_an_overflowing_residual_row_is_inf(c):
    # h8 spread over two cells holds 8!/(4! 4!) / 2**4 = 4.375 at x1**4 x2**4:
    # refine refuses that coefficient times c, and the row, whose exact root
    # is past the largest double, is inf
    h8 = ChaosPoly.hermite(1, 1, 8)
    fields = [VField((h8 * c,)), VField((ChaosPoly.coordinate(1, 1), h8 * c, h8 * -c))]
    for v in fields:
        with pytest.raises(AlgebraError, match="non-finite coefficient"):
            refine(v.components[-1], 2)
        assert refine_and_reconstruct(v, [2]) == [(2, math.inf)] == [(2, refinement_residual(v, 2))]


def test_tiny_coefficients_keep_their_whole_mass():
    # at the bottom of the subnormals refine drops the fine coefficients
    # that round to zero; the rows read the coarse coefficients and keep the
    # exact residual, rounded once
    tiny = 5e-324
    v = VField((
        ChaosPoly.hermite(2, 1, 2) * tiny + ChaosPoly.hermite(2, 2, 3) * 3 * tiny,
        ChaosPoly.hermite(2, 2, 4) * -tiny + ChaosPoly.coordinate(2, 1) * 0.5,
    ))
    assert len(refine(v.components[0], 2).packed_terms) < 3 + 4
    rows = refine_and_reconstruct(v, [1, *FACTORS])
    assert rows == [(m, exact_row(v, m)) for m in (1, *FACTORS)]
    assert all(0 < row < 1e-322 for _, row in rows)


@pytest.mark.parametrize("name", list(STAGE_TABLES))
def test_fine_factorials_are_the_alpha_factorials_of_the_joined_digits(name):
    # each fine key of the built refinement joins one block-table row per
    # coarse coordinate: its alpha! is the product of the factorials of its
    # digit counts, and the m = 1 row of the refined functional weighs each
    # term of last-stage order >= 2 under the planted table by that alpha!
    table = STAGE_TABLES[name]
    with stages(table):
        for v in _fields():
            for m in FACTORS:
                refined = [refine(p, m) for p in v.components]
                for p in refined:
                    for key in p.packed_terms:
                        assert chaos._factorial(key) == math.prod(math.factorial(key.count(i)) for i in set(key))
                row = refinement_residual(VField(tuple(refined)), 1)
                assert row == exact_root(_stage_mass(refined, table)), (name, v, m)


def test_a_kept_row_across_two_blocks_is_weighed():
    # under the pairs with m = 3, fine coordinates 3 and 4 share a stage: the
    # top digit of block 1 and the one digit of an order-1 block 2 make terms
    # of last-stage order 2, which the built refinement's m = 1 row weighs
    # and one coordinate per stage never keeps, as the identity's rows do not
    x1, x2 = ChaosPoly.coordinate(2, 1), ChaosPoly.coordinate(2, 2)
    for p in (x1 * x2, ChaosPoly.hermite(2, 1, 3) * x2):
        v = VField((p,))
        with stages(STAGE_TABLES["identity"]):
            identity = _built_row(v, 3)
            rows = refine_and_reconstruct(v, [3])
        with stages(STAGE_TABLES["pairs"]):
            pairs = _built_row(v, 3)
            assert pairs == exact_root(_stage_mass([refine(p, 3)], STAGE_TABLES["pairs"]))
        assert identity == 0.0 < pairs
        assert rows == [(3, identity)]


def test_underflowed_fine_coefficients_are_dropped_as_refine_drops_them():
    # at the bottom of the subnormals half the fine coefficients round to
    # zero: refine drops them with no numpy warning under either stage
    # table, and the built refinement's row holds the mass of the terms it
    # kept, rounded as they were
    tiny = 5e-324
    v = VField((
        ChaosPoly.hermite(2, 1, 2) * tiny + ChaosPoly.hermite(2, 2, 3) * 3 * tiny,
        ChaosPoly.hermite(2, 2, 4) * -tiny + ChaosPoly.coordinate(2, 1) * 0.5,
    ))
    for name, table in STAGE_TABLES.items():
        with stages(table), warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for m in FACTORS:
                refined = [refine(p, m) for p in v.components]
                for p, fine in zip(v.components, refined):
                    assert len(fine.packed_terms) < _fine_rows(p, m)
                    assert all(fine.packed_terms.values())
                row = refinement_residual(VField(tuple(refined)), 1)
                assert row == exact_root(_stage_mass(refined, table)), (name, m)


def _no_table(m, k):
    raise AssertionError(f"_block_average_table({m}, {k}) called")


def test_a_repeated_refinement_builds_no_table(monkeypatch):
    monkeypatch.setattr(chaos, "_block_average_table", _no_table)
    for text, n in REPRESENT_SHAPES:
        lowered = lower(parse_functional(text), n)
        v = lowered if isinstance(lowered, VField) else VField((lowered,))
        rows = refine_and_reconstruct(v, [1, 2, 4, 8])
        assert refine_and_reconstruct(v, [1, 2, 4, 8]) == rows
        assert rows[0][1] > rows[-1][1] > 0, text


def test_the_refinement_suite_builds_no_table(monkeypatch):
    monkeypatch.setattr(chaos, "_block_average_table", _no_table)
    [result] = run_suites(["refinement_convergence"])
    assert result.passed
