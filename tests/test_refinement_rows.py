"""The refinement table's rows, read off grouped block tables.

``refine_and_reconstruct`` takes each row for a factor m >= 2 from the
distinct coefficients of each block-average table, grouped by ``alpha!``
with their weights, without building a fine term.  The oracle is the refined
functional: the ``residual_l2`` of ``refine(p, m)`` for every component,
``refinement_residual(..., 1)``.  The block-average tables are built on each
call, and their groups are held for the life of the process whatever the
size of the table: the last tests count the tables built.
"""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import STAGE_TABLES, draw_poly, open_draws, stages
from wienerlab import adapted, chaos, clark
from wienerlab.chaos import DEGREE_CAP, AlgebraError, ChaosPoly, _factorial, refine
from wienerlab.clark import refine_and_reconstruct, refinement_residual
from wienerlab.malliavin import VField
from wienerlab.suites import suite_refinement_convergence

FACTORS = (2, 3, 4, 8)


def _oracle(v: VField, m: int) -> float:
    return refinement_residual(VField(tuple(refine(p, m) for p in v.components)), 1)


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


def _fine_rows(p: ChaosPoly, m: int) -> int:
    """``refine(p, m)``'s terms before a zero is dropped: prod_i C(m + k_i - 1, k_i) per monomial."""
    return sum(math.prod(math.comb(m + k - 1, k) for _, k in index.pairs) for index in p.terms)


def _rows_hex(rows):
    return [(m, residual.hex()) for m, residual in rows]


@pytest.mark.parametrize("name", list(STAGE_TABLES))
def test_rows_equal_the_refined_functionals_residuals_bit_for_bit(name):
    # the planted stage table moves the oracle and the rows alike: under
    # the pairs the top two coordinates of a block share a stage
    moved = False
    with stages(STAGE_TABLES[name]):
        for v in _fields():
            rows = refine_and_reconstruct(v, [1, *FACTORS])
            assert _rows_hex(rows) == _rows_hex(
                [(1, refinement_residual(v, 1))] + [(m, _oracle(v, m)) for m in FACTORS]
            )
            with stages(STAGE_TABLES["identity"]):
                moved |= rows != refine_and_reconstruct(v, [1, *FACTORS])
    assert moved == (name != "identity")


@pytest.mark.parametrize("c", [1e308, -1e308])
def test_an_overflowing_fine_coefficient_raises_refines_error(c):
    # h8 spread over two cells holds 8!/(4! 4!) / 2**4 = 4.375 at x1**4 x2**4
    h8 = ChaosPoly.hermite(1, 1, 8)
    fields = [VField((h8 * c,)), VField((ChaosPoly.coordinate(1, 1), h8 * c, h8 * -c))]
    for v in fields:
        with pytest.raises(AlgebraError) as rows:
            refine_and_reconstruct(v, [2])
        with pytest.raises(AlgebraError) as materialised:
            _oracle(v, 2)
        assert str(rows.value) == str(materialised.value) == f"non-finite coefficient {c * 4.375!r}"


def test_underflowed_fine_coefficients_are_dropped_as_refine_drops_them():
    # at the bottom of the subnormals half the fine coefficients round to
    # zero: refine drops them, and so do the rows, with no numpy warning
    tiny = 5e-324
    v = VField((
        ChaosPoly.hermite(2, 1, 2) * tiny + ChaosPoly.hermite(2, 2, 3) * 3 * tiny,
        ChaosPoly.hermite(2, 2, 4) * -tiny + ChaosPoly.coordinate(2, 1) * 0.5,
    ))
    for name, table in STAGE_TABLES.items():
        with stages(table), warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for p in v.components:
                assert len(refine(p, 2).packed_terms) < _fine_rows(p, 2)
            rows = refine_and_reconstruct(v, [1, *FACTORS])
            assert _rows_hex(rows) == _rows_hex(
                [(1, refinement_residual(v, 1))] + [(m, _oracle(v, m)) for m in FACTORS]
            ), name


def test_a_factor_past_the_term_budget_raises_before_any_table(monkeypatch):
    # h8(x1) over 128 cells would hold C(135, 8) = 2.2e12 terms
    v = VField((ChaosPoly.hermite(1, 1, 8),))
    with pytest.raises(AlgebraError) as materialised:
        refine(v.components[0], 128)
    assert "past the budget" in str(materialised.value)

    def no_table(m, k):
        raise AssertionError(f"_block_average_table({m}, {k}) called")

    monkeypatch.setattr(chaos, "_block_average_table", no_table)
    with pytest.raises(AlgebraError) as rows:
        refine_and_reconstruct(v, [1, 128])
    assert str(rows.value) == str(materialised.value)


@pytest.mark.parametrize("name", list(STAGE_TABLES))
def test_fine_factorials_are_the_alpha_factorials_of_the_joined_digits(name):
    # a coefficient's weight, summed over the pairs formed from the grouped
    # tables, must be alpha! summed key by key over the refined functional's
    # terms of last-stage order >= 2 that hold that coefficient
    with stages(STAGE_TABLES[name]):
        for v in _fields():
            for p in v.components:
                for m in FACTORS:
                    got, want = {}, {}
                    for weight, c in clark._refined_pairs(p, m):
                        assert type(weight) is int and weight > 0
                        got[c] = got.get(c, 0) + weight
                    for key, c in refine(p, m).packed_terms.items():
                        if adapted._last_stage_order(key) > 1:
                            want[c] = want.get(c, 0) + _factorial(key)
                    assert got == want


def test_a_kept_row_across_two_blocks_is_weighed():
    # under the pairs with m = 3, fine coordinates 3 and 4 share a stage: the
    # top digit of block 1 and the one digit of an order-1 block 2 make rows
    # of last-stage order 2, which one coordinate per stage never keeps
    x1, x2 = ChaosPoly.coordinate(2, 1), ChaosPoly.coordinate(2, 2)
    for p in (x1 * x2, ChaosPoly.hermite(2, 1, 3) * x2):
        v = VField((p,))
        with stages(STAGE_TABLES["identity"]):
            identity = refine_and_reconstruct(v, [3])
        with stages(STAGE_TABLES["pairs"]):
            rows = refine_and_reconstruct(v, [3])
            assert _rows_hex(rows) == [(3, _oracle(v, 3).hex())]
        assert rows != identity and rows[0][1] > 0


@pytest.mark.parametrize("k", range(1, DEGREE_CAP + 1))
def test_counted_groups_are_the_tables_rows_by_coefficient(k):
    # the groups of every row are counted from the partitions of k, with no
    # table: they must be the table's distinct coefficients, each with the
    # sum of its rows' alpha!, the largest first
    for m in (*range(1, 11), 16, 31) if k <= 4 else range(1, 9):
        _, coeffs, factorials = chaos._block_average_table(m, k)
        want = {}
        for c, f in zip(coeffs.tolist(), factorials.tolist()):
            want[c] = want.get(c, 0) + f
        groups = chaos._block_groups(m, k)
        assert len(groups) == len(want) and dict(groups) == want
        assert groups[0][0] == coeffs.max()


@pytest.fixture
def builds(monkeypatch):
    """The ``(m, k)`` of every block-average table built from here on, no groups held at the start."""
    built = []
    build = chaos._block_average_table

    def counted(m, k):
        built.append((m, k))
        return build(m, k)

    monkeypatch.setattr(chaos, "_block_average_table", counted)
    chaos._block_groups.cache_clear()
    return built


def test_a_repeated_refinement_builds_no_table(builds):
    v = _fields()[-1]
    rows = refine_and_reconstruct(v, [1, 2, 4, 8])
    first = len(builds)
    assert first == len(set(builds)) > 0
    assert _rows_hex(refine_and_reconstruct(v, [1, 2, 4, 8])) == _rows_hex(rows)
    assert len(builds) == first


def test_the_refinement_suite_builds_each_table_once(builds):
    # its factors and top orders of 2 or more reach 18 distinct (m, k): the
    # groups of every other block are counted without a table
    assert suite_refinement_convergence().passed
    assert len(builds) == len(set(builds)) == 18


def test_threads_racing_to_keep_the_groups_read_the_same_rows():
    # more threads than cores clear, count and hold the same groups at once,
    # switching often, under the pairs with order-1 top blocks, so that the
    # groups of the block below race as well: every row keeps the bits of
    # one unshared call
    x2, x3 = ChaosPoly.coordinate(3, 2), ChaosPoly.coordinate(3, 3)
    v = VField((*_fields()[-1].components, ChaosPoly.hermite(3, 1, 3) * x2 + x2 * x3))
    with stages(STAGE_TABLES["pairs"]):
        want = _rows_hex(refine_and_reconstruct(v, FACTORS))

        def work():
            rows = []
            for _ in range(10):
                chaos._block_groups.cache_clear()
                rows.append(_rows_hex(refine_and_reconstruct(v, FACTORS)))
            return rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work) for _ in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
    assert all(rows == want for result in results for rows in result)
