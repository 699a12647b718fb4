"""Deterministic verification suites over the exact chaos algebra.

Each suite stresses one structural identity of the calculus: adjointness of
gradient and divergence, isometry of adapted integrals, exactness of the
adapted representation on its natural class, refinement convergence, the
minimal-energy representation, and the rotation invariants, among them the
exact law of every rotation construction, read through its block kernel
(``_law_gap``).  Each suite returns one ``Check``: its worst gap against
its threshold, with a ``details`` line naming what it covered.  The gap of
each identity is a private helper next to the suite that reads it, so a new
suite needs no public function.  Random instances come from fixed seeds, so
two runs produce identical results byte for byte.

A suite that draws seeded instances is a generator body
``suite_<name>(draws, seed)`` under the ``_suite(seed, threshold)`` runner,
which makes it the suite ``suite_<name>(seed)``.  The body yields each gap
as a real number and each side check as a bool (numpy's included), and
returns its ``details`` line.  The runner opens one ``randgen`` reader on
``make_rng(seed)`` for the whole body, so every bounded draw of the suite,
its own size draws included, goes through it; it folds the gaps into the
worst one (a NaN gap stays NaN) and ANDs the side checks into the verdict.
``rotation_invariants`` draws no seeded instance (its rotations and samples
key their own Philox streams), so it stays a plain function and opens no
reader.
"""

from __future__ import annotations

import math
from itertools import product
from numbers import Real

import numpy as np

from .adapted import (
    NotPredictable,
    WeaklyAdaptedOperator,
    is_predictable,
    project_operator,
)
from .chaos import ChaosPoly, l2_inner, linear_combine, ou_apply
from .clark import (
    compare_energies,
    minimal_energy_integrand,
    reconstruct,
    refine_and_reconstruct,
)
from .malliavin import (
    HField,
    OperatorField,
    VField,
    divergence_h,
    divergence_op,
    dual_pairing,
    dual_pairing_expectation,
    gradient_scalar,
    gradient_vector,
    skew_symmetric_field,
    trace_pairing,
    trace_pairing_expectation,
)
from .randgen import (
    _Draws,
    make_rng,
    random_finite_rank_adapted,
    random_operator,
    random_poly,
    random_predictable_field,
    random_representable_poly,
    random_representable_vfield,
    random_skew_matrix,
    random_vfield,
    random_weakly_adapted,
)
from .rotations import (
    CONSTRUCTIONS,
    AdaptedIsometry,
    build_sequential_isometry,
    check_strict_past_measurability,
    gaussianity_battery,
    isometry_check,
    mix_outputs,
    scale_output,
)
from .space import Check, check, mc_estimate, sample_batch


def _result(name, gaps, threshold, details, extra_ok=True) -> Check:
    """Fold the suite's gaps into its worst one; a NaN gap makes it NaN."""
    return check(name, np.max(gaps, initial=0.0), threshold, extra_ok, details)


def _suite(seed: int, threshold: float):
    """Make the generator body ``suite_<name>(draws, seed)`` the suite ``suite_<name>(seed)``.

    The suite opens one reader on ``make_rng(seed)`` for the whole body, so
    a seed that is not an integer in 0 .. 2**64 - 1 raises ``ValueError``.  A
    bool the body yields, numpy's included, is a side check ANDed into the
    verdict, a real number is a gap, and anything else raises
    ``TypeError``.  The body's return value is the record's ``details``.
    """

    def runner(body):
        name = body.__name__.removeprefix("suite_")

        def suite(seed: int = seed) -> Check:
            gaps, ok = [], True
            with _Draws(make_rng(seed)) as draws:
                steps = body(draws, seed)
                while True:
                    try:
                        value = next(steps)
                    except StopIteration as done:
                        details = done.value
                        break
                    if isinstance(value, (bool, np.bool_)):
                        ok = ok and bool(value)
                    elif isinstance(value, (float, Real)):  # float skips the ABC check
                        gaps.append(value)
                    else:
                        raise TypeError(f"suite {name} yielded {value!r}, neither a gap nor a check")
            return _result(name, gaps, threshold, details, ok)

        # not functools.wraps: inspect.signature follows __wrapped__ and would
        # show the body's (draws, seed) in place of the seed and its default
        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        return suite

    return runner


def _gram(polys) -> np.ndarray:
    """Gram matrix G_ab = E[p_a p_b]; each pair a <= b is computed once."""
    d = len(polys)
    G = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            G[a, b] = G[b, a] = l2_inner(polys[a], polys[b])
    return G


# ------------------------------------------------------------------ suites


def _check_duality(K: OperatorField, F: VField) -> float:
    """|E<trace pairing of K with grad F> - E<F, div K>|; zero in exact arithmetic."""
    lhs = trace_pairing_expectation(K, gradient_vector(F))
    rhs = dual_pairing_expectation(F, divergence_op(K))
    return abs(lhs - rhs)


@_suite(1001, 1e-10)
def suite_duality_pairing(draws, seed):
    """Divergence is adjoint to the gradient under the pairings."""
    count = 200
    for _ in range(count):
        n = 2 + draws.below(5)
        d = 1 + draws.below(3)
        degree = 1 + draws.below(4)
        K = random_operator(draws, n, d, degree)
        F = random_vfield(draws, n, d, min(degree, 3))
        yield _check_duality(K, F)
    return f"{count} random operator/field pairs"


def _check_weakb(K: OperatorField, F: VField, div_K: VField) -> float:
    """L2 residual of div(K^T F) = <F, div K> - <<K, grad F>> in the algebra.

    ``div_K`` is ``divergence_op(K)``, formed once for both pairing forms.
    """
    lhs = divergence_h(K.apply_field(F))
    rhs = dual_pairing(F, div_K) - trace_pairing(K, gradient_vector(F))
    return (lhs - rhs).norm_l2()


def _check_rowwise_divergence(K: OperatorField, y, div_K: VField) -> float:
    """L2 gap between div(K^T y) and <y, div K> for a constant functional y, given ``div_K``."""
    y = np.asarray(y, dtype=float)
    lhs = divergence_h(K.transpose_apply(y))
    rhs = linear_combine(list(y), list(div_K.components))
    return (lhs - rhs).norm_l2()


@_suite(1002, 1e-10)
def suite_weak_pairing(draws, seed):
    """Componentwise and rowwise forms of the duality agree."""
    count = 100
    for _ in range(count):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        K = random_operator(draws, n, d, 3)
        F = random_vfield(draws, n, d, 3)
        div_K = divergence_op(K)
        yield _check_weakb(K, F, div_K)
        yield _check_rowwise_divergence(K, draws.rng.standard_normal(d), div_K)
    return f"{count} instances, both pairing forms"


@_suite(1003, 1e-12)
def suite_structure_constants(draws, seed):
    """Exact divergence values: skew fields, constants, identity growth."""
    for n in range(2, 9):
        yield divergence_h(skew_symmetric_field(random_skew_matrix(draws.rng, n))).is_zero()
        h = draws.rng.standard_normal(n)
        const = HField(tuple(ChaosPoly.constant(n, h[i]) for i in range(n)))
        expected = sum(
            (ChaosPoly.hermite(n, i + 1, 1, h[i]) for i in range(n)),
            ChaosPoly.zero(n),
        )
        div = divergence_h(const)
        yield (div - expected).norm_l2()
        # the Ito isometry of a constant field, E[(div h)^2] = |h|^2, summed
        # in coordinate order as l2_inner sums div's terms
        yield abs(l2_inner(div, div) - sum(h[i] * h[i] for i in range(n)))
    for n in range(1, 9):
        # the identity field u(w) = w: div u = sum_i He_2(eta_i), norm sqrt(2n)
        identity = HField(tuple(ChaosPoly.coordinate(n, i) for i in range(1, n + 1)))
        yield abs(divergence_h(identity).norm_l2() - math.sqrt(2.0 * n))
    return "skew fields, constant fields, identity divergence growth, n <= 8"


def _check_ito_isometry(u: HField, v: HField) -> float:
    """|E[div u div v] - E(u, v)| for predictable u, v; exact zero in theory."""
    if not (is_predictable(u) and is_predictable(v)):
        raise NotPredictable("isometry holds for predictable fields")
    return abs(l2_inner(divergence_h(u), divergence_h(v)) - u.inner(v))


def _check_operator_isometry(K: WeaklyAdaptedOperator, D: WeaklyAdaptedOperator) -> float:
    """|E<div D, div K> - E<<K, D>>| for two weakly adapted operators."""
    rhs = trace_pairing_expectation(K, D)
    lhs = dual_pairing_expectation(divergence_op(D), divergence_op(K))
    return abs(lhs - rhs)


@_suite(1004, 1e-10)
def suite_ito_isometry(draws, seed):
    """Energy identities for predictable fields and adapted operators."""
    count = 200
    for _ in range(count):
        n = 2 + draws.below(4)
        u = random_predictable_field(draws, n, 3)
        v = random_predictable_field(draws, n, 3)
        yield _check_ito_isometry(u, v)
    for _ in range(count):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        K = random_weakly_adapted(draws, n, d, 3)
        D = random_finite_rank_adapted(draws, n, d)
        yield _check_operator_isometry(K, D)
    return f"{count} field pairs and {count} operator pairs"


def _check_weak_orthogonality(K: OperatorField, Q: WeaklyAdaptedOperator) -> float:
    """|E<<K, Q>> - E<<projected K, Q>>|: only the adapted part of K pairs with Q."""
    lhs = trace_pairing_expectation(K, Q)  # checks the shapes before projecting
    return abs(lhs - trace_pairing_expectation(project_operator(K), Q))


@_suite(1005, 1e-10)
def suite_weak_orthogonality(draws, seed):
    """Anticipating remainders pair to zero against adapted test operators."""
    count = 100
    for _ in range(count):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        K = random_operator(draws, n, d, 3)
        Q = random_finite_rank_adapted(draws, n, d)
        yield _check_weak_orthogonality(K, Q)
    return f"{count} instances"


def _check_divergence_free_uniqueness(K: WeaklyAdaptedOperator) -> bool:
    """div K = 0 forces K = 0 on weakly adapted operators.

    Returns True iff the implication holds for this K: either the divergence
    is visibly nonzero, or every entry vanishes within 1e-12.
    """
    if divergence_op(K).norm() > 1e-12:
        return True
    return max(p.norm_l2() for row in K.rows for p in row.coords) <= 1e-12


@_suite(1006, 1e-10)
def suite_clark_exactness(draws, seed):
    """The adapted representation, divergence formed, is exact on the representable class."""
    count = 100
    for _ in range(count):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        v = random_representable_vfield(draws, n, d, 3)
        res = reconstruct(v)
        yield res.residual_l2
        # E[v] + div(K) with the divergence formed, not read off v as reconstruct does
        rec = VField.constant(n, v.expectation()).add(divergence_op(res.integrand))
        yield rec.sub(v).norm()
    for _ in range(30):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        yield _check_divergence_free_uniqueness(random_weakly_adapted(draws, n, d, 3))
    return f"{count} representable fields plus 30 injectivity checks"


@_suite(1007, 1e-12)
def suite_refinement_convergence(draws, seed):
    """Residuals shrink under grid refinement at the predicted rate."""
    he2 = VField((ChaosPoly.hermite(1, 1, 2),))
    for m, residual in refine_and_reconstruct(he2, range(1, 17)):
        yield abs(residual - math.sqrt(2.0 / m))
    for _ in range(20):
        n = 1 + draws.below(3)
        v = VField((random_poly(draws, n, 3),))
        residuals = [r for _, r in refine_and_reconstruct(v, [1, 2, 4, 8])]
        yield all(fine <= coarse + 1e-12 for coarse, fine in zip(residuals, residuals[1:]))
        if residuals[0] > 1e-12:
            yield residuals[0] ** 2 >= 3.0 * residuals[-1] ** 2
    return "closed form m=1..16 plus 20 random monotonicity and energy-ratio checks"


@_suite(1008, 1e-10)
def suite_minimal_energy(draws, seed):
    """The gradient-of-inverse-generator field represents every functional."""
    count = 100
    for _ in range(count):
        n = 1 + draws.below(5)
        p = random_poly(draws, n, 4)
        centered = p - ChaosPoly.constant(n, p.expectation())
        yield (divergence_h(minimal_energy_integrand(centered)) - centered).norm_l2()
    for _ in range(40):
        n = 2 + draws.below(4)
        comp = compare_energies(random_representable_poly(draws, n, 3))
        yield comp.exact_energy <= comp.adapted_energy + 1e-10
    # worked product functional: adapted energy 1, exact energy 1/2
    comp = compare_energies(ChaosPoly.hermite(2, 1, 1) * ChaosPoly.hermite(2, 2, 1))
    yield abs(comp.adapted_energy - 1.0) <= 1e-12
    yield abs(comp.exact_energy - 0.5) <= 1e-12
    yield not comp.coincide
    first = ChaosPoly.hermite(3, 2, 1, 2.0) + ChaosPoly.hermite(3, 3, 1, -1.0)
    yield compare_energies(first).coincide
    return f"{count} centered functionals, 40 energy comparisons, worked pair"


@_suite(1009, 1e-10)
def suite_number_operator(draws, seed):
    """Divergence after gradient acts as grade scaling."""
    count = 100
    for _ in range(count):
        n = 1 + draws.below(5)
        p = random_poly(draws, n, 4)
        yield (divergence_h(gradient_scalar(p)) - ou_apply(p)).norm_l2()
    return f"{count} random functionals"


def _check_cbound(K: OperatorField) -> float:
    """Smallest C with ||div(K^T y)||_2 <= C |y| for every y in R^d.

    The squared norm is the quadratic form y -> y^T G y with Gram matrix
    G_{ab} = E[div(row_a) div(row_b)], so C is the square root of the top
    eigenvalue of G.
    """
    top = float(np.linalg.eigvalsh(_gram([divergence_h(row) for row in K.rows]))[-1])
    return math.sqrt(max(top, 0.0))


@_suite(1010, 1e-9)
def suite_operator_bound(draws, seed):
    """The sharp constant bounds the pairing over the unit sphere."""
    count = 40
    for _ in range(count):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        K = random_operator(draws, n, d, 2)
        c = _check_cbound(K)
        for _ in range(20):
            y = draws.rng.standard_normal(d)
            norm = float(np.linalg.norm(y))
            if norm < 1e-12:
                continue
            yield divergence_h(K.transpose_apply(y / norm)).norm_l2() - c
    return f"{count} operators, 20 directions each"


#: Gauss nodes per integrated coordinate in ``_law_gap``'s tensor rule.
_LAW_NODES = 16


def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``_LAW_NODES``-point Gauss rule for the standard normal weight.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Hermite polynomials He_k, whose off-diagonal is sqrt(1) ..
    sqrt(k - 1), and the weights are the squared first components of the
    unit eigenvectors, so they sum to one.
    """
    off = np.sqrt(np.arange(1.0, _LAW_NODES))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2


def _law_gap(R: AdaptedIsometry) -> float:
    """Largest |E exp(i h . Tw) - exp(-1/2)| over h = e_1 .. e_n and (1, .., 1)/sqrt(n).

    The conditioning proof of ``rotations``, computed: with a = M^T h,
    h . Tw = a . eta, and column j of M reads only eta_1 .. eta_{j-1}, so a
    depends on eta_1 .. eta_{n-1} alone and the eta_n integral is
    exp(-a_n^2 / 2) in closed form.  The other n - 1 coordinates are
    integrated by the tensor product of ``_gauss_rule`` (for n = 1 the
    empty product, one point of weight 1), with M evaluated at all its
    points, eta_n = 0, by one ``R.matrices`` call.  Every construction is
    read through its kernel; an exact rotation gives roundoff.
    """
    n = R.n
    nodes, weights = _gauss_rule()
    cells = np.array(list(product(range(_LAW_NODES), repeat=n - 1)), dtype=int)
    eta = np.zeros((len(cells), n))
    eta[:, :-1] = nodes[cells]
    directions = np.vstack((np.eye(n), np.full(n, 1.0 / math.sqrt(n))))
    a = np.einsum("pij,di->dpj", R.matrices(eta), directions)
    phase = np.einsum("dpj,pj->dp", a[:, :, :-1], eta[:, :-1])
    terms = weights[cells].prod(axis=1) * np.exp(-0.5 * a[:, :, -1] ** 2 + 1j * phase)
    return float(np.max(np.abs(terms.sum(axis=1) - math.exp(-0.5))))


def suite_rotation_invariants(seed: int = 1011) -> Check:
    """Adapted rotations: pathwise isometry, strict-past certificates, exact law, defects."""
    gaps = []
    ok = True
    n = 6
    probe = sample_batch(n, 1000, seed)
    for spec in ("zero", "sign", "givens"):
        R = build_sequential_isometry(n, seed, spec)
        gaps.append(isometry_check(R, probe))
        gaps.append(check_strict_past_measurability(R, probe))
    for spec in CONSTRUCTIONS:
        gaps.append(_law_gap(build_sequential_isometry(3, seed, spec)))
    base = build_sequential_isometry(n, seed, "zero")
    scaled = scale_output(base, 1, 2.0)
    ok = ok and abs(isometry_check(scaled, probe) - 3.0) <= 1e-12
    mixed = mix_outputs(build_sequential_isometry(n, seed, "givens"), 1, n)
    ok = ok and isometry_check(mixed, probe) > 0.5
    report = gaussianity_battery(
        build_sequential_isometry(n, seed, "givens"),
        np.ones(n) / math.sqrt(n),
        50_000,
        seed + 1,
    )
    ok = ok and report.passed
    return _result(
        "rotation_invariants",
        gaps,
        1e-9,
        "three constructions, exact law of all four, planted defects, output law",
        extra_ok=ok,
    )


@_suite(1012, 1.0)
def suite_monte_carlo_consistency(draws, seed):
    """Sampling means agree with algebraic expectations within 4 sigma."""
    count = 50
    n = 4
    batch = sample_batch(n, 100_000, seed)
    for _ in range(count):
        p = random_poly(draws, n, 3)
        est = mc_estimate(p, batch)
        yield abs(est.mean - p.expectation()) / max(4.0 * est.stderr, 1e-12)
    return f"{count} functionals at 100000 samples, gap over 4 sigma"


ALL_SUITES = (
    suite_duality_pairing,
    suite_weak_pairing,
    suite_structure_constants,
    suite_ito_isometry,
    suite_weak_orthogonality,
    suite_clark_exactness,
    suite_refinement_convergence,
    suite_minimal_energy,
    suite_number_operator,
    suite_operator_bound,
    suite_rotation_invariants,
    suite_monte_carlo_consistency,
)


def suite_names() -> list[str]:
    return [fn.__name__.removeprefix("suite_") for fn in ALL_SUITES]


def run_suites(names=None) -> list[Check]:
    """Run the named suites (all by default) in declaration order."""
    table = {fn.__name__.removeprefix("suite_"): fn for fn in ALL_SUITES}
    if names is None:
        picked = list(table)
    else:
        picked = list(names)
        unknown = [name for name in picked if name not in table]
        if unknown:
            known = ", ".join(table)
            raise KeyError(f"unknown suite(s) {', '.join(unknown)}; known: {known}")
    return [table[name]() for name in picked]
