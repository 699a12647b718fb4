"""Measure-preserving adapted rotations of the Gaussian coordinate system.

A rotation is carried by a random matrix M(omega) whose output coordinate a
is the pathwise Ito sum  (Tw)_a = sum_j M[a][j] eta_j.  Two requirements make
Tw exactly standard Gaussian again:

* weak adaptedness: entry (a, j) depends only on eta_1 .. eta_{j-1}, so every
  row is a predictable field and the pathwise sum coincides with the
  divergence of the row;
* pathwise orthogonality: M(omega) has orthonormal rows at every sample.

Under these two, any output functional h . Tw is the divergence of the
predictable field M^T h whose pathwise length |M^T h| = |h| is deterministic,
and conditioning coordinate by coordinate gives the exact characteristic
function exp(-|h|^2/2).  So Tw ~ N(0, I) exactly, not asymptotically; the
sampling batteries here are consistency checks, and they must also catch
planted defects that break orthogonality.

The classical operator acting on the Cameron-Martin side is the transpose
M^T (its column i is the predictable integrand of output coordinate i).  The
``constant`` construction's seeded orthogonal Q is interpreted on that side,
so applying the rotation computes Q^T . sample.

Construction is sequential in the input index: column j of M is chosen
inside the pathwise orthogonal complement of columns 1 .. j-1 by a bounded
measurable rule of the prefix eta_1 .. eta_{j-1} (arctan of seeded linear
statistics), then normalized.  Columns built this way are automatically
measurable with respect to the strict past of their own index.

Each construction is evaluated through one kernel, the product M(eta) U
with a block U of shape (N, n, k).  Rotating samples is the kernel at
U = the samples: for ``givens`` it costs O(N n^2) in reflector work plus
O(N n^3 / 6) in the seeded feature products, and no (N, n, n) stack is
formed.  The ``givens`` kernel runs over row blocks of ``BLOCK_ROWS``
samples held sample-last, (n, k, B), so its array operations run over
contiguous samples, and each row's result is the same whichever block it
falls in.  The blocks are shared out over one thread per usable CPU
(``space._over_blocks``), so the result has the same bits whatever the
CPU count.  The stack itself is the kernel at U = I; only the isometry and
strict-past certificates ask for it, the latter for the leading j columns
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .adapted import WeaklyAdaptedOperator
from .malliavin import divergence_op, gram
from .randgen import make_rng, random_orthogonal
from .space import (
    BLOCK_ROWS,
    Check,
    SampleBatch,
    _over_blocks,
    check,
    ks_normal,
    moment_normality,
    sample_batch,
)

#: Pathwise orthonormality contract for constructed isometries.
ISOMETRY_TOL = 1e-9

#: The names ``build_sequential_isometry`` accepts, in documentation order.
CONSTRUCTIONS = ("zero", "sign", "givens", "constant")


class RotationError(ValueError):
    """Unknown construction name, degenerate matrix or malformed rotation input.

    A failed sampling battery is not an error: it is reported as found.
    """


@dataclass(frozen=True)
class RotationReport:
    """Battery outcome: one ``Check`` per test, in the battery's order."""

    name: str
    tests: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tests)


class AdaptedIsometry:
    """Random rotation with strict-past-measurable matrix columns.

    A construction is one kernel ``apply_fn(draws, U)`` that returns the
    product M(draws) @ U of the row-form matrices with a block ``U`` of shape
    (N, n, k), without storing the (N, n, n) stack unless U asks for it.
    ``apply_batch`` is the kernel at the samples themselves (k = 1), and
    ``matrices`` is the kernel at the identity, for the certificates that
    need whole matrices.  Constructions with polynomial entries also expose
    the exact operator form for chaos-level checks.
    """

    def __init__(self, n, kind, apply_fn, operator=None):
        self.n = int(n)
        self.kind = str(kind)
        self._apply_fn = apply_fn
        self._operator = operator

    def _apply(self, draws, U: np.ndarray) -> np.ndarray:
        out = self._apply_fn(draws, U)
        if out.shape != (draws.shape[0], self.n, U.shape[2]):
            raise RotationError(f"construction produced shape {out.shape}")
        return out

    def _draws(self, draws) -> np.ndarray:
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != self.n:
            raise RotationError(
                f"sample block of shape {draws.shape} for input dimension {self.n}"
            )
        return draws

    def matrices(self, draws: np.ndarray) -> np.ndarray:
        """Row-form matrices, shape (N, n, n), at the given (N, n) samples."""
        draws = self._draws(draws)
        eye = np.broadcast_to(np.eye(self.n), (draws.shape[0], self.n, self.n))
        return self._apply(draws, eye)

    def apply_batch(self, draws: np.ndarray) -> np.ndarray:
        """Rotated samples M(draws) @ draws, shape (N, n)."""
        draws = self._draws(draws)
        return self._apply(draws, draws[:, :, None])[:, :, 0]

    def operator(self) -> WeaklyAdaptedOperator | None:
        """Exact chaos-polynomial form of the rows, when the entries are polynomial."""
        return self._operator


# ------------------------------------------------------------- constructors


def _constant_fn(M: np.ndarray):
    def fn(draws, U):
        return np.matmul(M, U)

    return fn


def _sign_fn(n: int):
    # output a flips with the sign of the previous increment; row 1 fixed
    def fn(draws, U):
        signs = np.ones((draws.shape[0], n))
        signs[:, 1:] = np.where(draws[:, :-1] < 0.0, -1.0, 1.0)
        return signs[:, :, None] * U

    return fn


def _sequential_fn(n: int, weights: dict):
    """Kernel of the ``givens`` chain, one Householder reflector per stage.

    Stage c picks the unit direction g_c (length n - c + 1) in the running
    complement, and the next complement is the reflector
    H_c = I - 2 v v^T / |v|^2, v = g_c + e_1, without its first column.  So
    rows 2..n of M @ U are y_2 for the backward recursion y_n = g_n u_n,
    y_c = g_c u_c + H_c [0; y_{c+1}] over the rows u_c of U, and row 1 is
    u_1.  Each g_c reads only the prefix eta_1 .. eta_{c-1}.

    The samples are processed in blocks of ``BLOCK_ROWS`` rows, each held
    sample-last: the block of U is copied to Y of shape (n, k, B) and the
    draws to X of shape (n, B), so every ufunc and contraction runs over B
    contiguous samples.  Row c of Y holds u_c until stage c overwrites rows
    c..n with y_c, so no stage's complement basis is stored, and each
    finished block is written back into the (N, n, k) output.  The blocks
    are shared out over threads (``space._over_blocks``).  Each thread
    refills its own block buffers with ``out=``: contiguous arrays of the
    shapes fresh temporaries would have, so the bits are theirs.

    Every sum runs per sample in a fixed order, so a row's result does not
    depend on the rows around it: a row slice gives the bits of the same
    slice of the whole batch.  That is why the features
    ``weights[c] @ X[:c-1]`` go through ``einsum`` and not BLAS, whose edge
    kernels round the last columns of a product differently, and why a
    block of one sample runs doubled: a single column collapses the
    contractions onto other loops.
    """

    def fn(draws, U):
        N, k = draws.shape[0], U.shape[2]
        out = np.empty((N, n, k))
        width = min(max(N, 2), BLOCK_ROWS)

        # each thread's buffers, made on the calling thread, less their sample
        # axis: X, Y, the directions g, the products g u, norms, coef, 1 + g_1, u
        shapes = [(n,), (n, k), (n - 1,), (n - 1, k), (), (k,), (), (k,)]

        def make_run():
            bufs = [np.empty(math.prod(shape) * width) for shape in shapes]

            def run(s):
                b = 2 if s == N - 1 else min(BLOCK_ROWS, N - s)
                block = [s, s] if s == N - 1 else slice(s, s + b)
                X, Y, G, P, norms, coef, den, u = (
                    buf[: math.prod(shape) * b].reshape(*shape, b)
                    for buf, shape in zip(bufs, shapes)
                )
                np.copyto(X, draws[block].T)
                np.copyto(Y, U[block].transpose(1, 2, 0))
                for c in range(n, 1, -1):
                    # weights[c] is (n-c+1, c-1), fixed by the seed
                    g = np.einsum("ij,jb->ib", weights[c], X[: c - 1], out=G[: n - c + 1])
                    np.arctan(g, out=g)
                    g[0] += 2.0  # keeps the first coefficient positive and |g| > 0
                    np.sqrt(np.einsum("ib,ib->b", g, g, out=norms), out=norms)
                    if np.any(norms < 1e-12):
                        raise RotationError(f"complement collapse at stage {c}")
                    g /= norms
                    y = Y[c - 1 :]
                    if c < n:
                        # v = g + e_1 and |g| = 1 give |v|^2 = 2 (1 + g_1), so
                        # H [0; y'] = [0; y'] - (g_{2..} . y') (g + e_1) / (1 + g_1)
                        np.einsum("ib,ikb->kb", g[1:], y[1:], out=coef)
                        coef /= np.add(g[0], 1.0, out=den)
                        np.subtract(y[0], coef, out=u)
                        np.negative(coef, out=y[0])
                    else:
                        np.copyto(u, y[0])
                        y[0] = 0.0
                    y += np.multiply(g[:, None, :], u, out=P[: n - c + 1])
                out[s : s + BLOCK_ROWS] = Y.transpose(2, 0, 1)[: N - s]

            return run

        _over_blocks(N, make_run)
        return out

    return fn


def build_sequential_isometry(n: int, seed: int, angle_spec: str) -> AdaptedIsometry:
    """Construct a pathwise-orthogonal matrix with strict-past columns.

    ``angle_spec``, one of :data:`CONSTRUCTIONS`, names the rule for each new
    column inside the running orthogonal complement:

    * ``"zero"`` - no rotation at all: the identity matrix;
    * ``"sign"`` - diagonal sign flips driven by the previous increment;
    * ``"givens"`` - seeded bounded angle functions (arctan of linear
      statistics of the prefix) choosing a complement direction per stage;
    * ``"constant"`` - the seeded random orthogonal
      ``Q = random_orthogonal(make_rng(seed), n)`` acting on the
      Cameron-Martin side, i.e. samples map through Q^T.

    Any other value raises :class:`RotationError`.
    """
    n = int(n)
    if n < 1:
        raise RotationError(f"need at least one coordinate, got n={n}")
    if angle_spec not in CONSTRUCTIONS:
        raise RotationError(f"unknown angle spec {angle_spec!r}")

    if angle_spec == "zero":
        M = np.eye(n)
        return AdaptedIsometry(
            n, "zero", _constant_fn(M), operator=WeaklyAdaptedOperator.constant(M)
        )

    if angle_spec == "sign":
        return AdaptedIsometry(n, "sign", _sign_fn(n))

    if angle_spec == "givens":
        rng = make_rng(int(seed))
        weights = {
            c: 0.7 * rng.standard_normal((n - c + 1, c - 1)) for c in range(2, n + 1)
        }
        return AdaptedIsometry(n, "givens", _sequential_fn(n, weights))

    # "constant"
    M = random_orthogonal(make_rng(int(seed)), n).T.copy()
    return AdaptedIsometry(
        n, "constant", _constant_fn(M), operator=WeaklyAdaptedOperator.constant(M)
    )


# ---------------------------------------------------------- planted defects


def _recombine_outputs(base: AdaptedIsometry, L: np.ndarray, tag: str) -> AdaptedIsometry:
    """Replace the output rows by ``L @ rows`` for a constant n x n matrix ``L``.

    Only the kernel is recombined: a planted defect has no operator form.
    """

    def fn(draws, U):
        return np.matmul(L, base._apply(draws, U))

    return AdaptedIsometry(base.n, base.kind + tag, fn)


def scale_output(base: AdaptedIsometry, index: int, factor: float) -> AdaptedIsometry:
    """Break the isometry by scaling one output row of the matrix."""
    if not 1 <= index <= base.n:
        raise RotationError(f"output index {index} outside 1..{base.n}")
    L = np.eye(base.n)
    L[index - 1, index - 1] = float(factor)
    return _recombine_outputs(base, L, "+scaled")


def mix_outputs(base: AdaptedIsometry, a: int, b: int) -> AdaptedIsometry:
    """Break independence by replacing output b with (output a + output b)/sqrt2."""
    if a == b or not (1 <= a <= base.n and 1 <= b <= base.n):
        raise RotationError(f"need two distinct output indices in 1..{base.n}")
    L = np.eye(base.n)
    L[b - 1, [a - 1, b - 1]] = 1.0 / math.sqrt(2.0)
    return _recombine_outputs(base, L, "+mixed")


# ------------------------------------------------------------------- checks


def _as_draws(samples) -> np.ndarray:
    if isinstance(samples, SampleBatch):
        return samples.draws
    return np.asarray(samples, dtype=float)


def isometry_check(R: AdaptedIsometry, samples) -> float:
    """Worst pathwise deviation of the matrix Gram from the identity.

    Per sample this is the largest absolute eigenvalue of M M^T - I, i.e.
    the spectral distance of the rows from exact orthonormality.
    """
    draws = _as_draws(samples)
    mats = R.matrices(draws)
    gram = np.einsum("sij,skj->sik", mats, mats)
    gram -= np.eye(R.n)
    eigs = np.linalg.eigvalsh(gram)
    return float(np.max(np.abs(eigs)))


def check_strict_past_measurability(R: AdaptedIsometry, samples) -> float:
    """Certify that matrix column j only reads eta_1 .. eta_{j-1}.

    Replaces all coordinates from j onward with fresh noise and measures the
    change in columns 1..j, asking the kernel for those j columns only
    (U = the first j columns of I); the contract is exact zero.
    """
    draws = _as_draws(samples)
    fresh = sample_batch(R.n, draws.shape[0], seed=271828).draws
    base = R.matrices(draws)
    eye = np.broadcast_to(np.eye(R.n), (draws.shape[0], R.n, R.n))
    gaps = []
    for j in range(1, R.n + 1):
        hybrid = draws.copy()
        hybrid[:, j - 1 :] = fresh[:, j - 1 :]
        other = R._apply(hybrid, eye[:, :, :j])
        gaps.append(np.max(np.abs(other - base[:, :, :j])))
    return float(np.max(gaps, initial=0.0))


def exact_output_covariance(R: AdaptedIsometry) -> np.ndarray:
    """Chaos-level covariance of the rotated coordinates, computed exactly.

    Available when the matrix entries are polynomial (the operator form
    exists); for a true isometry the result is the identity.
    """
    op = R.operator()
    if op is None:
        raise RotationError(f"{R.kind} rotation has no polynomial operator form")
    return gram(divergence_op(op).components)


# ---------------------------------------------------------------- batteries


def _output_functional(R: AdaptedIsometry, h) -> tuple[np.ndarray, float]:
    """Check an output functional and return it with its norm.

    It must have shape (n,), finite entries and a nonzero entry.  The
    plain ``np.linalg.norm`` is used when it is finite and nonzero; when it
    overflows (or underflows) the entries are first divided by the largest
    of them, as ``math.hypot`` does.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (R.n,):
        raise RotationError(f"functional of shape {h.shape} for d={R.n}")
    if not np.all(np.isfinite(h)):
        raise RotationError("output functional with a non-finite entry")
    big = float(np.max(np.abs(h)))
    if big == 0.0:
        raise RotationError("zero output functional")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(h))
    if not 0.0 < norm < math.inf:
        norm = big * float(np.linalg.norm(h / big))
    return h, norm


def _correlation_check(name: str, x: np.ndarray, y: np.ndarray) -> Check:
    """Sample correlation of two N-vectors against the 4/sqrt(N) gate."""
    rho = np.corrcoef(x, y)[0, 1]
    return check(name, rho, 4.0 / math.sqrt(x.size))


def gaussianity_battery(R: AdaptedIsometry, h, N: int, seed: int) -> RotationReport:
    """Is h . Tw exactly N(0, |h|^2)?  KS plus four moment z-tests."""
    h, scale = _output_functional(R, h)
    batch = sample_batch(R.n, N, seed=seed)
    vals = R.apply_batch(batch.draws) @ h / scale
    return RotationReport("gaussianity", (ks_normal(vals), *moment_normality(vals)))


def independence_battery(R: AdaptedIsometry, h1, h2, N: int, seed: int) -> RotationReport:
    """Are h1 . Tw and h2 . Tw independent for orthogonal h1, h2?

    Correlation test plus the nine factorization checks E[f(X)g(Y)] =
    E[f(X)] E[g(Y)] over f, g in {x, x^2-1, sign}.
    """
    h1, norm1 = _output_functional(R, h1)
    h2, norm2 = _output_functional(R, h2)
    # the cosine of the unit functionals, so a tiny or huge pair cannot
    # underflow or overflow to a false zero
    if abs(float((h1 / norm1) @ (h2 / norm2))) > 1e-12:
        raise RotationError("output functionals are not orthogonal")
    tw = R.apply_batch(sample_batch(R.n, N, seed=seed).draws)
    x = tw @ h1 / norm1
    y = tw @ h2 / norm2
    tests = [_correlation_check("correlation", x, y)]
    feats = {
        "x": lambda v: v,
        "x2m1": lambda v: v * v - 1.0,
        "sign": lambda v: np.where(v < 0.0, -1.0, 1.0),
    }
    fxs = {name: f(x) for name, f in feats.items()}
    fys = {name: f(y) for name, f in feats.items()}
    for fname, fx in fxs.items():
        for gname, gy in fys.items():
            prod = fx * gy
            gap = float(prod.mean() - fx.mean() * gy.mean())
            se = float(prod.std(ddof=1) / math.sqrt(N))
            tests.append(check(f"factorization_{fname}_{gname}", gap, 4.0 * se))
    return RotationReport("independence", tuple(tests))


def measure_preservation_battery(R: AdaptedIsometry, N: int, seed: int) -> RotationReport:
    """Is the law of Tw standard Gaussian on R^n?

    Entrywise covariance against the identity, per-coordinate KS tests, and
    correlation checks on the first ten coordinate pairs.
    """
    n = R.n
    tw = R.apply_batch(sample_batch(n, N, seed=seed).draws)
    tests = []
    if n > 1:
        cov = np.cov(tw.T, ddof=1)
    else:
        cov = np.array([[float(np.var(tw[:, 0], ddof=1))]])
    cov_err = np.max(np.abs(cov - np.eye(n)))
    tests.append(check("covariance_identity", cov_err, 4.0 * math.sqrt(2.0 / N)))
    for a in range(1, n + 1):
        tests.append(replace(ks_normal(tw[:, a - 1]), name=f"ks_coordinate_{a}"))
    for a, b in list(combinations(range(1, n + 1), 2))[:10]:
        tests.append(
            _correlation_check(f"independence_pair_{a}_{b}", tw[:, a - 1], tw[:, b - 1])
        )
    return RotationReport("measure_preservation", tuple(tests))

