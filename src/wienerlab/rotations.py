"""Measure-preserving adapted rotations of the Gaussian coordinate system.

A rotation is carried by a random matrix M(omega) whose output coordinate a
is the pathwise Ito sum  (Tw)_a = sum_j M[a][j] eta_j.  Two requirements make
Tw exactly standard Gaussian again:

* weak adaptedness: entry (a, j) depends only on the strict past of j (the
  filtration is stated in ``adapted``), here eta_1 .. eta_{j-1}, so every
  row is a predictable field and the pathwise sum coincides with the
  divergence of the row;
* pathwise orthogonality: M(omega) has orthonormal rows at every sample.

Under these two, any output functional h . Tw is the divergence of the
predictable field M^T h whose pathwise length |M^T h| = |h| is deterministic,
and conditioning coordinate by coordinate gives the exact characteristic
function exp(-|h|^2/2).  So Tw ~ N(0, I) exactly, not asymptotically; the
sampling batteries here are consistency checks, and they must also catch
planted defects that break orthogonality.  The verification suites compute
that conditioning for every construction through its kernel
(``suites._law_gap``).

The classical operator acting on the Cameron-Martin side is the transpose
M^T (its column i is the predictable integrand of output coordinate i).  The
``constant`` construction's seeded orthogonal Q is interpreted on that side,
so applying the rotation computes Q^T . sample.

Construction is sequential in the input index: column j of M is chosen
inside the pathwise orthogonal complement of columns 1 .. j-1 by a bounded
measurable rule of the prefix eta_1 .. eta_{j-1} (arctan of seeded linear
statistics), then normalized.  Columns built this way are automatically
measurable with respect to the strict past of their own index.

Each construction is evaluated through one block kernel, the product
M(eta) U for a block of samples and a block U of shape (b, n, k), and one
driver, ``AdaptedIsometry._blocks``, runs it over row blocks of
``BLOCK_ROWS`` samples shared out over one thread per usable CPU
(``space._over_blocks``), so the result has the same bits whatever the CPU
count.  The driver writes into one coordinate-major store, an (n, k, N)
C-ordered array returned as its (N, n, k) view: each output coordinate is
one contiguous row of N values, the row each per-coordinate statistic of
the batteries reads.  Rotating samples is the kernel at U = the samples:
for ``givens`` it costs O(N n^2) in reflector work plus O(N n^3 / 6) in
the seeded feature products, and no (N, n, n) stack is formed.  The
batteries rotate samples that no array holds: each block is drawn into a
buffer of the thread that rotates it, by the fill ``sample_batch`` uses, so
a battery holds the rotated samples, N x n values, and its statistics'
vectors only.  The stack itself is the kernel at U = I; only the isometry
and strict-past certificates ask for it, and the certificate's hybrids ask
for one column each.

The batteries' statistics run on the calling thread, but for one split in
the measure battery: a helper thread (``space._alongside``) takes the pair
correlations and the covariance's column means while the calling thread
runs the KS tests.  ``ks_normal`` is an entry point that perfbench's tracer
wraps, and the tracer keeps one span stack, so no traced call leaves the
calling thread; the helper runs plain numpy.  Each statistic takes the
steps it takes alone, so the records have the bits of a serial battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import adapted as _adapted
from .randgen import make_rng, random_orthogonal
from .space import (
    BLOCK_ROWS,
    Check,
    SampleBatch,
    _alongside,
    _fill_block,
    _integer,
    _over_blocks,
    _sampling_args,
    _seed,
    check,
    ks_normal,
    moment_normality,
    sample_batch,
)

#: Pathwise orthonormality contract for constructed isometries.
ISOMETRY_TOL = 1e-9

#: float64 values per run of ``isometry_check``'s sample-major copy (or one
#: matrix, if larger): 32 KiB, so the copies and their Gram matrices add no
#: memory peak.
_GRAM_VALUES = 2**12

#: The names ``build_sequential_isometry`` accepts, in documentation order.
CONSTRUCTIONS = ("zero", "sign", "givens", "constant")


class RotationError(ValueError):
    """Unknown construction name or malformed rotation input.

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

    A construction is one block kernel, made by ``make_kernel(width, k)``:
    the kernel ``kernel(X, U, out)`` writes the product M(X) @ U of the
    row-form matrices at a block X of at most ``width`` samples, shape
    (b, n), with a block U of shape (b, n, k) into ``out`` (b, n, k), and
    the buffers it needs are made with it.  ``_blocks`` runs it block by
    block, so the (N, n, n) stack is stored only when U asks for it.
    ``apply_batch`` is the product at the samples themselves (k = 1), and
    ``matrices`` at the identity, for the certificates that need whole
    matrices; both return views of the driver's coordinate-major store.
    The kernel is the construction's one description: every check, exact or
    sampled, reads the rotation through it.
    """

    def __init__(self, n, kind, make_kernel):
        self.n = int(n)
        self.kind = str(kind)
        self._make_kernel = make_kernel

    def _blocks(self, N: int, U=None, draws=None, seed: int = 0) -> np.ndarray:
        """M(samples) @ U, shape (N, n, k), over blocks of ``BLOCK_ROWS`` samples.

        The samples are the rows of ``draws``; when it is None, they are the
        rows that ``sample_batch(n, N, seed)`` would hold, each block drawn
        by its fill (``space._fill_block``) into a buffer of the thread that
        rotates it, so no (N, n) array of samples is built.  ``U`` is an
        (N, n, k) array, or None for the samples themselves (k = 1).  The
        blocks are shared out over threads (``space._over_blocks``); each
        thread's kernel and sample buffer are made on the calling thread,
        and a row's result is the same whichever block or thread runs it.

        The result is the (N, n, k) view of one (n, k, N) C-ordered store,
        so entry (a, j) of all N products is one contiguous row.  Each
        block's kernel gets the view of its own rows as ``out``.
        """
        n = self.n
        k = 1 if U is None else U.shape[2]
        out = np.empty((n, k, N)).transpose(2, 0, 1)
        width = min(N, BLOCK_ROWS)

        def make_run():
            kernel = self._make_kernel(width, k)
            drawn = np.empty((width, n)) if draws is None else None

            def run(s):
                rows = slice(s, s + BLOCK_ROWS)
                if draws is None:
                    X = drawn[: min(BLOCK_ROWS, N - s)]
                    _fill_block(seed, s, X)
                else:
                    X = draws[rows]
                kernel(X, X[:, :, None] if U is None else U[rows], out[rows])

            return run

        _over_blocks(N, make_run)
        return out

    def _draws(self, draws) -> np.ndarray:
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != self.n:
            raise RotationError(
                f"sample block of shape {draws.shape} for input dimension {self.n}"
            )
        return draws

    def matrices(self, draws: np.ndarray) -> np.ndarray:
        """Row-form matrices, shape (N, n, n), at the given (N, n) samples.

        A view of the coordinate-major store: entry (a, j) is one row.
        """
        draws = self._draws(draws)
        N = draws.shape[0]
        return self._blocks(N, np.broadcast_to(np.eye(self.n), (N, self.n, self.n)), draws)

    def apply_batch(self, draws: np.ndarray) -> np.ndarray:
        """Rotated samples M(draws) @ draws, shape (N, n).

        A view of the coordinate-major store: column a is one contiguous row.
        """
        draws = self._draws(draws)
        return self._blocks(draws.shape[0], draws=draws)[:, :, 0]


# ------------------------------------------------------------- constructors


def _constant_kernel(M: np.ndarray):
    def make_kernel(width, k):
        def kernel(draws, U, out):
            np.matmul(M, U, out=out)

        return kernel

    return make_kernel


def _sign_kernel(n: int):
    # output a flips with the sign of the previous increment; row 1 fixed
    def make_kernel(width, k):
        signs = np.ones((width, n, 1))

        def kernel(draws, U, out):
            s = signs[: draws.shape[0]]
            flips = s[:, 1:, 0]
            np.less(draws[:, :-1], 0.0, out=flips)
            flips *= -2.0
            flips += 1.0
            np.multiply(s, U, out=out)

        return kernel

    return make_kernel


def _sequential_kernel(n: int, weights: dict):
    """Kernel of the ``givens`` chain, one Householder reflector per stage.

    Stage c picks the unit direction g_c (length n - c + 1) in the running
    complement, and the next complement is the reflector
    H_c = I - 2 v v^T / |v|^2, v = g_c + e_1, without its first column.  So
    rows 2..n of M @ U are y_2 for the backward recursion y_n = g_n u_n,
    y_c = g_c u_c + H_c [0; y_{c+1}] over the rows u_c of U, and row 1 is
    u_1.  Each g_c reads only the prefix eta_1 .. eta_{c-1}.

    A block is held sample-last: its U is copied to Y of shape (n, k, b)
    and its draws to X of shape (n, b), so every ufunc and contraction runs
    over b contiguous samples.  Y has the layout of the driver's
    coordinate-major store, so the result leaves Y for ``out`` as one
    contiguous row copy per entry.  Row c of Y holds u_c until stage c
    overwrites rows c..n with y_c, so no stage's complement basis is
    stored.  The kernel's buffers are refilled with ``out=``: contiguous
    arrays of the shapes fresh temporaries would have, so the bits are
    theirs.

    Every sum runs per sample in a fixed order, so a row's result does not
    depend on the rows around it: a row slice gives the bits of the same
    slice of the whole batch.  That is why the features
    ``weights[c] @ X[:c-1]`` go through ``einsum`` and not BLAS, whose edge
    kernels round the last columns of a product differently, and why a
    block of one sample runs doubled: a single column collapses the
    contractions onto other loops.

    No stage can collapse: g_1 = 2 + arctan(.) lies in (2 - pi/2, 2 + pi/2),
    so |g| > 0.429 before the normalization.
    """

    def make_kernel(width, k):
        # X, Y, the directions g, the products g u, norms, coef, 1 + g_1, u,
        # less their sample axis
        shapes = [(n,), (n, k), (n - 1,), (n - 1, k), (), (k,), (), (k,)]
        bufs = [np.empty(math.prod(shape) * max(width, 2)) for shape in shapes]

        def kernel(draws, U, out):
            b = max(draws.shape[0], 2)
            X, Y, G, P, norms, coef, den, u = (
                buf[: math.prod(shape) * b].reshape(*shape, b)
                for buf, shape in zip(bufs, shapes)
            )
            # a lone sample is broadcast to both columns
            np.copyto(X, draws.T)
            np.copyto(Y, U.transpose(1, 2, 0))
            for c in range(n, 1, -1):
                # weights[c] is (n-c+1, c-1), fixed by the seed
                g = np.einsum("ij,jb->ib", weights[c], X[: c - 1], out=G[: n - c + 1])
                np.arctan(g, out=g)
                g[0] += 2.0  # in (2 - pi/2, 2 + pi/2): positive, and |g| > 0.429
                np.sqrt(np.einsum("ib,ib->b", g, g, out=norms), out=norms)
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
            out[...] = Y.transpose(2, 0, 1)[: draws.shape[0]]

        return kernel

    return make_kernel


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

    Any other value raises :class:`RotationError`, and so do a non-integer
    ``n`` or ``seed`` and a seed outside 0 .. 2**64 - 1, the seeds the
    batteries can sample with.
    """
    n, seed = _integer(n, "n", RotationError), _seed(seed, RotationError)
    if n < 1:
        raise RotationError(f"need at least one coordinate, got n={n}")
    if angle_spec not in CONSTRUCTIONS:
        raise RotationError(f"unknown angle spec {angle_spec!r}")

    if angle_spec == "zero":
        return AdaptedIsometry(n, "zero", _constant_kernel(np.eye(n)))

    if angle_spec == "sign":
        return AdaptedIsometry(n, "sign", _sign_kernel(n))

    if angle_spec == "givens":
        rng = make_rng(seed)
        weights = {
            c: 0.7 * rng.standard_normal((n - c + 1, c - 1)) for c in range(2, n + 1)
        }
        return AdaptedIsometry(n, "givens", _sequential_kernel(n, weights))

    # "constant"
    M = random_orthogonal(make_rng(seed), n).T.copy()
    return AdaptedIsometry(n, "constant", _constant_kernel(M))


# ---------------------------------------------------------- planted defects


def _recombine_outputs(base: AdaptedIsometry, L: np.ndarray, tag: str) -> AdaptedIsometry:
    """Replace the output rows by ``L @ rows`` for a constant n x n matrix ``L``.

    Only the kernel is recombined, block by block through a buffer of the
    base rows.
    """

    def make_kernel(width, k):
        kernel = base._make_kernel(width, k)
        rows = np.empty((width, base.n, k))

        def recombined(draws, U, out):
            block = rows[: draws.shape[0]]
            kernel(draws, U, block)
            np.matmul(L, block, out=out)

        return recombined

    return AdaptedIsometry(base.n, base.kind + tag, make_kernel)


def scale_output(base: AdaptedIsometry, index: int, factor: float) -> AdaptedIsometry:
    """Break the isometry by scaling one output row of the matrix."""
    index = _integer(index, "output index", RotationError)
    if not 1 <= index <= base.n:
        raise RotationError(f"output index {index} outside 1..{base.n}")
    L = np.eye(base.n)
    L[index - 1, index - 1] = float(factor)
    return _recombine_outputs(base, L, "+scaled")


def mix_outputs(base: AdaptedIsometry, a: int, b: int) -> AdaptedIsometry:
    """Break independence by replacing output b with (output a + output b)/sqrt2."""
    a, b = (_integer(i, "output index", RotationError) for i in (a, b))
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
    the spectral distance of the rows from exact orthonormality.  The stack
    is stored coordinate-major, so each run of samples, ``_GRAM_VALUES``
    entries or one matrix, is copied to sample-major matrices first: the
    Gram sums then run over contiguous rows, and a sample's gap does not
    depend on the run it is in.
    """
    draws = _as_draws(samples)
    mats = R.matrices(draws)
    eye = np.eye(R.n)
    rows = max(_GRAM_VALUES // R.n**2, 1)
    gaps = []
    for s in range(0, len(mats), rows):
        run = np.ascontiguousarray(mats[s : s + rows])
        gram = np.einsum("sij,skj->sik", run, run)
        gram -= eye
        gaps.append(np.max(np.abs(np.linalg.eigvalsh(gram))))
    return float(np.max(gaps))


def check_strict_past_measurability(R: AdaptedIsometry, samples) -> float:
    """Certify that matrix column j only reads the strict past of j.

    The strict past is ``adapted``'s: eta_1 .. eta_{j-1} for one coordinate
    per stage.  Replaces every coordinate past it with fresh noise and
    measures the change in column j, asking the kernel for that column only
    (U = e_j); the contract is exact zero.  Column i < j needs no look under
    the hybrid of j: its strict past lies inside j's, so its own hybrid
    already replaces every coordinate that j's replaces.
    """
    draws = _as_draws(samples)
    N, n = draws.shape[0], R.n
    fresh = sample_batch(n, N, seed=271828).draws
    base = R.matrices(draws)
    eye = np.eye(n)
    gaps = []
    for j, past in enumerate(_adapted._PAST[1 : n + 1], start=1):
        hybrid = np.concatenate((draws[:, :past], fresh[:, past:]), axis=1)
        column = R._blocks(N, np.broadcast_to(eye[:, j - 1 : j], (N, n, 1)), hybrid)
        gaps.append(np.max(np.abs(column[:, :, 0] - base[:, :, j - 1])))
    return float(np.max(gaps, initial=0.0))


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


def _correlation(x: np.ndarray, y: np.ndarray, pair: np.ndarray) -> np.float64:
    """``np.corrcoef(x, y)[0, 1]`` by its own steps, in ``pair``, a (2, N) buffer.

    The steps and the layout are numpy's, so the bits are too: x and y are
    copied to the rows of ``pair``, centred, and the 2 x 2 product is
    scaled by 1/(N - 1) and by the standard deviations, then clipped to
    [-1, 1].  A zero-variance vector gives NaN.
    """
    pair[0] = x
    pair[1] = y
    pair -= pair.mean(axis=1)[:, None]
    c = np.dot(pair, pair.T.conj())
    c *= np.true_divide(1, pair.shape[1] - 1)
    stddev = np.sqrt(np.diag(c))
    c /= stddev[:, None]
    c /= stddev[None, :]
    np.clip(c, -1, 1, out=c)
    return c[0, 1]


def _correlation_check(name: str, x: np.ndarray, y: np.ndarray, pair: np.ndarray) -> Check:
    """Sample correlation of two N-vectors against the 4/sqrt(N) gate."""
    return check(name, _correlation(x, y, pair), 4.0 / math.sqrt(x.size))


def _rotated_sample(R: AdaptedIsometry, N: int, seed: int) -> np.ndarray:
    """``R.apply_batch(sample_batch(R.n, N, seed).draws)``, shape (N, n).

    Each block of samples is drawn and rotated in place, in a buffer of the
    thread that runs it, so the drawn (N, n) array is never built.  Like
    ``apply_batch``, it is a view of the coordinate-major store, each
    coordinate one contiguous row.
    """
    _, N, seed = _sampling_args(R.n, N, seed)
    return R._blocks(N, seed=seed)[:, :, 0]


def _covariance_in_place(tw: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
    """``np.cov(tw.T, ddof=1)`` by its own steps, centering ``tw`` in place.

    ``mean`` is ``tw``'s column means, ``tw.T.mean(axis=1)``, when they are
    already taken.  On a rotated sample ``tw.T`` is C-ordered, so the
    centring and the product run over contiguous rows.
    """
    X = tw.T
    X -= (X.mean(axis=1) if mean is None else mean)[:, None]
    c = np.dot(X, X.T.conj())
    c *= np.true_divide(1, tw.shape[0] - 1)
    return c


def gaussianity_battery(R: AdaptedIsometry, h, N: int, seed: int) -> RotationReport:
    """Is h . Tw exactly N(0, |h|^2)?  KS plus four moment z-tests."""
    h, scale = _output_functional(R, h)
    vals = _rotated_sample(R, N, seed) @ h / scale
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
    tw = _rotated_sample(R, N, seed)
    x = tw @ h1 / norm1
    y = tw @ h2 / norm2
    del tw  # the features below need only x and y
    tests = [_correlation_check("correlation", x, y, np.empty((2, x.size)))]
    feats = {
        "x": lambda v: v,
        "x2m1": lambda v: v * v - 1.0,
        "sign": lambda v: np.where(v < 0.0, -1.0, 1.0),
    }
    fxs = {name: f(x) for name, f in feats.items()}
    fys = {name: f(y) for name, f in feats.items()}
    means_x = {name: fx.mean() for name, fx in fxs.items()}
    means_y = {name: gy.mean() for name, gy in fys.items()}
    for fname, fx in fxs.items():
        for gname, gy in fys.items():
            prod = fx * gy
            gap = float(prod.mean() - means_x[fname] * means_y[gname])
            se = float(prod.std(ddof=1) / math.sqrt(N))
            tests.append(check(f"factorization_{fname}_{gname}", gap, 4.0 * se))
    return RotationReport("independence", tuple(tests))


def measure_preservation_battery(R: AdaptedIsometry, N: int, seed: int) -> RotationReport:
    """Is the law of Tw standard Gaussian on R^n?

    Entrywise covariance against the identity, per-coordinate KS tests, and
    correlation checks on the first ten coordinate pairs.

    The n KS tests are one family at level at most 0.01: each coordinate is
    tested at Šidák's level 1 - 0.99**(1/n).  Under the null the coordinates
    are independent, so the family fails with probability
    1 - (1 - a)**n <= 0.01, a being each test's own level, at most Šidák's.

    Once the rotated samples are in, a helper thread (``space._alongside``)
    takes the pair correlations, in one (2, N) buffer made here, and the
    covariance's column means, while the calling thread runs the KS tests.
    ``ks_normal`` stays on the calling thread because perfbench's tracer
    wraps it and keeps one span stack; the helper calls no traced entry
    point.  After the join the calling thread centres the samples in place
    with those means and takes the covariance product.  The records have
    the bits of a serial battery.  Coordinate a is ``tw[:, a - 1]``, one
    contiguous row of the coordinate-major store, for every statistic: the
    KS sorts, the pair copies, the means and the centring.
    """
    n = R.n
    tw = _rotated_sample(R, N, seed)
    pair = np.empty((2, tw.shape[0])) if n > 1 else None

    def correlations():
        pairs = [
            _correlation_check(f"independence_pair_{a}_{b}", tw[:, a - 1], tw[:, b - 1], pair)
            for a, b in list(combinations(range(1, n + 1), 2))[:10]
        ]
        return pairs, tw.T.mean(axis=1)

    def ks_tests():
        # 1 - 0.99**(1/n) without the cancellation: exactly 0.01 at n = 1
        alpha = -math.expm1(math.log1p(-0.01) / n)
        return [
            replace(ks_normal(tw[:, a - 1], alpha), name=f"ks_coordinate_{a}")
            for a in range(1, n + 1)
        ]

    (pairs, mean), ks = _alongside(correlations, ks_tests)
    if n > 1:
        cov = _covariance_in_place(tw, mean)
    else:
        cov = np.array([[float(np.var(tw[:, 0], ddof=1))]])
    cov_err = np.max(np.abs(cov - np.eye(n)))
    covariance = check("covariance_identity", cov_err, 4.0 * math.sqrt(2.0 / N))
    return RotationReport("measure_preservation", (covariance, *ks, *pairs))
