"""Adapted rotations: construction, exact Gaussianity, batteries, recovery."""

import importlib
import math
import sys
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy import stats

from helpers import STAGE_TABLES, THREADED_SIZES, constant_field, make_rng, stages, with_workers
from test_tracing_names import TRACING, traced_paths
from wienerlab import cli, rotations
from wienerlab.chaos import evaluate_batch
from wienerlab.malliavin import divergence_op
from wienerlab.randgen import random_orthogonal
from wienerlab.rotations import (
    CONSTRUCTIONS,
    AdaptedIsometry,
    RotationError,
    _correlation,
    _correlation_check,
    _covariance_in_place,
    _rotated_sample,
    build_sequential_isometry,
    check_strict_past_measurability,
    gaussianity_battery,
    independence_battery,
    isometry_check,
    measure_preservation_battery,
    mix_outputs,
    scale_output,
)
from wienerlab.space import BLOCK_ROWS, Check, ks_critical, ks_normal, moment_normality, sample_batch
from wienerlab.suites import _LAW_NODES, _gauss_rule, _law_gap

N_BATTERY = 200_000
SEED = 20240815


def draws_for(n, count=1000, seed=777):
    return sample_batch(n, count, seed=seed).draws


def by_name(report, name):
    return next(t for t in report.tests if t.name == name)


def householder_reference(n, seed, draws):
    """The ``givens`` matrix stack built column by column, shape (N, n, n).

    Independent of the package kernel: it stores the complement basis B of
    the columns chosen so far, takes column c as B g_c, and re-spans the
    complement with the Householder reflector sending g_c to -e_1, dropping
    its first column.  The seeded weights are drawn as the construction
    draws them.
    """
    rng = make_rng(seed)
    weights = {c: 0.7 * rng.standard_normal((n - c + 1, c - 1)) for c in range(2, n + 1)}
    N = draws.shape[0]
    M = np.zeros((N, n, n))
    M[:, 0, 0] = 1.0
    B = np.broadcast_to(np.eye(n)[:, 1:], (N, n, n - 1)).copy()
    for c in range(2, n + 1):
        g = np.arctan(draws[:, : c - 1] @ weights[c].T)
        g[:, 0] += 2.0
        ghat = g / np.linalg.norm(g, axis=1, keepdims=True)
        M[:, :, c - 1] = np.einsum("sik,sk->si", B, ghat)
        v = ghat.copy()
        v[:, 0] += 1.0
        Bv = np.einsum("sik,sk->si", B, v)
        B = B - 2.0 * Bv[:, :, None] * v[:, None, :] / np.sum(v * v, axis=1)[:, None, None]
        B = B[:, :, 1:]
    return M


# ------------------------------------------------------------- construction


def test_zero_spec_is_identity():
    R = build_sequential_isometry(3, seed=1, angle_spec="zero")
    x = np.array([0.3, -1.2, 0.8])
    assert np.array_equal(R.apply_batch(x[None])[0], x)
    assert isometry_check(R, draws_for(3)) == 0.0


def test_sign_spec_hand_values():
    R = build_sequential_isometry(2, seed=1, angle_spec="sign")
    assert np.allclose(R.apply_batch(np.array([0.5, 2.0])[None])[0], [0.5, 2.0])
    assert np.allclose(R.apply_batch(np.array([-0.5, 2.0])[None])[0], [-0.5, -2.0])
    # sign of zero counts as positive so the matrix stays orthogonal
    assert np.allclose(R.apply_batch(np.array([0.0, 2.0])[None])[0], [0.0, 2.0])


def test_constant_spec_applies_transpose():
    Q = random_orthogonal(make_rng(1), 3)
    R = build_sequential_isometry(3, seed=1, angle_spec="constant")
    x = make_rng(42).standard_normal(3)
    assert np.allclose(R.apply_batch(x[None])[0], Q.T @ x, atol=1e-12)


def test_unknown_spec_rejected():
    with pytest.raises(RotationError):
        build_sequential_isometry(2, seed=1, angle_spec="whirl")
    # the spec is one of four names; a descriptor dict is not one
    for spec in ({"kind": "constant"}, {"kind": "constant", "matrix": np.eye(2)}, None):
        with pytest.raises(RotationError):
            build_sequential_isometry(2, seed=1, angle_spec=spec)
    with pytest.raises(RotationError):
        build_sequential_isometry(0, seed=1, angle_spec="zero")


@pytest.mark.parametrize(
    "n, seed, what", [(2.9, 0, "n 2.9"), (3.0, 0, "n 3.0"), (3, 0.5, "seed 0.5")], ids=["n", "integral_n", "seed"]
)
def test_construction_refuses_a_non_integer_size_or_seed(n, seed, what):
    # nothing is truncated: n = 2.9 builds no 2 x 2 rotation
    with pytest.raises(RotationError, match=f"^{what} is not an integer$"):
        build_sequential_isometry(n, seed, "givens")


@pytest.mark.parametrize("spec", ["zero", "sign", "givens", "constant"])
def test_construction_refuses_a_seed_the_batteries_cannot_sample_with(spec):
    # every construction takes the seeds of sample_batch, 0 .. 2**64 - 1
    for seed in (-1, 2**64, 2**130):
        with pytest.raises(RotationError, match="^seed must fit in an unsigned 64-bit integer$"):
            build_sequential_isometry(3, seed, spec)
    for seed in (0, 2**64 - 1):
        R = build_sequential_isometry(3, seed, spec)
        assert gaussianity_battery(R, np.ones(3), 100, seed).tests[0].name == "ks"


def test_construction_takes_numpy_ints():
    R = build_sequential_isometry(np.int32(3), np.int64(4), "givens")
    x = make_rng(5).standard_normal((50, 3))
    assert R.n == 3
    assert np.array_equal(R.matrices(x), build_sequential_isometry(3, 4, "givens").matrices(x))


def test_planted_defects_refuse_a_non_integer_output_index():
    base = build_sequential_isometry(3, seed=1, angle_spec="zero")
    with pytest.raises(RotationError, match="^output index 1.0 is not an integer$"):
        scale_output(base, 1.0, 2.0)
    with pytest.raises(RotationError, match="^output index 2.5 is not an integer$"):
        mix_outputs(base, 1, 2.5)
    # out of range keeps its message, and numpy ints are indices
    with pytest.raises(RotationError, match="^output index 4 outside 1..3$"):
        scale_output(base, 4, 2.0)
    with pytest.raises(RotationError, match="^need two distinct output indices in 1..3$"):
        mix_outputs(base, np.int64(2), 2)
    x = make_rng(6).standard_normal((20, 3))
    assert np.array_equal(scale_output(base, np.int64(2), 2.0).matrices(x), scale_output(base, 2, 2.0).matrices(x))
    assert np.array_equal(mix_outputs(base, np.int8(1), np.int64(3)).matrices(x), mix_outputs(base, 1, 3).matrices(x))


def test_sequential_construction_is_pathwise_orthogonal():
    for n in (1, 2, 4, 8):
        R = build_sequential_isometry(n, seed=7, angle_spec="givens")
        assert isometry_check(R, draws_for(n)) <= 1e-9


def test_sequential_first_column_deterministic():
    R = build_sequential_isometry(4, seed=11, angle_spec="givens")
    mats = R.matrices(draws_for(4, count=64))
    first = mats[:, :, 0]
    assert np.array_equal(first, np.tile(first[0], (64, 1)))
    assert np.allclose(first[0], [1.0, 0.0, 0.0, 0.0])


def test_strict_past_measurability_certificate():
    specs = ("zero", "constant", "sign", "givens")
    for spec in specs:
        R = build_sequential_isometry(4, seed=9, angle_spec=spec)
        assert check_strict_past_measurability(R, draws_for(4, count=256)) == 0.0
    # under the stages {1, 2}, {3, 4}, sign and givens read inside their own
    # stage; zero and constant read nothing
    with stages(STAGE_TABLES["pairs"]):
        for spec in specs:
            R = build_sequential_isometry(4, seed=9, angle_spec=spec)
            gap = check_strict_past_measurability(R, draws_for(4, count=256))
            assert gap > 0.0 if spec in ("sign", "givens") else gap == 0.0


def test_strict_past_certificate_keeps_nan():
    # a NaN entry in the last column must not vanish in the fold over columns
    def make_kernel(width, k):
        def kernel(draws, U, out):
            # M = I with a NaN at entry (1, 3): the NaN reaches output row 1
            # wherever the third input row of U has weight
            out[...] = U
            out[:, 0] += np.where(U[:, 2] != 0.0, np.nan, 0.0)

        return kernel

    R = AdaptedIsometry(3, "nan", make_kernel)
    assert math.isnan(check_strict_past_measurability(R, draws_for(3)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_strict_past_certificate_flags_a_column_reading_its_own_coordinate(n):
    # M = diag(s) with s_j = sign(eta_j) at one column j, 1 elsewhere: an
    # exact isometry whose column j reads eta_j, the present of j; only the
    # comparison of column j under the hybrid of j sees it
    for j in range(1, n + 1):
        def make_kernel(width, k, j=j):
            def kernel(draws, U, out):
                signs = np.ones(draws.shape + (1,))
                signs[:, j - 1, 0] = np.where(draws[:, j - 1] < 0.0, -1.0, 1.0)
                np.multiply(signs, U, out=out)

            return kernel

        R = AdaptedIsometry(n, "present", make_kernel)
        x = draws_for(n, count=256)
        assert isometry_check(R, x) == 0.0
        assert check_strict_past_measurability(R, x) == 2.0


def test_construction_reproducible():
    a = build_sequential_isometry(5, seed=123, angle_spec="givens")
    b = build_sequential_isometry(5, seed=123, angle_spec="givens")
    d = draws_for(5, count=128)
    assert np.array_equal(a.matrices(d), b.matrices(d))
    c = build_sequential_isometry(5, seed=124, angle_spec="givens")
    assert not np.array_equal(a.matrices(d), c.matrices(d))


# ----------------------------------------------------------- rotation kernel


def test_givens_kernel_matches_householder_reference():
    for n in range(1, 9):
        R = build_sequential_isometry(n, seed=17, angle_spec="givens")
        x = draws_for(n, count=500)
        ref = householder_reference(n, 17, x)
        assert np.max(np.abs(R.matrices(x) - ref)) <= 1e-12
        applied = np.einsum("sij,sj->si", ref, x)
        assert np.max(np.abs(R.apply_batch(x) - applied)) <= 1e-12
        if n < 2:
            continue
        scaled, mixed = np.eye(n), np.eye(n)
        scaled[n - 1, n - 1] = 2.0
        mixed[n - 1, [0, n - 1]] = 1.0 / math.sqrt(2.0)
        for bad, L in ((scale_output(R, n, 2.0), scaled), (mix_outputs(R, 1, n), mixed)):
            assert np.max(np.abs(bad.matrices(x) - L @ ref)) <= 1e-12
            assert np.max(np.abs(bad.apply_batch(x) - applied @ L.T)) <= 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(["zero", "sign", "givens", "constant"]),
)
def test_apply_batch_is_the_matrix_stack_applied(n, seed, spec):
    R = build_sequential_isometry(n, seed=seed, angle_spec=spec)
    x = draws_for(n, count=64, seed=seed)
    applied = R.apply_batch(x)
    assert np.max(np.abs(applied - np.einsum("sij,sj->si", R.matrices(x), x))) <= 1e-12
    gap = np.abs(np.linalg.norm(applied, axis=1) - np.linalg.norm(x, axis=1))
    assert np.max(gap) <= 1e-12
    assert check_strict_past_measurability(R, x) == 0.0


def test_givens_apply_at_dimension_64():
    n = 64
    R = build_sequential_isometry(n, seed=23, angle_spec="givens")
    x = draws_for(n, count=2000)
    applied = R.apply_batch(x)
    assert applied.shape == (2000, n)
    gap = np.abs(np.linalg.norm(applied, axis=1) - np.linalg.norm(x, axis=1))
    assert np.max(gap) <= 1e-12
    head = x[:200]
    ref = np.einsum("sij,sj->si", householder_reference(n, 23, head), head)
    assert np.max(np.abs(applied[:200] - ref)) <= 1e-12


def test_givens_kernel_across_block_boundaries():
    # the kernel runs in row blocks of BLOCK_ROWS; three blocks, the last of 3 rows
    n, N = 6, 2 * BLOCK_ROWS + 3
    R = build_sequential_isometry(n, seed=29, angle_spec="givens")
    x = draws_for(n, count=N, seed=31)
    ref = householder_reference(n, 29, x)
    assert np.max(np.abs(R.matrices(x) - ref)) <= 1e-12
    applied = np.einsum("sij,sj->si", ref, x)
    assert np.max(np.abs(R.apply_batch(x) - applied)) <= 1e-12


@pytest.mark.parametrize("n", [1, 7, 20])
def test_row_slice_apply_is_the_slice_of_the_full_apply(n):
    # a row's bits do not depend on the rows processed with it, also for a
    # lone row, a block remainder and a slice straddling a block boundary
    R = build_sequential_isometry(n, seed=37, angle_spec="givens")
    x = draws_for(n, count=2 * BLOCK_ROWS + 3, seed=41).copy()
    before = x.copy()
    full = R.apply_batch(x)
    for start, stop in [(0, 1), (7, 8), (3, 12), (5, 906), (BLOCK_ROWS - 2, BLOCK_ROWS + 5),
                        (BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3), (2 * BLOCK_ROWS + 2, None)]:
        assert np.array_equal(R.apply_batch(x[start:stop]), full[start:stop])
    head = x[: BLOCK_ROWS + 5]
    mats = R.matrices(head)
    for start, stop in [(0, 1), (7, 8), (3, 12), (BLOCK_ROWS - 2, None)]:
        assert np.array_equal(R.matrices(head[start:stop]), mats[start:stop])
    # the kernel copies its blocks and never writes into the caller's samples
    assert np.array_equal(x, before)


@pytest.mark.parametrize("N", [0, *THREADED_SIZES])
def test_threaded_kernels_equal_one_worker(monkeypatch, N):
    # blocks shared out over threads: every construction and planted defect
    # has the bits of one worker, for the samples and for the matrices
    n = 5
    x = draws_for(n, count=N, seed=43) if N else np.empty((0, n))
    givens = build_sequential_isometry(n, seed=47, angle_spec="givens")
    rotations = [build_sequential_isometry(n, seed=47, angle_spec=s) for s in
                 ("zero", "sign", "constant")]
    rotations += [givens, scale_output(givens, 2, 3.0), mix_outputs(givens, 1, n)]
    for R in rotations:
        def run():
            return R.apply_batch(x), R.matrices(x)

        one = with_workers(monkeypatch, 1, run)
        for count in (2, None):
            got = with_workers(monkeypatch, count, run)
            for a, b in zip(got, one):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), R.kind


def _all_rotations(n, seed):
    """Every construction and both planted defects, as far as n allows."""
    givens = build_sequential_isometry(n, seed=seed, angle_spec="givens")
    rotations = [build_sequential_isometry(n, seed=seed, angle_spec=s) for s in
                 ("zero", "sign", "constant")]
    rotations += [givens, scale_output(givens, n, 3.0)]
    return rotations + ([mix_outputs(givens, 1, n)] if n > 1 else [])


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("N", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_streamed_sample_is_the_rotated_batch(monkeypatch, n, N):
    # the batteries draw and rotate each block in place: the bits of the
    # drawn batch rotated whole, with one worker, more workers than blocks,
    # and all usable CPUs
    for R in _all_rotations(n, 53):
        oracle = R.apply_batch(sample_batch(n, N, seed=59).draws)
        for count in (1, 4, None):
            got = with_workers(monkeypatch, count, lambda: _rotated_sample(R, N, 59))
            assert got.shape == oracle.shape and got.tobytes() == oracle.tobytes(), R.kind


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("N", [1, BLOCK_ROWS + 1])
def test_rotated_samples_are_stored_coordinate_major(n, N):
    # one store, (n, k, N) C-ordered, read back as (N, n, k): each output
    # coordinate is one contiguous row, for the streamed and the given samples
    x = draws_for(n, count=N, seed=79)
    for R in _all_rotations(n, 83):
        for tw in (_rotated_sample(R, N, 89), R.apply_batch(x)):
            assert tw.shape == (N, n) and tw.T.flags.c_contiguous, R.kind
            assert all(tw[:, a].flags.c_contiguous for a in range(n)), R.kind
        mats = R.matrices(x)
        assert mats.shape == (N, n, n) and mats.transpose(1, 2, 0).flags.c_contiguous, R.kind


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def test_batteries_are_their_statistics_of_the_rotated_batch():
    # each battery's rows, computed the direct way from the drawn batch; the
    # measure battery's statistics run on two threads and keep these bits
    _assert_batteries_are_their_statistics(3)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_batteries_are_their_statistics_at_any_size(n):
    # one coordinate (no pairs), one pair, and more pairs than the ten kept
    _assert_batteries_are_their_statistics(n)


def _assert_batteries_are_their_statistics(n):
    N, seed = 2 * BLOCK_ROWS + 1, 61
    pairs = list(combinations(range(1, n + 1), 2))[:10]
    assert len(pairs) == min(n * (n - 1) // 2, 10)
    for R in _all_rotations(n, 67):
        tw = R.apply_batch(sample_batch(n, N, seed=seed).draws)
        h = np.linspace(0.5, -1.0, n) if n > 1 else np.array([0.5])
        vals = tw @ h / np.linalg.norm(h)
        expected = (ks_normal(vals), *moment_normality(vals))
        assert gaussianity_battery(R, h, N, seed).tests == expected, R.kind
        rep = measure_preservation_battery(R, N, seed)
        names = [t.name for t in rep.tests]
        assert names == ["covariance_identity", *(f"ks_coordinate_{a}" for a in range(1, n + 1)),
                         *(f"independence_pair_{a}_{b}" for a, b in pairs)]
        cov = np.cov(tw.T, ddof=1) if n > 1 else np.var(tw[:, 0], ddof=1)
        cov_err = np.max(np.abs(cov - np.eye(n)))
        assert _bits(by_name(rep, "covariance_identity").statistic) == _bits(cov_err), R.kind
        for a in range(1, n + 1):
            got = by_name(rep, f"ks_coordinate_{a}").statistic
            assert _bits(got) == _bits(ks_normal(tw[:, a - 1]).statistic), (R.kind, a)
        for a, b in pairs:
            rho = np.corrcoef(tw[:, a - 1], tw[:, b - 1])[0, 1]
            assert _bits(by_name(rep, f"independence_pair_{a}_{b}").statistic) == _bits(rho), (R.kind, a, b)


@pytest.mark.parametrize("N, n", [(200_000, 8), (50_000, 6), (20_000, 64), (1000, 2),
                                  (2, 3), (BLOCK_ROWS + 1, 5)])
def test_correlation_is_numpy_corrcoef(N, n):
    tw = sample_batch(n, N, seed=N + n).draws
    pair = np.empty((2, N))
    for a, b in [(0, 1), (0, n - 1), (n - 2, n - 1)]:
        x, y = tw[:, a], tw[:, b]
        got = _correlation(x, y, pair)
        assert got.tobytes() == np.corrcoef(x, y)[0, 1].tobytes(), (a, b)
    # a zero-variance vector gives NaN, as numpy's does, and fails its check
    flat = np.full(N, 0.25)
    with np.errstate(invalid="ignore"):
        assert math.isnan(np.corrcoef(tw[:, 0], flat)[0, 1])
        assert math.isnan(_correlation(tw[:, 0], flat, pair))
        assert not _correlation_check("flat", flat, tw[:, 0], pair).passed


def test_a_failed_correlation_reaches_the_caller_and_no_thread_is_left(monkeypatch):
    # the pair correlations run on the battery's helper thread
    R = build_sequential_isometry(4, seed=3, angle_spec="givens")
    before = threading.active_count()

    def planted(x, y, pair):
        assert threading.current_thread() is not threading.main_thread()
        raise ArithmeticError("planted on the helper")

    monkeypatch.setattr(rotations, "_correlation", planted)
    with pytest.raises(ArithmeticError, match="planted on the helper"):
        measure_preservation_battery(R, 20_000, 5)
    assert threading.active_count() == before


def test_rotate_calls_every_traced_entry_point_on_the_main_thread(tmp_path, monkeypatch):
    # perfbench's tracer keeps one span stack, so a traced entry point must
    # not run on a helper or block thread; the entries are read as the
    # tracer lists them, without importing it
    calls = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "wienerlab" or name.startswith("wienerlab."))]
    for module, path in traced_paths(TRACING.read_text()):
        owner = importlib.import_module(f"wienerlab.{module}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        original = vars(owner)[attr]

        def wrapper(*args, _fn=original, _name=f"{module}.{path}", **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _fn(*args, **kwargs)

        if classes:
            monkeypatch.setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    code = cli.main(["rotate", "--n", "8", "--n-samples", "20000", "--output", str(tmp_path / "r.json")])
    assert code in (0, 1)
    assert [name for name, main in calls if not main] == []
    assert sum(name == "space.ks_normal" for name, _ in calls) == 9
    assert ("rotations.measure_preservation_battery", True) in calls


@pytest.mark.parametrize("N, n", [(200_000, 8), (50_000, 6), (20_000, 64), (1000, 2),
                                  (2, 3), (BLOCK_ROWS + 1, 5)])
def test_covariance_in_place_is_numpy_cov(N, n):
    tw = sample_batch(n, N, seed=N + n).draws
    expected = np.cov(tw.T, ddof=1)
    got = _covariance_in_place(tw.copy())
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    # and on the layout the batteries hold
    R = build_sequential_isometry(n, seed=71, angle_spec="givens")
    rotated = _rotated_sample(R, N, 73)
    expected = np.cov(rotated.T, ddof=1)
    assert _covariance_in_place(rotated).tobytes() == expected.tobytes()


def test_batteries_hold_less_than_two_sample_blocks(monkeypatch):
    # a block is the (N, n) float64 array; the drawn samples are never built,
    # so a battery holds the rotated block and its statistics' vectors, plus
    # each worker's block buffers (two workers here)
    n, N = 8, 200_000
    block = N * n * 8
    R = build_sequential_isometry(n, seed=0, angle_spec="givens")
    e = np.eye(n)
    runs = (
        lambda: gaussianity_battery(R, np.ones(n) / math.sqrt(n), N, 11),
        lambda: independence_battery(R, e[0], e[1], N, 13),
        lambda: measure_preservation_battery(R, N, 17),
    )
    for run in runs:
        tracemalloc.start()
        try:
            with_workers(monkeypatch, 2, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * block, peak / block


# --------------------------------------------------------- exact invariants


def test_pathwise_rotation_matches_divergence():
    # for the constant rotation the rotated sample is the evaluated
    # divergence of the matrix rows, taken as deterministic fields, at
    # every sample
    rng = make_rng(43)
    R = build_sequential_isometry(3, seed=2, angle_spec="constant")
    comps = divergence_op(constant_field(R.matrices(np.zeros((1, 3)))[0])).components
    for _ in range(20):
        x = rng.standard_normal(3)
        tw = R.apply_batch(x[None])[0]
        alg = np.array([evaluate_batch(p, x[None])[0] for p in comps])
        assert np.max(np.abs(tw - alg)) <= 1e-10


def test_gauss_rule_matches_hermegauss():
    nodes, weights = _gauss_rule()
    want_nodes, want_weights = hermite_e.hermegauss(_LAW_NODES)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-14
    assert np.max(np.abs(weights - want_weights / math.sqrt(2.0 * math.pi))) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spec", CONSTRUCTIONS)
def test_law_gap_is_roundoff_for_every_construction(n, spec):
    # the characteristic function by conditioning, through the kernel alone
    assert _law_gap(build_sequential_isometry(n, seed=1011, angle_spec=spec)) <= 1e-14


def test_law_gap_catches_the_planted_defects():
    # scaling output 1 by 2 takes the e_1 value to exp(-2); mixing output 1
    # into output 3 correlates them, so the all-ones direction's variance
    # leaves 1
    zero = build_sequential_isometry(3, seed=1011, angle_spec="zero")
    givens = build_sequential_isometry(3, seed=1011, angle_spec="givens")
    assert _law_gap(scale_output(zero, 1, 2.0)) > 0.05
    assert _law_gap(mix_outputs(givens, 1, 3)) > 0.05


# ----------------------------------------------------------------- batteries


def test_gaussianity_battery_identity_and_sign():
    R = build_sequential_isometry(2, seed=5, angle_spec="zero")
    rep = gaussianity_battery(R, np.array([1.0, 0.0]), N_BATTERY, seed=SEED)
    assert rep.passed, rep
    R = build_sequential_isometry(2, seed=5, angle_spec="sign")
    rep = gaussianity_battery(R, np.array([0.0, 1.0]), N_BATTERY, seed=SEED)
    assert rep.passed, rep


def test_gaussianity_battery_sequential_mixed_functional():
    R = build_sequential_isometry(4, seed=6, angle_spec="givens")
    h = np.array([0.5, -1.0, 0.25, 2.0])
    rep = gaussianity_battery(R, h, N_BATTERY, seed=SEED + 1)
    assert rep.passed, rep


def test_gaussianity_battery_detects_scaled_output():
    base = build_sequential_isometry(3, seed=7, angle_spec="givens")
    bad = scale_output(base, 2, 2.0)
    rep = gaussianity_battery(bad, np.array([0.0, 1.0, 0.0]), N_BATTERY, seed=SEED)
    assert not rep.passed
    var_test = by_name(rep, "variance")
    assert not var_test.passed
    # variance 4 against null variance 1: z-score far beyond 4 sigma
    assert abs(var_test.statistic) > 10.0 * var_test.threshold / 4.0


def test_gaussianity_battery_guards():
    R = build_sequential_isometry(2, seed=8, angle_spec="zero")
    with pytest.raises(RotationError):
        gaussianity_battery(R, np.zeros(2), 1000, seed=1)
    with pytest.raises(RotationError):
        gaussianity_battery(R, np.ones(3), 1000, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_batteries_refuse_non_finite_functionals(bad):
    # raised like a zero functional, not reported as a failed battery
    R = build_sequential_isometry(3, seed=8, angle_spec="givens")
    h = np.array([1.0, bad, bad])
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(RotationError, match="non-finite"):
        gaussianity_battery(R, h, 1000, seed=1)
    with pytest.raises(RotationError, match="non-finite"):
        independence_battery(R, e1, np.array([0.0, 0.0, bad]), 1000, seed=1)
    with pytest.raises(RotationError, match="non-finite"):
        independence_battery(R, h, e1, 1000, seed=1)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_batteries_accept_finite_functionals_at_any_scale(scale):
    # the norm of h is rescaled when h . h underflows or overflows, so a
    # finite nonzero functional reads like its unit direction
    R = build_sequential_isometry(3, seed=8, angle_spec="zero")
    pairs = (
        (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        (np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0])),
    )
    for h1, h2 in pairs:
        unit1, unit2 = h1 / np.linalg.norm(h1), h2 / np.linalg.norm(h2)
        runs = (
            (gaussianity_battery(R, scale * h1, 5000, seed=1),
             gaussianity_battery(R, unit1, 5000, seed=1)),
            (independence_battery(R, scale * h1, scale * h2, 5000, seed=2),
             independence_battery(R, unit1, unit2, 5000, seed=2)),
        )
        for scaled, unit in runs:
            assert [t.name for t in scaled.tests] == [t.name for t in unit.tests]
            for a, b in zip(scaled.tests, unit.tests):
                assert a.passed == b.passed
                assert abs(a.statistic - b.statistic) <= 1e-12
                assert abs(a.threshold - b.threshold) <= 1e-12


def test_independence_battery_passes_for_isometries():
    for spec in ("zero", "sign", "givens"):
        R = build_sequential_isometry(3, seed=9, angle_spec=spec)
        rep = independence_battery(
            R, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), N_BATTERY, seed=SEED
        )
        assert rep.passed, (spec, rep)


def test_independence_battery_rejects_non_orthogonal_inputs():
    R = build_sequential_isometry(2, seed=10, angle_spec="zero")
    with pytest.raises(RotationError):
        independence_battery(R, np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1000, seed=1)


def test_independence_orthogonality_gate_is_relative():
    # cosine 0.707 at length 1e-7: the dot product 1e-14 is tiny in absolute
    # terms, but the pair is far from orthogonal; at 1e-200 it underflows to
    # 0 and at 1e200 it overflows, and the pair is still refused
    R = build_sequential_isometry(3, seed=10, angle_spec="givens")
    for length in (1e-7, 1e-200, 1e200):
        h1, h2 = length * np.array([1.0, 1.0, 0.0]), length * np.array([1.0, 0.0, 0.0])
        with pytest.raises(RotationError, match="not orthogonal"):
            independence_battery(R, h1, h2, 1000, seed=1)
        # an orthogonal pair of the same lengths runs
        rep = independence_battery(R, h1, length * np.array([1.0, -1.0, 0.0]), 1000, seed=1)
        assert len(rep.tests) == 10


def test_independence_battery_detects_mixed_outputs():
    base = build_sequential_isometry(3, seed=11, angle_spec="givens")
    bad = mix_outputs(base, 1, 2)
    rep = independence_battery(
        bad, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), N_BATTERY, seed=SEED
    )
    assert not rep.passed
    assert not by_name(rep, "correlation").passed


def test_independence_factorization_statistics_are_the_direct_formula():
    R = build_sequential_isometry(3, seed=19, angle_spec="givens")
    h1, h2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
    rep = independence_battery(R, h1, h2, 20_000, seed=5)
    tw = R.apply_batch(sample_batch(3, 20_000, seed=5).draws)
    x = tw @ h1 / np.linalg.norm(h1)
    y = tw @ h2 / np.linalg.norm(h2)
    feats = {
        "x": lambda v: v,
        "x2m1": lambda v: v * v - 1.0,
        "sign": lambda v: np.where(v < 0.0, -1.0, 1.0),
    }
    for fname, f in feats.items():
        for gname, g in feats.items():
            prod = f(x) * g(y)
            row = by_name(rep, f"factorization_{fname}_{gname}")
            assert row.statistic == float(prod.mean() - f(x).mean() * g(y).mean())
            assert row.threshold == 4.0 * float(prod.std(ddof=1) / math.sqrt(20_000))


def test_measure_preservation_battery():
    for spec in ("zero", "sign", "givens", "constant"):
        R = build_sequential_isometry(4, seed=12, angle_spec=spec)
        rep = measure_preservation_battery(R, N_BATTERY, seed=SEED + 2)
        assert rep.passed, (spec, rep)


def test_measure_preservation_detects_defects():
    base = build_sequential_isometry(4, seed=13, angle_spec="givens")
    rep = measure_preservation_battery(scale_output(base, 3, 2.0), N_BATTERY, seed=SEED)
    assert not rep.passed
    assert not by_name(rep, "covariance_identity").passed
    rep = measure_preservation_battery(mix_outputs(base, 1, 4), N_BATTERY, seed=SEED)
    assert not rep.passed
    assert not by_name(rep, "independence_pair_1_4").passed
    # a 5% scale error on one output fails its coordinate's KS test, at the
    # Sidak level of the family, about three times over; no other fails
    rep = measure_preservation_battery(scale_output(base, 3, 1.05), N_BATTERY, seed=SEED)
    failed = [t for t in rep.tests if t.name.startswith("ks_") and not t.passed]
    assert [t.name for t in failed] == ["ks_coordinate_3"]
    assert failed[0].statistic > 2.5 * failed[0].threshold


def test_ks_family_fails_at_most_at_its_level_on_null_batches():
    """The measure battery's per-coordinate KS family holds its level 0.01.

    ``zero`` rotates nothing, so each battery tests the draws of
    ``sample_batch(8, 2000, seed)``, and the 200 seeds' families fail
    independently.  At a family level p <= 0.01 the count of failed
    families is Binomial(200, p), so Pr(count >= 7) <= 0.0043.  Without the
    Sidak correction each family runs at 1 - 0.99**8 = 7.7%, and
    Pr(count <= 6) = 0.0045 there: at these seeds 17 families fail
    uncorrected, and the gate below sees it.
    """
    assert stats.binom.sf(6, 200, 0.01) < 0.005 and stats.binom.cdf(6, 200, 1 - 0.99**8) < 0.005
    R = build_sequential_isometry(8, seed=0, angle_spec="zero")
    N = 2000
    sidak = ks_critical(N, -math.expm1(math.log1p(-0.01) / 8))
    failed = uncorrected = 0
    for seed in range(200):
        ks = [t for t in measure_preservation_battery(R, N, seed).tests if t.name.startswith("ks_")]
        assert len(ks) == 8 and all(t.threshold == sidak for t in ks)
        failed += not all(t.passed for t in ks)
        uncorrected += any(t.statistic > ks_critical(N, 0.01) for t in ks)
    assert failed <= 6 < uncorrected, (failed, uncorrected)


def test_isometry_check_deviation_of_scaled_output():
    base = build_sequential_isometry(3, seed=14, angle_spec="zero")
    bad = scale_output(base, 1, 2.0)
    # Gram eigenvalue |2^2 - 1| = 3 exactly
    assert isometry_check(bad, draws_for(3)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n, count", [(2, 1000), (8, 1000), (64, 200)])
def test_isometry_check_is_the_whole_stack_gram(n, count):
    # the certificate copies the stack in runs; its gap has the bits of the
    # Gram of the whole sample-major stack, whichever run holds the worst sample
    x = draws_for(n, count=count, seed=97)
    for R in _all_rotations(n, 101):
        mats = np.ascontiguousarray(R.matrices(x))
        gram = np.einsum("sij,skj->sik", mats, mats) - np.eye(n)
        expected = np.max(np.abs(np.linalg.eigvalsh(gram)))
        assert _bits(isometry_check(R, x)) == _bits(expected), R.kind


def test_battery_reports_deterministic():
    R = build_sequential_isometry(3, seed=15, angle_spec="givens")
    rep1 = measure_preservation_battery(R, 20_000, seed=999)
    rep2 = measure_preservation_battery(R, 20_000, seed=999)
    assert rep1 == rep2
    rep3 = measure_preservation_battery(R, 20_000, seed=998)
    assert rep3 != rep1


def test_report_json_shape():
    R = build_sequential_isometry(2, seed=16, angle_spec="zero")
    rep = gaussianity_battery(R, np.array([1.0, 0.0]), 10_000, seed=5)
    # one Check per test; the CLI writes them out (tests/test_cli.py pins the keys)
    assert rep.name == "gaussianity"
    assert rep.passed is True
    assert all(type(t) is Check for t in rep.tests)
    assert [t.name for t in rep.tests] == ["ks", "mean", "variance", "skewness", "excess_kurtosis"]
