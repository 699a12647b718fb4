import hashlib
import inspect
import json
import math
import sys

import numpy as np
import pytest

import wienerlab.cli
import wienerlab.suites
from wienerlab.chaos import ChaosPoly, linear_combine
from wienerlab.cli import main
from wienerlab.space import Check
from wienerlab.suites import run_suites, suite_names


def test_suite_registry_names_and_order():
    names = suite_names()
    assert names == [
        "duality_pairing",
        "weak_pairing",
        "structure_constants",
        "ito_isometry",
        "weak_orthogonality",
        "clark_exactness",
        "refinement_convergence",
        "minimal_energy",
        "number_operator",
        "operator_bound",
        "rotation_invariants",
        "monte_carlo_consistency",
    ]


def test_run_suites_subset_and_order():
    results = run_suites(["number_operator", "structure_constants"])
    assert [r.name for r in results] == ["number_operator", "structure_constants"]
    assert all(r.passed for r in results)


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        run_suites(["no_such_suite"])


def test_suite_result_line_and_json(monkeypatch, capsys):
    r = Check(name="demo", statistic=1.5e-12, threshold=1e-10, passed=True, details="3 cases")
    assert json.loads(json.dumps(r.to_json_dict())) == {
        "name": "demo",
        "passed": True,
        "statistic": 1.5e-12,
        "threshold": 1e-10,
        "details": "3 cases",
    }
    bad = Check(name="bad", statistic=2.0, threshold=1e-10, passed=False, details="1 case")
    # the verify command prints one line per suite result
    monkeypatch.setattr(wienerlab.cli, "run_suites", lambda names: [r, bad])
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "PASS demo: worst 1.500e-12 (threshold 1.0e-10; 3 cases)",
        "FAIL bad: worst 2.000e+00 (threshold 1.0e-10; 1 case)",
    ]


def test_suites_are_deterministic():
    a = run_suites(["refinement_convergence", "clark_exactness"])
    b = run_suites(["refinement_convergence", "clark_exactness"])
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def _instance_polys(instance):
    """A seeded instance's polynomials in stored order, nested rows included."""
    if isinstance(instance, ChaosPoly):
        return [instance]
    for name in ("rows", "coords", "components"):
        if hasattr(instance, name):
            return [p for part in getattr(instance, name) for p in _instance_polys(part)]
    raise TypeError(f"no polynomials in {type(instance).__name__}")


#: SHA-256 of every seeded instance the suites draw and of the stream each
#: suite's generator is left at
PINNED_INSTANCES = "b8ef47b751323599c28bebed6c52ee9c352b952614dec7df415fe0f49d2850b5"


def test_seeded_instances_pinned(monkeypatch):
    # every instance the suites draw, in draw order: each polynomial's packed
    # keys and coefficient bits in stored order, each matrix entry's bits,
    # and each suite generator's Philox state once the suites are done.
    # Only Python ints, bytes and float.hex feed the digest, so it does not
    # depend on the host
    digest = hashlib.sha256()
    generators = []

    def wrap(name, build):
        def drawn(*args, **kwargs):
            instance = build(*args, **kwargs)
            digest.update(name.encode())
            if isinstance(instance, np.ndarray):
                digest.update(repr([float(x).hex() for x in instance.ravel()]).encode())
            else:
                for p in _instance_polys(instance):
                    digest.update(repr((p.dim, [(k, c.hex()) for k, c in p.packed_terms.items()])).encode())
            return instance

        return drawn

    def make_rng(seed):
        rng = make(seed)
        generators.append(rng)
        return rng

    make = wienerlab.suites.make_rng
    builders = [name for name in vars(wienerlab.suites) if name.startswith("random_")]
    for name in builders:
        monkeypatch.setattr(wienerlab.suites, name, wrap(name, getattr(wienerlab.suites, name)))
    monkeypatch.setattr(wienerlab.suites, "make_rng", make_rng)
    assert all(r.passed for r in run_suites())
    for rng in generators:
        state = rng.bit_generator.state
        digest.update(repr((
            state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"],
        )).encode())
    assert len(builders) == 9 and len(generators) == 11
    assert digest.hexdigest() == PINNED_INSTANCES


def _toy(*values, seed=7, details="toy: 3 gaps"):
    """A toy suite through the runner that yields ``values`` and returns ``details``."""

    def suite_toy(draws, seed):
        yield from values
        return details

    return wienerlab.suites._suite(seed, 1e-10)(suite_toy)


def test_runner_makes_a_suite_of_its_body():
    toy = _toy(1e-12, 3e-11, 2e-11, True)
    assert toy.__name__ == "suite_toy"
    assert inspect.signature(toy).parameters["seed"].default == 7
    assert toy() == Check("toy", 3e-11, 1e-10, True, "toy: 3 gaps")
    # a suite with no gaps reads 0
    assert _toy(True)() == Check("toy", 0.0, 1e-10, True, "toy: 3 gaps")


def test_suites_keep_their_default_seeds():
    suites = [getattr(wienerlab.suites, f"suite_{name}") for name in suite_names()]
    defaults = [inspect.signature(fn).parameters["seed"].default for fn in suites]
    assert defaults == list(range(1001, 1013))


@pytest.mark.parametrize("seed", [1.5, 2**64], ids=["float", "past_64_bits"])
@pytest.mark.parametrize("name", suite_names())
def test_suites_refuse_a_seed_that_is_not_a_64_bit_integer(name, seed):
    # a float seed is refused, not truncated to the seed below it
    with pytest.raises(ValueError, match="seed"):
        getattr(wienerlab.suites, f"suite_{name}")(seed)


def test_runner_nan_gap_fails_the_suite():
    result = _toy(1e-12, math.nan, 2e-11)()
    assert math.isnan(result.statistic) and not result.passed


@pytest.mark.parametrize(
    "failed", [False, np.float64(1.0) > 2.0], ids=["python_false", "numpy_false"]
)
def test_runner_side_check_fails_the_suite_and_keeps_the_worst_gap(failed):
    result = _toy(1e-12, failed, 3e-11, np.True_)()
    assert result == Check("toy", 3e-11, 1e-10, False, "toy: 3 gaps")


@pytest.mark.parametrize("value", ["0.0", np.zeros(2), None], ids=["str", "array", "none"])
def test_runner_refuses_a_value_that_is_neither_gap_nor_check(value):
    with pytest.raises(TypeError, match="neither a gap nor a check"):
        _toy(1e-12, value)()


def _stream(rng):
    """The generator's Philox state: counter, key, word buffer and 32-bit buffer."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )


def test_runner_leaves_the_stream_of_a_fresh_generator(monkeypatch):
    # bounded draws on both 32-bit halves and whole-word draws between them;
    # the last draw leaves a buffered half that the reader must hand back
    opened = []

    def make_rng(seed):
        opened.append(make(seed))
        return opened[-1]

    def suite_draws(draws, seed):
        yield float(draws.below(5))
        yield float(draws.rng.standard_normal(3).sum())
        yield float(draws.below(7) + draws.below(11))
        return "draws"

    make = wienerlab.suites.make_rng
    monkeypatch.setattr(wienerlab.suites, "make_rng", make_rng)
    wienerlab.suites._suite(42, math.inf)(suite_draws)()
    fresh = make(42)
    fresh.integers(0, 5), fresh.standard_normal(3), fresh.integers(0, 7), fresh.integers(0, 11)
    assert len(opened) == 1 and _stream(opened[0]) == _stream(fresh)
    assert _stream(opened[0]) != _stream(make(42))


#: suites whose records take no input from numpy's own draws or from BLAS
PINNED_SUITES = [
    "duality_pairing",
    "ito_isometry",
    "weak_orthogonality",
    "clark_exactness",
    "refinement_convergence",
    "minimal_energy",
    "number_operator",
]

#: SHA-256 of the records of ``PINNED_SUITES``
PINNED_RECORDS = "96993a06de27acf5c2c0f86ce19de165db19321db7ebd0a7c9eab54fd23ef617"


def test_exact_suite_records_pinned():
    # each record's name, statistic and threshold bits, verdict and details;
    # only strings, bools and float.hex feed the digest
    digest = hashlib.sha256()
    for r in run_suites(PINNED_SUITES):
        digest.update(repr((r.name, r.statistic.hex(), r.threshold.hex(), r.passed, r.details)).encode())
    assert digest.hexdigest() == PINNED_RECORDS


# each gap helper with the suite that reads it, the value planted in it, and
# the suite's details line, which a failing gap leaves as it is
PLANTED_GAPS = [
    ("_check_duality", "duality_pairing", math.nan, "200 random operator/field pairs"),
    ("_check_weakb", "weak_pairing", math.nan, "100 instances, both pairing forms"),
    ("_check_rowwise_divergence", "weak_pairing", math.nan, "100 instances, both pairing forms"),
    ("_check_ito_isometry", "ito_isometry", math.nan, "200 field pairs and 200 operator pairs"),
    ("_check_operator_isometry", "ito_isometry", math.nan, "200 field pairs and 200 operator pairs"),
    ("_check_weak_orthogonality", "weak_orthogonality", math.nan, "100 instances"),
    (
        "_check_divergence_free_uniqueness",
        "clark_exactness",
        False,
        "100 representable fields plus 30 injectivity checks",
    ),
    ("_check_cbound", "operator_bound", math.nan, "40 operators, 20 directions each"),
    (
        "_law_gap",
        "rotation_invariants",
        math.nan,
        "three constructions, exact law of all four, planted defects, output law",
    ),
]


@pytest.mark.parametrize(
    "helper, suite, value, details", PLANTED_GAPS, ids=[row[0] for row in PLANTED_GAPS]
)
def test_nan_gap_fails_the_suite(monkeypatch, helper, suite, value, details):
    monkeypatch.setattr(wienerlab.suites, helper, lambda *args: value)
    [result] = run_suites([suite])
    assert not result.passed
    # a planted False fails through the suite's boolean checks, not its gap
    assert math.isnan(result.statistic) == (value is not False)
    assert result.details == details


def _planted(original):
    """The kernel with its output scaled by 1 + 1e-9, without calling a kernel."""

    def planted(*args):
        value = original(*args)
        if isinstance(value, ChaosPoly):
            return linear_combine([1 + 1e-9], [value])
        return value * (1 + 1e-9)

    return planted


# the suites that fail when a kernel's output is scaled by 1 + 1e-9
KERNEL_DEFECTS = [
    ("hermite_product", ["minimal_energy"]),
    ("ou_inverse", ["minimal_energy"]),
    ("ou_apply", ["number_operator"]),
    ("conditional_expectation", ["weak_orthogonality"]),
    # only through the Ito isometry of the constant fields
    ("l2_inner", ["structure_constants"]),
    ("partial_derivative", ["duality_pairing", "weak_pairing", "minimal_energy", "number_operator"]),
    (
        "divergence_h",
        [
            "duality_pairing",
            "weak_pairing",
            "structure_constants",
            "ito_isometry",
            "clark_exactness",
            "minimal_energy",
            "number_operator",
        ],
    ),
    # the closed-form refinement rows; reconstruct reads the same sum at
    # m = 1, which clark_exactness gates only on representable fields,
    # whose residual is zero
    ("refinement_residual", ["refinement_convergence"]),
]


@pytest.mark.parametrize(
    "kernel, failing", KERNEL_DEFECTS, ids=[row[0] for row in KERNEL_DEFECTS]
)
def test_a_planted_kernel_defect_fails_its_suites(monkeypatch, capsys, kernel, failing):
    original = next(
        getattr(module, kernel)
        for module in (wienerlab.chaos, wienerlab.malliavin, wienerlab.clark)
        if hasattr(module, kernel)
    )
    planted = _planted(original)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wienerlab"]
    for module in modules:
        if getattr(module, kernel, None) is original:
            monkeypatch.setattr(module, kernel, planted)
    failed = [r.name for r in run_suites(suite_names()) if not r.passed]
    assert failed == failing
    assert main(["verify", "--suite", failing[0]]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {failing[0]}")
