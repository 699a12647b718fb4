"""The three benchmark workloads, driven through wienerlab's public API.

Each workload builds its inputs from a seed, runs one pass (the timed
work), reduces a pass's outputs to a digest, and checks outputs against
oracles that do not share the code path they check.  Package functions are
looked up on their modules at call time, so a tracer that rebinds them sees
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import permutations
from time import perf_counter

import numpy as np

from wienerlab import chaos, clark, cli, dsl, malliavin, rotations, space, suites


@dataclass(frozen=True)
class Check:
    """One output check.  A statistical check may alarm at an honest seed."""

    name: str
    ok: bool
    statistical: bool = False


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------- verify-suites

#: Random instances each suite checks, read off the suite bodies, and the
#: numbers its details string states.  A suite whose details no longer
#: state those numbers fails a check, so a changed count cannot leave
#: ``items_per_s`` dividing by a stale figure.
SUITE_ITEMS = {
    "duality_pairing": (200, (200,)),
    "weak_pairing": (100, (100,)),
    "structure_constants": (15, (8,)),
    "ito_isometry": (400, (200, 200)),
    "weak_orthogonality": (100, (100,)),
    "clark_exactness": (130, (100, 30)),
    "refinement_convergence": (36, (1, 16, 20)),
    "minimal_energy": (142, (100, 40)),
    "number_operator": (100, (100,)),
    "operator_bound": (40, (40, 20)),
    "rotation_invariants": (7, ()),
    "monte_carlo_consistency": (50, (50, 100000, 4)),
}

SMOKE_SUITES = ("structure_constants", "weak_pairing", "minimal_energy", "monte_carlo_consistency")


def _rotation_invariants_statistical(seed: int) -> bool:
    """Whether a failed ``rotation_invariants`` at ``seed`` is a sampling alarm.

    The suite folds exact checks (pathwise isometry, strict past, exact
    covariance, two planted defects) and one sampling check (a gaussianity
    battery) into one verdict.  This reruns the planted-defect checks and
    the battery with the suite's own arguments: the failure is statistical
    only when the battery fails and both planted defects are still caught.
    The caller has already required the exact statistic to be in bounds.
    """
    n = 6
    probe = space.sample_batch(n, 1000, seed)
    base = rotations.build_sequential_isometry(n, seed, "zero")
    scaled = rotations.scale_output(base, 1, 2.0)
    mixed = rotations.mix_outputs(rotations.build_sequential_isometry(n, seed, "givens"), 1, n)
    defects_caught = (
        abs(rotations.isometry_check(scaled, probe) - 3.0) <= 1e-12
        and rotations.isometry_check(mixed, probe) > 0.5
    )
    battery = rotations.gaussianity_battery(
        rotations.build_sequential_isometry(n, seed, "givens"),
        np.ones(n) / math.sqrt(n),
        50_000,
        seed + 1,
    )
    return defects_caught and not battery.passed


class VerifySuites:
    """All twelve identity suites, each at its default seed plus ``seed``.

    At seed 0 these are the suites' own defaults, which ``wienerlab
    verify`` runs.
    """

    #: host-speed reference blocks (``worker.Reference``): chaos algebra
    #: throughout, rotations and sampling in two suites
    REFERENCE = ("objects", "arrays")

    def __init__(self, seed: int, smoke: bool):
        names = SMOKE_SUITES if smoke else tuple(suites.suite_names())
        self.plan = [
            (name, inspect.signature(getattr(suites, f"suite_{name}")).parameters["seed"].default + seed)
            for name in names
        ]
        #: wall time of each suite in the latest pass
        self.laps: dict[str, float] = {}

    def sizes(self) -> dict:
        return {"suite_seeds": dict(self.plan)}

    def run(self):
        results = []
        for name, seed in self.plan:
            fn = getattr(suites, f"suite_{name}")
            start = perf_counter()
            results.append(fn(seed))
            self.laps[name] = perf_counter() - start
        return results

    def digest(self, out) -> str:
        return _digest([r.to_json_dict() for r in out])

    def check(self, out):
        checks = [Check("suite_count", [r.name for r in out] == [n for n, _ in self.plan])]
        for r, (_, seed) in zip(out, self.plan):
            stated = SUITE_ITEMS[r.name][1]
            numbers = tuple(int(x) for x in re.findall(r"\d+", r.details))
            checks.append(Check(f"suite_{r.name} size", numbers == stated))
            if r.name == "monte_carlo_consistency":
                # a 4-sigma sampling test throughout
                statistical = True
            elif r.name == "rotation_invariants" and not r.passed:
                statistical = r.statistic <= r.threshold and _rotation_invariants_statistical(seed)
            else:
                statistical = False
            checks.append(Check(f"suite_{r.name}", r.passed, statistical))
        items = sum(SUITE_ITEMS[r.name][0] for r in out)
        return checks, items


# -------------------------------------------------------- represent-refine


def _coefficients(rng, count):
    return [f"{c:.6f}" for c in rng.uniform(0.5, 1.5, size=count)]


class RepresentRefine:
    """The represent pipeline over a fixed list of functional shapes.

    The seed draws coefficients and coordinate labels only, so term counts,
    and with them the cost, are the same for every seed.
    """

    #: host-speed reference blocks (``worker.Reference``): chaos algebra only
    REFERENCE = ("objects",)

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        if smoke:
            a, b, c = _coefficients(rng, 3)
            self.factors = (1, 2)
            self.sources = [(f"{a}*h2(x1)", 1), (f"[{b}*x1*x2, {c}*h2(x2)]", 2)]
            return
        self.factors = (1, 2, 4, 8)
        c1, c2 = _coefficients(rng, 2)
        a, b, c, d = _coefficients(rng, 4)
        i, j, k = list(permutations((1, 2, 3)))[rng.integers(6)]
        e, f, g, h = _coefficients(rng, 4)
        p, q, r, s = rng.permutation([1, 2, 3, 4])
        self.sources = [
            (f"{c1}*h3(x1)*h3(x2)", 2),
            (f"{c2}*h8(x1)", 1),
            (f"[{a}*x{i}*x{j} + {b}*h2(x{k}), {c}*h2(x{i})*x{j} - {d}*x{k}]", 3),
            (f"[{e}*x{p}*x{q}*x{r} + {f}*h3(x{s}), {g}*x{p} + {h}]", 4),
        ]

    def sizes(self) -> dict:
        return {"functionals": [list(src) for src in self.sources], "refine": list(self.factors)}

    def run(self):
        out = []
        for text, n in self.sources:
            lowered = dsl.lower(dsl.parse_functional(text), n)
            v = lowered if isinstance(lowered, malliavin.VField) else malliavin.VField((lowered,))
            result = clark.reconstruct(v)
            table = clark.refine_and_reconstruct(v, self.factors)
            energies = [clark.compare_energies(v.component(a)) for a in range(1, v.d + 1)]
            out.append((v, result.residual_l2, table, energies))
        return out

    def digest(self, out) -> str:
        return _digest(
            [
                [[p.to_text() for p in v.components], residual, table,
                 [[e.adapted_energy, e.exact_energy, e.coincide] for e in energies]]
                for v, residual, table, energies in out
            ]
        )

    @staticmethod
    def _energy_checks(label, p, e):
        """Both energies against closed forms over the Hermite coefficients.

        Grade m carries |grad L^-1 p_m|^2 = |p_m|^2 / m, and the adapted
        integrand carries exactly the representable part of p - E p.  Only
        when p is representable does the adapted integrand represent p, so
        only then must the minimal energy not exceed the adapted one.
        """
        exact = adapted = 0.0
        for idx, c in p.terms.items():
            if idx.total_degree == 0:
                continue
            mass = idx.factorial * c * c
            exact += mass / idx.total_degree
            if idx.pairs[-1][1] == 1:
                adapted += mass
        tol = 1e-12 * max(1.0, exact, adapted)
        checks = [
            Check(f"{label}: minimal energy", abs(e.exact_energy - exact) <= tol),
            Check(f"{label}: adapted energy", abs(e.adapted_energy - adapted) <= tol),
        ]
        if clark.is_representable(p):
            checks.append(
                Check(f"{label}: minimal <= adapted", e.exact_energy <= e.adapted_energy + 1e-10)
            )
        return checks

    def check(self, out):
        checks = []
        items = 0
        for (text, _), (v, residual, table, energies) in zip(self.sources, out):
            norm = v.norm()
            checks.append(
                Check(f"{text}: residual m=1", abs(residual - clark.residual_mass_oracle(v)) <= 1e-12)
            )
            residuals = []
            for m, res in table:
                refined = malliavin.VField(tuple(chaos.refine(p, m) for p in v.components))
                items += sum(len(p.terms) for p in refined.components)
                oracle = clark.residual_mass_oracle(refined)
                checks.append(Check(f"{text}: residual m={m}", abs(res - oracle) <= 1e-12))
                # refinement substitutes a standard Gaussian block average,
                # so it preserves the L2 norm
                checks.append(
                    Check(f"{text}: norm m={m}", abs(refined.norm() - norm) <= 1e-12 * max(1.0, norm))
                )
                residuals.append(res)
            checks.append(
                Check(
                    f"{text}: residuals do not increase",
                    all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:])),
                )
            )
            for a, e in enumerate(energies, start=1):
                checks.extend(self._energy_checks(f"{text}: component {a}", v.component(a), e))
        return checks, items


# -------------------------------------------------------- rotate-batteries


def _battery_test_count(d: int) -> int:
    # isometry + strict past, gaussianity (ks + 4 moments), independence
    # (correlation + 9 factorizations), measure preservation (covariance,
    # one ks per coordinate, up to ten pair correlations)
    return 2 + 5 + 10 + 1 + d + min(10, math.comb(d, 2))


class RotateBatteries:
    """``wienerlab rotate`` at the README sizes: n=8, givens, N=200000."""

    #: host-speed reference blocks (``worker.Reference``): numpy arrays only
    REFERENCE = ("arrays",)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.n, self.n_samples = (4, 20_000) if smoke else (8, 200_000)
        self.report = os.path.join(workdir, "rotate.json")
        self.argv = [
            "rotate", "--n", str(self.n), "--construction", "givens",
            "--seed", str(seed), "--n-samples", str(self.n_samples),
            "--output", self.report,
        ]

    def sizes(self) -> dict:
        return {"n": self.n, "n_samples": self.n_samples, "construction": "givens"}

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        with open(self.report, encoding="utf-8") as fh:
            return code, fh.read()

    def digest(self, out) -> str:
        return _digest(list(out))

    def check(self, out):
        code, text = out
        report = json.loads(text)
        tests = report["tests"]
        checks = [
            Check("exit code matches report", code == (0 if report["passed"] else 1)),
            Check("battery test count", len(tests) == _battery_test_count(self.n)),
        ]
        for t in tests:
            if t["name"] == "pathwise_isometry":
                ok = t["pass"] and t["statistic"] <= rotations.ISOMETRY_TOL
                checks.append(Check(t["name"], ok))
            elif t["name"] == "strict_past_measurability":
                checks.append(Check(t["name"], t["pass"] and t["statistic"] == 0.0))
            else:
                checks.append(Check(t["name"], t["pass"], statistical=True))
        R = rotations.build_sequential_isometry(self.n, self.seed, "givens")
        x = np.random.default_rng(self.seed).standard_normal((1000, self.n))
        applied = R.apply_batch(x)
        stacked = np.einsum("sij,sj->si", R.matrices(x), x)
        checks.append(Check("apply_batch equals matrix stack", np.max(np.abs(applied - stacked)) <= 1e-12))
        norm_gap = np.abs(np.linalg.norm(applied, axis=1) - np.linalg.norm(x, axis=1))
        checks.append(Check("apply_batch preserves norms", np.max(norm_gap) <= 1e-12))
        # gaussianity, independence and measure preservation each rotate N
        return checks, 3 * self.n_samples


def build(name: str, seed: int, smoke: bool, workdir: str):
    if name == "verify-suites":
        return VerifySuites(seed, smoke)
    if name == "represent-refine":
        return RepresentRefine(seed, smoke)
    if name == "rotate-batteries":
        return RotateBatteries(seed, smoke, workdir)
    raise KeyError(name)
