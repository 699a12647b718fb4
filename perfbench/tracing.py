"""Span tracer that wraps wienerlab entry points from outside the package.

``Tracer.install`` replaces each listed function in every ``wienerlab``
module namespace that binds it, and each listed method on its class, with a
wrapper that records a span (name, start, end, parent span, pass id).
``ChaosPoly`` and ``MultiIndex`` construction is counted, not spanned.
``Tracer.uninstall`` puts every original object back.  Spans are kept in
memory for one pass and folded into per-pass totals when the pass ends.

Two self-checks can fail: every span's own self time (its duration minus
its direct children's) must be non-negative, which a wrong parent or a
wrong subtraction breaks; and ``Tracer.call_mismatches`` compares the call
counts of one pass with those ``cProfile`` reports for the original
functions, which a call that bypasses every wrapper breaks.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

MARKER = "__perfbench_wrapped__"

#: Clock rounding allowed when checking that a span's self time is >= 0.
SELF_TOL_S = 1e-9


def _product_counts(counts, args, kwargs, out):
    counts["chaos.hermite_product.pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["chaos.hermite_product.terms_out"] += len(out.terms)


def _refine_counts(counts, args, kwargs, out):
    counts["chaos.refine.terms_out"] += len(out.terms)


def _evaluate_counts(counts, args, kwargs, out):
    counts["chaos.evaluate_batch.rows"] += len(out)


def _matrices_counts(counts, args, kwargs, out):
    rows, d, n = out.shape
    counts["rotations.AdaptedIsometry.matrices.rows"] += rows
    # computed from the stack's shape, not measured traffic
    counts["rotations.AdaptedIsometry.matrices.bytes_out"] += rows * d * n * 8


def _apply_counts(counts, args, kwargs, out):
    counts["rotations.AdaptedIsometry.apply_batch.rows"] += out.shape[0]


def _sample_counts(counts, args, kwargs, out):
    counts["space.sample_batch.rows"] += out.draws.shape[0]


# (metric prefix, module, attribute path, extra counter)
ENTRIES = (
    ("chaos.hermite_product", "chaos", "hermite_product", _product_counts),
    ("chaos.linear_combine", "chaos", "linear_combine", None),
    ("chaos.partial_derivative", "chaos", "partial_derivative", None),
    ("chaos.multiply_by_coordinate", "chaos", "multiply_by_coordinate", None),
    ("chaos.conditional_expectation", "chaos", "conditional_expectation", None),
    ("chaos.l2_inner", "chaos", "l2_inner", None),
    ("chaos.refine", "chaos", "refine", _refine_counts),
    ("chaos.evaluate_batch", "chaos", "evaluate_batch", _evaluate_counts),
    ("malliavin.gradient_scalar", "malliavin", "gradient_scalar", None),
    ("malliavin.gradient_vector", "malliavin", "gradient_vector", None),
    ("malliavin.divergence_h", "malliavin", "divergence_h", None),
    ("malliavin.divergence_op", "malliavin", "divergence_op", None),
    ("malliavin.OperatorField.apply_field", "malliavin", "OperatorField.apply_field", None),
    ("malliavin.trace_pairing", "malliavin", "trace_pairing", None),
    ("malliavin.dual_pairing", "malliavin", "dual_pairing", None),
    ("adapted.project_adapted", "adapted", "project_adapted", None),
    ("adapted.project_operator", "adapted", "project_operator", None),
    ("adapted.is_predictable", "adapted", "is_predictable", None),
    ("clark.reconstruct", "clark", "reconstruct", None),
    ("clark.refine_and_reconstruct", "clark", "refine_and_reconstruct", None),
    ("clark.compare_energies", "clark", "compare_energies", None),
    ("clark.minimal_energy_integrand", "clark", "minimal_energy_integrand", None),
    ("rotations.build_sequential_isometry", "rotations", "build_sequential_isometry", None),
    ("rotations.AdaptedIsometry.matrices", "rotations", "AdaptedIsometry.matrices", _matrices_counts),
    ("rotations.AdaptedIsometry.apply_batch", "rotations", "AdaptedIsometry.apply_batch", _apply_counts),
    ("rotations.isometry_check", "rotations", "isometry_check", None),
    ("rotations.check_strict_past_measurability", "rotations", "check_strict_past_measurability", None),
    ("rotations.gaussianity_battery", "rotations", "gaussianity_battery", None),
    ("rotations.independence_battery", "rotations", "independence_battery", None),
    ("rotations.measure_preservation_battery", "rotations", "measure_preservation_battery", None),
    ("space.sample_batch", "space", "sample_batch", _sample_counts),
    ("space.ks_normal", "space", "ks_normal", None),
    ("space.moment_normality", "space", "moment_normality", None),
    ("space.mc_estimate", "space", "mc_estimate", None),
    ("dsl.parse_functional", "dsl", "parse_functional", None),
    ("dsl.lower", "dsl", "lower", None),
    ("cli.main", "cli", "main", None),
)

#: Every ``random_*`` instance builder is traced under this one name.
RANDGEN = "randgen"


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "wienerlab" or name.startswith("wienerlab."))
    ]


def _entry_targets():
    """Yield (span name, owner, attribute, original, extra) for every entry."""
    from wienerlab import randgen

    for prefix, module, path, extra in ENTRIES:
        owner = sys.modules[f"wienerlab.{module}"]
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        yield prefix, owner, attr, vars(owner)[attr], extra
    for attr, fn in sorted(vars(randgen).items()):
        if attr.startswith("random_") and callable(fn):
            yield RANDGEN, randgen, attr, fn, None


def find_wrappers() -> list[str]:
    """Names of wienerlab bindings that currently hold a tracer wrapper."""
    namespaces = {}
    for mod in _package_modules():
        namespaces[mod.__name__] = vars(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("wienerlab"):
                namespaces[f"{value.__module__}.{value.__qualname__}"] = vars(value)
    return sorted(
        f"{label}.{attr}"
        for label, namespace in namespaces.items()
        for attr, value in namespace.items()
        if getattr(value, MARKER, False)
    )


class Tracer:
    """Records spans and counts for the wrapped entry points, pass by pass."""

    def __init__(self):
        self.pass_id = 0
        self._spans: list = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        #: count key -> the original functions whose calls it counts
        self._originals: dict[str, set] = {}

    # ---- patching ----------------------------------------------------

    def _span_wrapper(self, name, fn, extra):
        spans, stack, counts = self._spans, self._stack, self._counts
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            counts[calls_key] += 1
            if extra is not None:
                extra(counts, args, kwargs, out)
            return out

        setattr(wrapper, MARKER, True)
        return wrapper

    def _count_wrapper(self, init, count_terms):
        counts = self._counts
        owner = "chaos.ChaosPoly" if count_terms else "chaos.MultiIndex"
        calls_key = f"{owner}.init_calls"
        terms_key = f"{owner}.terms"

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts[calls_key] += 1
            if count_terms:
                counts[terms_key] += len(obj.terms)

        setattr(wrapper, MARKER, True)
        return wrapper

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from wienerlab.chaos import ChaosPoly, MultiIndex

        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for name, owner, attr, original, extra in _entry_targets():
            self._originals.setdefault(f"{name}.calls", set()).add(original)
            wrapper = self._span_wrapper(name, original, extra)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # every module namespace that imported the function by name
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        for cls, count_terms in ((ChaosPoly, True), (MultiIndex, False)):
            init = vars(cls)["__init__"]
            self._originals[f"chaos.{cls.__name__}.init_calls"] = {init}
            self._patch(cls, "__init__", init, self._count_wrapper(init, count_terms))

    def uninstall(self) -> list[str]:
        """Restore every original; return the bindings that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        broken = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches.clear()
        return broken

    # ---- per-pass accounting ----------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._spans.clear()
        self._stack.clear()
        self._counts.clear()

    def end_pass(self, start: float, end: float) -> dict:
        """Fold this pass's spans into self times and counts.

        A span's self time is its duration minus the durations of its direct
        children.  ``negative_spans`` counts spans whose own self time is
        below zero, beyond clock rounding; ``nested_ok`` says whether every
        span lies inside its parent (or the pass) and carries this pass id.
        """
        spans = list(self._spans)
        if self._stack or any(s is None for s in spans):
            raise RuntimeError("pass ended inside an open span")
        own = [s_end - s_start for _, s_start, s_end, _, _ in spans]
        nested_ok = True
        for name, s_start, s_end, parent, pass_id in spans:
            nested_ok = nested_ok and pass_id == self.pass_id
            if parent < 0:
                nested_ok = nested_ok and start <= s_start and s_end <= end
                continue
            own[parent] -= s_end - s_start
            p_start, p_end = spans[parent][1:3]
            nested_ok = nested_ok and p_start <= s_start and s_end <= p_end
        self_s: Counter = Counter()
        for span, value in zip(spans, own):
            self_s[span[0]] += value
        self._spans.clear()
        return {
            "wall_s": end - start,
            "self_s": dict(self_s),
            "counts": dict(self._counts),
            "spans": len(spans),
            "negative_spans": sum(value < -SELF_TOL_S for value in own),
            "nested_ok": nested_ok,
        }

    def call_mismatches(self, profile_stats: dict, counts: dict) -> dict:
        """Count keys whose tracer count differs from cProfile's call count.

        ``profile_stats`` is ``cProfile.Profile.stats`` for a pass run with
        the tracer installed, ``counts`` the tracer's counts for that pass.
        Returns {key: [tracer count, cProfile count]} for every mismatch.
        """
        mismatches = {}
        for key, originals in self._originals.items():
            profiled = 0
            for fn in originals:
                code = fn.__code__
                label = (code.co_filename, code.co_firstlineno, code.co_name)
                if label in profile_stats:
                    profiled += profile_stats[label][1]
            if counts.get(key, 0) != profiled:
                mismatches[key] = [counts.get(key, 0), profiled]
        return mismatches
