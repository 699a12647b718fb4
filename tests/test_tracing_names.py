"""The benchmark tracer names the package entry points it wraps by module and
attribute path (``ENTRIES`` in ``perfbench/tracing.py``).  A renamed or
deleted entry point makes ``perfbench/run.py --trace 1`` fail with a
``KeyError``, so each path must still resolve.  The tracer module is parsed,
not imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_paths(source: str) -> list[tuple[str, str]]:
    """``(module, attribute path)`` of every row of the ``ENTRIES`` tuple."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRIES" for t in node.targets
        ):
            return [(row.elts[1].value, row.elts[2].value) for row in node.value.elts]
    raise AssertionError("no ENTRIES assignment")


def test_parser_reads_entry_rows():
    source = 'ENTRIES = (("a.f", "a", "f", None), ("b.C.m", "b", "C.m", _count))\n'
    assert traced_paths(source) == [("a", "f"), ("b", "C.m")]


def test_every_traced_entry_point_exists():
    paths = traced_paths(TRACING.read_text())
    assert ("chaos", "multiply_by_coordinate") in paths
    missing = []
    for module, path in paths:
        owner = importlib.import_module(f"wienerlab.{module}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
        # the tracer reads the attribute from the owner's own namespace
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []
