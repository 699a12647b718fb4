"""Source hygiene: every name a module imports is read somewhere in it (package,
tests and benchmark harness alike), the package exports each public name
it binds exactly once, and neither importing it nor running its commands
loads any ``scipy`` module."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wienerlab

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "wienerlab"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
# the test modules and the benchmark harness are held to the same rule
MODULES += sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_scanner_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == SOURCE else f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_every_public_binding_once():
    exported = wienerlab.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        value = getattr(wienerlab, name)
        assert not isinstance(value, types.ModuleType), name
        assert name == "__version__" or not name.startswith("_"), name
    public = {
        name
        for name, value in vars(wienerlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public | {"__version__"}
    assert {"ChaosPoly", "hermite_product", "reconstruct", "run_suites"} <= public


def _run_fresh(script: str, cwd) -> list[str]:
    """The stdout lines of ``script`` run by a fresh interpreter on the package."""
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


# a verify, a rotate at N = 2000 (the Pelz-Good series of the critical value),
# one at N = 7 (the stored small-n critical values), and a represent
_COMMANDS = """
from wienerlab.cli import main
assert main(["verify"]) == 0
assert main(["rotate", "--n", "3", "--n-samples", "2000", "--construction", "sign"]) == 0
assert main(["rotate", "--n", "2", "--n-samples", "7"]) == 0
assert main(["represent", "--functional", "h2(x1)*x2", "--n", "2", "--refine", "1,2"]) == 0
"""


def test_import_and_commands_load_no_scipy(tmp_path):
    # a fresh interpreter: importing the package, then running its commands,
    # loads no scipy module at all
    script = (
        "import sys\nimport wienerlab\n"
        "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        + _COMMANDS
        + "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    lines = _run_fresh(script, tmp_path)
    assert (lines[0], lines[-1]) == ("", "")


def test_commands_run_with_scipy_blocked(tmp_path):
    # with scipy unimportable the package imports and its commands pass
    blocked = 'import sys\nsys.modules["scipy"] = None\nimport wienerlab\n'
    script = blocked + _COMMANDS + 'print("ok")\n'
    assert _run_fresh(script, tmp_path)[-1] == "ok"
