"""Every public function earns a caller.

Each module-level function exported in ``wienerlab.__all__`` must be
entered while the three commands run (``verify``, a vector ``represent`` and
``rotate`` for every construction), or be named by the benchmark, whose
workloads and tracer reach the package from outside
(``perfbench/workloads.py`` and ``perfbench/tracing.py``, parsed, not
imported).  A function that only its own tests call fails here.

Frames are matched by code object identity (``fn.__code__``), which Python
3.10 offers as well as later versions.
"""

import ast
import inspect
import sys
import types

from test_tracing_names import TRACING, traced_paths
import wienerlab
from wienerlab import cli

WORKLOADS = TRACING.parent / "workloads.py"

COMMANDS = [
    ["verify"],
    [
        "represent",
        "--functional",
        "[h3(x1)*h3(x2) + x1, h2(x2)*x1 - 0.5*x2, h4(x3)]",
        "--n",
        "3",
        "--refine",
        "1,2",
    ],
] + [
    ["rotate", "--n", "3", "--n-samples", "2000", "--construction", spec]
    for spec in ("zero", "sign", "givens", "constant")
]


def benchmark_names() -> set[str]:
    """Attributes the workloads read off wienerlab modules, and traced entry points."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "wienerlab"
        for alias in node.names
    }
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    names.update(path.split(".")[-1] for _, path in traced_paths(TRACING.read_text()))
    return names


def test_benchmark_names_are_read_from_both_files():
    names = benchmark_names()
    assert {"is_representable", "residual_mass_oracle"} <= names  # workloads
    assert "multiply_by_coordinate" in names  # tracer ENTRIES


def test_every_public_function_is_reached_by_a_command_or_the_benchmark(tmp_path, capsys):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        codes = [
            cli.main(argv + ["--output", str(tmp_path / f"report_{i}")])
            for i, argv in enumerate(COMMANDS)
        ]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)

    exported = {name: getattr(wienerlab, name) for name in wienerlab.__all__}
    functions = {
        name: inspect.unwrap(value)
        for name, value in exported.items()
        if isinstance(value, types.FunctionType)
    }
    assert "reconstruct" in functions
    unreached = sorted(
        name
        for name, fn in functions.items()
        if fn.__code__ not in entered and name not in benchmark_names()
    )
    assert unreached == []
