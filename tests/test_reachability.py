"""Every public function and method earns a caller.

Six commands (``verify``, a vector ``represent`` and ``rotate`` for every
construction) and the benchmark's three smoke workloads run in-process
under one profile hook.  Each public method, property and classmethod of
an exported class (exception classes and dunders aside) must be entered
there.  So must each module-level function exported in
``wienerlab.__all__``, unless the benchmark names it: its workloads and
tracer reach the package from outside (``perfbench/workloads.py`` and
``perfbench/tracing.py``, parsed, not imported).  A function or method
that only its own tests call fails here.

Frames are matched by code object identity (``fn.__code__``), which Python
3.10 offers as well as later versions.
"""

import ast
import functools
import importlib.util
import inspect
import sys
import types

from test_tracing_names import TRACING, traced_paths
import wienerlab
from wienerlab import cli

WORKLOADS = TRACING.parent / "workloads.py"
WORKLOAD_NAMES = ("verify-suites", "represent-refine", "rotate-batteries")

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


def public_methods() -> dict[str, types.CodeType]:
    """``Class.name`` -> code of every public method of the exported classes.

    Inherited members count once, under the package class that defines them.
    """
    members = {}
    for value in map(vars(wienerlab).get, wienerlab.__all__):
        if not isinstance(value, type) or issubclass(value, BaseException):
            continue
        for klass in value.__mro__:
            if not klass.__module__.startswith("wienerlab."):
                continue
            for name, member in vars(klass).items():
                if name.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if isinstance(member, types.FunctionType):
                    members[f"{klass.__name__}.{name}"] = inspect.unwrap(member).__code__
    return members


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_are_read_from_both_files():
    names = benchmark_names()
    assert {"is_representable", "residual_mass_oracle"} <= names  # workloads
    assert "multiply_by_coordinate" in names  # tracer ENTRIES


def test_public_methods_cover_members_of_every_kind():
    methods = public_methods()
    assert "ChaosPoly.to_text" in methods  # method
    assert "VField.d" in methods  # property
    assert "ChaosPoly.hermite" in methods  # classmethod
    assert "_Field.norm" in methods  # inherited, under its defining class
    assert not any(name.split(".")[1].startswith("_") for name in methods)


def test_every_public_function_is_reached_by_a_command_or_the_benchmark(
    tmp_path, monkeypatch, capsys
):
    workloads = _load_workloads(monkeypatch)
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
        for name in WORKLOAD_NAMES:
            workload = workloads.build(name, 0, True, str(tmp_path))
            workload.check(workload.run())
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
    unreached += sorted(name for name, code in public_methods().items() if code not in entered)
    assert unreached == []
