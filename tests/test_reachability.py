"""Every public function and method earns a caller.

Six commands (``verify``, a vector ``represent`` and ``rotate`` for every
construction) and the benchmark's three smoke workloads run in-process
under one profile hook.  Every package module counts, exported or not,
except ``wienerlab.__main__``, whose import runs the CLI.  Each public
method, property and classmethod of a class a module defines (exception
classes and dunders aside) must be entered there.  So must each public
module-level function a module defines, unless the benchmark names it: its
workloads and tracer reach the package from outside
(``perfbench/workloads.py`` and ``perfbench/tracing.py``, parsed, not
imported).  A function or method that only its own tests call fails here.

Frames are matched by code object identity (``fn.__code__``), which Python
3.10 offers as well as later versions.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import pkgutil
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


def package_modules() -> list[types.ModuleType]:
    """Every ``wienerlab`` module but ``__main__``, which runs the CLI on import."""
    return [
        importlib.import_module(f"wienerlab.{info.name}")
        for info in pkgutil.iter_modules(wienerlab.__path__)
        if info.name != "__main__"
    ]


def _defined(module: types.ModuleType):
    """``(name, value)`` of each function and class the module defines itself.

    A decorated function, such as an ``lru_cache`` one, counts as the
    function it wraps.
    """
    for name, value in vars(module).items():
        value = inspect.unwrap(value)
        if isinstance(value, (type, types.FunctionType)) and value.__module__ == module.__name__:
            yield name, value


def public_functions() -> dict[str, types.CodeType]:
    """``module.name`` -> code of every public module-level function of the package."""
    return {
        f"{module.__name__.removeprefix('wienerlab.')}.{name}": value.__code__
        for module in package_modules()
        for name, value in _defined(module)
        if isinstance(value, types.FunctionType) and not name.startswith("_")
    }


def public_methods() -> dict[str, types.CodeType]:
    """``Class.name`` -> code of every public method of the package's public classes.

    Inherited members count once, under the package class that defines them.
    """
    members = {}
    classes = (
        value
        for module in package_modules()
        for class_name, value in _defined(module)
        if isinstance(value, type)
        and not issubclass(value, BaseException)
        and not class_name.startswith("_")
    )
    for value in classes:
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


def test_public_functions_cover_every_module():
    functions = public_functions()
    assert "clark.reconstruct" in functions  # exported
    assert "randgen.random_poly" in functions  # in a module, not exported
    assert "_kstwo.ks_critical" in functions  # in a private module
    assert "cli.main" in functions
    # an imported name counts under its defining module only
    assert "suites.reconstruct" not in functions
    assert not any(name.split(".")[-1].startswith("_") for name in functions)
    assert not any(name.startswith("__main__.") for name in functions)


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

    exempt = benchmark_names()
    unreached = sorted(
        name
        for name, code in public_functions().items()
        if code not in entered and name.split(".")[-1] not in exempt
    )
    unreached += sorted(name for name, code in public_methods().items() if code not in entered)
    assert unreached == []
