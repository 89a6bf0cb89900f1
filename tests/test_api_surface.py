"""The package's public surface: what the benchmark's tracer wraps and what
the modules declare must exist, so removing a name shows up here; its
memos, each of which must stay bounded; and its one runtime dependency,
numpy, both as declared and as loaded by importing and solving."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qsvt_refine

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(qsvt_refine.__path__))


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PACKAGE == "qsvt_refine"
    return tracer.LAYERS


@pytest.mark.parametrize("module, function", traced_layers())
def test_every_traced_layer_is_a_library_callable(module, function):
    home = importlib.import_module(f"qsvt_refine.{module}")
    assert callable(getattr(home, function, None)), f"{module}.{function}"


@pytest.mark.parametrize("module", MODULES)
def test_every_declared_name_exists(module):
    home = importlib.import_module(f"qsvt_refine.{module}")
    missing = [name for name in home.__all__ if not hasattr(home, name)]
    assert missing == []


def test_every_top_level_export_is_declared_by_its_module():
    exports = {name: value for name, value in vars(qsvt_refine).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exports
    undeclared = [name for name, value in exports.items()
                  if name not in importlib.import_module(value.__module__).__all__]
    assert undeclared == []


def relative_imports(module):
    path = Path(qsvt_refine.__file__).parent / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_every_name_imported_across_modules_is_declared(module):
    # a module reaching past another's __all__ uses a name that module does
    # not promise to keep
    undeclared = [f"{home}.{name}" for home, name in relative_imports(module)
                  if name not in importlib.import_module(f"qsvt_refine.{home}").__all__]
    assert undeclared == []


# the in-package modules each module may import from: the circuit layer
# (qsvt_core) sees the numerics and the signal product of qsp_phases, which
# it evaluates on the singular values, not the series that makes its phase
# table; no solver layer builds a block-encoding
ALLOWED_IMPORTS = {
    "numerics": set(),
    "invpoly": set(),
    "blockenc": {"numerics"},
    "qsp_phases": {"invpoly"},
    "qsvt_core": {"invpoly", "numerics", "qsp_phases"},
    "refine": {"invpoly", "numerics", "qsp_phases", "qsvt_core"},
    "bench_cli": {"numerics", "qsp_phases", "qsvt_core", "refine"},
}


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_only_its_allowed_layers(module):
    assert module in ALLOWED_IMPORTS, "a new module needs its allowance"
    reached = {home for home, _ in relative_imports(module)}
    assert reached - ALLOWED_IMPORTS[module] == set()


def memoized_functions():
    for module in MODULES:
        home = importlib.import_module(f"qsvt_refine.{module}")
        for owner in [home] + [v for v in vars(home).values() if inspect.isclass(v)]:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters") and value.__module__ == home.__name__:
                    yield f"{module}.{name}", value


def test_every_memo_is_bounded():
    # a memo with maxsize=None (functools.cache) grows without bound over a
    # long run; the decorators in the source must all be found at run time
    memos = dict(memoized_functions())
    decorators = 0
    for path in Path(qsvt_refine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators += sum("cache" in ast.unparse(dec) for dec in node.decorator_list)
    assert len(memos) == decorators >= 2
    unbounded = [name for name, memo in memos.items()
                 if memo.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def private_module_names(tree):
    # the _names a module binds at its top level (dunders excluded)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_module_level_name_is_read_in_the_package():
    # a deletion that leaves its helper behind leaves a private name that
    # nothing in the package reads: a read is a loaded name, an attribute
    # or an import, anywhere in src/qsvt_refine
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(qsvt_refine.__file__).parent.glob("*.py"))}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name in private_module_names(tree) if name not in reads]
    assert unread == []


def imported_top_level_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "qsvt_refine" if node.level else node.module.partition(".")[0]


def test_every_imported_module_is_stdlib_the_package_or_a_declared_dependency():
    # every import statement, a function-local one included, whether or not
    # a test reaches it: a module that only the tests install must not be
    # imported by the library
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(qsvt_refine.__file__).resolve().parents[2] / "pyproject.toml"
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()
                for requirement in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    assert declared == {"numpy"}
    allowed = set(sys.stdlib_module_names) | {"qsvt_refine"} | declared
    undeclared = {f"{path.name}: {name}"
                  for path in sorted(Path(qsvt_refine.__file__).parent.glob("*.py"))
                  for name in imported_top_level_modules(path) if name not in allowed}
    assert undeclared == set()


def test_import_and_refined_solves_load_no_scipy():
    # scipy serves the tests as a reference; importing the package and CLI
    # and refining with every backend factory load none of it
    script = """
import sys
import numpy as np
import qsvt_refine
import qsvt_refine.bench_cli
from qsvt_refine import (iterative_refine, noisy_oracle_backend, qsvt_backend,
                         random_with_condition, spectral_oracle_backend)
a = random_with_condition(4, 4.0, 0)
b = np.arange(1.0, 5.0) / np.sqrt(30.0)
for factory in (spectral_oracle_backend, noisy_oracle_backend, qsvt_backend):
    _, trace, _ = iterative_refine(a, b, factory(a, 1e-2, kappa=4.0), 1e-10)
    assert trace.converged, factory.__name__
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(qsvt_refine.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
