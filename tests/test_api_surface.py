"""The package's public surface: what the benchmark's tracer wraps and what
the modules declare must exist, so removing a name shows up here."""

import importlib
import importlib.util
import pkgutil
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
