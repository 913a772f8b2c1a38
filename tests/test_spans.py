"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps svb
functions and constructors by name; every name it lists must exist, and
so must every name an svb module exports."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import svb

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_MODULE = _spans()


@pytest.mark.parametrize("module", sorted(SPAN_MODULE.FUNCTIONS))
def test_wrapped_functions_exist(module):
    home = importlib.import_module(f"svb.{module}")
    for name in SPAN_MODULE.FUNCTIONS[module]:
        assert callable(getattr(home, name, None)), f"svb.{module}.{name}"


@pytest.mark.parametrize("module", ["svb"] + sorted(
    f"svb.{m.name}" for m in pkgutil.iter_modules(svb.__path__)))
def test_exported_names_exist(module):
    home = importlib.import_module(module)
    for name in getattr(home, "__all__", ()):
        assert hasattr(home, name), f"{module}.{name}"


@pytest.mark.parametrize("module", sorted(SPAN_MODULE.CLASSES))
def test_wrapped_classes_define_init(module):
    home = importlib.import_module(f"svb.{module}")
    for name in SPAN_MODULE.CLASSES[module]:
        assert "__init__" in vars(getattr(home, name)), f"svb.{module}.{name}"
