"""The benchmark's tracer (perfbench/tracing.py) wraps fedcausal functions and
codecs by name, and reports a renamed one as missing. These checks read its
name lists, so a rename fails here before it empties a benchmark metric."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for modname, attr in _tracing().FUNCTIONS:
        fn = getattr(importlib.import_module(f"fedcausal.{modname}"), attr, None)
        assert inspect.isfunction(fn), f"fedcausal.{modname}.{attr} is not a function"


def test_traced_codecs_are_class_attributes():
    for modname, clsname, attr in _tracing().CODECS:
        cls = getattr(importlib.import_module(f"fedcausal.{modname}"), clsname)
        assert attr in cls.__dict__, f"{clsname}.{attr} is not defined on the class"


def test_federation_calls_the_traced_weight_solver():
    from fedcausal import federation, numkit

    assert federation.nnls_coordinate_descent is numkit.nnls_coordinate_descent
