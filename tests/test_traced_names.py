"""The benchmark's tracer (perfbench/tracing.py) wraps fedcausal functions and
codecs by name, and reports a renamed one as missing; its runner
(perfbench/run.py) runs workloads named by scenario and method. These checks
read those names, so a rename fails here before it empties a benchmark metric
or workload."""

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for modname, attr in _load("tracing").FUNCTIONS:
        fn = getattr(importlib.import_module(f"fedcausal.{modname}"), attr, None)
        assert inspect.isfunction(fn), f"fedcausal.{modname}.{attr} is not a function"


def test_traced_codecs_are_class_attributes():
    for modname, clsname, attr in _load("tracing").CODECS:
        cls = getattr(importlib.import_module(f"fedcausal.{modname}"), clsname)
        assert attr in cls.__dict__, f"{clsname}.{attr} is not defined on the class"


def test_federation_calls_the_traced_weight_solver():
    from fedcausal import federation, numkit

    assert federation.nnls_coordinate_descent is numkit.nnls_coordinate_descent


def test_benchmark_workloads_name_known_methods_and_scenarios():
    from fedcausal.fedruntime import METHODS
    from fedcausal.simbench import load_scenario

    for name, (scenario, methods, _pace) in _load("run").WORKLOADS.items():
        unknown = [m for m in methods if m not in METHODS]
        assert not unknown, f"workload {name} runs unknown methods {unknown}"
        load_scenario(scenario)
