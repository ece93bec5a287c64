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


# The counts the tracer's hooks record from arguments and results; each is
# recorded, zero included, whenever its function runs.
HOOK_COUNTS = (
    "numkit.newton_solve.jac_evals",
    "numkit.fit_logistic.iters",
    "numkit.fit_logistic.nonconverged",
    "density_ratio.truncate_weights.n_capped",
    "federation.lambda_zero",
)


def test_one_traced_replication_records_every_span_and_count():
    # Replication 0 of the c1_all5 workload, seed 0, under the tracer: a
    # function whose call, arguments or result no longer fit its hook fails
    # here rather than only in a benchmark trace run. fedruntime.run_round is
    # traced but not called by a replication.
    from fedcausal import simbench

    tracing = _load("tracing")
    scenario_name, methods, _pace = _load("run").WORKLOADS["c1_all5"]
    scenario = simbench.load_scenario(scenario_name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simbench.run_replication(scenario, methods, 0, 0)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    expected = {f"{modname}.{attr}" for modname, attr in tracing.FUNCTIONS}
    unseen = expected - {"fedruntime.run_round"} - {span[0] for span in tracer.spans}
    assert not unseen, f"traced functions that recorded no span: {sorted(unseen)}"
    unrecorded = [name for name in HOOK_COUNTS if name not in tracer.counts[0]]
    assert not unrecorded, f"hook counts not recorded: {unrecorded}"
