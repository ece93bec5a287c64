"""fedcausal benchmark: Monte Carlo studies timed end to end and traced by module.

Run from the repository root::

    python3 perfbench/run.py --workload c1_all5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload is a closed-loop Monte Carlo study: one process, one
replication after another, ``FEDCAUSAL_THREADS`` unset. The package is
imported from ``src/`` of the checkout and driven only through its public
functions.

* Set-up: import, scenario load and one untimed warm-up replication, done in
  this process and in six fresh child processes, three of them after the
  study; ``setup_s`` is the median of the speed-adjusted samples.
* Timed run (``--trace 0``): one ``simbench.run_scenario`` call sized by the
  workload's pace to last about ``--seconds`` with fedcausal 0.1.0, and never
  fewer than ``PREFIX_REPS`` replications, with one wall-clock and CPU
  sample per ``simbench.run_replication`` call.
* Speed adjustment: the machine's speed drifts, so a fixed kernel that shares
  no code with fedcausal (``SpeedProbe``) runs after every replication and
  every set-up. The ``*_adj`` metrics and ``setup_s`` are the raw times
  scaled to the speed at which that kernel takes ``REF_PROBE_S``; the table
  and the result file also show the raw figures.
* Traced run (``--trace 1``): every replication of the study runs twice,
  once with every public function of the traced modules wrapped (see
  ``tracing.py``) and once untraced, alternating which goes first, so the
  tracing overhead is measured on the same work. Each half gets
  ``--seconds / 2``, again with at least ``PREFIX_REPS`` replications.

Replications are pure functions of (seed, rep), so the first ``PREFIX_REPS``
replications are the same in every run of a seed: the rows hash, the
accuracy figures and every count come from them and repeat exactly.

Every run checks its output: each estimate and SE is finite, each CI holds
its estimate, replication 0 reproduces exactly (in a traced run, every traced
replication gives the same rows as its untraced twin), and ``audit_ledger``
passes on one round per method. A method-round that raises (``run_scenario``
tolerates up to 1 percent) counts in ``failed`` but does not make the run
incorrect. The run prints a table, writes the full result (with the environment) to
``perfbench/results/``, and prints as its last line the JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
``end_to_end`` entries of BENCHMARK.json, or the ``per_layer`` ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# name -> (scenario preset or file, methods, replications per second of
# --seconds). The pace fixes the study size from --seconds alone, so every run
# of a seed measures the same replications. It is the throughput of fedcausal
# 0.1.0 on a 2-vCPU x86-64 VM (python 3.11, numpy 2.4, OpenBLAS).
WORKLOADS = {
    "c1_all5": ("c1", ("target", "ss", "ivw", "aipw_l1", "mr_l1"), 4.5),
    "c0_mr_l1": ("c0", ("mr_l1",), 18.0),
    "c1x10_ivw": (str(BENCH_DIR / "scenarios" / "c1x10.json"), ("ivw",), 4.5),
}

# Replications every run of a seed shares. 100 samples leave exactly 10
# beyond the 90th percentile, which rep_ms_p90 needs.
PREFIX_REPS = 100
TAIL_PERCENTILE = 90
# Set-up samples taken before the study (this process included) and after
# it, so that the median spans the machine's state over the whole run.
SETUP_BEFORE, SETUP_AFTER = 4, 3
CHILD_TIMEOUT_S = 150

# On a shared VM the same replication can take twice as long from one minute
# to the next, and the probe's time moves with it. An adjusted time is the raw
# time times REF_PROBE_S / the probe's time around it (see SpeedProbe.factors).
# The study functions take the probe's first sample before their first
# replication and one after each replication.
REF_PROBE_S = 0.0025
SETUP_PROBES = 5
RAW_UNITS = {"reps_per_s": "1/s", "rep_ms_p50": "ms", f"rep_ms_p{TAIL_PERCENTILE}": "ms",
             "cpu_ms_per_rep": "ms", "setup_s_raw": "s", "speed_factor": "ratio"}


class SpeedProbe:
    """A fixed numpy and pure-Python kernel whose run time tracks machine speed.

    It shares no code with fedcausal, so no change to the package moves it;
    its arrays are small enough that BLAS runs it on one thread. Garbage
    collection is off while it runs, so objects a study leaves behind do not
    bill it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.X = rng.standard_normal((400, 5))
        self.y = (rng.random(400) < 0.5).astype(float)
        self.samples: list[float] = []

    def __call__(self) -> float:
        np, X, y = self.np, self.X, self.y
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(10):
                beta = np.zeros(X.shape[1])
                for _ in range(5):
                    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
                    hess = (X * (p * (1.0 - p))[:, None]).T @ X
                    beta = beta + np.linalg.solve(hess, X.T @ (y - p))
            acc = 0
            for i in range(5000):
                acc += i * i % 7
            elapsed = time.perf_counter() - start
        finally:
            if gc_enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def factors(self) -> list[float]:
        """Multipliers that take each replication's times to the reference speed.

        ``samples[0]`` is taken before the first replication and
        ``samples[i + 1]`` right after replication i. Replication i's probe
        time is the larger of the mean of the two probes around it, which
        catches a slowdown during that replication, and the median of the
        five probes centred on it, which follows drift but not one outlier.
        """
        t = self.samples
        return [REF_PROBE_S / max((t[i] + t[i + 1]) / 2, statistics.median(t[max(0, i - 1):i + 4]))
                for i in range(len(t) - 1)]


def setup(workload: str, seed: int):
    """Import the package, load the scenario and run one warm-up replication.

    Returns the package's ``simbench``, the scenario, the methods, the
    set-up seconds and the speed probe's median seconds right after.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from fedcausal import simbench

    if not Path(simbench.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fedcausal was imported from {simbench.__file__}, not from {SRC}")
    scenario_name, methods, _pace = WORKLOADS[workload]
    scenario = simbench.load_scenario(scenario_name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        simbench.run_replication(scenario, methods, seed, 0)
    setup_s = time.perf_counter() - start
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe()
    return simbench, scenario, methods, setup_s, statistics.median(probe.samples)


def child_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set up once in a fresh interpreter; returns (set-up s, probe s)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up in a child process failed:\n{proc.stderr}")
    obj = json.loads(proc.stdout.strip().splitlines()[-1])
    return obj["setup_s"], obj["probe_s"]


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_run(simbench, scenario, methods, seed: int, reps: int, probe) -> dict:
    """One ``run_scenario`` study with wall and CPU samples per replication.

    The speed probe runs after each replication; its time is taken out of
    the study's wall time.
    """
    samples: list[float] = []
    cpu: list[float] = []
    inner = simbench.run_replication

    def timed(*args, **kwargs):
        cpu0, start = cpu_seconds(), time.perf_counter()
        out = inner(*args, **kwargs)
        samples.append(time.perf_counter() - start)
        cpu.append(cpu_seconds() - cpu0)
        probe()
        return out

    probe()
    simbench.run_replication = timed
    try:
        start = time.perf_counter()
        result = simbench.run_scenario(scenario, methods, reps=reps, seed=seed)
        wall = time.perf_counter() - start - sum(probe.samples[1:])
    finally:
        simbench.run_replication = inner
    return {"rows": result.rows, "failures": sum(result.failures.values()),
            "samples": samples, "cpu_samples": cpu, "wall": wall, "reps": reps}


def replicate(simbench, scenario, methods, seed: int, rep: int):
    """One replication as ``run_scenario`` runs it; returns rows, failures, wall, cpu."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cpu0, start = cpu_seconds(), time.perf_counter()
        rows, failed = simbench.run_replication(scenario, methods, seed, rep)
        return rows, len(failed), time.perf_counter() - start, cpu_seconds() - cpu0


def paired_run(simbench, scenario, methods, seed: int, reps: int, tracer,
               probe) -> tuple[dict, dict]:
    """Run every replication twice, traced and untraced, alternating which goes first.

    Pairing the same replication back to back keeps drift in machine speed
    out of the tracing overhead.
    """
    runs = {True: [], False: []}
    probe()
    for rep in range(reps):
        for traced in ((True, False) if rep % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
            try:
                runs[traced].append(replicate(simbench, scenario, methods, seed, rep))
            finally:
                tracer.uninstall()
        probe()

    def study(outcomes) -> dict:
        return {
            "rows": [row for rows, *_ in outcomes for row in rows],
            "failures": sum(o[1] for o in outcomes),
            "samples": [o[2] for o in outcomes],
            "cpu_samples": [o[3] for o in outcomes],
            "wall": sum(o[2] for o in outcomes),
            "reps": reps,
        }

    return study(runs[True]), study(runs[False])


def rows_digest(rows, reps: int) -> str:
    h = hashlib.sha256()
    for r in sorted((r for r in rows if r.rep < reps), key=lambda r: (r.rep, r.method)):
        h.update(
            f"{r.method},{r.rep},{r.delta_hat!r},{r.se!r},{r.ci_low!r},"
            f"{r.ci_high!r},{r.covered},{r.length!r}\n".encode()
        )
    return h.hexdigest()


def bad_rows(rows) -> int:
    """Rows whose estimate or SE is not finite, or whose CI misses the estimate."""
    return sum(
        1 for r in rows
        if not all(math.isfinite(v) for v in (r.delta_hat, r.se, r.ci_low, r.ci_high))
        or not r.ci_low <= r.delta_hat <= r.ci_high
    )


def accuracy(rows, methods, true_delta: float, level: float = 0.95) -> dict:
    """RMSE (mean over methods), worst coverage error and worst SE/SD gap."""
    rmse, cov_err, gap = [], [], []
    for m in methods:
        mine = [r for r in rows if r.method == m]
        est = [r.delta_hat for r in mine]
        rmse.append(math.sqrt(statistics.fmean((d - true_delta) ** 2 for d in est)))
        cov_err.append(abs(statistics.fmean(r.covered for r in mine) - level))
        gap.append(abs(statistics.fmean(r.se for r in mine) / statistics.stdev(est) - 1.0))
    return {"rmse": statistics.fmean(rmse), "coverage_err": max(cov_err), "se_sd_gap": max(gap)}


def audit_rounds(simbench, scenario, methods, seed: int) -> dict:
    """Run one round per method on fresh frames and audit its ledger."""
    import numpy as np
    from fedcausal.errors import FedcausalError
    from fedcausal.fedruntime import audit_ledger, run_round

    frames = [
        simbench.generate_site(site, scenario, np.random.default_rng([seed, 104729, idx]))
        for idx, site in enumerate(scenario.sites)
    ]
    failed, kinds, messages, total = 0, {}, [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in methods:
            try:
                report = run_round(frames, simbench.method_config(m, scenario, seed=seed))
                census = audit_ledger(report)
            except FedcausalError:
                failed += 1
                continue
            lo, hi = report.ci
            if not (math.isfinite(report.delta_hat) and lo <= report.delta_hat <= hi):
                failed += 1
            messages.append(census["n_messages"])
            total.append(sum(b["bytes"] for b in census["by_kind"].values()))
            for kind, b in census["by_kind"].items():
                kinds.setdefault(kind, []).append(b["bytes"])
    rounds = len(total)
    return {
        "rounds": len(methods),
        "failed": failed,
        "messages": statistics.fmean(messages) if rounds else None,
        "round_kb": statistics.fmean(total) / 1000 if rounds else None,
        "kb_by_kind": {k: sum(v) / rounds / 1000 for k, v in kinds.items()},
    }


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(timed: dict, setups, factors, peak_rss_mb: float, audit, acc) -> dict:
    """Raw and speed-adjusted timings plus the size and accuracy figures.

    ``factors`` holds one speed factor per replication. ``setups`` holds
    (set-up s, probe s) pairs; each set-up time is adjusted by its own probe
    time.
    """
    samples, cpu, reps = timed["samples"], timed["cpu_samples"], timed["reps"]
    adj = [t * f for t, f in zip(samples, factors)]
    adj_cpu = [c * f for c, f in zip(cpu, factors)]
    tail = f"rep_ms_p{TAIL_PERCENTILE}"
    return {
        "reps_per_s": reps / timed["wall"],
        "rep_ms_p50": statistics.median(samples) * 1000,
        tail: nearest_rank(samples, TAIL_PERCENTILE) * 1000,
        "cpu_ms_per_rep": sum(cpu) / reps * 1000,
        "setup_s_raw": statistics.median(s for s, _ in setups),
        "speed_factor": statistics.median(factors),
        "reps_per_s_adj": reps / sum(adj),
        "rep_ms_p50_adj": statistics.median(adj) * 1000,
        f"{tail}_adj": nearest_rank(adj, TAIL_PERCENTILE) * 1000,
        "cpu_ms_per_rep_adj": sum(adj_cpu) / reps * 1000,
        "setup_s": statistics.median(s * REF_PROBE_S / p for s, p in setups),
        "peak_rss_mb": peak_rss_mb,
        "round_kb": audit["round_kb"],
        "rmse": acc["rmse"],
    }


def per_layer(tracer, agg: dict, audit: dict, traced: dict, untraced: dict) -> dict:
    """Per-replication layer metrics; None where a traced function is missing."""
    from tracing import CODEC_PREFIX, CODECS, ROOT as ROOT_SPAN

    missing = set(tracer.missing)
    s, self_s, calls, counts = agg["s"], agg["self_s"], agg["calls"], agg["counts"]

    def need(value, *names):
        return None if missing.intersection(names) else value

    def span(fn, kind="s"):
        table = {"s": s, "self_s": self_s, "calls": calls}[kind]
        return need(table.get(fn, 0.0), fn)

    def count(fn, key):
        return need(counts.get(key, 0.0), fn)

    codec_names = [f"{CODEC_PREFIX}{cls}.{attr}" for _mod, cls, attr in CODECS]
    cv_calls = calls.get("federation.cross_validate_lambda", 0.0)
    lambda_zero = counts.get("federation.lambda_zero", 0.0)
    kb = audit["kb_by_kind"]
    out = {
        "simbench.generate_site.s": span("simbench.generate_site"),
        "fedruntime.run_round.calls": span("fedruntime.run_round", "calls"),
        "fedruntime.run_round.self_s": span("fedruntime.run_round", "self_s"),
        "fedruntime.codec.s": need(sum(s.get(n, 0.0) for n in codec_names), *codec_names),
        "fedruntime.messages": audit["messages"],
        "fedruntime.bytes.config": kb.get("config", 0.0),
        "fedruntime.bytes.moment_summary": kb.get("moment_summary", 0.0),
        "fedruntime.bytes.site_estimate": kb.get("site_estimate", 0.0),
        "density_ratio.target_moments.s": span("density_ratio.target_moments"),
        "density_ratio.solve_tilt.calls": span("density_ratio.solve_tilt", "calls"),
        "density_ratio.solve_tilt.s": span("density_ratio.solve_tilt"),
        "density_ratio.truncate_weights.n_capped": count(
            "density_ratio.truncate_weights", "density_ratio.truncate_weights.n_capped"),
        "numkit.newton_solve.jac_evals": count(
            "numkit.newton_solve", "numkit.newton_solve.jac_evals"),
        "nuisance.fit_nuisances.calls": span("nuisance.fit_nuisances", "calls"),
        "nuisance.fit_nuisances.self_s": span("nuisance.fit_nuisances", "self_s"),
        "nuisance.mix_propensity.s": span("nuisance.mix_propensity"),
        "nuisance.mix_outcome.s": span("nuisance.mix_outcome"),
        "numkit.fit_logistic.calls": span("numkit.fit_logistic", "calls"),
        "numkit.fit_logistic.s": span("numkit.fit_logistic"),
        "numkit.fit_logistic.iters": count("numkit.fit_logistic", "numkit.fit_logistic.iters"),
        "numkit.fit_logistic.nonconverged": count(
            "numkit.fit_logistic", "numkit.fit_logistic.nonconverged"),
        "numkit.fit_ols.calls": span("numkit.fit_ols", "calls"),
        "numkit.fit_ols.s": span("numkit.fit_ols"),
        "numkit.nnls_coordinate_descent.calls": span("numkit.nnls_coordinate_descent", "calls"),
        "numkit.nnls_coordinate_descent.s": span("numkit.nnls_coordinate_descent"),
        "site_estimator.source_report.self_s": span("site_estimator.source_report", "self_s"),
        "site_estimator.complete_source_estimate.s": span("site_estimator.complete_source_estimate"),
        "site_estimator.estimate_target.s": span("site_estimator.estimate_target"),
        "federation.cross_validate_lambda.calls": span("federation.cross_validate_lambda", "calls"),
        "federation.cross_validate_lambda.self_s": span(
            "federation.cross_validate_lambda", "self_s"),
        "federation.combine_fixed.s": span("federation.combine_fixed"),
        "federation.global_estimate.s": span("federation.global_estimate"),
        # Share of adaptive rounds choosing lambda = 0; 0 when none ran.
        "federation.lambda_zero_frac": need(
            lambda_zero / cv_calls if cv_calls else 0.0, "federation.cross_validate_lambda"),
        "trace.spans": need(sum(calls.values()), ROOT_SPAN),
        "trace.reps_per_s": traced["reps"] / traced["wall"],
        "trace.untraced_reps_per_s": untraced["reps"] / untraced["wall"],
        # Median over replications of traced / untraced time of the same rep.
        "trace.overhead_frac": statistics.median(
            t / u for t, u in zip(traced["samples"], untraced["samples"])) - 1.0,
    }
    for fn in ("fit_logistic", "fit_ols", "newton_solve", "nnls_coordinate_descent"):
        out[f"numkit.{fn}.errors"] = count(f"numkit.{fn}", f"numkit.{fn}.errors")
    for cls in ("PositivityWarning", "ExtremeWeightsWarning", "CandidateFitWarning",
                "AllSourcesFailedWarning"):
        out[f"warn.{cls}"] = count(ROOT_SPAN, f"warn.{cls}")
    return out


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "FEDCAUSAL_THREADS": os.environ.get("FEDCAUSAL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def print_table(title: str, rows, unit_of) -> None:
    print(title)
    for name, value in rows:
        shown = "absent" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"  {name:<44} {shown:>16}  {unit_of.get(name, '')}")


def run(args) -> dict:
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    simbench, scenario, methods, setup_s, probe_s = setup(args.workload, args.seed)
    setups = [(setup_s, probe_s)]
    setups += [child_setup(args.workload, args.seed) for _ in range(SETUP_BEFORE - 1)]
    probe = SpeedProbe()
    budget = args.seconds / 2 if args.trace else args.seconds
    reps = max(PREFIX_REPS, math.ceil(budget * WORKLOADS[args.workload][2]))

    tracer = None
    if args.trace:
        tracer = Tracer()
        traced, timed = paired_run(simbench, scenario, methods, args.seed, reps, tracer, probe)
        studies = [timed, traced]
        reproducible = traced["rows"] == timed["rows"]
    else:
        timed = timed_run(simbench, scenario, methods, args.seed, reps, probe)
        studies = [timed]
        rep0, _, _, _ = replicate(simbench, scenario, methods, args.seed, 0)
        reproducible = rep0 == [r for r in timed["rows"] if r.rep == 0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [child_setup(args.workload, args.seed) for _ in range(SETUP_AFTER)]
    audit = audit_rounds(simbench, scenario, methods, args.seed)

    bad = sum(bad_rows(st["rows"]) for st in studies)
    attempted = len(studies) * reps * len(methods) + audit["rounds"]
    failed = sum(st["failures"] for st in studies) + bad + audit["failed"]
    correct = bool(reproducible and bad == 0 and audit["failed"] == 0)
    digest = rows_digest(timed["rows"], PREFIX_REPS)
    acc = accuracy([r for r in timed["rows"] if r.rep < PREFIX_REPS], methods, scenario.true_delta)
    e2e = end_to_end(timed, setups, probe.factors(), peak_rss_mb, audit, acc)
    layers = agg = None
    if args.trace:
        agg = tracer.aggregate(PREFIX_REPS, reps, probe.factors())
        layers = per_layer(tracer, agg, audit, traced, timed)
    env = environment(args.seed)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    mode = "paired traced/untraced" if args.trace else "timed"
    print(f"== {args.workload}  seed {args.seed}  {mode} run of {reps} reps "
          f"({timed['wall']:.1f} s untraced), methods {','.join(methods)} ==")
    print_table("end-to-end", list(e2e.items()), {**units, **RAW_UNITS})
    print_table(
        f"accuracy and checks (rows of reps 0-{PREFIX_REPS - 1})",
        [("coverage_err", acc["coverage_err"]), ("se_sd_gap", acc["se_sd_gap"]),
         ("failed_frac", failed / attempted), ("attempted", attempted), ("failed", failed),
         ("reproducible", str(reproducible)), ("rows_sha256", digest)],
        {"failed_frac": "fraction", "attempted": "method-rounds", "failed": "method-rounds"},
    )
    if args.trace:
        print_table(
            f"per-layer (per rep: speed-adjusted times over {reps} traced reps, "
            f"counts over reps 0-{PREFIX_REPS - 1})",
            [(m["name"], layers[m["name"]]) for m in spec["per_layer"]], units,
        )
        extra = {k: v for k, v in agg["counts"].items() if ".errors." in k or k.startswith("warn.")}
        print(f"errors and warnings by class (per rep): {extra or 'none'}")
        if tracer.missing:
            print(f"missing functions (their metrics are absent): {', '.join(tracer.missing)}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    full = {
        "workload": args.workload, "methods": list(methods), "reps": reps,
        "prefix_reps": PREFIX_REPS, "environment": env, "end_to_end": e2e,
        "accuracy": acc, "attempted": attempted, "failed": failed, "correct": correct,
        "rows_sha256": digest, "setup_and_probe_s": setups,
        "per_layer": layers, "counts": agg["counts"] if agg else None,
        "missing": tracer.missing if tracer else [],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own process and print their results."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The study runs on one thread; child processes inherit this.
    os.environ.pop("FEDCAUSAL_THREADS", None)

    if not (SRC / "fedcausal" / "__init__.py").is_file():
        print(f"error: no fedcausal package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.setup_only:
        *_, setup_s, probe_s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
