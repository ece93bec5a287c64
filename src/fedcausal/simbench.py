"""Monte Carlo benchmark: multi-site data generation and method comparison.

Sites draw skew-normal covariates, with outcome and treatment models that are
linear either in the raw covariates or in their nonlinear transform, so that
an analyst modeling the raw covariates is correct at some sites and wrong at
others. Each replication generates all sites, runs every requested method's
round through the one round driver (:func:`~fedcausal.fedruntime.run_rounds`:
one transport, one site phase per distinct candidate configuration and one
combine per method), and records the effect estimate and confidence
interval. Replications are pure functions of (seed, replication index).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import FedcausalError, ScenarioError
from .federation import GlobalReport
from .fedruntime import METHODS, ProtocolConfig, is_method_list, run_rounds
from .nuisance import FeatureMap, kang_schafer
from .numkit import expit
from .site_estimator import SiteFrame

OUTCOME_INTERCEPT = 210.0
OUTCOME_COEF = np.array([27.4, 13.7, 13.7, 13.7])
TREATMENT_COEF = np.array([-1.0, 0.5, -0.25, -0.1])

FAILURE_FRACTION_LIMIT = 0.01


@dataclass(frozen=True)
class SiteSpec:
    """Design of one simulated site."""

    id: str
    role: str  # target | source
    n: int
    skew: tuple[float, float, float, float]
    dgp: str  # x: models linear in raw covariates | z: linear in the transform


def _json_value(value, types: tuple, what: str):
    """``value`` if it is of one of the JSON types ``types`` (``str``, ``int``,
    ``float`` or ``bool``); a bool is only a bool, never a number."""
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        raise ScenarioError(f"{what} {value!r} has the wrong JSON type")
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """A full multi-site design plus the covariate-mismatch switch.

    The ``name`` and each site's ``id``, ``role`` and ``dgp`` are strings,
    each site's ``n`` is an ``int`` and its ``skew`` a tuple of four finite
    ``int`` or ``float`` entries, ``mismatch`` is a bool and ``true_delta`` a
    finite ``int`` or ``float``, kept as a float, a bool being no number;
    anything else raises :class:`ScenarioError`.
    """

    name: str
    sites: tuple[SiteSpec, ...]
    mismatch: bool = False
    true_delta: float = 0.0

    def __post_init__(self):
        _json_value(self.name, (str,), "name")
        _json_value(self.mismatch, (bool,), "mismatch")
        object.__setattr__(self, "true_delta",
                           float(_json_value(self.true_delta, (int, float), "true_delta")))
        for s in self.sites:
            for what in ("id", "role", "dgp"):
                _json_value(getattr(s, what), (str,), f"site {what}")
            if s.role not in ("target", "source"):
                raise ScenarioError(f"bad role {s.role!r} for site {s.id}")
            if _json_value(s.n, (int,), f"site {s.id} n") < 10:
                raise ScenarioError(f"site {s.id} sample size {s.n} below 10")
            if not (isinstance(s.skew, tuple) and len(s.skew) == 4
                    and all(math.isfinite(_json_value(v, (int, float), f"site {s.id} skew"))
                            for v in s.skew)):
                raise ScenarioError(f"site {s.id} needs 4 finite skew parameters")
            if s.dgp not in ("x", "z"):
                raise ScenarioError(f"site {s.id} dgp must be 'x' or 'z'")
        targets = [s for s in self.sites if s.role == "target"]
        if len(targets) != 1:
            raise ScenarioError(f"scenario needs exactly one target, got {len(targets)}")
        ids = [s.id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise ScenarioError("site ids must be unique")
        if self.mismatch and any(s.dgp == "z" for s in self.sites):
            raise ScenarioError("the mismatch design uses dgp 'x' at every site")
        if not math.isfinite(self.true_delta):
            raise ScenarioError(f"true_delta {self.true_delta!r} is not finite")

    @property
    def shared_cols(self) -> tuple[int, ...]:
        return (0, 1) if self.mismatch else (0, 1, 2, 3)

    @staticmethod
    def from_dict(obj: dict) -> "ScenarioSpec":
        """A scenario from decoded JSON, type-checked and not coerced by the
        constructor (``json`` reads ``NaN`` and ``Infinity`` as floats, which
        it rejects as ``true_delta``). Its keys are the fields of
        :class:`ScenarioSpec` and each site's those of :class:`SiteSpec`: a
        key left out takes its field's default, and any other key is
        rejected."""
        try:
            sites = tuple(SiteSpec(**s) for s in obj["sites"])
            sites = tuple(replace(s, skew=tuple(s.skew)) for s in sites)  # JSON has no tuple
            return ScenarioSpec(**{**obj, "sites": sites})
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(name_or_path: str) -> ScenarioSpec:
    """Load a bundled preset by name or a scenario JSON file by path. The
    text is UTF-8 and may start with the byte-order mark some editors write;
    text that is not UTF-8 is invalid JSON."""
    preset = resources.files("fedcausal").joinpath("presets", f"{name_or_path}.json")
    source = preset if preset.is_file() else Path(name_or_path)
    if not source.is_file():
        raise ScenarioError(f"no preset or file named {name_or_path!r}")
    try:
        obj = json.loads(source.read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ScenarioError(f"scenario JSON is invalid: {exc}") from exc
    return ScenarioSpec.from_dict(obj)


def sample_skew_normal(rng: np.random.Generator, n: int, shape: np.ndarray) -> np.ndarray:
    """Draw n rows of independent skew-normal(0, 1, shape_p) covariates.

    Uses the half-normal representation X = delta |U0| + sqrt(1 - delta^2) U1
    with delta = shape / sqrt(1 + shape^2).
    """
    shape = np.asarray(shape, dtype=float)
    delta = shape / np.sqrt(1.0 + shape**2)
    u0 = rng.standard_normal((n, len(shape)))
    np.abs(u0, out=u0)
    u0 *= delta
    u1 = rng.standard_normal((n, len(shape)))
    u1 *= np.sqrt(1.0 - delta**2)
    u0 += u1
    return u0


def generate_site(site: SiteSpec, scenario: ScenarioSpec, rng: np.random.Generator) -> SiteFrame:
    """Generate one site's frame, with the constant treatment effect
    ``scenario.true_delta`` added to every treated unit's outcome.

    Sites with dgp "z" build their outcome and treatment models on the
    standardized nonlinear transform of the covariates. Standardization keeps
    the logistic index on the same scale as the raw-covariate sites (the raw
    transform has columns near 400, which would drive every treatment
    probability to zero); a linear model in the untransformed columns still
    spans the generating model exactly.
    """
    X = sample_skew_normal(rng, site.n, np.asarray(site.skew))

    beta, alpha_coef = OUTCOME_COEF, TREATMENT_COEF
    if scenario.mismatch and site.role == "target":
        # The target's models involve only the covariates it observes.
        observed = np.isin(np.arange(len(beta)), scenario.shared_cols)
        beta, alpha_coef = np.where(observed, beta, 0.0), np.where(observed, alpha_coef, 0.0)
        features = X
    elif site.dgp == "x":
        features = X
    else:
        Z = kang_schafer(X)
        features = (Z - Z.mean(axis=0)) / Z.std(axis=0)

    p_treat = expit(features @ alpha_coef)
    a = (rng.random(site.n) < p_treat).astype(int)
    eps = rng.standard_normal(site.n)
    y = OUTCOME_INTERCEPT + features @ beta + scenario.true_delta * a + eps

    shared = scenario.shared_cols
    X_obs = X[:, list(shared)] if site.role == "target" else X
    frame_shared = tuple(range(len(shared))) if site.role == "target" else shared
    return SiteFrame(
        site_id=site.id,
        role=site.role,
        y=y,
        a=a,
        X=X_obs,
        shared_cols=frame_shared,
    )


def method_config(
    method: str,
    scenario: ScenarioSpec,
    seed: int = 0,
) -> ProtocolConfig:
    """Candidate-model and runtime configuration for one benchmark method.

    Both roles' groups model the raw covariates, and the multiply-robust
    method adds a transformed-covariate candidate. Under mismatch the target
    keeps its one raw candidate on the covariates it holds, and the sources
    model the shared subset, which mr_l1 mixes with their raw covariates.
    """
    if method not in METHODS:
        raise ScenarioError(f"unknown method {method!r}; choose from {METHODS}")
    raw = FeatureMap("raw")
    if scenario.mismatch:
        sub = FeatureMap("subset", scenario.shared_cols)
        src_maps = [raw, sub] if method == "mr_l1" else [sub]
        tgt_maps = [raw]
    else:
        src_maps = [raw, FeatureMap("kangschafer")] if method == "mr_l1" else [raw]
        tgt_maps = src_maps
    candidates = {role: {"treatment": maps, "outcome": maps}
                  for role, maps in (("target", tgt_maps), ("source", src_maps))}
    return ProtocolConfig(candidates=candidates, method=method, seed=seed)


@dataclass(frozen=True)
class ReplicationRow:
    method: str
    rep: int
    delta_hat: float
    se: float
    ci_low: float
    ci_high: float
    covered: int
    length: float


@dataclass(frozen=True)
class MetricsRow:
    method: str
    reps: int
    mae: float
    rmse: float
    coverage: float
    mean_length: float
    failures: int


@dataclass
class SimulationResult:
    methods: tuple[str, ...]
    true_delta: float
    rows: list[ReplicationRow] = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # method -> count

    def metrics(self) -> list[MetricsRow]:
        out = []
        for method in self.methods:
            rows = [r for r in self.rows if r.method == method]
            err = np.array([r.delta_hat - self.true_delta for r in rows])
            out.append(
                MetricsRow(
                    method=method,
                    reps=len(rows),
                    mae=float(np.mean(np.abs(err))),
                    rmse=float(np.sqrt(np.mean(err**2))),
                    coverage=float(np.mean([r.covered for r in rows])),
                    mean_length=float(np.mean([r.length for r in rows])),
                    failures=int(self.failures.get(method, 0)),
                )
            )
        return out

    def write_metrics_csv(self, path) -> None:
        _write_rows(path, MetricsRow, self.metrics())

    def write_replications_csv(self, path) -> None:
        _write_rows(path, ReplicationRow, sorted(self.rows, key=lambda r: (r.method, r.rep)))


def _write_rows(path, cls, rows) -> None:
    """Write ``rows`` of dataclass ``cls`` as CSV under a header of its field
    names; ``csv`` writes each float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f.name for f in fields(cls)])
        w.writerows(map(astuple, rows))


def rep_config_seed(seed: int, rep: int) -> int:
    """The protocol config seed of replication ``rep``."""
    return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0] % (2**31))


def replication_frames(scenario: ScenarioSpec, seed: int, rep: int) -> list[SiteFrame]:
    """The site frames of replication ``rep``."""
    return [
        generate_site(
            site,
            scenario,
            np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rep, idx)))),
        )
        for idx, site in enumerate(scenario.sites)
    ]


def replication_reports(scenario: ScenarioSpec, methods, seed: int,
                        rep: int) -> tuple[dict[str, GlobalReport], dict[str, FedcausalError]]:
    """One replication's rounds: generate all sites and run each method's
    round (:func:`~fedcausal.fedruntime.run_rounds`). Returns each method's
    report and each failed method's error."""
    return run_rounds(replication_frames(scenario, seed, rep), rep_config_seed(seed, rep),
                      {method: method_config(method, scenario).candidates for method in methods})


def run_replication(scenario: ScenarioSpec, methods, seed: int,
                    rep: int) -> tuple[list[ReplicationRow], dict]:
    """One replication's rows, scored for coverage, and each failed
    method's reason (:func:`replication_reports`)."""
    reports, failed = replication_reports(scenario, methods, seed, rep)
    rows = []
    for method, report in reports.items():
        lo, hi = report.ci
        rows.append(ReplicationRow(method=method, rep=rep, delta_hat=report.delta_hat,
                                   se=math.sqrt(report.variance), ci_low=lo, ci_high=hi,
                                   covered=int(lo <= scenario.true_delta <= hi),
                                   length=hi - lo))
    return rows, {method: f"{type(exc).__name__}: {exc}" for method, exc in failed.items()}


def run_scenario(
    scenario: ScenarioSpec,
    methods=METHODS,
    reps: int = 500,
    seed: int = 0,
) -> SimulationResult:
    """Run the full Monte Carlo study.

    An adaptive method over more than ``federation.MAX_SOURCES`` sources
    raises :class:`TooManySources` in the first replication. Aborts with
    :class:`ScenarioError`, naming the first failed replication and its
    reason, if more than 1 percent of replications fail for any method.
    Replication rows are aggregated in replication order.
    """
    methods = tuple(methods)
    if not is_method_list(methods):
        raise ScenarioError(f"methods must be a non-empty list of distinct names from {METHODS}, "
                            f"got {methods}")
    if reps < 1:
        raise ScenarioError("reps must be positive")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcomes = [run_replication(scenario, methods, seed, rep) for rep in range(reps)]

    result = SimulationResult(methods=methods, true_delta=scenario.true_delta)
    first: dict[str, str] = {}  # method -> its first failure
    for rep, (rows, failed) in enumerate(outcomes):
        result.rows.extend(rows)
        for method, reason in failed.items():
            result.failures[method] = result.failures.get(method, 0) + 1
            first.setdefault(method, f"replication {rep}: {reason}")
    for method, count in result.failures.items():
        if count / reps > FAILURE_FRACTION_LIMIT:
            raise ScenarioError(
                f"method {method} failed in {count}/{reps} replications "
                f"(limit {FAILURE_FRACTION_LIMIT:.0%}); first in {first[method]}"
            )
    return result
