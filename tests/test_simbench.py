"""Tests for the Monte Carlo benchmark harness."""

import collections
import csv
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedcausal import federation, fedruntime, nuisance, simbench, site_estimator
from fedcausal.errors import CandidateFitWarning, ConvergenceWarning, ScenarioError, Separated
from fedcausal.fedruntime import METHODS
from fedcausal.nuisance import FeatureMap
from fedcausal.numkit import standardized_design
from fedcausal.simbench import (
    ScenarioSpec,
    SiteSpec,
    generate_site,
    load_scenario,
    method_config,
    run_replication,
    run_scenario,
    sample_skew_normal,
)


def _small_scenario(mismatch=False, dgp="x"):
    sites = (
        SiteSpec(id="t", role="target", n=120, skew=(0.0, 0.0, 0.0, 0.0), dgp="x"),
        SiteSpec(id="s1", role="source", n=150, skew=(1.0, -1.0, 0.5, 0.0), dgp=dgp),
        SiteSpec(id="s2", role="source", n=150, skew=(0.0, 2.0, 0.0, -0.5), dgp=dgp),
    )
    return ScenarioSpec(name="small", sites=sites, mismatch=mismatch)


def test_skew_normal_moments():
    rng = np.random.default_rng(0)
    shape = np.array([0.0, 2.0, -5.0])
    X = sample_skew_normal(rng, 200_000, shape)
    delta = shape / np.sqrt(1.0 + shape**2)
    expected_mean = delta * math.sqrt(2.0 / math.pi)
    assert np.allclose(X.mean(axis=0), expected_mean, atol=0.01)
    expected_var = 1.0 - expected_mean**2
    assert np.allclose(X.var(axis=0), expected_var, atol=0.01)


def test_generate_site_deterministic():
    scenario = _small_scenario()
    f1 = generate_site(scenario.sites[1], scenario, np.random.default_rng(7))
    f2 = generate_site(scenario.sites[1], scenario, np.random.default_rng(7))
    assert np.array_equal(f1.y, f2.y)
    assert np.array_equal(f1.a, f2.a)
    assert np.array_equal(f1.X, f2.X)
    assert f1.X.shape == (150, 4)
    assert set(np.unique(f1.a)) <= {0, 1}


def test_generate_site_mismatch_restricts_target():
    scenario = _small_scenario(mismatch=True)
    tgt = generate_site(scenario.sites[0], scenario, np.random.default_rng(8))
    src = generate_site(scenario.sites[1], scenario, np.random.default_rng(9))
    assert tgt.X.shape[1] == 2
    assert tgt.shared_cols == (0, 1)
    assert src.X.shape[1] == 4
    assert src.shared_cols == (0, 1)


def test_generate_site_transform_dgp_runs():
    scenario = _small_scenario(dgp="z")
    frame = generate_site(scenario.sites[1], scenario, np.random.default_rng(10))
    assert np.all(np.isfinite(frame.y))
    assert 0 < frame.a.mean() < 1


def test_generate_site_adds_the_true_effect_to_treated_outcomes():
    zero = _small_scenario()
    two = dataclasses.replace(zero, true_delta=2.0)
    f0 = generate_site(zero.sites[1], zero, np.random.default_rng(11))
    f2 = generate_site(two.sites[1], two, np.random.default_rng(11))
    assert np.array_equal(f0.a, f2.a) and np.array_equal(f0.X, f2.X)
    assert np.allclose(f2.y - f0.y, 2.0 * f0.a, rtol=0.0, atol=1e-12)


def test_run_scenario_scores_against_a_nonzero_true_effect():
    # The estimates recover the effect the scenario names, so its intervals
    # cover it as they cover a zero effect.
    scenario = dataclasses.replace(load_scenario("c1"), true_delta=2.0)
    result = run_scenario(scenario, methods=("target", "ivw"), reps=10, seed=0)
    for m in result.metrics():
        assert m.coverage >= 0.8, m
        assert m.rmse < 0.5, m


def test_scenario_validation():
    base = _small_scenario()
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", sites=base.sites[1:])  # no target
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", sites=base.sites + (base.sites[1],))  # dup id
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", sites=(
            SiteSpec(id="t", role="target", n=5, skew=(0, 0, 0, 0), dgp="x"),))
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", sites=(
            SiteSpec(id="t", role="target", n=50, skew=(0, 0), dgp="x"),))
    with pytest.raises(ScenarioError):
        ScenarioSpec(name="x", sites=(
            SiteSpec(id="t", role="target", n=50, skew=(0, 0, 0, 0), dgp="w"),))
    with pytest.raises(ScenarioError):
        _small_scenario(mismatch=True, dgp="z")
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({"name": "x"})


def test_scenario_json_types_are_checked_not_coerced():
    # A string "false" is not the bool false, and 300.9 units is no sample size.
    good = {"name": "x", "mismatch": False, "true_delta": 0, "sites": [
        {"id": "t", "role": "target", "n": 50, "skew": [0, 0.5, 0, 0], "dgp": "x"}]}
    assert ScenarioSpec.from_dict(good).sites[0].n == 50

    def site(**fields):
        return lambda obj: obj["sites"][0].update(fields)

    bad = {
        "mismatch text": lambda obj: obj.update(mismatch="false"),
        "mismatch int": lambda obj: obj.update(mismatch=0),
        "true_delta text": lambda obj: obj.update(true_delta="0"),
        "true_delta bool": lambda obj: obj.update(true_delta=False),
        "n float": site(n=300.9),
        "n whole float": site(n=300.0),
        "n bool": site(n=True),
        "n text": site(n="300"),
        "skew text": site(skew=[0, "0.5", 0, 0]),
        "skew bool": site(skew=[0, True, 0, 0]),
    }
    for name, tamper in bad.items():
        obj = json.loads(json.dumps(good))
        tamper(obj)
        with pytest.raises(ScenarioError, match="wrong JSON type"):
            ScenarioSpec.from_dict(obj)


def test_scenario_numbers_must_be_finite(tmp_path):
    # json reads NaN and Infinity. A NaN skew failed that site in every
    # replication, and an infinite true effect made every interval miss,
    # while the study recorded no failure.
    good = {"name": "x", "true_delta": 0.0, "sites": [
        {"id": "t", "role": "target", "n": 50, "skew": [0, 0.5, 0, 0], "dgp": "x"},
        {"id": "s", "role": "source", "n": 50, "skew": [0, 0.5, 0, 0], "dgp": "x"}]}
    bad = {
        "nan skew": lambda obj: obj["sites"][1].update(skew=[0, math.nan, 0, 0]),
        "infinite skew": lambda obj: obj["sites"][0].update(skew=[-math.inf, 0, 0, 0]),
        "infinite true_delta": lambda obj: obj.update(true_delta=math.inf),
        "nan true_delta": lambda obj: obj.update(true_delta=math.nan),
    }
    path = tmp_path / "scenario.json"
    for name, tamper in bad.items():
        obj = json.loads(json.dumps(good))
        tamper(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario(str(path))
    path.write_text(json.dumps(good), encoding="utf-8")
    assert load_scenario(str(path)).true_delta == 0.0


def test_presets_load():
    names = sorted(p.stem for p in Path(simbench.__file__).with_name("presets").glob("*.json"))
    assert names == ["c0", "c05", "c1", "mismatch"]
    for name in names:
        sc = load_scenario(name)
        assert len(sc.sites) == 5
        assert sc.true_delta == 0.0
    assert load_scenario("mismatch").mismatch
    assert not load_scenario("c1").mismatch
    with pytest.raises(ScenarioError):
        load_scenario("c2")


def test_load_scenario_from_file(tmp_path):
    sc = _small_scenario()
    obj = {
        "name": sc.name,
        "sites": [{"id": s.id, "role": s.role, "n": s.n,
                   "skew": list(s.skew), "dgp": s.dgp} for s in sc.sites],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(obj))
    loaded = load_scenario(str(path))
    assert loaded.sites == sc.sites
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


def test_method_config_candidate_layout():
    scenario = _small_scenario()
    config = method_config("mr_l1", scenario)
    source = config.candidates["source"]
    assert len(source["treatment"]) == 2
    assert {fm.kind for fm in source["outcome"]} == {"raw", "kangschafer"}
    assert config.candidates["target"] == source
    config = method_config("ivw", scenario)
    assert len(config.candidates["source"]["treatment"]) == 1
    with pytest.raises(ScenarioError):
        method_config("bootstrap", scenario)

    mm = _small_scenario(mismatch=True)
    config = method_config("mr_l1", mm)
    kinds = {fm.kind for fm in config.candidates["source"]["outcome"]}
    assert kinds == {"raw", "subset"}
    tgt_kinds = {fm.kind for fm in config.candidates["target"]["outcome"]}
    assert tgt_kinds == {"raw"}


def test_run_scenario_small(tmp_path):
    result = run_scenario(_small_scenario(), methods=("target", "ivw"),
                          reps=3, seed=1)
    assert result.reps == 3
    metrics = {m.method: m for m in result.metrics()}
    assert set(metrics) == {"target", "ivw"}
    for m in metrics.values():
        assert m.reps == 3
        assert 0.0 <= m.coverage <= 1.0
        assert m.mae <= m.rmse + 1e-12
        assert m.mean_length > 0.0
        assert m.failures == 0

    metrics_path = tmp_path / "metrics.csv"
    result.write_metrics_csv(metrics_path)
    with open(metrics_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "reps", "mae", "rmse", "coverage",
                       "mean_length", "failures"]
    assert float(rows[1][3]) == metrics[rows[1][0]].rmse

    reps_path = tmp_path / "replications.csv"
    result.write_replications_csv(reps_path)
    with open(reps_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 3


def test_run_scenario_validation():
    with pytest.raises(ScenarioError):
        run_scenario(_small_scenario(), methods=("target", "magic"), reps=2)
    with pytest.raises(ScenarioError):
        run_scenario(_small_scenario(), reps=0)
    for methods in ((), ("ivw", "ivw")):
        with pytest.raises(ScenarioError):
            run_scenario(_small_scenario(), methods=methods, reps=2)
    assert set(METHODS) == {"target", "ss", "ivw", "aipw_l1", "mr_l1"}


def test_run_scenario_same_seed_same_rows():
    r1 = run_scenario(_small_scenario(), methods=("target",), reps=2, seed=3)
    r2 = run_scenario(_small_scenario(), methods=("target",), reps=2, seed=3)
    assert [row.delta_hat for row in r1.rows] == [row.delta_hat for row in r2.rows]
    r3 = run_scenario(_small_scenario(), methods=("target",), reps=2, seed=4)
    assert [row.delta_hat for row in r1.rows] != [row.delta_hat for row in r3.rows]


def test_site_phase_shared_across_methods(monkeypatch):
    calls = []
    fit = fedruntime.fit_nuisances

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(fedruntime, "fit_nuisances", counting_fit)
    scenario = load_scenario("c1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, failed = run_replication(scenario, METHODS, seed=0, rep=0)
        # target, ss, ivw and aipw_l1 share one site phase; mr_l1 has its own.
        assert len(rows) + len(failed) == 5
        assert len(calls) == 2 * len(scenario.sites)
        calls.clear()
        run_replication(scenario, ("mr_l1",), seed=0, rep=0)
        assert len(calls) == len(scenario.sites)


def test_site_phase_shared_only_with_the_same_target_group(monkeypatch):
    # Two methods that broadcast the same source group but give the target
    # different candidates run different site phases, so each gets the rows
    # it gets alone.
    scenario = _small_scenario()
    inner = simbench.method_config
    own = [FeatureMap("subset", (0, 1))]

    def config(method, scenario, seed=0):
        cfg = inner(method, scenario, seed=seed)
        if method == "ss":
            target = {"treatment": own, "outcome": own}
            cfg = dataclasses.replace(cfg, candidates={**cfg.candidates, "target": target})
        return cfg

    monkeypatch.setattr(simbench, "method_config", config)
    assert config("ss", scenario).to_dict() == config("ivw", scenario).to_dict()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        together, failed = run_replication(scenario, ("ss", "ivw"), seed=2, rep=1)
        alone = [row for m in ("ss", "ivw") for row in run_replication(scenario, (m,), 2, 1)[0]]
    assert failed == {} and together == alone


def test_a_failed_site_phase_fails_every_method_that_shares_it(monkeypatch):
    # The raw-candidate phase is made to fail: the four methods that share it
    # record the same failure, and mr_l1's own phase still gives its rows.
    scenario = _small_scenario()
    inner = simbench.run_sites

    def failing(frames, config):
        if config.candidates["source"]["outcome"] == [FeatureMap("raw")]:
            raise Separated("forced failure")
        return inner(frames, config)

    monkeypatch.setattr(simbench, "run_sites", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, failed = run_replication(scenario, METHODS, seed=2, rep=1)
        alone = run_replication(scenario, ("mr_l1",), seed=2, rep=1)
    shared = ("target", "ss", "ivw", "aipw_l1")
    assert failed == {m: "Separated: forced failure" for m in shared}
    assert rows == alone[0] and [r.method for r in rows] == ["mr_l1"]


def test_one_transport_per_replication(monkeypatch):
    # The tilts and the sources' CV folds hold no candidate model, so the two
    # site phases of a c1 replication with every method share them: 4 tilts
    # and 4 source fold sets, plus the target's folds in each adaptive combine.
    calls = collections.Counter()
    solve_tilt, split_masks = fedruntime.solve_tilt, site_estimator.split_masks

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fedruntime, "solve_tilt", counted(solve_tilt))
    for module in (fedruntime, site_estimator, federation):
        monkeypatch.setattr(module, "split_masks", counted(split_masks), raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, failed = run_replication(load_scenario("c1"), METHODS, seed=0, rep=0)
    assert failed == {} and len(rows) == 5
    assert calls == {"solve_tilt": 4, "split_masks": 6}


def test_a_failed_tilt_fails_its_source_in_every_site_phase(monkeypatch):
    # site3 shares one covariate fewer than the target, so its tilt fails, once,
    # in the transport: both site phases leave it out with the same error, and
    # every method runs on the other three sources.
    inner_frames, inner_combine = simbench.replication_frames, simbench.combine
    phases = []

    def frames(*args):
        return [dataclasses.replace(f, shared_cols=(0, 1, 2)) if f.site_id == "site3" else f
                for f in inner_frames(*args)]

    def combine(sites, method):
        phases.append(sites)
        return inner_combine(sites, method)

    monkeypatch.setattr(simbench, "replication_frames", frames)
    monkeypatch.setattr(simbench, "combine", combine)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, failed = run_replication(load_scenario("c1"), METHODS, seed=0, rep=0)
    assert failed == {} and len(rows) == 5
    assert len({id(phase) for phase in phases}) == 2
    reason = phases[0].failures["site3"]
    assert reason.startswith("MissingColumns: target summary has 5 basis entries")
    assert all(phase.failures == {"site3": reason} and len(phase.estimates) == 4
               for phase in phases)


def test_a_failed_transport_fails_every_method(monkeypatch):
    inner = simbench.replication_frames
    monkeypatch.setattr(simbench, "replication_frames", lambda *args: inner(*args)[1:])
    rows, failed = run_replication(load_scenario("c1"), METHODS, seed=0, rep=0)
    assert rows == []
    assert failed == dict.fromkeys(METHODS, "MissingTarget: expected exactly one target "
                                            "frame, got 0")


def test_scenario_spec_built_in_code_has_the_json_type_rule():
    # n is an int and each skew entry an int or float, a bool being neither.
    def spec(n=50, skew=(0, 0.5, 0, 0)):
        return ScenarioSpec("x", (SiteSpec("t", "target", n, skew, "x"),))

    assert spec().sites[0].n == 50
    for bad in ({"skew": ("a", 0, 0, 0)}, {"skew": (True, 0, 0, 0)}, {"n": "50"},
                {"n": 50.5}):
        with pytest.raises(ScenarioError, match="wrong JSON type"):
            spec(**bad)


@pytest.mark.parametrize("seed,rep", [(101, 434), (104, 412)])
def test_failed_full_sample_refit_drops_the_candidate(monkeypatch, seed, rep):
    # The target's kangschafer propensity candidate fits on its train split,
    # and its fit on all units is made to fail; it gets weight zero instead of
    # failing the round. Every preset site proposes the same feature maps,
    # so the warning names the site (site1, c0's target and its only site of
    # 300 units).
    features, forced = [], []
    kang_schafer, fit_logistic = nuisance.kang_schafer, nuisance.fit_logistic

    def recorded(X):
        features.append(kang_schafer(X))
        return features[-1]

    def failing(X, y, **start):
        if len(y) == 300 and any(np.array_equal(X, standardized_design(z)) for z in features):
            forced.append(len(y))
            raise Separated("forced to fail on all units")
        return fit_logistic(X, y, **start)

    weights = {}
    mix_propensity = nuisance.mix_propensity

    def mixed(site_id, *args, **kwargs):
        weights[site_id], fitted = mix_propensity(site_id, *args, **kwargs)
        return weights[site_id], fitted

    monkeypatch.setattr(nuisance, "kang_schafer", recorded)
    monkeypatch.setattr(nuisance, "fit_logistic", failing)
    monkeypatch.setattr(nuisance, "mix_propensity", mixed)
    with pytest.warns(CandidateFitWarning, match="^site1: candidate kangschafer failed to fit"):
        rows, failed = run_replication(load_scenario("c0"), ("mr_l1",), seed, rep)
    assert forced == [300]
    assert failed == {} and len(rows) == 1
    # The target's candidates are (raw, kangschafer): raw takes all the weight.
    assert np.array_equal(weights["site1"], [1.0, 0.0])


@pytest.mark.parametrize("scenario,rep", [("c1", 14), ("c0", 8)])
def test_badly_scaled_kangschafer_designs_fit(scenario, rep):
    # The kangschafer features reach ~570. On designs of the raw features,
    # site5's kangschafer candidate failed to fit in the c1 round ("step
    # halving failed 30 times") and a fit in the c0 round ran to the IRLS
    # iteration cap; on standardized designs both rounds fit with no warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, failed = run_replication(load_scenario(scenario), ("mr_l1",), 41, rep)
    assert failed == {} and len(rows) == 1
    assert not [w for w in caught
                if issubclass(w.category, (CandidateFitWarning, ConvergenceWarning))]
