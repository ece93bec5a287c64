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
from fedcausal.errors import (CandidateFitWarning, ConvergenceWarning, NoConvergence,
                              ScenarioError, TooManySources)
from fedcausal.federation import FIXED_SCHEMES, MAX_SOURCES
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


def _skew_normal_reference(rng, n, shape):
    """The (n, p) form of the half-normal representation."""
    delta = shape / np.sqrt(1.0 + shape**2)
    u0 = rng.standard_normal((n, len(shape)))
    u1 = rng.standard_normal((n, len(shape)))
    return delta * abs(u0) + np.sqrt(1 - delta**2) * u1


@pytest.mark.parametrize("n", [1, 7, 10_000])
@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize("shape", [[0.0, 0.0], [-3.0, -0.5, -1e-3], [2.0, 0.0, -5.0, 0.5]])
def test_skew_normal_draws_are_bitwise_the_reference(n, bit_generator, shape):
    # Flat draws give the (n, p) draws' values and leave each stream where
    # they left it.
    shape = np.array(shape)
    new, ref = (np.random.Generator(bit_generator(17)) for _ in range(2))
    X = sample_skew_normal(new, n, shape)
    assert X.shape == (n, len(shape))
    assert np.array_equal(X, _skew_normal_reference(ref, n, shape))
    assert new.random() == ref.random()


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


def test_scenario_site_roles_are_target_or_source():
    base = _small_scenario()
    sink = dataclasses.replace(base.sites[1], role="sink")
    with pytest.raises(ScenarioError, match="bad role 'sink' for site s1"):
        ScenarioSpec(name="x", sites=(base.sites[0], sink))


def test_scenario_names_a_misspelled_role():
    # The per-site checks run before the target count, so a target whose
    # role is misspelled is named, not counted as a missing target.
    obj = json.loads(Path(simbench.__file__).with_name("presets").joinpath("c1.json").read_text())
    obj["sites"][0]["role"] = "Target"
    with pytest.raises(ScenarioError, match="^bad role 'Target' for site site1$"):
        ScenarioSpec.from_dict(obj)


def test_scenario_file_keys_are_the_spec_fields():
    # A key that is no field of the spec fails by name: a misspelled true
    # effect no longer leaves every replication scored against zero.
    preset = Path(simbench.__file__).with_name("presets").joinpath("c1.json").read_text()
    bad = {
        "true_detla": lambda obj: obj.update(true_detla=1.0),
        "skw": lambda obj: obj["sites"][2].update(skw=[0, 0, 0, 0]),
    }
    for key, tamper in bad.items():
        obj = json.loads(preset)
        tamper(obj)
        with pytest.raises(ScenarioError, match=rf"^malformed scenario: .*"
                                                rf"unexpected keyword argument '{key}'$"):
            ScenarioSpec.from_dict(obj)
    # A misspelled site key is named too, not the key it stands in for.
    obj = json.loads(preset)
    obj["sites"][2]["skw"] = obj["sites"][2].pop("skew")
    with pytest.raises(ScenarioError, match="unexpected keyword argument 'skw'"):
        ScenarioSpec.from_dict(obj)
    # A key left out takes its field's default.
    obj = json.loads(preset)
    del obj["mismatch"], obj["true_delta"]
    assert ScenarioSpec.from_dict(obj) == load_scenario("c1")


@pytest.mark.parametrize("name", ["c0", "c05", "c1", "mismatch",
                                  str(Path(__file__).resolve().parents[1]
                                      / "perfbench" / "scenarios" / "c1x10.json")])
def test_scenario_round_trips_through_its_fields(name):
    # Every field of the spec, one added later included, is a key that
    # from_dict reads back.
    spec = load_scenario(name)
    assert ScenarioSpec.from_dict(dataclasses.asdict(spec)) == spec
    assert ScenarioSpec.from_dict(json.loads(json.dumps(dataclasses.asdict(spec)))) == spec


def test_scenario_json_types_are_checked_not_coerced():
    # A string "false" is not the bool false, 300.9 units is no sample size,
    # and a null site id or a numeric name is no string.
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
        "name number": lambda obj: obj.update(name=3.5),
        "name null": lambda obj: obj.update(name=None),
        "id null": site(id=None),
        "id number": site(id=7),
        "role list": site(role=["target"]),
        "dgp bool": site(dgp=True),
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


def test_run_scenario_aborts_above_the_failure_limit(monkeypatch):
    # The target method fails in replication 0 alone, and no replication
    # runs: one failure is 1% of 100 replications, at the limit, and above
    # it in 99.
    monkeypatch.setattr(simbench, "run_replication", lambda scenario, methods, seed, rep: (
        [], {"target": "NoConvergence: forced"} if rep == 0 else {}))
    assert run_scenario(_small_scenario(), reps=100).failures == {"target": 1}
    with pytest.raises(ScenarioError, match=r"^method target failed in 1/99 replications "
                                            r"\(limit 1%\); first in replication 0: "
                                            r"NoConvergence: forced$"):
        run_scenario(_small_scenario(), reps=99)


def test_an_adaptive_study_over_too_many_sources_fails_before_any_replication(monkeypatch):
    # The adaptive weights take at most MAX_SOURCES sources, so the study
    # fails before it solves a tilt; a fixed scheme over the same sites runs.
    base = _small_scenario()
    sources = tuple(dataclasses.replace(base.sites[1], id=f"s{k}")
                    for k in range(MAX_SOURCES + 1))
    scenario = ScenarioSpec(name="wide", sites=(base.sites[0],) + sources)
    tilts = []
    solve = fedruntime.solve_tilt
    monkeypatch.setattr(fedruntime, "solve_tilt",
                        lambda *args: tilts.append(1) or solve(*args))
    with pytest.raises(TooManySources, match=f"^adaptive weights take at most {MAX_SOURCES} "
                                             f"sources, got {MAX_SOURCES + 1}$"):
        run_scenario(scenario, methods=("ivw", "mr_l1"), reps=5)
    assert tilts == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_scenario(scenario, methods=("ivw",), reps=1).failures == {}
    assert len(tilts) == MAX_SOURCES + 1


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

    def failing(frames, candidates):
        if candidates["source"]["outcome"] == [FeatureMap("raw")]:
            raise NoConvergence("forced failure")
        return inner(frames, candidates)

    monkeypatch.setattr(simbench, "run_sites", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, failed = run_replication(scenario, METHODS, seed=2, rep=1)
        alone = run_replication(scenario, ("mr_l1",), seed=2, rep=1)
    shared = ("target", "ss", "ivw", "aipw_l1")
    assert failed == {m: "NoConvergence: forced failure" for m in shared}
    assert rows == alone[0] and [r.method for r in rows] == ["mr_l1"]


def test_one_transport_per_replication(monkeypatch):
    # The tilts and every site's CV folds hold no candidate model, so the two
    # site phases of a c1 replication with every method share them: 4 tilts
    # and 5 fold sets, one per site, all drawn in the transport. A
    # replication of fixed schemes alone draws no fold.
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
    assert calls == {"solve_tilt": 4, "split_masks": 5}
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, failed = run_replication(load_scenario("c1"), FIXED_SCHEMES, seed=0, rep=0)
    assert failed == {} and len(rows) == 3
    assert calls == {"solve_tilt": 4}


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
    assert reason.startswith("MissingColumns: target summary has 4 shared covariate means, "
                             "the source has 3")
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
    # n is an int and each skew entry an int or float, a bool being neither,
    # and the name and the site's id are strings.
    def spec(n=50, skew=(0, 0.5, 0, 0), site_id="t", name="x"):
        return ScenarioSpec(name, (SiteSpec(site_id, "target", n, skew, "x"),))

    assert spec().sites[0].n == 50
    for bad in ({"skew": ("a", 0, 0, 0)}, {"skew": (True, 0, 0, 0)}, {"n": "50"},
                {"n": 50.5}, {"site_id": None}, {"name": 3.5}):
        with pytest.raises(ScenarioError, match="wrong JSON type"):
            spec(**bad)
    # mismatch is a bool, and true_delta a number that the spec keeps as a float.
    sites = load_scenario("c1").sites
    for bad in ({"mismatch": "yes"}, {"true_delta": True}, {"true_delta": "a"}):
        with pytest.raises(ScenarioError, match="wrong JSON type"):
            ScenarioSpec("x", sites, **bad)
    delta = ScenarioSpec("x", sites, true_delta=2).true_delta
    assert type(delta) is float and delta == 2.0


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
            raise NoConvergence("forced to fail on all units")
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


# run_replication's (delta_hat, se) per method for replications 0 and 1 of
# seed 0. A change that should not move the study's numbers is held to them at
# rounding level; one that moves them on purpose re-records them and lists the
# moved values in CHANGES.md.
PINNED = {
    "c1": {
        "target": ((-0.037045164728795044, 0.14132909156622325),
                   (-0.08020033790089087, 0.19258395313134188)),
        "ss": ((0.059306601923594826, 0.04246298314394062),
               (-0.014072973635137487, 0.04645303986132309)),
        "ivw": ((0.0517744446304107, 0.0422469897315145),
                (-0.008942574000684544, 0.04568881715851676)),
        "aipw_l1": ((0.05108486793693601, 0.04224277791708252),
                    (-0.016590012320193637, 0.04674446799836714)),
        "mr_l1": ((0.041788774314511556, 0.04186224263684551),
                  (-0.010636640987598867, 0.04548242657886083)),
    },
    "c0": {
        "target": ((-0.037045164728795044, 0.14132909156622325),
                   (-0.08020033790089087, 0.19258395313134188)),
        "ss": ((-4.056997523033658, 1.1080495351264277),
               (-8.034223564245991, 1.4114422736014358)),
        "ivw": ((-0.12350925147501357, 0.14039998470291998),
                (-0.265214583254874, 0.18916905389272198)),
        "aipw_l1": ((-0.037045164728795044, 0.14132909156622325),
                    (-0.08020033790089087, 0.19258395313134188)),
        "mr_l1": ((0.011973378247859046, 0.04363004205787225),
                  (0.041965772157311676, 0.04628379475082924)),
    },
    "c05": {
        "target": ((-0.037045164728795044, 0.14132909156622325),
                   (-0.08020033790089087, 0.19258395313134188)),
        "ss": ((-1.845610860324399, 0.6938041126411688),
               (-3.5414640215000475, 0.7468172863001669)),
        "ivw": ((0.10426884867734998, 0.05941882401124538),
                (-0.01750411497926052, 0.06244289424914887)),
        "aipw_l1": ((0.1102647768201166, 0.059706682641357575),
                    (-0.014518086156357413, 0.06321195237287737)),
        "mr_l1": ((0.03458390079370588, 0.04153387337502564),
                  (-0.0035330488231295476, 0.0474240506832672)),
    },
    "mismatch": {
        "target": ((-0.08730031985780329, 0.139672452490528),
                   (-0.17304939678970754, 0.15591794932002165)),
        "ss": ((-3.5107301148260888, 0.7499126008015546),
               (-4.954797190439905, 0.8028912739719745)),
        "ivw": ((-0.1930881162027731, 0.13771966093935867),
                (-0.3303950351503886, 0.15363536319427684)),
        "aipw_l1": ((-0.08730031985780329, 0.139672452490528),
                    (-0.17304939678970754, 0.15591794932002165)),
        "mr_l1": ((0.049294851881199975, 0.04065574743347235),
                  (-0.026945220521042756, 0.04496020329218457)),
    },
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_replications_reproduce_the_pinned_numbers(preset):
    scenario = load_scenario(preset)
    for rep in (0, 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, failed = run_replication(scenario, METHODS, 0, rep)
        assert not failed
        assert [r.method for r in rows] == list(METHODS)
        for row in rows:
            assert np.allclose((row.delta_hat, row.se), PINNED[preset][row.method][rep],
                               rtol=1e-9, atol=0.0), (preset, row.method, rep)
