"""Tests for the simulated one-round federation and its privacy audit."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from fedcausal import federation, nuisance
from fedcausal.density_ratio import solve_tilt, target_moments
from fedcausal.errors import (
    AllSourcesFailedWarning,
    CandidateFitWarning,
    MissingTarget,
    PositivityWarning,
    PrivacyViolation,
)
from fedcausal.federation import cross_validate_lambda, global_estimate
from fedcausal.fedruntime import (
    _SCALARS,
    _SCHEMAS,
    METHODS,
    MessageRecord,
    ProtocolConfig,
    audit_ledger,
    dump_ledger,
    combine,
    run_round,
    run_sites,
    run_transport,
    site_split_seed,
)
from fedcausal.nuisance import MAX_CANDIDATES, MAX_COLUMNS, FeatureMap, fit_nuisances
from fedcausal.numkit import expit
from fedcausal.simbench import load_scenario, method_config, rep_config_seed, replication_frames
from fedcausal.site_estimator import (
    SiteFrame,
    complete_source_estimate,
    estimate_target,
    source_report,
    split_masks,
)


def _make_frames(seed=0, n=150, n_sources=2, degenerate=(), slope=0.5):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_sources + 1):
        role = "target" if i == 0 else "source"
        X = rng.standard_normal((n, 2)) + (0.0 if role == "target" else 0.3)
        p = expit(slope * X[:, 0])
        a = (rng.random(n) < p).astype(int)
        site = f"site{i}"
        if site in degenerate:
            a = np.ones(n, dtype=int)  # constant treatment breaks the fit
        y = 1.0 + X[:, 0] - 0.5 * X[:, 1] + a + rng.standard_normal(n)
        frames.append(SiteFrame(site, role, y, a, X, (0, 1)))
    return frames


def _group(*maps):
    return {"treatment": list(maps), "outcome": list(maps)}


def _config(method="mr_l1", seed=0, target=_group(FeatureMap("raw")),
            source=_group(FeatureMap("raw"))):
    return ProtocolConfig(
        candidates={"target": target, "source": source},
        method=method,
        seed=seed,
    )


def _relogged(rec, payload):
    """``rec`` logged with another payload, under that payload's own digest,
    so the audit judges the payload's shape and not a digest mismatch."""
    return dataclasses.replace(rec, payload_text=json.dumps(payload), payload_digest="")


def test_message_census_and_audit():
    report = run_round(_make_frames(), _config("ivw"))
    census = audit_ledger(report)
    assert census["n_messages"] == 5  # 1 config + 2 summaries + 2 source uploads
    assert census["by_kind"]["config"]["count"] == 1
    assert census["by_kind"]["moment_summary"]["count"] == 2
    assert census["by_kind"]["site_estimate"]["count"] == 2
    # The ledger holds cross-site messages only: the target's own estimate
    # stays at the target.
    assert all(r.from_site != r.to_site for r in report.privacy_ledger)
    assert report.diagnostics["n_sources_used"] == 2


def test_run_sites_rejects_repeated_site_ids():
    # Site ids address the messages and the weights; the library path has no
    # CLI in front of it to catch a repeat.
    frames = _make_frames()
    frames[2] = dataclasses.replace(frames[2], site_id=frames[0].site_id)
    with pytest.raises(ValueError, match=r"repeated: \['site0'\]"):
        run_transport(frames, 0)


def test_target_alone_has_empty_ledger():
    # No source is configured, so none failed: no warning, and the round
    # reports the target-only weights it used as its effective method.
    with warnings.catch_warnings():
        warnings.simplefilter("error", AllSourcesFailedWarning)
        report = run_round(_make_frames(n_sources=0), _config("mr_l1"))
    assert report.diagnostics["effective_method"] == "target"
    assert report.privacy_ledger == []
    assert audit_ledger(report)["n_messages"] == 0
    assert report.solution.lambda_ is None  # the fixed target scheme, not the CV
    assert [site["eta"] for site in report.per_site] == [1.0]
    assert np.isfinite(report.delta_hat)


def test_run_round_matches_direct_composition():
    frames = _make_frames(seed=3)
    config = _config("mr_l1", seed=5)
    via_runtime = run_round(frames, config)

    target = frames[0]
    summary = target_moments(target.V)
    estimates = [estimate_target(
        target,
        fit_nuisances(target.site_id, target.X, target.y, target.a,
                      config.candidates["target"]["treatment"],
                      config.candidates["target"]["outcome"],
                      seed=site_split_seed(config.seed, target.site_id)))]
    for src in frames[1:]:
        tilt = solve_tilt(src.V, summary)
        fit = fit_nuisances(src.site_id, src.X, src.y, src.a,
                            config.candidates["source"]["treatment"],
                            config.candidates["source"]["outcome"],
                            seed=site_split_seed(config.seed, src.site_id))
        estimates.append(complete_source_estimate(
            src.site_id,
            source_report(src, fit, tilt, summary, split_masks(src.n, config.seed, src.site_id))[0],
            target))
    solution = cross_validate_lambda(estimates, seed=config.seed)
    direct = global_estimate(estimates, solution, method=config.method)

    assert via_runtime.delta_hat == direct.delta_hat
    assert via_runtime.mu == direct.mu
    assert via_runtime.variance == direct.variance
    assert via_runtime.ci == direct.ci
    assert np.array_equal(via_runtime.solution.eta, direct.solution.eta)


def test_one_site_phase_combines_under_each_scheme():
    frames = _make_frames(seed=7)
    sites = run_sites(run_transport(frames, 2), _config("ivw", seed=2))
    for method in ("mr_l1", "ivw", "target"):
        shared, alone = combine(sites, method), run_round(frames, _config(method, seed=2))
        assert shared.delta_hat == alone.delta_hat
        assert shared.variance == alone.variance
        assert shared.diagnostics == alone.diagnostics
        assert ([r.to_dict() for r in shared.privacy_ledger]
                == [r.to_dict() for r in alone.privacy_ledger])


def test_run_round_is_transport_then_sites_then_combine():
    # The transport holds no candidate model, so one transport serves every
    # candidate group: each phase on it, combined under each method, reports
    # bit for bit what run_round does.
    frames = _make_frames(seed=3)
    transport = run_transport(frames, 5)
    for source in (_group(FeatureMap("raw")),
                   _group(FeatureMap("raw"), FeatureMap("subset", (0,)))):
        config = _config("mr_l1", seed=5, source=source)
        sites = run_sites(transport, config)
        for method in METHODS:
            alone = run_round(frames, dataclasses.replace(config, method=method))
            assert combine(sites, method).to_json() == alone.to_json()


def test_a_config_runs_only_on_a_transport_of_its_seed():
    # The sources' CV folds are drawn with the transport's seed, and the
    # target's and the nuisance splits with the config's: they must agree.
    transport = run_transport(_make_frames(), 1)
    with pytest.raises(ValueError, match="config seed 2 differs from the transport seed 1"):
        run_sites(transport, _config("ivw", seed=2))


def test_combine_reports_the_site_phase_ledger():
    # The combine step sends nothing: every report carries the site phase's
    # transcript, as its own list.
    sites = run_sites(run_transport(_make_frames(seed=7), 2), _config("ivw", seed=2))
    logged = list(sites.ledger)
    assert [r.kind for r in logged][:2] == ["config", "moment_summary"]
    for method in METHODS:
        report = combine(sites, method)
        assert report.privacy_ledger == sites.ledger
        report.privacy_ledger.append(logged[0])
        assert sites.ledger == logged


def test_combine_reads_the_seed_and_candidate_groups_of_its_site_phase(monkeypatch):
    # A two-candidate mr_l1 phase stays mr_l1 under combine, and the target's
    # CV folds are drawn with the seed the sources split their units by.
    frames = _make_frames(seed=3)
    two = _group(FeatureMap("raw"), FeatureMap("subset", (0,)))
    config = _config("mr_l1", seed=5, target=two, source=two)
    sites = run_sites(run_transport(frames, config.seed), config)
    assert (sites.seed, sites.candidates) == (config.seed, config.candidates)
    fold_seeds = []
    split_masks = federation.split_masks
    monkeypatch.setattr(federation, "split_masks", lambda n, seed, site_id: (
        fold_seeds.append((seed, site_id)) or split_masks(n, seed, site_id)))
    report = combine(sites, "mr_l1")
    assert report.diagnostics["effective_method"] == "mr_l1"
    assert fold_seeds == [(5, "site0")]
    with pytest.raises(ValueError, match="unknown method 'lasso'"):
        combine(sites, "lasso")


@pytest.mark.parametrize("maps", [
    [], [{"kind": "raw"}], ["raw"], [FeatureMap("raw")] * 2,
    [FeatureMap("subset", (c,)) for c in range(MAX_CANDIDATES + 1)],
])
def test_config_rejects_an_empty_or_unmapped_candidate_list(maps):
    # Either would otherwise build and fail the round late: an empty list at
    # the first source's fit, a dict when the broadcast is encoded. A
    # repeated map or more than MAX_CANDIDATES maps would build a config
    # whose broadcast the audit rejects.
    with pytest.raises(ValueError, match="non-empty feature map lists"):
        _config("ivw", source={"treatment": maps, "outcome": [FeatureMap("raw")]})
    with pytest.raises(ValueError, match="non-empty feature map lists"):
        _config("ivw", target={"treatment": [FeatureMap("raw")], "outcome": maps})


def test_a_failed_candidate_and_the_clipping_of_its_fit_name_one_frame():
    # Both site-local warnings of one nuisance fit point at the round's line.
    # The source's third covariate is constant, so its raw candidate, which
    # repeats the intercept, fails to fit, and its steep propensity clips.
    frames = _make_frames(seed=8, slope=6.0, n_sources=1)
    source = frames[1]
    frames[1] = dataclasses.replace(source, X=np.column_stack([source.X, np.ones(150)]))
    two = _group(FeatureMap("raw"), FeatureMap("subset", (0, 1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_round(frames, _config("ivw", source=two))
    assert report.diagnostics["n_sources_used"] == 1
    fit_failed = [w for w in caught if issubclass(w.category, CandidateFitWarning)]
    clipping = [w for w in caught if issubclass(w.category, PositivityWarning)
                and str(w.message).endswith("site1")]
    assert fit_failed and clipping
    assert {(w.filename, w.lineno) for w in fit_failed + clipping} == {
        (clipping[0].filename, clipping[0].lineno)}
    assert clipping[0].filename.endswith("fedruntime.py")


def test_clipping_warning_names_the_round():
    # A steep propensity clips at the target and at every source; each
    # warning names its site and points at the round's line, not inside the
    # nuisance fit.
    frames = _make_frames(seed=8, slope=6.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_round(frames, _config("ivw"))
    clipping = [w for w in caught if issubclass(w.category, PositivityWarning)]
    assert {str(w.message).rsplit(" ", 1)[-1] for w in clipping} == {
        "site0", "site1", "site2"}
    assert all(w.filename.endswith("fedruntime.py") for w in clipping)


def test_failed_source_is_dropped():
    frames = _make_frames(seed=4, n_sources=2, degenerate=("site2",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CandidateFitWarning)
        report = run_round(frames, _config("ivw"))
    assert report.diagnostics["n_sources_used"] == 1
    assert "site2" in report.diagnostics["failed_sources"]
    assert "TooFewUnits" in report.diagnostics["failed_sources"]["site2"]


def test_a_map_that_does_not_fit_a_source_fails_that_source():
    # The sources hold two covariates: a subset column past them, or the
    # four-column Kang-Schafer transform, fails each source as a site, and
    # the round falls back to the target's own estimate.
    frames = _make_frames(seed=5)
    for bad in (FeatureMap("subset", (7,)), FeatureMap("kangschafer")):
        with pytest.warns(AllSourcesFailedWarning):
            report = run_round(frames, _config("mr_l1", source=_group(bad)))
        failed = report.diagnostics["failed_sources"]
        assert set(failed) == {"site1", "site2"}
        assert all(reason.startswith("MissingColumns: feature map ") for reason in failed.values())
        assert report.diagnostics["effective_method"] == "target"
        assert [site["site_id"] for site in report.per_site] == ["site0"]


def test_a_candidate_whose_design_overflows_fails_that_candidate(monkeypatch):
    # At 10^4 times the c1 units, kang_schafer's exp(X0 / 2) overflows, so
    # every site's kangschafer design holds NaN. Each of that candidate's fits
    # fails by name before it starts, the raw candidate takes all the weight,
    # and numpy's overflow warning does not escape.
    scenario = load_scenario("c1")
    frames = [dataclasses.replace(f, X=1e4 * f.X) for f in replication_frames(scenario, 5, 0)]
    weights, mix = [], nuisance._mix

    def recorded(*args):
        result = mix(*args)
        weights.append(result[0])
        return result

    monkeypatch.setattr(nuisance, "_mix", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_round(frames, method_config("mr_l1", scenario, seed=rep_config_seed(5, 0)))
    assert np.isfinite(report.delta_hat) and not report.diagnostics["failed_sources"]
    assert len(weights) == 3 * len(frames)
    assert all(np.array_equal(w, [1.0, 0.0]) for w in weights)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert {str(w.message) for w in caught if w.category is CandidateFitWarning} == {
        f"{f.site_id}: candidate kangschafer failed to fit: design holds a non-finite value"
        for f in frames}


def test_a_source_sharing_fewer_covariates_fails_that_source():
    # The target shares two covariates; site2 shares one, so its basis is
    # shorter than the target's moment summary.
    frames = _make_frames(seed=6)
    frames[2] = dataclasses.replace(frames[2], shared_cols=(0,))
    report = run_round(frames, _config("ivw"))
    failed = report.diagnostics["failed_sources"]
    assert list(failed) == ["site2"]
    assert failed["site2"].startswith("MissingColumns: target summary has 3 basis entries")
    assert [site["site_id"] for site in report.per_site] == ["site0", "site1"]
    assert np.isfinite(report.delta_hat)


def test_target_group_stays_with_the_coordinator():
    # The target's candidates differ from the sources'. The target fits its
    # own group, the sources theirs, and the broadcast carries the sources'
    # group alone.
    frames = _make_frames(seed=3)
    own = FeatureMap("subset", (0,))
    config = _config("ivw", seed=4, target=_group(own))
    report = run_round(frames, config)
    sent = [json.loads(r.payload_text) for r in report.privacy_ledger]
    assert sent[0] == {"seed": 4, "candidates": {"treatment": [{"kind": "raw"}],
                                                  "outcome": [{"kind": "raw"}]}}
    assert all("subset" not in r.payload_text for r in report.privacy_ledger)
    audit_ledger(report)
    target = frames[0]
    fit = fit_nuisances(target.site_id, target.X, target.y, target.a, [own], [own],
                        seed=site_split_seed(4, target.site_id))
    sites = run_sites(run_transport(frames, config.seed), config)
    assert sites.estimates[0].mu == estimate_target(target, fit).mu
    assert report.delta_hat != run_round(frames, _config("ivw", seed=4)).delta_hat


def test_all_sources_failed_degrades_to_target_only():
    frames = _make_frames(seed=5, n_sources=1, degenerate=("site1",))
    with pytest.warns(AllSourcesFailedWarning):
        report = run_round(frames, _config("ivw"))
    assert report.diagnostics["effective_method"] == "target"
    assert np.isfinite(report.delta_hat)


def test_run_round_requires_one_target():
    frames = _make_frames()
    with pytest.raises(MissingTarget):
        run_round(frames[1:], _config())


def test_audit_rejects_undeclared_keys():
    report = run_round(_make_frames(), _config("ivw"))
    rec = report.privacy_ledger[-1]
    payload = json.loads(rec.payload_text)
    payload["rows"] = [[1.0, 2.0]]
    report.privacy_ledger[-1] = _relogged(rec, payload)
    with pytest.raises(PrivacyViolation, match="undeclared keys"):
        audit_ledger(report)
    # A source finishes its own estimate: the per-arm projections, the tilt
    # sensitivity and the unfinished arm means are not part of the upload,
    # even when shaped like the declared fields.
    assert rec.kind == "site_estimate"
    for key, like in (("tau0", "target_coef"), ("tau1", "target_coef"),
                      ("tilt_sens", "target_coef"), ("mu_own0", "mu0")):
        payload = json.loads(rec.payload_text)
        payload[key] = payload[like]
        report.privacy_ledger[-1] = _relogged(rec, payload)
        with pytest.raises(PrivacyViolation, match="undeclared keys"):
            audit_ledger(report)


def test_audit_rejects_per_unit_arrays():
    frames = _make_frames()
    report = run_round(frames, _config("mr_l1"))
    audit_ledger(report)
    pos = next(i for i, r in enumerate(report.privacy_ledger)
               if r.kind == "site_estimate" and r.from_site == "site1")
    rec = report.privacy_ledger[pos]
    n_k = frames[1].n
    tampered = {
        # The per-unit influence values the sources used to upload.
        "xi_own": lambda p: p.update(xi_own=[[0.0] * n_k, [0.0] * n_k]),
        # The declared basis vector carrying one value per unit.
        "target_coef": lambda p: p.update(target_coef=[0.0] * n_k),
        # A per-split key nesting per-unit rows.
        "fit_sq": lambda p: p.update(fit_sq=[[0.0] * n_k] * len(p["fit_sq"])),
        # One split sum more than the protocol's split count.
        "fit_sq_long": lambda p: p.update(fit_sq=p["fit_sq"] + [0.0]),
        "diagnostics": lambda p: p.update(diagnostics={"zeta": {"cap": [0.0] * n_k}}),
        # One scalar per unit, each under a key of its own.
        "keyed": lambda p: p.update(diagnostics={"zeta": {f"u{i}": 0.0 for i in range(n_k)}}),
    }
    for name, tamper in tampered.items():
        payload = json.loads(rec.payload_text)
        tamper(payload)
        report.privacy_ledger[pos] = _relogged(rec, payload)
        with pytest.raises(PrivacyViolation):
            audit_ledger(report)
        report.privacy_ledger[pos] = rec
    # The basis dimension is the length of the moment summaries' means. The
    # second summary here is one longer than the first, or too short to hold
    # an intercept and a covariate, or restates the dimension as a key.
    pos, rec = [(i, r) for i, r in enumerate(report.privacy_ledger)
                if r.kind == "moment_summary"][1]
    summary = {
        "disagrees": (lambda p: p.update(mean_basis=p["mean_basis"] + [0.0]), "disagree"),
        "one": (lambda p: p.update(mean_basis=[1.0]), "no basis"),
        "d": (lambda p: p.update(d=len(p["mean_basis"])), "undeclared keys"),
    }
    for name, (tamper, message) in summary.items():
        payload = json.loads(rec.payload_text)
        tamper(payload)
        report.privacy_ledger[pos] = _relogged(rec, payload)
        with pytest.raises(PrivacyViolation, match=message):
            audit_ledger(report)
    report.privacy_ledger[pos] = rec
    audit_ledger(report)


_SCALAR_TAMPERS = {
    "mu0_nan": ("site_estimate", lambda p: p.update(mu0=math.nan)),
    "mu0_infinity": ("site_estimate", lambda p: p.update(mu0=math.inf)),
    "target_coef_nan": ("site_estimate",
                        lambda p: p.update(target_coef=[math.nan] + p["target_coef"][1:])),
    "n_k_negative": ("site_estimate", lambda p: p.update(n_k=-5)),
    "n_k_huge": ("site_estimate", lambda p: p.update(n_k=10**300)),
    "seed_negative": ("config", lambda p: p.update(seed=-1)),
}


@pytest.mark.parametrize("name", list(_SCALAR_TAMPERS))
def test_audit_bounds_scalar_values(name):
    # A number is a finite float (NaN and Infinity are not JSON) and a count
    # an int in [0, 2**53), so no scalar can pack a column of a site's data
    # into one huge integer.
    kind, tamper = _SCALAR_TAMPERS[name]
    report = run_round(_make_frames(), _config("mr_l1"))
    audit_ledger(report)
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger) if r.kind == kind)
    payload = json.loads(rec.payload_text)
    tamper(payload)
    report.privacy_ledger[pos] = _relogged(rec, payload)
    with pytest.raises(PrivacyViolation, match="is not a"):
        audit_ledger(report)


def test_audit_rejects_a_config_carrying_per_unit_values():
    # The penalty grid is the coordinator's own setting; a broadcast carrying
    # one "grid" value per target unit is per-unit data and must not pass.
    frames = _make_frames()
    report = run_round(frames, _config("mr_l1"))
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "config")
    payload = json.loads(rec.payload_text)
    payload["lambda_grid"] = [float(v) for v in frames[0].y]
    report.privacy_ledger[pos] = _relogged(rec, payload)
    with pytest.raises(PrivacyViolation):
        audit_ledger(report)


def test_audit_rejects_candidate_columns_carrying_per_unit_values():
    # A subset feature map's columns are distinct non-negative ints, so a
    # candidate whose columns hold the target's outcomes does not pass.
    frames = _make_frames()
    report = run_round(frames, _config("mr_l1"))
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "config")
    payload = json.loads(rec.payload_text)
    outcomes = [float(v) for v in frames[0].y]
    payload["candidates"]["treatment"].append({"kind": "subset", "columns": outcomes})
    report.privacy_ledger[pos] = _relogged(rec, payload)
    with pytest.raises(PrivacyViolation, match="candidate feature maps"):
        audit_ledger(report)
    # The same map with int columns is well formed.
    payload["candidates"]["treatment"][-1]["columns"] = [0, 1]
    report.privacy_ledger[pos] = _relogged(rec, payload)
    audit_ledger(report)


def test_audit_bounds_the_candidate_lists():
    # A list holds 1 to MAX_CANDIDATES distinct maps, each subset column
    # below MAX_COLUMNS, so neither the number of maps nor a subset's
    # columns can encode the target's outcomes.
    frames = _make_frames()
    report = run_round(frames, _config("mr_l1"))
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "config")
    outcome_columns = [round(1000 * v) + 100000 * i for i, v in enumerate(frames[0].y)]
    assert len(set(outcome_columns)) == len(frames[0].y) == 150
    tampered = {
        "200 extra maps": lambda p: p["candidates"]["treatment"].extend([{"kind": "raw"}] * 200),
        "a repeated map": lambda p: p["candidates"]["treatment"].extend([{"kind": "raw"}]),
        "one map too many": lambda p: p["candidates"].update(treatment=[
            {"kind": "subset", "columns": [c]} for c in range(MAX_CANDIDATES + 1)]),
        "outcome columns": lambda p: p["candidates"]["treatment"].append(
            {"kind": "subset", "columns": outcome_columns}),
        "one column too many": lambda p: p["candidates"]["treatment"].append(
            {"kind": "subset", "columns": [MAX_COLUMNS]}),
        "no maps": lambda p: p["candidates"].update(outcome=[]),
    }
    for name, tamper in tampered.items():
        payload = json.loads(rec.payload_text)
        tamper(payload)
        report.privacy_ledger[pos] = _relogged(rec, payload)
        with pytest.raises(PrivacyViolation, match="candidate feature maps"):
            audit_ledger(report)
    # At the bounds, the list passes.
    payload = json.loads(rec.payload_text)
    payload["candidates"]["treatment"] = [
        {"kind": "subset", "columns": [MAX_COLUMNS - 1 - c]} for c in range(MAX_CANDIDATES)]
    report.privacy_ledger[pos] = _relogged(rec, payload)
    audit_ledger(report)


def test_audit_rejects_a_config_carrying_per_unit_values_in_keys():
    # The broadcast's keys are fixed, so the target's outcomes written into a
    # key do not pass: neither as a site id holding a group nor as a key
    # inside the group.
    frames = _make_frames()
    report = run_round(frames, _config("mr_l1"))
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "config")
    key = "y=" + ",".join(f"{v:.6f}" for v in frames[0].y)
    tampered = {
        "site id": lambda p: p.update(candidates={key: p["candidates"]}),
        "in group": lambda p: p["candidates"].update({key: []}),
    }
    for name, tamper in tampered.items():
        payload = json.loads(rec.payload_text)
        tamper(payload)
        report.privacy_ledger[pos] = _relogged(rec, payload)
        with pytest.raises(PrivacyViolation, match="undeclared keys"):
            audit_ledger(report)
    report.privacy_ledger[pos] = rec
    audit_ledger(report)


def test_config_strings_are_only_feature_map_kinds():
    # For every preset and method the broadcast is the seed and the sources'
    # group: the target's group stays with the coordinator. A candidate is
    # its feature map and every key is a fixed wire key, so the broadcast's
    # only other strings are map kinds.
    keys = {"seed", "candidates", "treatment", "outcome", "kind", "columns"}
    for preset in ("c1", "c0", "mismatch"):
        scenario = load_scenario(preset)
        for method in METHODS:
            config = method_config(method, scenario, seed=3)
            payload = json.loads(json.dumps(config.to_dict()))
            assert payload == {"seed": 3, "candidates": {
                role: [fm.to_dict() for fm in maps]
                for role, maps in config.candidates["source"].items()}}
            assert _strings(payload) - keys <= {"raw", "kangschafer", "subset"}


def _key_paths(tree, prefix=()):
    """Every key path through nested objects; lists are leaves."""
    if not isinstance(tree, dict):
        return set()
    return {path for key, item in tree.items()
            for path in {prefix + (key,)} | _key_paths(item, prefix + (key,))}


def _leaf_specs(spec):
    """Every leaf type of a declared spec, at any depth."""
    if isinstance(spec, dict):
        return {leaf for item in spec.values() for leaf in _leaf_specs(item)}
    return {spec}


def test_audit_schema_declares_only_what_a_round_sends():
    # Every declared key, at every depth, is sent in a round with sources: a
    # stale declaration would quietly widen what the audit accepts.
    report = run_round(_make_frames(), _config("mr_l1"))
    sent = {}
    for rec in report.privacy_ledger:
        sent.setdefault(rec.kind, set()).update(_key_paths(json.loads(rec.payload_text)))
    assert sent == {kind: _key_paths(schema) for kind, schema in _SCHEMAS.items()}
    # Every scalar type is declared by some key, so a deleted key cannot
    # leave its type behind.
    declared = _leaf_specs(_SCHEMAS)
    assert set(_SCALARS) <= declared
    # No declared type is an open object: each is a scalar, a list of
    # candidate feature maps, or a list of a protocol dimension, so no value
    # grows with n.
    assert declared <= set(_SCALARS) | {"maps", "[basis]", "[cv_splits]"}


def test_audit_rejects_bad_payloads():
    report = run_round(_make_frames(), _config("ivw"))
    good = report.privacy_ledger[0]
    report.privacy_ledger.append(dataclasses.replace(good, kind="gossip"))
    with pytest.raises(PrivacyViolation):
        audit_ledger(report)
    # Logged with their own text (and so a matching digest), malformed
    # payloads still fail.
    for text in ("not json", "[1, 2]"):
        report.privacy_ledger[-1] = MessageRecord(
            good.from_site, good.to_site, good.kind, payload_text=text)
        with pytest.raises(PrivacyViolation):
            audit_ledger(report)


def test_audit_rejects_tampered_payload():
    report = run_round(_make_frames(), _config("mr_l1"))
    audit_ledger(report)
    i, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                  if r.kind == "site_estimate")
    payload = json.loads(rec.payload_text)
    payload["mu1"] += 1.0  # well formed, but not what was logged
    report.privacy_ledger[i] = dataclasses.replace(rec, payload_text=json.dumps(payload))
    with pytest.raises(PrivacyViolation, match="digest"):
        audit_ledger(report)


def _strings(value):
    """Every string in a decoded payload, keys and values, at any depth."""
    if isinstance(value, dict):
        value = list(value) + list(value.values())
    if isinstance(value, list):
        return {s for item in value for s in _strings(item)}
    return {value} if isinstance(value, str) else set()


def test_no_raw_outcome_or_covariate_arrays_leave_a_site():
    frames = _make_frames(seed=6)
    report = run_round(frames, _config("mr_l1"))
    for rec in report.privacy_ledger:
        payload = json.loads(rec.payload_text)
        flat = json.dumps(payload)
        for frame in frames:
            assert repr(float(frame.y[0])) not in flat
            assert repr(float(frame.X[0, 0])) not in flat
        # No payload names its sender, in a key or a value; the record does.
        assert not {f.site_id for f in frames} & _strings(payload)


def test_protocol_config_round_trip():
    # The broadcast is logged as sent; sites read the in-memory config. It
    # carries what the sites read, and none of the coordinator's settings.
    config = _config("ivw", seed=9)
    payload = config.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload == {"seed": 9, "candidates": {"treatment": [{"kind": "raw"}],
                                                  "outcome": [{"kind": "raw"}]}}
    with pytest.raises(ValueError):
        _config("bootstrap")
    # The seed is a count, as the audit requires of the broadcast.
    assert _config(seed=2**53 - 1).seed == 2**53 - 1
    for seed in (-1, 2**53, True, 1.0):
        with pytest.raises(ValueError, match="seed"):
            _config(seed=seed)
    # The candidates are exactly one group per role, each of two model lists.
    group = _group(FeatureMap("raw"))
    for candidates in ({"site0": group}, {"target": group},
                       {"target": group, "source": group, "site1": group},
                       {"target": group, "source": {"treatment": []}},
                       {"target": group, "source": {**group, "site1": []}}):
        with pytest.raises(ValueError, match="candidates"):
            ProtocolConfig(candidates=candidates)


def test_site_split_seed_is_stable():
    s = site_split_seed(7, "site1")
    assert s == site_split_seed(7, "site1")
    assert 0 <= s < 2**31
    assert s != site_split_seed(7, "site2")
    assert s != site_split_seed(8, "site1")


def test_dump_ledger_jsonl(tmp_path):
    report = run_round(_make_frames(), _config("ivw"))
    path = tmp_path / "ledger.jsonl"
    dump_ledger(report.privacy_ledger, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(report.privacy_ledger)
    first = json.loads(lines[0])
    assert first["kind"] == "config"
    assert set(first) == {"from_site", "to_site", "kind", "bytes", "digest"}


def test_message_record_digest():
    rec = MessageRecord("a", "b", "config", payload_text='{"x": 1}')
    assert rec.payload_bytes == 8
    assert len(rec.payload_digest) == 64
