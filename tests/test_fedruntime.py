"""Tests for the simulated one-round federation and its privacy audit."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from fedcausal.density_ratio import BasisSpec, solve_tilt, target_moments
from fedcausal.errors import (
    AllSourcesFailedWarning,
    CandidateFitWarning,
    MissingTarget,
    PrivacyViolation,
)
from fedcausal.federation import cross_validate_lambda, global_estimate
from fedcausal.fedruntime import (
    MessageRecord,
    ProtocolConfig,
    audit_ledger,
    dump_ledger,
    combine,
    run_round,
    run_sites,
    site_split_seed,
)
from fedcausal.nuisance import CandidateSpec, FeatureMap, fit_nuisances
from fedcausal.numkit import expit
from fedcausal.site_estimator import SiteFrame, estimate_source, estimate_target


def _make_frames(seed=0, n=150, n_sources=2, degenerate=()):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_sources + 1):
        role = "target" if i == 0 else "source"
        X = rng.standard_normal((n, 2)) + (0.0 if role == "target" else 0.3)
        p = expit(0.5 * X[:, 0])
        a = (rng.random(n) < p).astype(int)
        site = f"site{i}"
        if site in degenerate:
            a = np.ones(n, dtype=int)  # constant treatment breaks the fit
        y = 1.0 + X[:, 0] - 0.5 * X[:, 1] + a + rng.standard_normal(n)
        frames.append(SiteFrame(site, role, y, a, X, (0, 1)))
    return frames


def _config(method="mr_l1", seed=0):
    raw = FeatureMap("raw")
    return ProtocolConfig(
        basis=BasisSpec("linear"),
        candidates={"default": {
            "treatment": [CandidateSpec("p", "treatment", raw)],
            "outcome": [CandidateSpec("m", "outcome", raw)],
        }},
        method=method,
        seed=seed,
    )


def test_message_census_and_audit():
    report = run_round(_make_frames(), _config("ivw"))
    census = audit_ledger(report)
    assert census["n_messages"] == 6  # 1 config + 2 summaries + 3 estimates
    assert census["by_kind"]["config"]["count"] == 1
    assert census["by_kind"]["moment_summary"]["count"] == 2
    assert census["by_kind"]["site_estimate"]["count"] == 3
    assert report.diagnostics["n_sources_used"] == 2


def test_target_alone_has_empty_ledger():
    report = run_round(_make_frames(n_sources=0), _config("mr_l1"))
    assert report.privacy_ledger == []
    assert audit_ledger(report)["n_messages"] == 0
    assert report.solution.method == "target_only"
    assert np.isfinite(report.delta_hat)


def test_run_round_matches_direct_composition():
    frames = _make_frames(seed=3)
    config = _config("mr_l1", seed=5)
    via_runtime = run_round(frames, config)

    target = frames[0]
    summary = target_moments(target.V, config.basis, target.site_id)
    estimates = [estimate_target(
        target,
        fit_nuisances(target.X, target.y, target.a,
                      config.specs_for(target.site_id)["treatment"],
                      config.specs_for(target.site_id)["outcome"],
                      fraction=config.train_fraction,
                      seed=site_split_seed(config.seed, target.site_id),
                      clip=config.clip))]
    for src in frames[1:]:
        tilt = solve_tilt(src.V, summary, config.basis)
        fit = fit_nuisances(src.X, src.y, src.a,
                            config.specs_for(src.site_id)["treatment"],
                            config.specs_for(src.site_id)["outcome"],
                            fraction=config.train_fraction,
                            seed=site_split_seed(config.seed, src.site_id),
                            clip=config.clip)
        estimates.append(estimate_source(src, target, fit, tilt,
                                         seed=config.seed, n_splits=config.n_splits))
    solution = cross_validate_lambda(estimates, grid=config.lambda_grid,
                                     n_splits=config.n_splits, seed=config.seed)
    direct = global_estimate(estimates, solution, alpha=config.alpha,
                             method=config.method)

    assert via_runtime.delta_hat == direct.delta_hat
    assert via_runtime.mu == direct.mu
    assert via_runtime.variance == direct.variance
    assert via_runtime.ci == direct.ci
    assert np.array_equal(via_runtime.solution.eta, direct.solution.eta)


def test_one_site_phase_combines_under_each_scheme():
    frames = _make_frames(seed=7)
    sites = run_sites(frames, _config("ivw", seed=2))
    for method in ("mr_l1", "ivw", "target_only"):
        config = _config(method, seed=2)
        shared, alone = combine(sites, config), run_round(frames, config)
        assert shared.delta_hat == alone.delta_hat
        assert shared.variance == alone.variance
        assert shared.diagnostics == alone.diagnostics
        assert ([r.to_dict() for r in shared.privacy_ledger]
                == [r.to_dict() for r in alone.privacy_ledger])


def test_failed_source_is_dropped():
    frames = _make_frames(seed=4, n_sources=2, degenerate=("site2",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CandidateFitWarning)
        report = run_round(frames, _config("ivw"))
    assert report.diagnostics["n_sources_used"] == 1
    assert "site2" in report.diagnostics["failed_sources"]
    assert "TooFewUnits" in report.diagnostics["failed_sources"]["site2"]


def test_all_sources_failed_degrades_to_target_only():
    frames = _make_frames(seed=5, n_sources=1, degenerate=("site1",))
    with pytest.warns(AllSourcesFailedWarning):
        report = run_round(frames, _config("ivw"))
    assert report.diagnostics["effective_method"] == "target_only"
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
    report.privacy_ledger[-1] = dataclasses.replace(
        rec, payload_text=json.dumps(payload))
    with pytest.raises(PrivacyViolation):
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
        # A declared key carrying one value per unit instead of the projection.
        "tau0": lambda p: p.update(tau0=[0.0] * n_k),
        # A per-split key nesting per-unit rows.
        "fit_sq": lambda p: p.update(fit_sq=[[0.0] * n_k] * len(p["fit_sq"])),
        "diagnostics": lambda p: p.update(diagnostics={"zeta": {"cap": [0.0] * n_k}}),
    }
    for name, tamper in tampered.items():
        payload = json.loads(rec.payload_text)
        tamper(payload)
        report.privacy_ledger[pos] = dataclasses.replace(
            rec, payload_text=json.dumps(payload))
        with pytest.raises(PrivacyViolation):
            audit_ledger(report)
        report.privacy_ledger[pos] = rec
    # A moment summary whose basis header disagrees with its means.
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "moment_summary")
    payload = json.loads(rec.payload_text)
    payload["mean_basis"] = payload["mean_basis"] + [0.0]
    report.privacy_ledger[pos] = dataclasses.replace(rec, payload_text=json.dumps(payload))
    with pytest.raises(PrivacyViolation):
        audit_ledger(report)


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
            good.from_site, good.to_site, good.kind, good.round, payload_text=text)
        with pytest.raises(PrivacyViolation):
            audit_ledger(report)


def test_audit_rejects_tampered_payload():
    report = run_round(_make_frames(), _config("mr_l1"))
    audit_ledger(report)
    i, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                  if r.kind == "site_estimate")
    payload = json.loads(rec.payload_text)
    payload["mu_own1"] += 1.0  # well formed, but not what was logged
    report.privacy_ledger[i] = dataclasses.replace(rec, payload_text=json.dumps(payload))
    with pytest.raises(PrivacyViolation, match="digest"):
        audit_ledger(report)


def test_no_raw_outcome_or_covariate_arrays_leave_a_site():
    frames = _make_frames(seed=6)
    report = run_round(frames, _config("mr_l1"))
    for rec in report.privacy_ledger:
        payload = json.loads(rec.payload_text)
        flat = json.dumps(payload)
        for frame in frames:
            assert repr(float(frame.y[0])) not in flat
            assert repr(float(frame.X[0, 0])) not in flat


def test_protocol_config_round_trip():
    config = _config("ivw", seed=9)
    back = ProtocolConfig.from_dict(config.to_dict())
    assert back.method == config.method
    assert back.basis.kind == config.basis.kind
    assert back.lambda_grid == config.lambda_grid
    assert back.seed == config.seed
    assert back.specs_for("anything") == config.specs_for("anything")
    with pytest.raises(ValueError):
        _config("bootstrap")
    plain = ProtocolConfig(basis=BasisSpec("linear"), candidates={"site0": {}})
    with pytest.raises(ValueError):
        plain.specs_for("site9")


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
    assert set(first) == {"from_site", "to_site", "kind", "round", "bytes", "digest"}


def test_message_record_digest():
    rec = MessageRecord("a", "b", "config", 0, payload_text='{"x": 1}')
    assert rec.payload_bytes == 8
    assert len(rec.payload_digest) == 64
