"""Tests for the simulated one-round federation and its privacy audit."""

import collections
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcausal import fedruntime, nuisance
from fedcausal.density_ratio import MomentSummary, solve_tilt, target_moments
from fedcausal.errors import (
    AllSourcesFailedWarning,
    CandidateFitWarning,
    FedcausalError,
    MissingTarget,
    PositivityWarning,
    PrivacyViolation,
)
from fedcausal.federation import (ADAPTIVE_METHODS, FIXED_SCHEMES, cross_validate_lambda,
                                  global_estimate)
from fedcausal.fedruntime import (
    METHODS,
    MessageRecord,
    ProtocolConfig,
    audit_ledger,
    dump_ledger,
    combine,
    run_round,
    run_sites,
    run_transport,
    source_upload,
)
from fedcausal.nuisance import MAX_CANDIDATES, MAX_COLUMNS, FeatureMap, fit_nuisances
from fedcausal.numkit import expit
from fedcausal.simbench import (load_scenario, method_config, rep_config_seed, replication_frames,
                                replication_reports)
from fedcausal.site_estimator import (
    CV_SPLITS,
    SiteFrame,
    SourceSiteReport,
    complete_source_estimate,
    estimate_target,
    site_split_seed,
    source_report,
    split_masks,
)
from fedcausal.wire import _SCALARS, _SCHEMAS, TEXT_BOUNDS, wire_text


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
    """``rec`` logged with another payload, in its canonical text and under
    that text's own digest, so the audit judges the payload's shape and not
    a digest mismatch or a non-canonical text."""
    return dataclasses.replace(rec, payload_text=wire_text(payload), payload_digest="")


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
        run_transport(frames, 0, CV_SPLITS)


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
    centered = target.V - summary.mean_v
    estimates = [estimate_target(
        target,
        fit_nuisances(target.site_id, target.X, target.y, target.a,
                      config.candidates["target"]["treatment"],
                      config.candidates["target"]["outcome"],
                      seed=site_split_seed(config.seed, target.site_id)),
        centered, split_masks(target.n, config.seed, target.site_id))]
    for src in frames[1:]:
        tilt = solve_tilt(src.V, summary)
        fit = fit_nuisances(src.site_id, src.X, src.y, src.a,
                            config.candidates["source"]["treatment"],
                            config.candidates["source"]["outcome"],
                            seed=site_split_seed(config.seed, src.site_id))
        estimates.append(complete_source_estimate(
            src.site_id,
            source_report(src, fit, tilt, split_masks(src.n, config.seed, src.site_id))[0]))
    solution = cross_validate_lambda(estimates)
    direct = global_estimate(estimates, solution, method=config.method)

    assert via_runtime.delta_hat == direct.delta_hat
    assert via_runtime.mu == direct.mu
    assert via_runtime.variance == direct.variance
    assert via_runtime.ci == direct.ci
    assert np.array_equal(via_runtime.solution.eta, direct.solution.eta)


def _without_folds(rec):
    """The payload of ``rec`` without its split count or fit-half sums."""
    return {key: value for key, value in json.loads(rec.payload_text).items()
            if key not in ("cv_splits", "fit_sq")}


def test_one_site_phase_combines_under_each_scheme():
    # A round alone draws CV folds only for an adaptive method, so the shared
    # phase, on a transport that drew them for mr_l1, logs the round alone's ledger
    # under mr_l1 and, under a fixed scheme, the same messages with the split
    # count and the fit-half sums added.
    frames = _make_frames(seed=7)
    methods = ("mr_l1", "ivw", "target")
    sites = run_sites(run_transport(frames, 2, CV_SPLITS), _config("ivw", seed=2).candidates)
    for method in methods:
        shared, alone = combine(sites, method), run_round(frames, _config(method, seed=2))
        assert shared.delta_hat == alone.delta_hat
        assert shared.variance == alone.variance
        assert shared.diagnostics == alone.diagnostics
        if method == "mr_l1":
            assert ([r.to_dict() for r in shared.privacy_ledger]
                    == [r.to_dict() for r in alone.privacy_ledger])
            continue
        assert ([(r.from_site, r.to_site, r.kind, _without_folds(r))
                 for r in shared.privacy_ledger]
                == [(r.from_site, r.to_site, r.kind, _without_folds(r))
                    for r in alone.privacy_ledger])
        assert {json.loads(r.payload_text).get("cv_splits") for r in alone.privacy_ledger
                if r.kind == "config"} == {0}


def test_run_round_is_transport_then_sites_then_combine():
    # The transport holds no candidate model, so one transport serves every
    # candidate group: each phase on a transport at one method's split count,
    # combined under that method, reports bit for bit what run_round does.
    frames = _make_frames(seed=3)
    for method in METHODS:
        transport = run_transport(frames, 5, CV_SPLITS if method in ADAPTIVE_METHODS else 0)
        for source in (_group(FeatureMap("raw")),
                       _group(FeatureMap("raw"), FeatureMap("subset", (0,)))):
            config = _config(method, seed=5, source=source)
            sites = run_sites(transport, config.candidates)
            assert combine(sites, method).to_json() == run_round(frames, config).to_json()


def test_combine_reports_the_site_phase_ledger():
    # The combine step sends nothing: every report carries the site phase's
    # transcript, as its own list.
    sites = run_sites(run_transport(_make_frames(seed=7), 2, CV_SPLITS),
                      _config("ivw", seed=2).candidates)
    logged = list(sites.ledger)
    assert [r.kind for r in logged][:2] == ["config", "moment_summary"]
    for method in METHODS:
        report = combine(sites, method)
        assert report.privacy_ledger == sites.ledger
        report.privacy_ledger.append(logged[0])
        assert sites.ledger == logged


def test_the_transport_draws_the_target_folds_and_combine_draws_none(monkeypatch):
    # The target's CV folds are drawn in the transport, with the seed the
    # sources split their units by, the target's moments are summed over
    # them, and a two-candidate mr_l1 phase combines, drawing no fold, under
    # its own candidate groups.
    frames = _make_frames(seed=3)
    two = _group(FeatureMap("raw"), FeatureMap("subset", (0,)))
    config = _config("mr_l1", seed=5, target=two, source=two)
    fold_seeds = []
    monkeypatch.setattr(fedruntime, "split_masks", lambda n, seed, site_id: (
        fold_seeds.append((seed, site_id)) or split_masks(n, seed, site_id)))
    transport = run_transport(frames, config.seed, CV_SPLITS)
    assert sorted(fold_seeds) == [(5, "site0"), (5, "site1"), (5, "site2")]
    assert np.array_equal(transport.target_folds, split_masks(150, 5, "site0"))
    sites = run_sites(transport, config.candidates)
    # The target's moments are summed over those folds: every Z column but xi.
    W = np.column_stack([transport.target_centered / 150, np.full(150, 150**-0.5)])
    blocks = [W[rows].T @ W[rows] for rows in transport.target_folds] + [W.T @ W]
    assert np.allclose(sites.estimates[0].moments[:, 1:, 1:], blocks, rtol=1e-12, atol=0.0)
    assert sites.candidates == config.candidates
    fold_seeds.clear()
    report = combine(sites, "mr_l1")
    assert report.diagnostics["effective_method"] == "mr_l1"
    assert fold_seeds == []
    with pytest.raises(ValueError, match="unknown method 'lasso'"):
        combine(sites, "lasso")


def _counted_split_masks(monkeypatch):
    """The site ids ``fedruntime.split_masks`` is called for, in call order."""
    sites = []
    monkeypatch.setattr(fedruntime, "split_masks", lambda n, seed, site_id: (
        sites.append(site_id) or split_masks(n, seed, site_id)))
    return sites


def test_a_fixed_scheme_round_draws_no_folds(monkeypatch):
    # Only the adaptive weights read CV folds: a fixed-scheme round draws
    # none, declares a split count of 0 and uploads no fit-half sum.
    drawn = _counted_split_masks(monkeypatch)
    for method in FIXED_SCHEMES:
        report = run_round(_make_frames(seed=3), _config(method, seed=5))
        audit_ledger(report)
        sent = [(r.kind, json.loads(r.payload_text)) for r in report.privacy_ledger]
        assert [p["cv_splits"] for kind, p in sent if kind == "config"] == [0]
        assert [p["fit_sq"] for kind, p in sent if kind == "site_estimate"] == [[], []]
    assert drawn == []
    # An upload that sums fit halves the round did not draw does not pass.
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "site_estimate")
    report.privacy_ledger[pos] = _relogged(
        rec, {**json.loads(rec.payload_text), "fit_sq": [0.0] * CV_SPLITS})
    with pytest.raises(PrivacyViolation, match=r"its declared \[cv_splits\] is 0"):
        audit_ledger(report)


def _driver_folds(monkeypatch, methods):
    """``run_rounds`` on three sites with seed 5, every method on one
    candidate group: the site ids each fold draw was for, in call order, and
    the one transport it ran, whose split count every report's config
    broadcast declares."""
    drawn, transports = _counted_split_masks(monkeypatch), []
    inner = fedruntime.run_transport
    monkeypatch.setattr(fedruntime, "run_transport",
                        lambda *args: transports.append(inner(*args)) or transports[-1])
    reports, failed = fedruntime.run_rounds(_make_frames(seed=3), 5,
                                            dict.fromkeys(methods, _config().candidates))
    (transport,) = transports
    assert failed == {} and list(reports) == list(methods)
    for report in reports.values():
        audit_ledger(report)
        assert [json.loads(r.payload_text)["cv_splits"] for r in report.privacy_ledger
                if r.kind == "config"] == [transport.cv_splits]
    return drawn, transport


@pytest.mark.parametrize("methods", [("aipw_l1",), ("ivw", "mr_l1"), METHODS])
def test_a_transport_for_an_adaptive_method_draws_every_site_folds_once(monkeypatch, methods):
    # run_rounds alone decides the split count from the methods it combines.
    drawn, transport = _driver_folds(monkeypatch, methods)
    assert sorted(drawn) == ["site0", "site1", "site2"]
    assert transport.cv_splits == CV_SPLITS
    assert [src.folds.shape for src in transport.sources] == [(CV_SPLITS, 150)] * 2


@pytest.mark.parametrize("methods", [("ivw",), ("target", "ss")])
def test_the_round_driver_draws_no_folds_for_fixed_schemes_alone(monkeypatch, methods):
    drawn, transport = _driver_folds(monkeypatch, methods)
    assert drawn == [] and transport.cv_splits == 0
    assert [src.folds.shape for src in transport.sources] == [(0, 150)] * 2


def test_the_round_driver_rejects_a_bad_method_list_before_any_tilt(monkeypatch):
    # The driver reads the method names before any site work: no groups, an
    # unknown name, and a method name where the groups belong each raise
    # before a source solves its tilt.
    def refuse(*args):
        raise AssertionError("a tilt was solved")

    monkeypatch.setattr(fedruntime, "solve_tilt", refuse)
    group = _config().candidates
    for bad, shown in (({}, "()"), ({"ivw": group, "lasso": group}, "('ivw', 'lasso')"),
                       ("mr_l1", "('m', 'r', '_', 'l', '1')")):
        with pytest.raises(ValueError, match=re.escape(
                f"methods must be a non-empty list of distinct names from {METHODS}, "
                f"got {shown}")):
            fedruntime.run_rounds(_make_frames(seed=3), 5, bad)
    # A repeated name is no method list either.
    assert not fedruntime.is_method_list(("ivw", "ivw"))


def test_the_transport_takes_a_split_count_of_0_or_cv_splits():
    # The transport names no method, and takes no split count but the two
    # the protocol has.
    for bad in (1, 3, -5, 5.0, True, None, "mr_l1", ("aipw_l1",)):
        with pytest.raises(ValueError, match=f"cv_splits must be 0 or {CV_SPLITS}, got "):
            run_transport(_make_frames(seed=3), 5, bad)


@pytest.mark.parametrize("preset", ["c1", "c0"])
def test_fixed_schemes_do_not_read_the_folds(preset):
    # The fixed weights, the estimate and its variance read the moments over
    # all rows and the sums over all units alone, so a transport without
    # folds gives them bit for bit.
    scenario = load_scenario(preset)
    frames = replication_frames(scenario, 0, 1)
    config = method_config("ivw", scenario, seed=rep_config_seed(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phases = [run_sites(run_transport(frames, config.seed, splits), config.candidates)
                  for splits in (CV_SPLITS, 0)]
    assert [len(phase.estimates[0].moments) for phase in phases] == [CV_SPLITS + 1, 1]
    for method in FIXED_SCHEMES:
        folds, none = (combine(phase, method) for phase in phases)
        assert folds.delta_hat == none.delta_hat
        assert folds.variance == none.variance
        assert folds.ci == none.ci
        assert np.array_equal(folds.solution.eta, none.solution.eta)


def _uploads(ledger):
    return {rec.from_site: rec.payload_text for rec in ledger if rec.kind == "site_estimate"}


@pytest.mark.parametrize("method", ["mr_l1", "ivw"])
def test_a_source_uploads_what_it_makes_of_the_broadcast_text(method):
    # Replication 0 of c1: each source, given its transport and the logged
    # config broadcast text alone, writes the upload the round logged, the
    # one its fit with the coordinator's own group and seed gives.
    scenario = load_scenario("c1")
    frames = replication_frames(scenario, 0, 0)
    config = method_config(method, scenario, seed=rep_config_seed(0, 0))
    group = config.candidates["source"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ledger = run_round(frames, config).privacy_ledger
        transport = run_transport(frames, config.seed,
                                  CV_SPLITS if method in ADAPTIVE_METHODS else 0)
        made = {src.frame.site_id: source_upload(src, ledger[0].payload_text)
                for src in transport.sources}
        direct = {}
        for src in transport.sources:
            f = src.frame
            fit = fit_nuisances(f.site_id, f.X, f.y, f.a, group["treatment"], group["outcome"],
                                seed=site_split_seed(config.seed, f.site_id))
            direct[f.site_id] = source_report(f, fit, src.tilt, src.folds)[0].to_json()
    assert ledger[0].kind == "config"
    assert made == _uploads(ledger) == direct
    assert len(made) == 4


def test_a_source_reads_its_candidates_from_the_broadcast_text():
    # On one transport, each source fed the broadcast text of either
    # candidate group writes the upload the phase run with that group logs.
    scenario = load_scenario("c1")
    frames = replication_frames(scenario, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transport = run_transport(frames, rep_config_seed(0, 0), CV_SPLITS)
        phases = [run_sites(transport, method_config(method, scenario).candidates)
                  for method in ("ivw", "mr_l1")]
        for phase in phases:
            made = {src.frame.site_id: source_upload(src, phase.ledger[0].payload_text)
                    for src in transport.sources}
            assert made == _uploads(phase.ledger)
    assert _uploads(phases[0].ledger) != _uploads(phases[1].ledger)


def test_a_source_fits_nothing_on_a_broadcast_the_audit_rejects(monkeypatch):
    transport = run_transport(_make_frames(seed=3), 5, CV_SPLITS)
    sent = json.loads(run_sites(transport, _config().candidates).ledger[0].payload_text)

    def refuse(*args, **kwargs):
        raise AssertionError("a source fitted on a rejected broadcast")

    monkeypatch.setattr(fedruntime, "fit_nuisances", refuse)
    src = transport.sources[0]
    with pytest.raises(AssertionError):
        source_upload(src, wire_text(sent))

    def with_maps(maps):
        return {**sent, "candidates": {**sent["candidates"], "treatment": maps}}

    subsets = [{"kind": "subset", "columns": [c]} for c in range(MAX_CANDIDATES + 1)]
    for payload in (with_maps([{"kind": "spline"}]),
                    with_maps([{"kind": "raw", "x": 1}]),
                    with_maps(subsets),
                    {key: value for key, value in sent.items() if key != "seed"},
                    [sent]):
        with pytest.raises(PrivacyViolation):
            source_upload(src, wire_text(payload))
    # Texts the audit rejects before or beside the schema, each with the
    # audit's own message.
    bound = TEXT_BOUNDS["config"]
    for text, message in ((json.dumps(sent), "non-canonical payload text on a config"),
                          ("{nope", "non-JSON payload on a config"),
                          (wire_text({**sent, "cv_splits": 3}), "config declares cv_splits 3"),
                          (wire_text(sent).ljust(bound + 4000), "over its bound"),
                          (wire_text(sent) + "\ud800", "config message is not UTF-8")):
        with pytest.raises(PrivacyViolation, match=message):
            source_upload(src, text)


def test_a_source_builds_each_broadcast_map_once(monkeypatch):
    # The maps the config schema checks are the maps the source fits with:
    # a broadcast of J candidate maps builds J feature maps before the fit.
    scenario = load_scenario("c0")
    frames = replication_frames(scenario, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transport = run_transport(frames, rep_config_seed(0, 0), CV_SPLITS)
        text = run_sites(transport, method_config("mr_l1", scenario).candidates
                         ).ledger[0].payload_text
    maps = json.loads(text)["candidates"]
    built = []
    check = FeatureMap.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    def stop(*args, **kwargs):
        raise AssertionError("fit")

    monkeypatch.setattr(FeatureMap, "__post_init__", counted)
    monkeypatch.setattr(fedruntime, "fit_nuisances", stop)
    with pytest.raises(AssertionError, match="fit"):
        source_upload(transport.sources[0], text)
    assert len(built) == len(maps["treatment"]) + len(maps["outcome"]) == 4


def test_every_phase_on_a_transport_broadcasts_its_seed_and_split_count():
    # The folds stay in the transport: every phase run on it declares the
    # transport's seed and as many splits as each source holds fold masks.
    scenario = load_scenario("c1")
    frames = replication_frames(scenario, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for splits in (CV_SPLITS, 0):
            transport = run_transport(frames, rep_config_seed(0, 0), splits)
            for method in ("ivw", "mr_l1"):
                phase = run_sites(transport, method_config(method, scenario).candidates)
                sent = json.loads(phase.ledger[0].payload_text)
                assert sent["seed"] == transport.seed
                assert sent["cv_splits"] == splits
                assert [src.folds.shape[0] for src in transport.sources] == [splits] * 4


def test_an_adaptive_combine_needs_a_phase_with_folds():
    sites = run_sites(run_transport(_make_frames(seed=3), 5, 0),
                      _config("ivw", seed=5).candidates)
    for method in ADAPTIVE_METHODS:
        with pytest.raises(ValueError, match=f"site site0 summarizes 0 splits, expected "
                                             f"{CV_SPLITS}"):
            combine(sites, method)


def test_effective_method_follows_the_candidates_the_phase_ran():
    # An mr_l1 phase mixes two candidates, so an aipw_l1 combine of it runs
    # the multiply robust mixing and is named mr_l1, and a phase of one map
    # per group is aipw_l1 under either adaptive name.
    scenario = load_scenario("c1")
    frames = replication_frames(scenario, 0, 0)
    for ran, maps in (("mr_l1", 2), ("aipw_l1", 1)):
        config = method_config(ran, scenario, seed=7)
        assert len(config.candidates["source"]["outcome"]) == maps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sites = run_sites(run_transport(frames, config.seed, CV_SPLITS),
                              config.candidates)
            reports = [combine(sites, method) for method in ADAPTIVE_METHODS]
        assert [r.diagnostics["effective_method"] for r in reports] == [ran, ran]
        assert reports[0].delta_hat == reports[1].delta_hat


@pytest.mark.parametrize("maps", [
    [], [{"kind": "raw"}], ["raw"], [FeatureMap("raw")] * 2,
    [FeatureMap("subset", (c,)) for c in range(MAX_CANDIDATES + 1)],
    None, ["treatment", "outcome"], [_group(FeatureMap("raw"))] * 2,
])
def test_config_rejects_an_empty_or_unmapped_candidate_list(maps):
    # Either would otherwise build and fail the round late: an empty list at
    # the first source's fit, a dict when the broadcast is encoded. A
    # repeated map or more than MAX_CANDIDATES maps would build a config
    # whose broadcast the audit rejects. Candidates read from a user's JSON
    # may hold anything in place of a group or of both: a list, even of a
    # group's keys, or null is no group and no candidates.
    raw = [FeatureMap("raw")]
    for candidates in ({"target": _group(*raw), "source": {"treatment": maps, "outcome": raw}},
                       {"target": {"treatment": raw, "outcome": maps}, "source": _group(*raw)},
                       {"target": _group(*raw), "source": maps},
                       maps):
        with pytest.raises(ValueError, match="non-empty feature map lists"):
            ProtocolConfig(candidates=candidates, method="ivw")


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
    # The target shares two covariates; site2 shares one, fewer than the
    # target's moment summary has means.
    frames = _make_frames(seed=6)
    frames[2] = dataclasses.replace(frames[2], shared_cols=(0,))
    report = run_round(frames, _config("ivw"))
    failed = report.diagnostics["failed_sources"]
    assert list(failed) == ["site2"]
    assert failed["site2"].startswith("MissingColumns: target summary has 2 shared covariate "
                                      "means, the source has 1")
    assert [site["site_id"] for site in report.per_site] == ["site0", "site1"]
    assert np.isfinite(report.delta_hat)


def test_a_refused_upload_fails_its_source_not_the_round(monkeypatch):
    # The coordinator reads each upload by the audit's rule. An upload written
    # with a space after a separator fails its source with the reader's
    # message, as a failed fit does, and the other sources are still used.
    # The text crossed sites, so it is logged, and the audit names it.
    upload = fedruntime.source_upload

    def spaced(src, config_text):
        text = upload(src, config_text)
        return text.replace(",", ", ", 1) if src.frame.site_id == "site1" else text

    monkeypatch.setattr(fedruntime, "source_upload", spaced)
    report = run_round(_make_frames(seed=6), _config("ivw"))
    message = "non-canonical payload text on a site_estimate message"
    assert report.diagnostics["failed_sources"] == {"site1": f"PrivacyViolation: {message}"}
    assert [site["site_id"] for site in report.per_site] == ["site0", "site2"]
    assert [rec.from_site for rec in report.privacy_ledger
            if rec.kind == "site_estimate"] == ["site1", "site2"]
    with pytest.raises(PrivacyViolation, match=message):
        audit_ledger(report)


def _edit_site2_upload(monkeypatch, edit):
    """Make site2 upload its canonical text rewritten by ``edit`` of its payload."""
    upload = fedruntime.source_upload

    def edited(src, config_text):
        text = upload(src, config_text)
        return wire_text(edit(json.loads(text))) if src.frame.site_id == "site2" else text

    monkeypatch.setattr(fedruntime, "source_upload", edited)


_UPLOAD = "a site_estimate message."
# Each edit of an upload the coordinator refuses, the methods of the c1 rounds
# it is sent in, and the message that refuses it. The first two are well
# formed but break the round's dimensions: one split sum short of what the
# broadcast declared, and one slope short of the target's 4 shared covariate
# means. Two hold a negative sum of squares, which no honest source sends
# (each is a sum of squared contributions), one a sample size of 0, below the
# 5-unit tilt basis every source that solved its tilt holds, and the last a
# fit-half sum at three times its whole, which no subset of units reaches.
_REFUSED_UPLOADS = {
    "fit_sq_empty": (("mr_l1",), lambda p: {**p, "fit_sq": []},
                     f"{_UPLOAD}fit_sq has length 0; its declared [cv_splits] is {CV_SPLITS}"),
    "target_coef_short": (("ivw", "mr_l1"), lambda p: {**p, "target_coef": p["target_coef"][:3]},
                          f"{_UPLOAD}target_coef has length 3; its declared [shared] is 4"),
    "own_sq_negative": (("ss", "ivw", "mr_l1"), lambda p: {**p, "own_sq": -1.0},
                        f"{_UPLOAD}own_sq is not a nonnegative finite number"),
    "fit_sq_negative": (("mr_l1",), lambda p: {**p, "fit_sq": [-1.0] * CV_SPLITS},
                        f"{_UPLOAD}fit_sq is not a flat list of nonnegative finite numbers"),
    "n_k_zero": (("ss",), lambda p: {**p, "n_k": 0},
                 f"{_UPLOAD}n_k is 0, below its tilt basis of 5 units"),
    "fit_sq_over_whole": (("aipw_l1", "mr_l1"),
                          lambda p: {**p, "fit_sq": [3 * p["own_sq"]] + p["fit_sq"][1:]},
                          f"{_UPLOAD}fit_sq sums a fit half above its own_sq"),
}


@pytest.mark.parametrize("name, method", [(name, method)
                                          for name, (methods, _, _) in _REFUSED_UPLOADS.items()
                                          for method in methods])
def test_the_coordinator_refuses_exactly_the_uploads_the_audit_refuses(monkeypatch, name,
                                                                        method):
    # The coordinator reads each upload at the dimensions it sent, by the
    # audit's rule, so an upload the audit refuses fails its source with the
    # audit's message, and the round uses the other three sources.
    _, edit, message = _REFUSED_UPLOADS[name]
    _edit_site2_upload(monkeypatch, edit)
    scenario = load_scenario("c1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_round(replication_frames(scenario, 0, 0),
                           method_config(method, scenario, seed=3))
    assert report.diagnostics["failed_sources"] == {"site2": f"PrivacyViolation: {message}"}
    assert [site["site_id"] for site in report.per_site] == ["site1", "site3", "site4", "site5"]
    assert np.isfinite(report.delta_hat) and report.variance > 0
    with pytest.raises(PrivacyViolation) as audited:
        audit_ledger(report)
    assert str(audited.value) == message


def test_a_refused_upload_fails_its_source_not_the_study(monkeypatch):
    # A study's replication reports every method when a source's uploads
    # break the round's dimensions: that source fails in each round.
    _edit_site2_upload(monkeypatch, _REFUSED_UPLOADS["target_coef_short"][1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports, failed = replication_reports(load_scenario("c1"), METHODS, 0, 0)
    assert failed == {} and list(reports) == list(METHODS)
    assert [list(report.diagnostics["failed_sources"]) for report in reports.values()] == [
        ["site2"]] * len(METHODS)


def test_run_rounds_shares_one_transport_and_a_site_phase_per_candidate_group(monkeypatch):
    # c1 replication 0 under every method: the four methods with the raw
    # candidate share one site phase, mr_l1 runs its own, and both run on one
    # transport. Each report is its method's round run by hand on one
    # transport drawn for every method.
    scenario = load_scenario("c1")
    frames, seed = replication_frames(scenario, 0, 0), rep_config_seed(0, 0)
    groups = {method: method_config(method, scenario).candidates for method in METHODS}
    calls = collections.Counter()

    def counted(name):
        inner = getattr(fedruntime, name)
        return lambda *args: calls.update([name]) or inner(*args)

    for name in ("run_transport", "run_sites"):
        monkeypatch.setattr(fedruntime, name, counted(name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports, failed = fedruntime.run_rounds(frames, seed, groups)
        transport = run_transport(frames, seed, CV_SPLITS)
        by_hand = {method: combine(run_sites(transport, candidates), method).to_json()
                   for method, candidates in groups.items()}
    assert calls == {"run_transport": 1, "run_sites": 2}
    assert failed == {} and list(reports) == list(METHODS)
    assert {method: report.to_json() for method, report in reports.items()} == by_hand


def test_a_source_tilts_on_no_summary_text_the_audit_refuses(monkeypatch):
    # Each source reads the moment summary it receives by the audit's rule: a
    # summary written with spaces fails every source before its tilt.
    monkeypatch.setattr(MomentSummary, "to_json",
                        lambda self: json.dumps({"mean_v": list(map(float, self.mean_v))}))
    transport = run_transport(_make_frames(seed=3), 5, CV_SPLITS)
    message = "PrivacyViolation: non-canonical payload text on a moment_summary message"
    assert [(src.failure, src.tilt) for src in transport.sources] == [(message, None)] * 2


def test_target_group_stays_with_the_coordinator():
    # The target's candidates differ from the sources'. The target fits its
    # own group, the sources theirs, and the broadcast carries the sources'
    # group alone.
    frames = _make_frames(seed=3)
    own = FeatureMap("subset", (0,))
    config = _config("ivw", seed=4, target=_group(own))
    report = run_round(frames, config)
    sent = [json.loads(r.payload_text) for r in report.privacy_ledger]
    assert sent[0] == {"seed": 4, "cv_splits": 0,
                       "candidates": {"treatment": [{"kind": "raw"}],
                                      "outcome": [{"kind": "raw"}]}}
    assert all("subset" not in r.payload_text for r in report.privacy_ledger)
    audit_ledger(report)
    target = frames[0]
    fit = fit_nuisances(target.site_id, target.X, target.y, target.a, [own], [own],
                        seed=site_split_seed(4, target.site_id))
    transport = run_transport(frames, config.seed, 0)
    sites = run_sites(transport, config.candidates)
    assert sites.estimates[0].mu == estimate_target(
        target, fit, transport.target_centered, transport.target_folds).mu
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
    # The shared dimension is the length of the moment summaries' means. The
    # second summary here is one longer than the first, or too short to hold
    # a covariate mean, or restates the dimension as a key.
    pos, rec = [(i, r) for i, r in enumerate(report.privacy_ledger)
                if r.kind == "moment_summary"][1]
    summary = {
        "disagrees": (lambda p: p.update(mean_v=p["mean_v"] + [0.0]),
                      r"mean_v has length 3; its declared \[shared\] is 2"),
        "empty": (lambda p: p.update(mean_v=[]), "no list of 1 to"),
        "d": (lambda p: p.update(d=len(p["mean_v"])), "undeclared keys"),
    }
    for name, (tamper, message) in summary.items():
        payload = json.loads(rec.payload_text)
        tamper(payload)
        report.privacy_ledger[pos] = _relogged(rec, payload)
        with pytest.raises(PrivacyViolation, match=message):
            audit_ledger(report)
    report.privacy_ledger[pos] = rec
    audit_ledger(report)


def _with_shared_dimension(report, mean_v):
    """``report`` with every moment summary carrying ``mean_v`` and every
    upload a ``target_coef`` of as many zeros, each message re-logged."""
    ledger = []
    for rec in report.privacy_ledger:
        payload = json.loads(rec.payload_text)
        if rec.kind == "moment_summary":
            payload["mean_v"] = mean_v
        elif rec.kind == "site_estimate":
            payload["target_coef"] = [0.0] * len(mean_v)
        ledger.append(_relogged(rec, payload))
    return dataclasses.replace(report, privacy_ledger=ledger)


def test_audit_bounds_the_shared_dimension():
    # The shared dimension is a protocol dimension bounded by MAX_COLUMNS,
    # not whatever length the summaries agree on: summaries that carry 150 of
    # the target's outcomes, within the size bound, with uploads that agree
    # with them, are rejected.
    frames = replication_frames(load_scenario("c1"), 0, 0)
    report = run_round(frames, method_config("ivw", load_scenario("c1"), seed=1))
    audit_ledger(report)
    outcomes = [round(float(y), 3) for y in frames[0].y[:150]]
    assert len(wire_text({"mean_v": outcomes})) <= TEXT_BOUNDS["moment_summary"]
    for mean_v in (outcomes, [0.0] * (MAX_COLUMNS + 1)):
        with pytest.raises(PrivacyViolation, match=f"no list of 1 to {MAX_COLUMNS} shared"):
            audit_ledger(_with_shared_dimension(report, mean_v))
    audit_ledger(_with_shared_dimension(report, [0.0] * MAX_COLUMNS))


_SCALAR_TAMPERS = {
    "mu0_nan": ("site_estimate", lambda p: p.update(mu0=math.nan), "is not a"),
    "mu0_infinity": ("site_estimate", lambda p: p.update(mu0=math.inf), "is not a"),
    "target_coef_nan": ("site_estimate",
                        lambda p: p.update(target_coef=[math.nan] + p["target_coef"][1:]),
                        "is not a"),
    "n_k_negative": ("site_estimate", lambda p: p.update(n_k=-5), "is not a"),
    "n_k_huge": ("site_estimate", lambda p: p.update(n_k=10**300), "is not a"),
    # A source's sample holds at least its tilt basis, 3 units here for the
    # intercept and the 2 shared covariates.
    "n_k_zero": ("site_estimate", lambda p: p.update(n_k=0),
                 "n_k is 0, below its tilt basis of 3 units"),
    "n_k_below_basis": ("site_estimate", lambda p: p.update(n_k=len(p["target_coef"])),
                        "n_k is 2, below its tilt basis of 3 units"),
    "seed_negative": ("config", lambda p: p.update(seed=-1), "is not a"),
    # The split count is 0 or CV_SPLITS, and every upload sums that many
    # fit halves: here none, on a round that declares CV_SPLITS.
    "cv_splits_other": ("config", lambda p: p.update(cv_splits=3),
                        f"cv_splits 3; the protocol takes 0 or {CV_SPLITS}"),
    "fit_sq_other": ("site_estimate", lambda p: p.update(fit_sq=[]),
                     rf"fit_sq has length 0; its declared \[cv_splits\] is {CV_SPLITS}"),
    # A fit half is a subset of the units, so its sum is at most the whole.
    "fit_sq_over_whole": ("site_estimate",
                          lambda p: p.update(fit_sq=[3 * p["own_sq"]] + p["fit_sq"][1:]),
                          "fit_sq sums a fit half above its own_sq"),
}


@pytest.mark.parametrize("name", list(_SCALAR_TAMPERS))
def test_audit_bounds_scalar_values(name):
    # A number is a finite float (NaN and Infinity are not JSON) and a count
    # an int in [0, 2**53), so no scalar can pack a column of a site's data
    # into one huge integer; the split count takes one of two values.
    kind, tamper, message = _SCALAR_TAMPERS[name]
    report = run_round(_make_frames(), _config("mr_l1"))
    audit_ledger(report)
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger) if r.kind == kind)
    payload = json.loads(rec.payload_text)
    tamper(payload)
    report.privacy_ledger[pos] = _relogged(rec, payload)
    with pytest.raises(PrivacyViolation, match=message):
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


def test_audit_rejects_a_config_whose_candidates_is_not_an_object():
    report = run_round(_make_frames(), _config("mr_l1"))
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                    if r.kind == "config")
    payload = json.loads(rec.payload_text)
    payload["candidates"] = [payload["candidates"]]
    report.privacy_ledger[pos] = _relogged(rec, payload)
    with pytest.raises(PrivacyViolation, match=r"config message\.candidates is not an object"):
        audit_ledger(report)


def test_audit_rejects_config_broadcasts_that_disagree_on_the_split_count():
    # Each declares a split count the protocol takes, 5 and 0, but a round
    # has one.
    report = run_round(_make_frames(), _config("mr_l1"))
    rec = next(r for r in report.privacy_ledger if r.kind == "config")
    payload = json.loads(rec.payload_text)
    assert payload["cv_splits"] == CV_SPLITS
    report.privacy_ledger.append(_relogged(rec, {**payload, "cv_splits": 0}))
    message = rf"config message\.cv_splits is 0; its declared \[cv_splits\] is {CV_SPLITS}"
    with pytest.raises(PrivacyViolation, match=message):
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
    assert declared <= set(_SCALARS) | {"maps"} | {
        (scalar, dim) for scalar in _SCALARS for dim in ("shared", "cv_splits")}


def test_each_upload_is_its_wire_payload_field_for_field():
    # The classes the sites send hold exactly the keys the audit declares for
    # their message kinds, in order: each uploaded number has one name in the
    # class, on the wire and in the schema.
    assert [f.name for f in dataclasses.fields(SourceSiteReport)] == list(
        _SCHEMAS["site_estimate"])
    assert [f.name for f in dataclasses.fields(MomentSummary)] == list(
        _SCHEMAS["moment_summary"])


def test_audit_rejects_bad_payloads():
    report = run_round(_make_frames(), _config("ivw"))
    good = report.privacy_ledger[0]
    report.privacy_ledger.append(dataclasses.replace(good, kind="gossip"))
    with pytest.raises(PrivacyViolation):
        audit_ledger(report)
    # Logged with their own text (and so a matching digest), malformed
    # payloads still fail; the list is canonical text, so it reaches the
    # object rule.
    for text, message in (("not json", "non-JSON"), ("[1,2]", "not an object")):
        report.privacy_ledger[-1] = MessageRecord(
            good.from_site, good.to_site, good.kind, payload_text=text)
        with pytest.raises(PrivacyViolation, match=message):
            audit_ledger(report)


def _deep_brackets(text):
    return '{"mu0":' + "[" * 100_000 + "]" * 100_000 + "}"


def _long_count(text):
    payload = json.loads(text)
    return text.replace(f'"n_k":{payload["n_k"]}', '"n_k":' + "9" * 5000)


def _lone_surrogate(text):
    return text.replace('"mu0":', '"mu0\ud800":')


@pytest.mark.parametrize("tamper", [_deep_brackets, _long_count, _lone_surrogate])
def test_audit_fails_an_unreadable_text_as_a_privacy_violation(tamper):
    # A text the audit cannot bound, hash or parse fails as a privacy
    # violation that names the message kind, not as whatever the hash or the
    # parser raised.
    scenario = load_scenario("c1")
    report = run_round(replication_frames(scenario, 0, 0),
                       method_config("ivw", scenario, seed=1))
    rec = report.privacy_ledger[-1]
    assert rec.kind == "site_estimate"
    text = tamper(rec.payload_text)
    # The lone surrogate cannot be hashed, so it is logged with a given digest.
    digest = "0" * 64 if tamper is _lone_surrogate else ""
    report.privacy_ledger[-1] = MessageRecord(rec.from_site, rec.to_site, rec.kind,
                                              payload_text=text, payload_digest=digest)
    with pytest.raises(PrivacyViolation, match="a site_estimate message") as caught:
        audit_ledger(report)
    # The bracket nest (200,008 characters) and the 5,000-digit count fail by
    # size, unparsed; the lone surrogate, within the bound, fails at the hash.
    if tamper is _lone_surrogate:
        assert caught.value.__cause__ is not None
    else:
        assert len(text) > TEXT_BOUNDS["site_estimate"]
        assert "over its bound" in str(caught.value) and caught.value.__cause__ is None


@pytest.fixture(scope="module")
def honest_round():
    """A c1 round whose uploads sum every CV fit half, audited clean."""
    scenario = load_scenario("c1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_round(replication_frames(scenario, 0, 0),
                           method_config("mr_l1", scenario, seed=1))
    audit_ledger(report)
    return report


# What a mutation puts into a text: any short run of characters, a bracket
# nest, a digit run, or an escape, a raw lone surrogate and a NUL among them.
_INSERTS = (st.text(min_size=1, max_size=8)
            | st.integers(1, 2000).map(lambda depth: "[" * depth + "]" * depth)
            | st.integers(1, 4000).map(lambda count: "9" * count)
            | st.sampled_from(["\\", '"', '\\"', "\\u0061", "\\ud800", "\\udc00\\ud800",
                               "\ud800", "\\x", "\\n", "\x00", "\u00e9", "\\u00e9"]))


@st.composite
def _mutated(draw, text):
    """``text`` after one to three insertions, deletions or repeats of a slice."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        edit = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if edit == "insert":
            text = text[:i] + draw(_INSERTS) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] * draw(st.integers(1, 300)) + text[j:]
    return text


def _logged(rec, text):
    """``text`` logged as a new message in place of ``rec``, under its own
    digest, or a given one when the text cannot be hashed."""
    try:
        return MessageRecord(rec.from_site, rec.to_site, rec.kind, payload_text=text)
    except UnicodeEncodeError:
        return MessageRecord(rec.from_site, rec.to_site, rec.kind, payload_text=text,
                             payload_digest="0" * 64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_audit_is_total_on_mutated_texts(honest_round, data):
    # Whatever a logged text becomes, the audit passes it or fails it as a
    # privacy violation, and raises nothing else. Each mutation is logged as
    # a new message; a text that cannot be hashed carries a given digest.
    report = honest_round
    pos = data.draw(st.integers(0, len(report.privacy_ledger) - 1))
    rec = report.privacy_ledger[pos]
    text = data.draw(_mutated(rec.payload_text))
    ledger = list(report.privacy_ledger)
    ledger[pos] = _logged(rec, text)
    try:
        audit_ledger(dataclasses.replace(report, privacy_ledger=ledger))
    except PrivacyViolation:
        pass


@pytest.fixture(scope="module")
def honest_source():
    """A source of the ``honest_round`` replication on a transport for mr_l1."""
    scenario = load_scenario("c1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_transport(replication_frames(scenario, 0, 0), 1, CV_SPLITS).sources[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_source_refuses_exactly_the_broadcasts_the_audit_rejects(honest_round, honest_source,
                                                                   data):
    # A mutated config text is the only message of a ledger: the source
    # raises PrivacyViolation exactly when the audit rejects that ledger, and
    # otherwise uploads or fails its fit by a FedcausalError, as run_sites
    # records a failed source.
    rec = honest_round.privacy_ledger[0]
    assert rec.kind == "config"
    text = data.draw(_mutated(rec.payload_text))
    try:
        audit_ledger(dataclasses.replace(honest_round, privacy_ledger=[_logged(rec, text)]))
    except PrivacyViolation:
        with pytest.raises(PrivacyViolation):
            source_upload(honest_source, text)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            SourceSiteReport.from_json(source_upload(honest_source, text))
        except FedcausalError as exc:
            assert not isinstance(exc, PrivacyViolation)


# Each text read as its receiver reads it: a summary by a source, which knows
# no dimension of the round, and an upload by the coordinator, at the
# dimensions of the honest round's messages (CV_SPLITS fit halves, and the 4
# shared covariates of c1).
_READERS = {"moment_summary": MomentSummary.from_json,
            "site_estimate": lambda text: SourceSiteReport.from_json(
                text, {"cv_splits": CV_SPLITS, "shared": 4})}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_READERS)), st.data())
def test_each_payload_reader_refuses_exactly_the_texts_the_audit_fails(honest_round, kind,
                                                                      data):
    # A mutated summary or upload text takes its message's place in the
    # honest round's ledger. Its reader raises PrivacyViolation exactly when
    # the audit fails that ledger, with the audit's own message. Only a
    # summary the source takes can still fail the audit, on the round's
    # shared dimension, which the audit learns from the first summary.
    ledger = list(honest_round.privacy_ledger)
    pos = data.draw(st.sampled_from([i for i, rec in enumerate(ledger) if rec.kind == kind]))
    text = data.draw(_mutated(ledger[pos].payload_text))
    ledger[pos] = _logged(ledger[pos], text)
    report = dataclasses.replace(honest_round, privacy_ledger=ledger)
    try:
        _READERS[kind](text)
    except PrivacyViolation as exc:
        with pytest.raises(PrivacyViolation) as audited:
            audit_ledger(report)
        assert str(audited.value) == str(exc)
        return
    if kind == "site_estimate":
        audit_ledger(report)
        return
    try:
        audit_ledger(report)
    except PrivacyViolation as exc:
        assert "its declared [shared]" in str(exc)


def _payload_edit(edit):
    """A tamper that rewrites a text's payload by ``edit``, in canonical text."""
    return lambda text, kind: wire_text(edit(json.loads(text)))


_READ_TAMPERS = {
    "spaced": (tuple(_READERS), lambda text, kind: json.dumps(json.loads(text)),
               "non-canonical payload text"),
    "over_bound": (tuple(_READERS), lambda text, kind: text.ljust(TEXT_BOUNDS[kind] + 1),
                   "over its bound"),
    "undeclared_key": (tuple(_READERS), _payload_edit(lambda p: {**p, "rows": [1.0]}),
                       "undeclared keys"),
    "fit_sq_of_3": (("site_estimate",), _payload_edit(lambda p: {**p, "fit_sq": p["fit_sq"][:3]}),
                    "site_estimate declares cv_splits 3"),
    "empty_target_coef": (("site_estimate",), _payload_edit(lambda p: {**p, "target_coef": []}),
                          "site_estimate has no list of 1 to"),
    "empty_mean_v": (("moment_summary",), _payload_edit(lambda p: {**p, "mean_v": []}),
                     "moment_summary has no list of 1 to"),
}


@pytest.mark.parametrize("kind, name", [(kind, name)
                                        for name, (kinds, _, _) in _READ_TAMPERS.items()
                                        for kind in kinds])
def test_each_payload_reader_refuses_with_the_audit_message(honest_round, kind, name):
    # A summary or upload text the audit refuses raises PrivacyViolation in
    # its reader too, with the audit's own message.
    _, tamper, message = _READ_TAMPERS[name]
    ledger = list(honest_round.privacy_ledger)
    pos = next(i for i, rec in enumerate(ledger) if rec.kind == kind)
    text = tamper(ledger[pos].payload_text, kind)
    ledger[pos] = _logged(ledger[pos], text)
    with pytest.raises(PrivacyViolation, match=message) as audited:
        audit_ledger(dataclasses.replace(honest_round, privacy_ledger=ledger))
    with pytest.raises(PrivacyViolation) as read:
        _READERS[kind](text)
    assert str(read.value) == str(audited.value)


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


def _whitespace_channel(text, frames):
    """``text`` with the target's first 60 outcomes, 24 bits of fixed point
    each, written as spaces and tabs after its opening brace: the same JSON
    values, and a channel the sender reads back to 2**-13."""
    outcomes = frames[0].y[:60]
    codes = [round((float(y) + 2048.0) * 2**12) for y in outcomes]
    assert len(codes) == 60 and all(0 <= c < 2**24 for c in codes)
    channel = "".join(f"{c:024b}" for c in codes).translate(str.maketrans("01", " \t"))
    read = [int(channel[24 * i:24 * (i + 1)].translate(str.maketrans(" \t", "01")), 2)
            / 2**12 - 2048.0 for i in range(len(codes))]
    assert np.max(np.abs(np.array(read) - outcomes)) <= 2**-13
    return "{" + channel + text[1:]


def _trailing_zeros(text, payload):
    """``mu0`` written with 500 more zeros in its mantissa."""
    mantissa, e, exponent = repr(payload["mu0"]).partition("e")
    padded = mantissa + ("" if "." in mantissa else ".") + "0" * 500 + e + exponent
    assert text.count(f'"mu0":{payload["mu0"]!r}') == 1
    return text.replace(f'"mu0":{payload["mu0"]!r}', f'"mu0":{padded}')


_TEXT_TAMPERS = {
    "whitespace": ("site_estimate", lambda text, payload, frames:
                   _whitespace_channel(text, frames)),
    "trailing_zeros": ("site_estimate", lambda text, payload, frames:
                       _trailing_zeros(text, payload)),
    "unsorted_keys": ("site_estimate", lambda text, payload, frames: json.dumps(
        dict(reversed(payload.items())), separators=(",", ":"))),
    # The first "mu0" carries 150 outcomes; json.loads keeps the second.
    "repeated_key": ("site_estimate", lambda text, payload, frames: '{"mu0":' + json.dumps(
        [round(float(y), 3) for y in frames[0].y[:150]], separators=(",", ":")) + ","
        + text[1:]),
    "exponent": ("site_estimate", lambda text, payload, frames: wire_text(
        {**payload, "mu0": 0.5}).replace('"mu0":0.5,', '"mu0":5e-1,')),
    "escaped_kind": ("config", lambda text, payload, frames: text.replace(
        '"kind":"raw"', '"kind":"r\\u0061w"', 1)),
}


@pytest.mark.parametrize("name", list(_TEXT_TAMPERS))
def test_audit_accepts_only_canonical_text(name):
    # JSON writes one value many ways: whitespace, trailing zeros, key
    # order, repeated keys, exponents and escapes. Each way is a channel the
    # value checks never see. The whitespace one carries 60 of the target's
    # outcomes at 24 bits each, within the upload's size bound, which all 300
    # would overrun. The audit takes only the canonical text of a payload's
    # values, and the same values in that text pass.
    kind, tamper = _TEXT_TAMPERS[name]
    scenario = load_scenario("c1")
    frames = replication_frames(scenario, 0, 0)
    report = run_round(frames, method_config("ivw", scenario, seed=1))
    audit_ledger(report)
    pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger) if r.kind == kind)
    payload = json.loads(rec.payload_text)
    text = tamper(wire_text(payload), payload, frames)
    assert text != wire_text(payload) and len(text) <= TEXT_BOUNDS[kind]
    report.privacy_ledger[pos] = MessageRecord(rec.from_site, rec.to_site, rec.kind,
                                               payload_text=text)
    with pytest.raises(PrivacyViolation,
                       match=f"non-canonical payload text on a {kind} message"):
        audit_ledger(report)
    if kind == "config":
        # A source refuses the broadcast text the audit refuses.
        src = run_transport(frames, 1, 0).sources[0]
        with pytest.raises(PrivacyViolation, match="non-canonical payload text on a config"):
            source_upload(src, text)
    report.privacy_ledger[pos] = _relogged(rec, json.loads(text))
    audit_ledger(report)


def test_every_round_sends_canonical_text():
    # Every payload of an honest round is the canonical text of its values,
    # so the audit passes every preset under every method.
    for preset in ("c1", "c0", "c05", "mismatch"):
        scenario = load_scenario(preset)
        frames = replication_frames(scenario, 0, 0)
        for method in METHODS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = run_round(frames, method_config(method, scenario, seed=1))
            audit_ledger(report)
            assert report.privacy_ledger
            for rec in report.privacy_ledger:
                assert rec.payload_text == wire_text(json.loads(rec.payload_text))


def test_audit_rejects_missing_keys():
    # Every declared key is sent: a payload that leaves one out is not the
    # declared shape.
    report = run_round(_make_frames(), _config("mr_l1"))
    tampered = {
        "site_estimate": (lambda p: {key: p[key] for key in ("n_k", "mu0", "mu1")},
                          r"missing keys \['fit_sq', 'own_sq', 'target_coef'\] in a "
                          r"site_estimate message$"),
        "config": (lambda p: {}, r"missing keys \['candidates', 'cv_splits', 'seed'\] in a "
                                 r"config message$"),
        "config.candidates": (lambda p: {**p, "candidates": {
            "treatment": p["candidates"]["treatment"]}},
            r"missing keys \['outcome'\] in a config message.candidates$"),
    }
    for name, (tamper, message) in tampered.items():
        kind = name.split(".")[0]
        pos, rec = next((i, r) for i, r in enumerate(report.privacy_ledger)
                        if r.kind == kind)
        report.privacy_ledger[pos] = _relogged(rec, tamper(json.loads(rec.payload_text)))
        with pytest.raises(PrivacyViolation, match=message):
            audit_ledger(report)
        report.privacy_ledger[pos] = rec
    audit_ledger(report)


def test_no_payload_outgrows_its_declared_bound():
    # What a message can hold does not grow with a site's sample: the
    # audit's one bound per message kind, from the declared shapes and the
    # protocol constants alone, holds a c1 round at the preset sizes and with
    # every site ten times larger.
    assert len(repr(-2.2250738585072014e-308)) == 24 and len(str(2**53 - 1)) == 16
    bound = TEXT_BOUNDS
    scenario = load_scenario("c1")
    larger = dataclasses.replace(scenario, sites=tuple(
        dataclasses.replace(site, n=10 * site.n) for site in scenario.sites))
    for spec in (scenario, larger):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_round(replication_frames(spec, 0, 0),
                               method_config("mr_l1", spec, seed=rep_config_seed(0, 0)))
        audit_ledger(report)
        assert {rec.kind for rec in report.privacy_ledger} == set(bound)
        for rec in report.privacy_ledger:
            assert rec.payload_bytes <= bound[rec.kind], (rec.kind, rec.payload_bytes)


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


def _array_shapes(obj) -> dict:
    """The shape of every ndarray a dataclass holds, nested ones included."""
    shapes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            shapes[f.name] = value.shape
        elif dataclasses.is_dataclass(value):
            shapes.update({f"{f.name}.{k}": v for k, v in _array_shapes(value).items()})
    return shapes


def test_no_site_estimate_grows_with_the_sample_sizes():
    # The coordinator keeps fixed-size summaries only: a c1 site phase with
    # every site ten times larger holds arrays of the same shapes.
    scenario = load_scenario("c1")
    larger = dataclasses.replace(scenario, sites=tuple(
        dataclasses.replace(site, n=10 * site.n) for site in scenario.sites))
    shapes = []
    for spec in (scenario, larger):
        config = method_config("mr_l1", spec, seed=rep_config_seed(0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sites = run_sites(run_transport(replication_frames(spec, 0, 0), config.seed,
                                            CV_SPLITS), config.candidates)
        assert len(sites.estimates) == len(spec.sites)
        shapes.append([_array_shapes(est) for est in sites.estimates])
    assert all(shapes[0]) and shapes[0] == shapes[1]
