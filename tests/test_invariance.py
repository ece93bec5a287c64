"""Property tests: what one round promises under relabelling and rescaling,
and that every wire payload survives JSON with equal values.

The round examples run whole rounds (``run_transport``, ``run_sites`` then
``combine``) on small random frames. Units are never permuted within a site:
the nuisance split and the cross-validation folds are positional, so a round
does not promise invariance to the order of a site's rows.
"""

import dataclasses
import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcausal.density_ratio import MomentSummary
from fedcausal.fedruntime import (METHODS, ProtocolConfig, SitePhase, combine, run_sites,
                                  run_transport)
from fedcausal.nuisance import CV_SPLITS, FeatureMap
from fedcausal.numkit import expit
from fedcausal.site_estimator import SiteFrame, SourceSiteReport, complete_source_estimate

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

# Small federations: a target and one to three sources of 60 to 150 units.
federations = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "sizes": st.lists(st.integers(60, 150), min_size=2, max_size=4),
})


def _frames(seed, sizes, scale=1.0, shift=0.0):
    """Target first (shared covariates only), then sources with one more."""
    rng = np.random.default_rng(seed)
    frames = []
    for i, n in enumerate(sizes):
        role = "target" if i == 0 else "source"
        X = rng.standard_normal((n, 3)) + (0.0 if i == 0 else rng.uniform(-0.5, 0.5, 3))
        a = (rng.random(n) < expit(0.6 * X[:, 0] - 0.3 * X[:, 2])).astype(int)
        y = 1.0 + X @ [1.0, -0.5, 0.8] + a * (1.0 + 0.5 * X[:, 1]) + rng.standard_normal(n)
        frames.append(SiteFrame(f"site{i}", role, scale * y + shift, a,
                                X[:, :2] if i == 0 else X, (0, 1)))
    return frames


def _config(method, seed):
    # One candidate per role: the outcome-mixing score is a squared error,
    # so mixing weights over several candidates depend on the outcome scale.
    raw = {"treatment": [FeatureMap("raw")], "outcome": [FeatureMap("raw")]}
    return ProtocolConfig(
        candidates={"target": raw, "source": raw},
        method=method,
        seed=seed % 1000,
    )


def _rounds(frames, seed):
    """One site phase combined under each method."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = _config("ivw", seed)
        sites = run_sites(run_transport(frames, config.seed, METHODS), config.candidates)
        return {m: combine(sites, m) for m in METHODS}


def _eta(report):
    return {site["site_id"]: site["eta"] for site in report.per_site}


@PROPERTY
@given(federations)
def test_weights_lie_on_the_simplex(fed):
    for method, report in _rounds(_frames(**fed), fed["seed"]).items():
        eta = report.solution.eta
        assert np.all(eta >= 0.0), method
        assert abs(eta.sum() - 1.0) < 1e-12, method


@PROPERTY
@given(federations, st.data())
def test_source_order_does_not_matter(fed, data):
    frames = _frames(**fed)
    order = data.draw(st.permutations(range(1, len(frames))))
    reordered = [frames[0]] + [frames[i] for i in order]
    before = _rounds(frames, fed["seed"])
    after = _rounds(reordered, fed["seed"])
    for method in METHODS:
        x, y = before[method], after[method]
        assert abs(x.delta_hat - y.delta_hat) <= 1e-10, method
        assert abs(x.variance - y.variance) <= 1e-10 * x.variance, method
        eta_x, eta_y = _eta(x), _eta(y)
        assert eta_x.keys() == eta_y.keys()
        assert all(abs(eta_x[s] - eta_y[s]) <= 1e-10 for s in eta_x), method


@PROPERTY
@given(federations,
       st.floats(0.2, 5.0) | st.floats(-5.0, -0.2),
       st.floats(-10.0, 10.0))
def test_affine_outcome_map_scales_effect_and_se(fed, c, b):
    # y -> c y + b: the effect scales by c and its standard error by |c|.
    # This holds for the fixed schemes, and with one outcome candidate for
    # the adaptive ones too: every cross-validation error and penalty then
    # scales by c**2, so the same penalty and weights are chosen.
    base = _rounds(_frames(**fed), fed["seed"])
    mapped = _rounds(_frames(**fed, scale=c, shift=b), fed["seed"])
    for method in METHODS:
        x, y = base[method], mapped[method]
        se = np.sqrt(x.variance)
        tol = 1e-9 * abs(c) * (abs(x.delta_hat) + se)
        assert abs(y.delta_hat - c * x.delta_hat) <= tol, method
        assert abs(np.sqrt(y.variance) - abs(c) * se) <= 1e-9 * abs(c) * se, method


# The sources' candidates, one of them on their unshared column, and the
# target's, any of the maps its two shared columns fit.
SOURCE_GROUP = {"treatment": [FeatureMap("raw"), FeatureMap("subset", (0,))],
                "outcome": [FeatureMap("raw"), FeatureMap("subset", (0, 2))]}
RAW = {"treatment": [FeatureMap("raw")], "outcome": [FeatureMap("raw")]}
target_maps = st.lists(st.sampled_from((FeatureMap("raw"), FeatureMap("subset", (0,)),
                                        FeatureMap("subset", (1,)))),
                       min_size=1, max_size=3, unique=True)
target_groups = st.fixed_dictionaries({"treatment": target_maps, "outcome": target_maps})


def _sent(frames, method, target_group, seed):
    """Each site's outgoing payload texts of one round, by sender, and the
    round's site phase and report."""
    config = ProtocolConfig(candidates={"target": target_group, "source": SOURCE_GROUP},
                            method=method, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sites = run_sites(run_transport(frames, seed, (method,)), config.candidates)
        report = combine(sites, method)
    texts = {}
    for rec in sites.ledger:
        texts.setdefault(rec.from_site, []).append(rec.payload_text)
    return texts, sites, report


def _others(frame, rng):
    """``frame`` with what only it holds replaced: outcomes by noise of SD
    1,000, treatments by 1 - a, and unshared covariates by noise."""
    X = frame.X.copy()
    unshared = [c for c in range(X.shape[1]) if c not in frame.shared_cols]
    X[:, unshared] = rng.standard_normal((frame.n, len(unshared)))
    return SiteFrame(frame.site_id, frame.role, 1000.0 * rng.standard_normal(frame.n),
                     1 - frame.a, X, frame.shared_cols)


@PROPERTY
@given(federations, st.sampled_from([("ivw", "ss"), ("aipw_l1", "mr_l1")]), target_groups,
       st.data())
def test_each_site_sends_a_function_of_what_it_holds_and_received(fed, methods, group, data):
    # Noninterference: perturbing what a site does not hold leaves its texts
    # byte-identical. That is another site's outcomes, treatments and
    # unshared covariates, the target's candidate group, and the weighting
    # method within one split count (the broadcast's cv_splits, which the
    # sources receive). The coordinator's report is a function of the
    # target's own estimate and the upload texts alone.
    frames, seed = _frames(**fed), fed["seed"] % 1000
    sent, sites, report = _sent(frames, methods[0], RAW, seed)
    assert _sent(frames, methods[1], group, seed)[0] == sent

    k = data.draw(st.integers(0, len(frames) - 1))
    perturbed = list(frames)
    perturbed[k] = _others(frames[k], np.random.default_rng(fed["seed"]))
    after = _sent(perturbed, methods[0], RAW, seed)[0]
    held = frames[k].site_id
    assert ({site: texts for site, texts in after.items() if site != held}
            == {site: texts for site, texts in sent.items() if site != held})

    uploads = [complete_source_estimate(rec.from_site, SourceSiteReport.from_json(rec.payload_text))
               for rec in sites.ledger if rec.kind == "site_estimate"]
    rebuilt = SitePhase([sites.estimates[0]] + uploads, sites.ledger, sites.failures,
                        sites.candidates)
    assert combine(rebuilt, methods[0]).to_json() == report.to_json()


finite = st.floats(allow_nan=False, allow_infinity=False)


def _vectors(sizes):
    """Float arrays whose length is drawn from ``sizes``."""
    return sizes.flatmap(lambda k: st.lists(finite, min_size=k, max_size=k)).map(
        lambda v: np.array(v, dtype=float))


# Lists at the protocol dimensions: 1 to 6 shared covariates, and 0 or
# CV_SPLITS fit-half sums.
shared_vectors = _vectors(st.integers(1, 6))
moment_summaries = st.builds(MomentSummary, mean_v=shared_vectors)
source_reports = st.builds(
    SourceSiteReport,
    n_k=st.integers(1, 10**9),
    mu0=finite,
    mu1=finite,
    own_sq=finite,
    fit_sq=_vectors(st.sampled_from([0, CV_SPLITS])),
    target_coef=shared_vectors,
)
feature_maps = st.sampled_from((FeatureMap("raw"), FeatureMap("kangschafer"))) | st.builds(
    FeatureMap, kind=st.just("subset"),
    columns=st.lists(st.integers(0, 50), min_size=1, unique=True).map(tuple),
)
groups = st.fixed_dictionaries({
    "treatment": st.lists(feature_maps, min_size=1, max_size=3, unique=True),
    "outcome": st.lists(feature_maps, min_size=1, max_size=3, unique=True),
})
configs = st.builds(
    ProtocolConfig,
    candidates=st.fixed_dictionaries({"target": groups, "source": groups}),
    method=st.sampled_from(METHODS),
    seed=st.integers(0, 2**32 - 1),
)


def _assert_same(x, y):
    """Field-by-field equality of two payload dataclasses; arrays by value."""
    assert type(x) is type(y)
    for f in dataclasses.fields(x):
        a, b = getattr(x, f.name), getattr(y, f.name)
        if dataclasses.is_dataclass(a):
            _assert_same(a, b)
        elif isinstance(a, (tuple, np.ndarray)):
            assert len(a) == len(b) and all(np.array_equal(p, q) for p, q in zip(a, b)), f.name
        else:
            assert a == b, f.name


@PROPERTY
@given(moment_summaries, source_reports)
def test_uploads_round_trip_through_json(summary, report):
    _assert_same(MomentSummary.from_json(summary.to_json()), summary)
    _assert_same(SourceSiteReport.from_json(report.to_json()), report)
    # A decoded payload writes the text it was read from, byte for byte.
    for payload in (summary, report):
        text = payload.to_json()
        assert type(payload).from_json(text).to_json() == text


@PROPERTY
@given(configs)
def test_config_broadcast_round_trips_through_json(config):
    sent = json.loads(json.dumps(config.to_dict()))
    assert set(sent) == {"seed", "candidates"}
    assert sent["seed"] == config.seed
    # Only the sources' group is sent; the target's stays with the coordinator.
    assert {role: [FeatureMap.from_dict(fm) for fm in maps]
            for role, maps in sent["candidates"].items()} == config.candidates["source"]
