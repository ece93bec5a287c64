"""Tests for the target AIPW estimate and the transported source estimates."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcausal import federation, fedruntime, site_estimator
from fedcausal.density_ratio import (
    TiltCoefficients,
    solve_tilt,
    target_moments,
)
from fedcausal.errors import ExtremeWeightsWarning, SingularJacobian
from fedcausal.numkit import add_intercept, expit, fit_ols
from fedcausal.nuisance import MAX_COLUMNS, FeatureMap, NuisanceFit, fit_nuisances
from fedcausal.site_estimator import (
    CV_SPLITS,
    SiteFrame,
    SourceSiteReport,
    complete_source_estimate,
    estimate_target,
    source_report,
    split_masks,
)

RAW_T = [FeatureMap("raw")]
RAW_O = [FeatureMap("raw")]


def _fit(n, p1=0.5, m=0.0):
    # Constant propensity P(A=1) = p1 and outcome means m on n units.
    return NuisanceFit(pi=np.stack([np.full(n, 1.0 - p1), np.full(n, p1)]),
                       m=np.full((2, n), m))


def _linear_pair(seed=0, n_src=800, n_tgt=500, shift=0.4):
    """Source and target frames sharing all covariates, linear outcome model."""
    rng = np.random.default_rng(seed)
    beta = np.array([1.0, -0.5])

    def draw(n, mean):
        X = rng.standard_normal((n, 2)) + mean
        p = expit(0.6 * X[:, 0] - 0.4 * X[:, 1])
        a = (rng.random(n) < p).astype(int)
        y = 2.0 + X @ beta + 0.5 * a + rng.standard_normal(n)
        return y, a, X

    y_s, a_s, X_s = draw(n_src, 0.0)
    y_t, a_t, X_t = draw(n_tgt, shift)
    src = SiteFrame("src", "source", y_s, a_s, X_s, (0, 1))
    tgt = SiteFrame("tgt", "target", y_t, a_t, X_t, (0, 1))
    return src, tgt


def _tilt_at(V, gamma, target_V):
    """The tilt with coefficients ``gamma`` on source covariates ``V`` and the
    target mean of psi = (1, V) over ``target_V``, whether or not the tilt
    balances it."""
    psi = add_intercept(V)
    weights = np.exp(-psi @ gamma)
    return TiltCoefficients(gamma, 0.0, weights, (psi * weights[:, None]).T @ psi / len(psi),
                            basis=psi,
                            target_mean=np.concatenate(([1.0], target_moments(target_V).mean_v)))


def _centered(target):
    """The target's shared covariates centered by their means, as the
    transport centers them."""
    return target.V - target_moments(target.V).mean_v


def _folds(frame, seed=0):
    """The frame's own CV folds under ``seed``, as the transport draws them."""
    return split_masks(frame.n, seed, frame.site_id)


def _target_estimate(target, fit, seed=0):
    """The target's estimate on its centered covariates and CV folds, as the
    site phase forms it."""
    return estimate_target(target, fit, _centered(target), _folds(target, seed))


def _untilted(frame, target_V):
    return _tilt_at(frame.V, np.zeros(frame.V.shape[1] + 1), target_V)


def _projections(src, fit, tilt):
    """The per-arm projection coefficients tau_a of the outcome model on
    psi = (1, V), read off the upload: each arm mean is affine in the target
    basis mean of its tilt, with slope tau_a. Returns shape (2, basis)."""
    dim = src.V.shape[1] + 1
    reports = [source_report(src, fit, dataclasses.replace(tilt, target_mean=mean),
                             _folds(src))[0]
               for mean in np.vstack([np.zeros(dim), np.eye(dim)])]
    mu = np.array([(r.mu0, r.mu1) for r in reports])
    return (mu[1:] - mu[0]).T


def test_site_frame_validation():
    y = np.zeros(3)
    a = np.array([0, 1, 0])
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        SiteFrame("s", "proxy", y, a, X, (0,))
    with pytest.raises(ValueError):
        SiteFrame("s", "source", y, a[:2], X, (0,))
    with pytest.raises(ValueError):
        SiteFrame("s", "source", y, a, X, ())
    with pytest.raises(ValueError):
        SiteFrame("s", "target", y, a, X, (0,))  # extra non-shared column
    frame = SiteFrame("s", "source", y, a, X, (1,))
    assert frame.V.shape == (3, 1)


def test_site_frame_rejects_bad_columns_and_treatment():
    # Each of these used to build: a negative index selected the last column
    # silently, one past X failed mid-round, a repeated one made B singular.
    y, a, X = np.zeros(3), np.array([0, 1, 0]), np.zeros((3, 2))
    for cols in ((-1, 0), (0, 5), (0, 2), (0, 0), (0.0, 1), (True,), ([0],), [0, 1]):
        with pytest.raises(ValueError, match="shared_cols"):
            SiteFrame("s", "source", y, a, X, cols)
    for bad in ([0, 2, 1], [0.5, 1, 0], [-1, 0, 1]):
        with pytest.raises(ValueError, match="0/1"):
            SiteFrame("s", "source", y, np.array(bad), X, (0,))
    assert SiteFrame("s", "source", y, a.astype(float), X, (1, 0)).V.shape == (3, 2)
    # The shared covariates number 1 to MAX_COLUMNS, the bound the audit puts
    # on a moment summary, so a frame that builds never fails its round's audit.
    wide = np.zeros((3, MAX_COLUMNS + 1))
    for role in ("source", "target"):
        with pytest.raises(ValueError, match="shared_cols"):
            SiteFrame("s", role, y, a, wide, tuple(range(MAX_COLUMNS + 1)))
        assert SiteFrame("s", role, y, a, wide[:, 1:], tuple(range(MAX_COLUMNS))).V.shape == (
            3, MAX_COLUMNS)


def test_feature_maps_and_frames_share_the_column_rule():
    # A subset map and a frame of MAX_COLUMNS covariates accept the same
    # column lists (nuisance.is_column_list), so neither can hold a list the
    # other rejects.
    y, a, X = np.zeros(3), np.array([0, 1, 0]), np.zeros((3, MAX_COLUMNS))

    def builds(make, cols):
        try:
            make(cols)
        except ValueError:
            return False
        return True

    cases = [((), False), ((0, 0), False), ((True,), False), ((1.0,), False), (([0],), False),
             ((-1,), False), ((MAX_COLUMNS,), False), ([0, 1], False),
             (tuple(range(MAX_COLUMNS)), True), ((3, 1), True)]
    for cols, ok in cases:
        assert builds(lambda c: FeatureMap("subset", c), cols) is ok, cols
        assert builds(lambda c: SiteFrame("s", "source", y, a, X, c), cols) is ok, cols


def test_site_frame_rejects_data_it_cannot_estimate_from():
    # Each of these used to build: a non-finite outcome gave a NaN estimate
    # and variance, or failed the weight solve of the whole round, and a
    # column of outcomes or treatments failed the round far from its cause.
    y, a, X = np.zeros(4), np.array([0, 1, 0, 1]), np.zeros((4, 2))

    def with_entry(arr, value):
        arr = arr.copy()
        arr.flat[1] = value
        return arr

    cases = {
        "nan outcome": (with_entry(y, np.nan), a, X),
        "infinite outcome": (with_entry(y, np.inf), a, X),
        "nan covariate": (y, a, with_entry(X, np.nan)),
        "column of outcomes": (y[:, None], a, X),
        "column of treatments": (y, a[:, None], X),
        "one covariate row": (y, a, np.zeros(4)),
        "stacked covariates": (y, a, X[:, :, None]),
    }
    for role in ("source", "target"):
        for name, (y_bad, a_bad, X_bad) in cases.items():
            with pytest.raises(ValueError, match="1-D|finite"):
                SiteFrame("s", role, y_bad, a_bad, X_bad, (0, 1))


@pytest.mark.parametrize("n", [1, 7, 10_000])
@pytest.mark.parametrize("dtype", [int, float])
def test_ipw_residual_is_bitwise_the_out_of_place_formula(n, dtype):
    rng = np.random.default_rng(n)
    a = (rng.random(n) < 0.5).astype(dtype)
    frame = SiteFrame("s", "source", rng.standard_normal(n), a, rng.standard_normal((n, 1)), (0,))
    p1 = rng.uniform(0.05, 0.95, n)
    fit = NuisanceFit(pi=np.stack([1.0 - p1, p1]), m=rng.standard_normal((2, n)))
    expected = np.stack([a == 0, a == 1]).astype(float) / fit.pi * (frame.y - fit.m)
    assert np.array_equal(site_estimator._ipw_residual(frame, fit, "s"), expected)


def test_estimate_target_horvitz_thompson_reduction():
    rng = np.random.default_rng(1)
    n = 200
    y = rng.standard_normal(n) + 3.0
    a = rng.integers(0, 2, n)
    X = rng.standard_normal((n, 2))
    frame = SiteFrame("t", "target", y, a, X, (0, 1))
    est = _target_estimate(frame, _fit(n))
    for arm in (0, 1):
        expected = 2.0 * np.mean((a == arm) * y)
        assert abs(est.mu[arm] - expected) < 1e-12
    # The moments are the Gram matrices of Z = [xi, V_c / n, 1 / sqrt(n)] over
    # each fit half and all units, and the target's coordinates in Z are e_0.
    # Every entry of this Z is computed as the estimator computes it, so the
    # fold sums, gathered here by boolean mask, agree bit for bit.
    d = 2.0 * (a * y) - 2.0 * ((1 - a) * y)
    Z = np.column_stack([(d - d.mean()) / n, _centered(frame) / n,
                         np.full(n, 1.0 / math.sqrt(n))])
    reference = [Z[f].T @ Z[f] for f in _folds(frame)] + [Z.T @ Z]
    assert est.is_target and np.array_equal(est.coef, [1.0, 0.0, 0.0, 0.0])
    assert est.moments.shape == (CV_SPLITS + 1, 4, 4)
    assert np.array_equal(est.moments, reference)
    # The contributions sum to the mean of the centered influence values.
    assert abs(math.sqrt(n) * est.moments[-1, -1] @ est.coef) < 1e-10


def test_estimate_target_constant_outcome():
    n = 60
    a = np.tile([0, 1], 30)
    X = np.random.default_rng(2).standard_normal((n, 2))
    y = np.full(n, 7.5)
    frame = SiteFrame("t", "target", y, a, X, (0, 1))
    est = _target_estimate(frame, _fit(n, m=7.5))
    assert est.mu == (7.5, 7.5)


def test_estimate_target_requires_target_role():
    src, tgt = _linear_pair()
    with pytest.raises(ValueError):
        estimate_target(src, _fit(src.n), _centered(src), _folds(src))


def test_estimate_target_checks_its_folds():
    # Folds of another split count or another target size.
    src, tgt = _linear_pair()
    folds = _folds(tgt)
    for wrong in (folds[:-1], folds[:, :-1], folds[0]):
        with pytest.raises(ValueError, match="target folds have shape"):
            estimate_target(tgt, _fit(tgt.n), _centered(tgt), wrong)


def test_fit_tau_exact_on_linear_predictions():
    # The outcome model is linear in X = V, so its projection on (1, V) is itself.
    src, tgt = _linear_pair(seed=4)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=1)
    for arm, tau in enumerate(_projections(src, fit, _untilted(src, tgt.V))):
        assert np.max(np.abs(add_intercept(src.V) @ tau - fit.m[arm])) < 1e-8
    with pytest.raises(ValueError):
        source_report(tgt, fit, _untilted(src, tgt.V), _folds(src))


def test_fit_tau_slope_recovery_with_orthogonal_noise():
    # m(x) = V beta_V + U beta_U with U independent of V: the projection slopes
    # converge to beta_V.
    rng = np.random.default_rng(5)
    n = 2000
    V = rng.standard_normal((n, 2))
    U = rng.standard_normal((n, 2))
    X = np.column_stack([V, U])
    beta = np.array([2.0, -1.0, 1.5, 0.5])
    a = rng.integers(0, 2, n)
    y = X @ beta + rng.standard_normal(n)
    src = SiteFrame("s", "source", y, a, X, (0, 1))
    fit = fit_nuisances("src", X, y, a, RAW_T, RAW_O, seed=2)
    tau = _projections(src, fit, _untilted(src, src.V))[1]
    assert np.allclose(tau[1:], beta[:2], atol=0.15)


def test_source_degenerate_weighted_mean_reduction():
    # zeta = 1, m = tau = 0: the transported estimate is the source's
    # inverse-probability weighted outcome mean.
    src, tgt = _linear_pair(seed=6, shift=0.0)
    report = source_report(src, _fit(src.n), _untilted(src, tgt.V), _folds(src))[0]
    est = complete_source_estimate(src.site_id, report)
    for arm in (0, 1):
        expected = np.mean(2.0 * (src.a == arm) * src.y)
        assert abs(est.mu[arm] - expected) < 1e-12


def test_source_no_shift_agrees_with_target():
    src, tgt = _linear_pair(seed=7, shift=0.0, n_src=2000, n_tgt=2000)
    summary = target_moments(tgt.V)
    fit_s = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=3)
    fit_t = fit_nuisances(tgt.site_id, tgt.X, tgt.y, tgt.a, RAW_T, RAW_O, seed=4)
    est_s = complete_source_estimate(
        src.site_id, source_report(src, fit_s, solve_tilt(src.V, summary), _folds(src))[0])
    est_t = _target_estimate(tgt, fit_t)
    assert abs((est_s.mu[1] - est_s.mu[0]) - (est_t.mu[1] - est_t.mu[0])) < 0.25


def test_source_estimate_equals_report_plus_completion():
    src, tgt = _linear_pair(seed=8)
    summary = target_moments(tgt.V)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=5)
    report = source_report(src, fit, solve_tilt(src.V, summary), _folds(src, 2))[0]
    direct = complete_source_estimate(src.site_id, report)
    wired = complete_source_estimate(src.site_id, SourceSiteReport.from_json(report.to_json()))
    assert direct.mu == wired.mu
    assert direct.own_sq == wired.own_sq
    assert np.array_equal(direct.fit_sq, wired.fit_sq)
    assert np.array_equal(direct.coef, wired.coef)


def test_source_influence_parts_are_centered():
    src, tgt = _linear_pair(seed=9)
    summary = target_moments(tgt.V)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=6)
    # Own-unit contributions are checked at the source, before they are
    # summarized; each vector sums to the mean of its influence values.
    report, d = source_report(src, fit, solve_tilt(src.V, summary), _folds(src, 4))
    assert abs(d.sum()) < 1e-8
    assert d.shape == (src.n,)
    # The target-unit contributions, Z coef, sum to sqrt(n_T) times the
    # constant column's row of the target's moments, times coef.
    est = complete_source_estimate(src.site_id, report)
    tgt_est = _target_estimate(tgt, _fit(tgt.n))
    assert abs(math.sqrt(tgt.n) * tgt_est.moments[-1, -1] @ est.coef) < 1e-8
    assert est.coef.shape == tgt_est.coef.shape == (src.V.shape[1] + 2,)
    # The upload summarizes exactly those values over the site's own folds.
    masks = split_masks(src.n, 4, src.site_id)
    assert report.own_sq == float(np.sum(d * d))
    assert np.array_equal(report.fit_sq, masks @ (d * d))
    assert masks.shape == (5, src.n) and np.all(masks.sum(axis=1) == src.n // 2)


def test_source_linearity_in_outcome_scale():
    src, tgt = _linear_pair(seed=10)
    summary = target_moments(tgt.V)
    tilt = solve_tilt(src.V, summary)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=7)
    report = source_report(src, fit, tilt, _folds(src))[0]
    est = complete_source_estimate(src.site_id, report)

    scaled = SiteFrame(src.site_id, "source", 3.0 * src.y, src.a, src.X, src.shared_cols)
    fit_scaled = fit_nuisances(scaled.site_id, scaled.X, scaled.y, scaled.a, RAW_T, RAW_O,
                               seed=7)
    est_scaled = complete_source_estimate(
        scaled.site_id, source_report(scaled, fit_scaled, tilt, _folds(scaled))[0])
    for arm in (0, 1):
        assert abs(est_scaled.mu[arm] - 3.0 * est.mu[arm]) < 1e-9 * max(1.0, abs(est.mu[arm]))


def test_source_report_requires_source_role():
    src, tgt = _linear_pair(seed=11)
    summary = target_moments(tgt.V)
    tilt = solve_tilt(src.V, summary)
    with pytest.raises(ValueError):
        source_report(tgt, _fit(tgt.n), tilt, _folds(src))
    report = source_report(src, _fit(src.n), tilt, _folds(src))[0]
    # The coordinator takes one target slope per column of the target's
    # centered shared covariates.
    tgt_est = _target_estimate(tgt, _fit(tgt.n))
    for bad in (np.ones(3), report.target_coef[:1]):
        est = complete_source_estimate(src.site_id, dataclasses.replace(report, target_coef=bad))
        with pytest.raises(ValueError, match="target coordinates"):
            federation.combine_fixed([tgt_est, est], "ivw")


def test_source_report_builds_no_basis():
    # psi = (1, V) is built only by solve_tilt: the source estimator reads the
    # tilt's basis and target mean of psi, and the target summarizes its
    # centered V in its moments, so neither side builds a basis.
    assert not hasattr(site_estimator, "add_intercept")
    assert not hasattr(fedruntime, "add_intercept")


def test_every_target_coef_entry_moves_the_completed_estimate():
    # The upload carries no coefficient that multiplies zero: each of its q
    # target slopes moves the variance of the target-unit contributions.
    src, tgt = _linear_pair(seed=18)
    summary = target_moments(tgt.V)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=11)
    report = source_report(src, fit, solve_tilt(src.V, summary), _folds(src))[0]
    assert report.target_coef.shape == (src.V.shape[1],)
    tgt_est = _target_estimate(tgt, _fit(tgt.n))

    def target_part(est):
        return federation._variance([tgt_est, est], [0.0, 1.0]) - est.own_sq

    base = target_part(complete_source_estimate(src.site_id, report))
    for j in range(len(report.target_coef)):
        coef = report.target_coef.copy()
        coef[j] += 1.0
        moved = target_part(complete_source_estimate(
            src.site_id, dataclasses.replace(report, target_coef=coef)))
        assert np.isfinite(moved) and moved != base


def _one_unit_source():
    """A source whose first shared covariate is 0 on unit 0 and in [1, 2] on
    every other unit, and a target whose first shared covariate averages 0.3,
    so that the solved tilt puts most of its weight on unit 0."""
    rng = np.random.default_rng(13)
    n = 200
    X = np.column_stack([1.0 + rng.uniform(0.0, 1.0, n), rng.standard_normal(n)])
    X[0, 0] = 0.0
    a = (rng.random(n) < 0.5).astype(int)
    y = 1.0 + X[:, 1] + a + rng.standard_normal(n)
    V_t = np.column_stack([0.3 + 0.1 * rng.standard_normal(100), rng.standard_normal(100)])
    return (SiteFrame("src", "source", y, a, X, (0, 1)),
            SiteFrame("tgt", "target", V_t[:, 1], np.arange(100) % 2, V_t, (0, 1)))


def test_source_report_singular_jacobian_raises():
    # The tilt underflows to zero on every unit but unit 0, whose first shared
    # covariate is 0: B = psi_0 psi_0' / n has a zero column although
    # psi = (1, V) has full rank.
    src, _ = _one_unit_source()
    tilt = _tilt_at(src.V, np.array([0.0, 1000.0, 0.0]), src.V)
    with pytest.raises(SingularJacobian):
        source_report(src, _fit(src.n), tilt, _folds(src))


def _weight_warnings(caught):
    return [str(w.message) for w in caught if issubclass(w.category, ExtremeWeightsWarning)]


def test_run_transport_checks_the_weights_it_solves():
    # The weight check runs where the tilt is solved, so a source whose tilt
    # concentrates is named even when its nuisance fit then fails.
    src, tgt = _one_unit_source()
    with pytest.warns(ExtremeWeightsWarning, match="site src: "):
        transport = fedruntime.run_transport([tgt, src], 0, ("mr_l1",))
    raw, past = [FeatureMap("raw")], [FeatureMap("subset", (7,))]
    config = fedruntime.ProtocolConfig(
        candidates={"target": {"treatment": raw, "outcome": raw},
                    "source": {"treatment": past, "outcome": past}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phase = fedruntime.run_sites(transport, config.candidates)
    assert phase.failures["src"].startswith("MissingColumns: ")
    assert _weight_warnings(caught) == []


def test_two_site_phases_on_one_transport_warn_once_per_source():
    src, tgt = _one_unit_source()
    raw, both = [FeatureMap("raw")], [FeatureMap("raw"), FeatureMap("subset", (1,))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transport = fedruntime.run_transport([tgt, src], 0, ("mr_l1",))
        for maps in (raw, both):
            config = fedruntime.ProtocolConfig(
                candidates={"target": {"treatment": raw, "outcome": raw},
                            "source": {"treatment": maps, "outcome": maps}})
            assert fedruntime.run_sites(transport, config.candidates).failures == {}
    weight_warnings = _weight_warnings(caught)
    assert len(weight_warnings) == 1 and weight_warnings[0].startswith("site src: ")


def test_site_estimate_json_round_trip():
    # The payload carries the estimate's scalars only, never per-unit values.
    import json
    src, tgt = _linear_pair(seed=13)
    summary = target_moments(tgt.V)
    for est in (complete_source_estimate(
                    src.site_id,
                    source_report(src, _fit(src.n), solve_tilt(src.V, summary),
                                  _folds(src))[0]),
                _target_estimate(tgt, _fit(tgt.n))):
        back = json.loads(est.to_json())
        assert (back["mu0"], back["mu1"]) == est.mu
        assert back["n_k"] == est.n_k
        assert back["site_id"] == est.site_id
        assert not any(isinstance(v, list) for v in back.values())


def test_source_report_json_round_trip():
    src, tgt = _linear_pair(seed=14)
    summary = target_moments(tgt.V)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=8)
    report = source_report(src, fit, solve_tilt(src.V, summary), _folds(src))[0]
    back = SourceSiteReport.from_json(report.to_json())
    for f in dataclasses.fields(SourceSiteReport):
        assert np.array_equal(getattr(back, f.name), getattr(report, f.name)), f.name
    assert report.target_coef.shape == summary.mean_v.shape


def test_estimate_target_rejects_a_fit_of_another_frame():
    src, tgt = _linear_pair(seed=15)
    with pytest.raises(ValueError):
        _target_estimate(tgt, _fit(tgt.n - 1))
    with pytest.raises(ValueError):
        _target_estimate(tgt, fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O,
                                            seed=9))


def test_source_influence_rejects_a_fit_of_another_frame():
    src, tgt = _linear_pair(seed=16)
    summary = target_moments(tgt.V)
    tilt = solve_tilt(src.V, summary)
    with pytest.raises(ValueError):
        source_report(src, _fit(src.n + 1), tilt, _folds(src))
    fit_of_target = fit_nuisances(tgt.site_id, tgt.X, tgt.y, tgt.a, RAW_T, RAW_O, seed=9)
    with pytest.raises(ValueError):
        source_report(src, fit_of_target, tilt, _folds(src))


def _rel_close(a, b, tol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * np.max(np.abs(b))))


def test_contributions_match_per_arm_construction():
    # The per-arm construction written out: a projection and a tilt
    # sensitivity per arm (two solves of B), each arm mean completed on the
    # target sample, the difference taken at the end.
    rng = np.random.default_rng(17)
    n_s, n_t = 700, 400
    X = rng.standard_normal((n_s, 3))
    X[:, 2] += 0.5 * X[:, 0]
    a = (rng.random(n_s) < expit(0.5 * X[:, 0] - 0.3 * X[:, 2])).astype(int)
    y = 1.0 + X @ np.array([1.0, -0.5, 0.8]) + a * (1.0 + 0.5 * X[:, 2]) + rng.standard_normal(n_s)
    src = SiteFrame("src", "source", y, a, X, (0, 1))
    V_t = rng.standard_normal((n_t, 2)) + 0.3
    tgt = SiteFrame("tgt", "target", np.zeros(n_t), np.zeros(n_t, int), V_t, (0, 1))
    summary = target_moments(tgt.V)
    tilt = solve_tilt(src.V, summary)
    fit = fit_nuisances(src.site_id, src.X, src.y, src.a, RAW_T, RAW_O, seed=10)
    report, contributions = source_report(src, fit, tilt, _folds(src, 3))
    est = complete_source_estimate(src.site_id, report)

    pi, m = fit.pi, fit.m
    psi = add_intercept(src.V)
    zeta = np.exp(-psi @ tilt.gamma)
    B = (psi * zeta[:, None]).T @ psi / n_s
    moment_noise = psi * zeta[:, None] - (psi * zeta[:, None]).mean(axis=0)
    psi_t = add_intercept(tgt.X)
    xi_own, xi_tgt, mu = [], [], []
    for arm in (0, 1):
        tau = fit_ols(add_intercept(src.V), m[arm]).coefficients
        h = (src.a == arm) / pi[arm] * (src.y - m[arm]) + m[arm] - add_intercept(src.V) @ tau
        own = zeta * h
        sens = np.linalg.solve(B, -(psi * (zeta * h)[:, None]).mean(axis=0))
        xi_own.append(own - own.mean() + moment_noise @ sens)
        projected = add_intercept(tgt.X) @ tau
        xi_tgt.append(projected - projected.mean() - (psi_t - psi_t.mean(axis=0)) @ sens)
        mu.append(own.mean() + projected.mean())
    own_d = (xi_own[1] - xi_own[0]) / n_s
    tgt_d = (xi_tgt[1] - xi_tgt[0]) / n_t

    assert _rel_close(contributions, own_d)
    # The target-unit contributions are Z coef, Z = [xi, V_c / n_T, 1 / sqrt(n_T)].
    assert est.coef[0] == est.coef[-1] == 0.0
    assert _rel_close(_centered(tgt) @ est.coef[1:-1] / n_t, tgt_d)
    for arm in (0, 1):
        assert _rel_close(est.mu[arm], mu[arm])
    masks = split_masks(n_s, 3, src.site_id)
    assert _rel_close(report.own_sq, np.sum(own_d**2))
    assert _rel_close(report.fit_sq, [np.sum(own_d[f] ** 2) for f in masks])


def _fixed_fit(frame):
    """Nuisance values that are fixed functions of each unit's own covariates,
    so dropping a unit leaves every other unit's row unchanged."""
    x0, x1 = frame.X[:, 0], frame.X[:, 1]
    p1 = expit(0.4 * x0 - 0.3 * x1)
    m0 = 1.0 + x0 - 0.5 * x1 + 0.5 * x0**2
    return NuisanceFit(pi=np.stack([1.0 - p1, p1]),
                       m=np.stack([m0, m0 + 1.0 + 2.0 * x0 * x1 + x1**2]))


def _shifted_pair(seed, n_src=600, n_tgt=400):
    """A source on [-1, 1]^3 sharing its first two covariates with a target on
    [0, 1]^2, an effect that is not linear in them, and bounded tilt weights."""
    rng = np.random.default_rng(seed)

    def draw(site_id, role, X, cols):
        x0, x1 = X[:, 0], X[:, 1]
        a = (rng.random(len(X)) < expit(0.4 * x0 - 0.3 * x1)).astype(int)
        y = (1.0 + x0 - 0.5 * x1 + 0.5 * x0**2 + a * (1.0 + 2.0 * x0 * x1 + x1**2)
             + 0.5 * rng.standard_normal(len(X)))
        return SiteFrame(site_id, role, y, a, X, cols)

    return (draw("src", "source", rng.uniform(-1.0, 1.0, (n_src, 3)), (0, 1)),
            draw("tgt", "target", rng.uniform(0.0, 1.0, (n_tgt, 2)), (0, 1)))


def _without(frame, i):
    keep = np.arange(frame.n) != i
    return SiteFrame(frame.site_id, frame.role, frame.y[keep], frame.a[keep], frame.X[keep],
                     frame.shared_cols)


def _source_run(src, target_V):
    """The source estimator with a freshly solved tilt and the fixed nuisances."""
    tilt = solve_tilt(src.V, target_moments(target_V))
    report, contributions = source_report(src, _fixed_fit(src), tilt, _folds(src))
    return report.mu1 - report.mu0, report, contributions


# The jackknife's remainder is O(1/n) relative to the first-order change it is
# compared with: gap <= JACKKNIFE_K / n, n the sample size of the site whose
# unit is dropped.
JACKKNIFE_K = 80.0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_contributions_match_a_jackknife(seed):
    # Dropping unit i and re-running with the nuisance rows held fixed moves
    # the estimate by -contribution_i * n / (n - 1), up to O(1/n) relative:
    # on the source's own units (the tilt re-solved on the smaller source),
    # on the target's units (the tilt re-solved on the changed target mean),
    # and, exactly, on the target estimator's own units.
    src, tgt = _shifted_pair(seed)
    rng = np.random.default_rng(seed)
    delta, report, contributions = _source_run(src, tgt.V)

    def gap(observed, predicted):
        return np.linalg.norm(observed - predicted) / np.linalg.norm(predicted)

    units = rng.choice(src.n, 12, replace=False)
    observed = np.array([_source_run(_without(src, i), tgt.V)[0] - delta for i in units])
    predicted = -contributions[units] * src.n / (src.n - 1)
    assert gap(observed, predicted) <= JACKKNIFE_K / src.n

    on_target = _centered(tgt) @ report.target_coef / tgt.n
    units = rng.choice(tgt.n, 12, replace=False)
    observed = np.array([_source_run(src, np.delete(tgt.V, j, axis=0))[0] - delta
                         for j in units])
    predicted = -on_target[units] * tgt.n / (tgt.n - 1)
    assert gap(observed, predicted) <= JACKKNIFE_K / tgt.n

    # The target estimator is linear in its units once the nuisances are
    # fixed, so its jackknife variance is the plug-in variance times n/(n-1).
    config = fedruntime.ProtocolConfig(
        candidates={role: {"treatment": RAW_T, "outcome": RAW_O}
                    for role in ("target", "source")}, method="target")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedruntime, "_fit_site", lambda frame, group, seed: _fixed_fit(frame))

        def target_estimate(frame):
            transport = fedruntime.run_transport([frame], config.seed)
            return fedruntime.run_sites(transport, config.candidates).estimates[0]

        est = target_estimate(tgt)
        loo = np.array([np.subtract(*target_estimate(_without(tgt, i)).mu[::-1])
                        for i in range(tgt.n)])
    jackknife = (tgt.n - 1) / tgt.n * np.sum((loo - loo.mean()) ** 2)
    assert np.isclose(jackknife * (tgt.n - 1) / tgt.n, federation._variance([est], [1.0]),
                      rtol=1e-9, atol=0.0)
