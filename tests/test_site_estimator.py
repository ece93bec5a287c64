"""Tests for the target AIPW estimate and the transported source estimates."""

import numpy as np
import pytest

from fedcausal.density_ratio import BasisSpec, TiltCoefficients, solve_tilt, target_moments
from fedcausal.errors import PositivityWarning, SingularJacobian
from fedcausal.numkit import LinearFit, expit
from fedcausal.nuisance import (
    CandidateSpec,
    FeatureMap,
    FittedCandidate,
    MixedModel,
    NuisanceFit,
    fit_nuisances,
)
from fedcausal.site_estimator import (
    SiteFrame,
    SourceSiteReport,
    complete_source_estimate,
    estimate_source,
    estimate_target,
    fit_tau,
    influence_values,
    source_influence,
    source_report,
    split_masks,
)

RAW_T = [CandidateSpec("p", "treatment", FeatureMap("raw"))]
RAW_O = [CandidateSpec("m", "outcome", FeatureMap("raw"))]


def _zero_model(d):
    spec = CandidateSpec("z", "outcome", FeatureMap("raw"))
    cand = FittedCandidate(spec=spec, fit=LinearFit(np.zeros(d + 1)))
    return MixedModel(candidates=(cand,), weights=np.array([1.0]),
                      split_seed=0, train_fraction=0.5)


def _zero_fit(d):
    # Propensity 0.5 everywhere, outcome models identically zero.
    z = _zero_model(d)
    return NuisanceFit(pi=z, m1=z, m0=z)


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


def _tilt_for(src, tgt):
    basis = BasisSpec("linear")
    return solve_tilt(src.V, target_moments(tgt.V, basis, tgt.site_id), basis)


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


def test_estimate_target_horvitz_thompson_reduction():
    rng = np.random.default_rng(1)
    n = 200
    y = rng.standard_normal(n) + 3.0
    a = rng.integers(0, 2, n)
    X = rng.standard_normal((n, 2))
    frame = SiteFrame("t", "target", y, a, X, (0, 1))
    est = estimate_target(frame, _zero_fit(2))
    for arm in (0, 1):
        expected = 2.0 * np.mean((a == arm) * y)
        assert abs(est.mu[arm] - expected) < 1e-12
    assert est.is_target and est.xi_on_target.shape == (2, n)
    assert np.max(np.abs(est.xi_on_target.mean(axis=1))) < 1e-10


def test_estimate_target_constant_outcome():
    n = 60
    a = np.tile([0, 1], 30)
    X = np.random.default_rng(2).standard_normal((n, 2))
    y = np.full(n, 7.5)
    frame = SiteFrame("t", "target", y, a, X, (0, 1))
    z = _zero_model(2)
    spec = CandidateSpec("c", "outcome", FeatureMap("raw"))
    const = MixedModel(
        candidates=(FittedCandidate(spec=spec, fit=LinearFit(np.array([7.5, 0.0, 0.0]))),),
        weights=np.array([1.0]), split_seed=0, train_fraction=0.5)
    est = estimate_target(frame, NuisanceFit(pi=z, m1=const, m0=const))
    assert est.mu == (7.5, 7.5)


def test_estimate_target_requires_target_role():
    src, tgt = _linear_pair()
    with pytest.raises(ValueError):
        estimate_target(src, _zero_fit(2))


def test_estimate_target_positivity_warning():
    rng = np.random.default_rng(3)
    n = 50
    frame = SiteFrame("t", "target", rng.standard_normal(n),
                      rng.integers(0, 2, n), rng.standard_normal((n, 1)), (0,))
    spec = CandidateSpec("p", "treatment", FeatureMap("raw"))
    steep = MixedModel(
        candidates=(FittedCandidate(spec=spec, fit=LinearFit(np.array([20.0, 0.0]))),),
        weights=np.array([1.0]), split_seed=0, train_fraction=0.5)
    fit = NuisanceFit(pi=steep, m1=_zero_model(1), m0=_zero_model(1))
    with pytest.warns(PositivityWarning):
        estimate_target(frame, fit)


def test_fit_tau_exact_on_linear_predictions():
    # The outcome model is linear in X = V, so its projection on (1, V) is itself.
    src, tgt = _linear_pair(seed=4)
    fit = fit_nuisances(src.X, src.y, src.a, RAW_T, RAW_O, seed=1)
    for arm in (0, 1):
        tau = fit_tau(src, fit, arm)
        m_hat = fit.m1.predict_mean(src.X) if arm == 1 else fit.m0.predict_mean(src.X)
        assert np.max(np.abs(tau.predict(src.V) - m_hat)) < 1e-8
    with pytest.raises(ValueError):
        fit_tau(tgt, fit, 1)


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
    fit = fit_nuisances(X, y, a, RAW_T, RAW_O, seed=2)
    tau = fit_tau(src, fit, 1)
    assert np.allclose(tau.coefficients[1:], beta[:2], atol=0.15)


def test_source_degenerate_weighted_mean_reduction():
    # zeta = 1, m = tau = 0: the transported estimate is the source's
    # inverse-probability weighted outcome mean.
    src, tgt = _linear_pair(seed=6, shift=0.0)
    tilt = TiltCoefficients(gamma=np.zeros(3), basis=BasisSpec("linear"),
                            residual_norm=0.0)
    est = estimate_source(src, tgt, _zero_fit(2), tilt)
    for arm in (0, 1):
        expected = np.mean(2.0 * (src.a == arm) * src.y)
        assert abs(est.mu[arm] - expected) < 1e-12


def test_source_no_shift_agrees_with_target():
    src, tgt = _linear_pair(seed=7, shift=0.0, n_src=2000, n_tgt=2000)
    tilt = _tilt_for(src, tgt)
    fit_s = fit_nuisances(src.X, src.y, src.a, RAW_T, RAW_O, seed=3)
    fit_t = fit_nuisances(tgt.X, tgt.y, tgt.a, RAW_T, RAW_O, seed=4)
    est_s = estimate_source(src, tgt, fit_s, tilt)
    est_t = estimate_target(tgt, fit_t)
    assert abs((est_s.mu[1] - est_s.mu[0]) - (est_t.mu[1] - est_t.mu[0])) < 0.25


def test_source_estimate_equals_report_plus_completion():
    src, tgt = _linear_pair(seed=8)
    tilt = _tilt_for(src, tgt)
    fit = fit_nuisances(src.X, src.y, src.a, RAW_T, RAW_O, seed=5)
    direct = estimate_source(src, tgt, fit, tilt, seed=2, n_splits=3)
    report = source_report(src, fit, tilt, seed=2, n_splits=3)
    wired = complete_source_estimate(SourceSiteReport.from_json(report.to_json()), tgt)
    assert direct.mu == wired.mu
    assert direct.own.sq == wired.own.sq
    assert np.array_equal(direct.own.fit_sq, wired.own.fit_sq)
    assert np.array_equal(direct.own.val_sq, wired.own.val_sq)
    assert np.array_equal(direct.xi_on_target, wired.xi_on_target)


def test_source_influence_parts_are_centered():
    src, tgt = _linear_pair(seed=9)
    tilt = _tilt_for(src, tgt)
    fit = fit_nuisances(src.X, src.y, src.a, RAW_T, RAW_O, seed=6)
    # Own-unit values are checked at the source, before they are summarized.
    report, xi_own = source_influence(src, fit, tilt, seed=4, n_splits=5)
    assert np.max(np.abs(xi_own.mean(axis=1))) < 1e-8
    assert xi_own.shape == (2, src.n)
    est = complete_source_estimate(report, tgt)
    assert np.max(np.abs(est.xi_on_target.mean(axis=1))) < 1e-8
    assert est.xi_on_target.shape == (2, tgt.n)
    # The upload summarizes exactly those values over the site's own folds.
    d = xi_own[1] - xi_own[0]
    masks = split_masks(src.n, 5, 4, src.site_id)
    assert report.own.sq == float(np.sum(d * d))
    assert np.allclose(report.own.fit_sq + report.own.val_sq, report.own.sq, rtol=1e-12)
    assert np.array_equal(report.own.fit_sq, [np.sum(d[m] ** 2) for m in masks])
    assert masks.shape == (5, src.n) and np.all(masks.sum(axis=1) == src.n // 2)


def test_source_linearity_in_outcome_scale():
    src, tgt = _linear_pair(seed=10)
    tilt = _tilt_for(src, tgt)
    fit = fit_nuisances(src.X, src.y, src.a, RAW_T, RAW_O, seed=7)
    est = estimate_source(src, tgt, fit, tilt)

    scaled = SiteFrame(src.site_id, "source", 3.0 * src.y, src.a, src.X, src.shared_cols)
    fit_scaled = fit_nuisances(scaled.X, scaled.y, scaled.a, RAW_T, RAW_O, seed=7)
    est_scaled = estimate_source(scaled, tgt, fit_scaled, tilt)
    for arm in (0, 1):
        assert abs(est_scaled.mu[arm] - 3.0 * est.mu[arm]) < 1e-9 * max(1.0, abs(est.mu[arm]))


def test_source_report_requires_source_role():
    src, tgt = _linear_pair(seed=11)
    tilt = _tilt_for(src, tgt)
    with pytest.raises(ValueError):
        source_report(tgt, _zero_fit(2), tilt)
    report = source_report(src, _zero_fit(2), tilt)
    with pytest.raises(ValueError):
        complete_source_estimate(report, src)


def test_source_report_singular_jacobian_raises():
    # V**2 equals V on a binary column, so the squares basis makes B singular.
    rng = np.random.default_rng(13)
    n = 200
    X = np.column_stack([rng.integers(0, 2, n), rng.standard_normal(n)]).astype(float)
    a = (rng.random(n) < 0.5).astype(int)
    y = 1.0 + X[:, 1] + a + rng.standard_normal(n)
    src = SiteFrame("src", "source", y, a, X, (0, 1))
    basis = BasisSpec("linear_plus_squares")
    tilt = TiltCoefficients(np.zeros(5), basis, 0.0)
    with pytest.raises(SingularJacobian):
        source_report(src, _zero_fit(2), tilt)


def test_influence_values_scaling():
    src, tgt = _linear_pair(seed=12)
    tilt = _tilt_for(src, tgt)
    est = estimate_source(src, tgt, _zero_fit(2), tilt)
    own_sq, on_tgt = influence_values(est, total_n=1300)
    assert np.isclose(own_sq, est.own.sq * (1300 / est.n_k) ** 2)
    assert np.allclose(on_tgt, est.xi_on_target * (1300 / est.n_T))
    own_sq, _ = influence_values(est)
    assert np.isclose(own_sq, est.own.sq * ((est.n_k + est.n_T) / est.n_k) ** 2)
    tgt_est = estimate_target(tgt, _zero_fit(2))
    own_sq, on_tgt = influence_values(tgt_est, total_n=1300)
    assert own_sq == 0.0
    assert np.allclose(on_tgt, tgt_est.xi_on_target * (1300 / tgt.n))


def test_site_estimate_json_round_trip():
    # The payload carries the estimate's scalars only, never per-unit values.
    import json
    src, tgt = _linear_pair(seed=13)
    for est in (estimate_source(src, tgt, _zero_fit(2), _tilt_for(src, tgt)),
                estimate_target(tgt, _zero_fit(2))):
        back = json.loads(est.to_json())
        assert (back["mu0"], back["mu1"]) == est.mu
        assert back["n_k"] == est.n_k and back["n_T"] == est.n_T
        assert back["site_id"] == est.site_id
        assert not any(isinstance(v, list) for v in back.values())


def test_source_report_json_round_trip():
    src, tgt = _linear_pair(seed=14)
    tilt = _tilt_for(src, tgt)
    fit = fit_nuisances(src.X, src.y, src.a, RAW_T, RAW_O, seed=8)
    report = source_report(src, fit, tilt)
    back = SourceSiteReport.from_json(report.to_json())
    assert back.mu_own == report.mu_own
    assert back.own.sq == report.own.sq
    assert np.array_equal(back.own.fit_sq, report.own.fit_sq)
    assert np.array_equal(back.own.val_sq, report.own.val_sq)
    for arm in (0, 1):
        assert np.array_equal(back.tau_coefficients[arm], report.tau_coefficients[arm])
        assert np.array_equal(back.tilt_sensitivity[arm], report.tilt_sensitivity[arm])
    assert back.basis_kind == report.basis_kind
