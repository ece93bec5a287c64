"""Tests for the federated combination of site estimates."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from fedcausal.errors import MissingTarget, ZeroVariance
from fedcausal.federation import (
    EnsembleSolution,
    combine_fixed,
    cross_validate_lambda,
    global_estimate,
    solve_l1_weights,
    z_quantile,
)
from fedcausal.site_estimator import SiteEstimate


def _target_estimate(rng, n=400, mu=(1.0, 2.0)):
    xi = rng.standard_normal((2, n))
    xi -= xi.mean(axis=1, keepdims=True)
    return SiteEstimate(site_id="tgt", mu=mu, xi_own=xi,
                        xi_on_target=np.zeros((2, 0)), n_k=n, n_T=n)


def _source_estimate(rng, site_id, n_k=300, n_T=400, mu=(1.0, 2.0), scale=1.0):
    own = scale * rng.standard_normal((2, n_k))
    own -= own.mean(axis=1, keepdims=True)
    on_tgt = scale * rng.standard_normal((2, n_T))
    on_tgt -= on_tgt.mean(axis=1, keepdims=True)
    return SiteEstimate(site_id=site_id, mu=mu, xi_own=own,
                        xi_on_target=on_tgt, n_k=n_k, n_T=n_T)


def _trio(seed=0, mu_src=(1.0, 2.0)):
    rng = np.random.default_rng(seed)
    return [
        _target_estimate(rng),
        _source_estimate(rng, "s1", mu=mu_src),
        _source_estimate(rng, "s2", n_k=600, mu=mu_src),
    ]


def test_z_quantile_against_scipy():
    for p in (1e-6, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-6):
        assert abs(z_quantile(p) - stats.norm.ppf(p)) < 1e-9
    with pytest.raises(ValueError):
        z_quantile(0.0)
    with pytest.raises(ValueError):
        z_quantile(1.0)


def test_combine_target_only():
    sol = combine_fixed(_trio(), "target_only")
    assert np.array_equal(sol.eta, [1.0, 0.0, 0.0])


def test_combine_sample_size():
    sol = combine_fixed(_trio(), "ss")
    n = np.array([400.0, 300.0, 600.0])
    assert np.allclose(sol.eta, n / n.sum())


def test_combine_ivw_equal_variance_sources():
    # Two sources carrying identical influence arrays get identical weights.
    rng = np.random.default_rng(1)
    tgt = _target_estimate(rng)
    s1 = _source_estimate(rng, "s1")
    s2 = SiteEstimate(site_id="s2", mu=s1.mu, xi_own=s1.xi_own.copy(),
                      xi_on_target=s1.xi_on_target.copy(), n_k=s1.n_k, n_T=s1.n_T)
    sol = combine_fixed([tgt, s1, s2], "ivw")
    assert abs(sol.eta[1] - sol.eta[2]) < 1e-12
    assert abs(sol.eta.sum() - 1.0) < 1e-12
    assert np.all(sol.eta > 0.0)


def test_combine_ivw_downweights_noisy_site():
    rng = np.random.default_rng(2)
    tgt = _target_estimate(rng)
    quiet = _source_estimate(rng, "quiet", scale=1.0)
    noisy = _source_estimate(rng, "noisy", scale=5.0)
    sol = combine_fixed([tgt, quiet, noisy], "ivw")
    assert sol.eta[1] > 5.0 * sol.eta[2]


def test_combine_ivw_zero_variance():
    rng = np.random.default_rng(3)
    tgt = _target_estimate(rng)
    flat = SiteEstimate(site_id="flat", mu=(1.0, 2.0), xi_own=np.zeros((2, 100)),
                        xi_on_target=np.zeros((2, 400)), n_k=100, n_T=400)
    with pytest.raises(ZeroVariance):
        combine_fixed([tgt, flat], "ivw")


def test_combine_validation():
    with pytest.raises(ValueError):
        combine_fixed(_trio(), "equal")
    rng = np.random.default_rng(4)
    with pytest.raises(MissingTarget):
        combine_fixed([_source_estimate(rng, "s1")], "ss")
    with pytest.raises(MissingTarget):
        combine_fixed([_target_estimate(rng), _target_estimate(rng)], "ss")


def test_huge_lambda_gives_target_only():
    # Sources whose means differ from the target's carry positive penalty
    # weight, so an enormous lambda shuts them off exactly.
    estimates = _trio(mu_src=(1.5, 2.5))
    eta = solve_l1_weights(estimates, 1e12)
    assert np.array_equal(eta, [1.0, 0.0, 0.0])


def test_solve_l1_weights_simplex():
    for lam in (0.0, 1e-3, 0.1, 1.0):
        eta = solve_l1_weights(_trio(), lam)
        assert np.all(eta >= 0.0)
        assert abs(eta.sum() - 1.0) < 1e-12


def test_cross_validate_lambda_deterministic():
    estimates = _trio(seed=5)
    sol1 = cross_validate_lambda(estimates, seed=11)
    sol2 = cross_validate_lambda(estimates, seed=11)
    assert sol1.lambda_ == sol2.lambda_
    assert np.array_equal(sol1.eta, sol2.eta)
    assert sol1.method == "adaptive_l1"
    assert sol1.lambda_ in sol1.cv_trace["lambda"]
    assert len(sol1.cv_trace["mean_validation_error"]) == len(sol1.cv_trace["lambda"])
    assert sol1.delta is not None and sol1.delta[0] == 0.0


def test_cross_validate_lambda_empty_grid():
    with pytest.raises(ValueError):
        cross_validate_lambda(_trio(), grid=())


def test_adaptive_ensemble_target_alone():
    rng = np.random.default_rng(6)
    sol = cross_validate_lambda([_target_estimate(rng)])
    assert np.array_equal(sol.eta, [1.0])


def test_adaptive_ensemble_duplicated_source():
    rng = np.random.default_rng(7)
    tgt = _target_estimate(rng)
    s1 = _source_estimate(rng, "s1")
    s1b = SiteEstimate(site_id="s1b", mu=s1.mu, xi_own=s1.xi_own.copy(),
                       xi_on_target=s1.xi_on_target.copy(), n_k=s1.n_k, n_T=s1.n_T)
    sol = cross_validate_lambda([tgt, s1, s1b])
    assert np.all(sol.eta >= 0.0)
    assert abs(sol.eta.sum() - 1.0) < 1e-12


def test_global_estimate_target_only_hand_computation():
    rng = np.random.default_rng(8)
    tgt = _target_estimate(rng, n=400, mu=(1.0, 2.5))
    sol = combine_fixed([tgt], "target_only")
    report = global_estimate([tgt], sol, alpha=0.05)
    assert abs(report.delta_hat - 1.5) < 1e-12
    xi_d = tgt.xi_own[1] - tgt.xi_own[0]
    expected_var = float(np.sum(xi_d**2)) / 400**2
    assert abs(report.variance - expected_var) < 1e-15
    half = 1.959963984540054 * math.sqrt(expected_var)
    assert abs((report.ci[1] - report.ci[0]) / 2.0 - half) < 1e-9
    assert report.ci[0] < report.delta_hat < report.ci[1]


def test_global_estimate_weighted_mean():
    estimates = _trio(mu_src=(1.2, 2.6))
    sol = combine_fixed(estimates, "ss")
    report = global_estimate(estimates, sol)
    w_src = sol.eta[1] + sol.eta[2]
    expected = (1.0 - w_src) * (2.0 - 1.0) + w_src * (2.6 - 1.2)
    assert abs(report.delta_hat - expected) < 1e-12
    assert [p["site_id"] for p in report.per_site] == ["tgt", "s1", "s2"]
    assert abs(sum(p["eta"] for p in report.per_site) - 1.0) < 1e-12


def test_global_estimate_alpha_validation():
    estimates = _trio()
    sol = combine_fixed(estimates, "ss")
    with pytest.raises(ValueError):
        global_estimate(estimates, sol, alpha=1.5)


def test_global_report_json():
    estimates = _trio()
    sol = combine_fixed(estimates, "ivw")
    report = global_estimate(estimates, sol, method="ivw")
    obj = json.loads(report.to_json())
    assert obj["method"] == "ivw"
    assert set(obj["eta"]) == {"tgt", "s1", "s2"}
    assert obj["ci"][0] < obj["delta_hat"] < obj["ci"][1]
