"""Tests for the federated combination of site estimates."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from fedcausal import federation
from fedcausal.errors import MissingTarget, TooManySources, ZeroVariance
from fedcausal.federation import (
    ADAPTIVE_METHODS,
    ALPHA,
    LAMBDA_GRID,
    MAX_SOURCES,
    _cv_systems,
    _stacked_system,
    combine_fixed,
    cross_validate_lambda,
    global_estimate,
)
from fedcausal.fedruntime import run_round, run_sites, run_transport
from fedcausal.numkit import nnls_coordinate_descent
from fedcausal.simbench import load_scenario, method_config, rep_config_seed, replication_frames
from fedcausal.site_estimator import CV_SPLITS, OwnSummary, SiteEstimate, split_masks


def _contributions(rng, n, scale=1.0):
    """Centered effect-difference influence values divided by n."""
    d = scale * rng.standard_normal(n)
    return (d - d.mean()) / n


def _target_estimate(rng, n=400, mu=(1.0, 2.0)):
    return SiteEstimate(site_id="tgt", mu=mu, on_target=_contributions(rng, n), n_k=n)


def _source_estimate(rng, site_id, n_k=300, n_T=400, mu=(1.0, 2.0), scale=1.0, seed=0):
    own = OwnSummary.of(_contributions(rng, n_k, scale), split_masks(n_k, seed, site_id))
    return SiteEstimate(site_id=site_id, mu=mu, on_target=_contributions(rng, n_T, scale),
                        n_k=n_k, own=own)


def _trio(seed=0, mu_src=(1.0, 2.0)):
    rng = np.random.default_rng(seed)
    return [
        _target_estimate(rng),
        _source_estimate(rng, "s1", mu=mu_src),
        _source_estimate(rng, "s2", n_k=600, mu=mu_src),
    ]


def test_z_quantile_against_scipy():
    # The CI half-width is the normal quantile at the protocol level times
    # the standard error.
    estimates = _trio()
    sol = combine_fixed(estimates, "ss")
    report = global_estimate(estimates, sol, "ss")
    half = 0.5 * (report.ci[1] - report.ci[0])
    expected = stats.norm.ppf(1.0 - ALPHA / 2.0) * math.sqrt(report.variance)
    assert abs(half - expected) < 1e-9
    assert json.loads(report.to_json())["alpha"] == ALPHA == 0.05


def test_combine_target_only():
    sol = combine_fixed(_trio(), "target")
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
    s2 = SiteEstimate(site_id="s2", mu=s1.mu, on_target=s1.on_target.copy(),
                      n_k=s1.n_k, own=s1.own)
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
    flat = SiteEstimate(site_id="flat", mu=(1.0, 2.0), on_target=np.zeros(400),
                        n_k=100, own=OwnSummary(0.0, np.zeros(5)))
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
    with pytest.raises(MissingTarget):  # the target must come first
        combine_fixed([_source_estimate(rng, "s1"), _target_estimate(rng)], "ss")


def test_lambda_grid_increases_strictly_from_zero():
    # The one-standard-error rule picks the last grid index within its
    # cutoff, which is the largest penalty only on an increasing grid.
    assert LAMBDA_GRID[0] == 0.0
    assert all(a < b for a, b in zip(LAMBDA_GRID, LAMBDA_GRID[1:]))


def test_huge_lambda_gives_target_only(monkeypatch):
    # Sources whose means differ from the target's carry positive penalty
    # weight, so an enormous lambda shuts them off exactly.
    monkeypatch.setattr(federation, "LAMBDA_GRID", (1e12,))
    estimates = _trio(mu_src=(1.5, 2.5))
    eta = cross_validate_lambda(estimates).eta
    assert np.array_equal(eta, [1.0, 0.0, 0.0])


def test_solve_l1_weights_simplex(monkeypatch):
    for lam in (0.0, 1e-3, 0.1, 1.0):
        monkeypatch.setattr(federation, "LAMBDA_GRID", (lam,))
        eta = cross_validate_lambda(_trio()).eta
        assert np.all(eta >= 0.0)
        assert abs(eta.sum() - 1.0) < 1e-12


def test_cross_validate_lambda_deterministic():
    estimates = _trio(seed=5)
    sol1 = cross_validate_lambda(estimates, seed=11)
    sol2 = cross_validate_lambda(estimates, seed=11)
    assert sol1.lambda_ == sol2.lambda_
    assert np.array_equal(sol1.eta, sol2.eta)
    assert sol1.lambda_ in sol1.cv_trace["lambda"]
    assert len(sol1.cv_trace["mean_validation_error"]) == len(sol1.cv_trace["lambda"])


def test_cross_validate_lambda_checks_split_count():
    # A source that summarizes fewer splits than the protocol's CV_SPLITS.
    estimates = _trio()
    own = estimates[1].own
    short = OwnSummary(own.sq, own.fit_sq[:-1])
    estimates[1] = dataclasses.replace(estimates[1], own=short)
    with pytest.raises(ValueError):
        cross_validate_lambda(estimates)


def _squared_error(products, eta):
    """||r - G eta||^2 from cross-products: r'r - 2 eta'G'r + eta'G'G eta."""
    gram, gtr, rtr = products
    return rtr - 2.0 * float(eta @ gtr) + float(eta @ gram @ eta)


def _reference_cross_validation(estimates, seed):
    """The loop that ``cross_validate_lambda`` batches: one solve and one score
    per (split, penalty) pair, then the one-standard-error choice and the
    refit. Returns the penalty, the site weights and the mean CV errors."""
    r_T, G_T, own_sq, arm_shift_sq = _stacked_system(estimates)
    gram, gtr, rtr = _cv_systems(estimates, r_T, G_T, own_sq, seed)
    errors = np.zeros((CV_SPLITS, len(LAMBDA_GRID)))
    for s in range(CV_SPLITS):
        val = (gram[-1] - gram[s], gtr[-1] - gtr[s], rtr[-1] - rtr[s])
        for j, lam in enumerate(LAMBDA_GRID):
            eta_src = nnls_coordinate_descent(gram[s], gtr[s], lam * arm_shift_sq)
            errors[s, j] = _squared_error(val, eta_src)
    mean_err = errors.mean(axis=0)
    se_err = errors.std(axis=0, ddof=1) / math.sqrt(CV_SPLITS)
    min_j = int(np.argmin(mean_err))
    lam = LAMBDA_GRID[np.flatnonzero(mean_err <= mean_err[min_j] + se_err[min_j])[-1]]
    eta_src = nnls_coordinate_descent(gram[-1], gtr[-1], lam * arm_shift_sq)
    total = eta_src.sum()
    if total > 1.0:
        eta_src = eta_src / total
        total = 1.0
    return lam, np.concatenate(([1.0 - total], eta_src)), mean_err


@pytest.mark.parametrize("preset", ["c1", "c0", "mismatch"])
def test_cross_validate_lambda_matches_the_per_split_loop(preset):
    scenario = load_scenario(preset)
    for rep in range(3):
        frames = replication_frames(scenario, 17, rep)
        for method in ADAPTIVE_METHODS:
            config = method_config(method, scenario, seed=rep_config_seed(17, rep))
            estimates = run_sites(run_transport(frames, config.seed), config).estimates
            assert len(estimates) > 2
            solution = cross_validate_lambda(estimates, seed=config.seed)
            lam, eta, mean_err = _reference_cross_validation(estimates, config.seed)
            assert solution.lambda_ == lam
            assert np.array_equal(solution.eta, eta)
            assert np.allclose(solution.cv_trace["mean_validation_error"], mean_err,
                               rtol=1e-12, atol=0.0)


def test_an_adaptive_round_makes_one_solver_call(monkeypatch):
    # One batched call fits every (split, penalty) pair and refits every
    # penalty on all rows.
    shapes = []

    def counted(*args):
        eta = nnls_coordinate_descent(*args)
        shapes.append(eta.shape)
        return eta

    monkeypatch.setattr(federation, "nnls_coordinate_descent", counted)
    scenario = load_scenario("c1")
    frames = replication_frames(scenario, 17, 0)
    report = run_round(frames, method_config("aipw_l1", scenario, seed=rep_config_seed(17, 0)))
    K = len(frames) - 1
    assert report.diagnostics["n_sources_used"] == K
    assert shapes == [(CV_SPLITS + 1, len(LAMBDA_GRID), K)]


def test_adaptive_weights_take_at_most_max_sources():
    # The weight solve's cost doubles with each source, so an adaptive round
    # over more than MAX_SOURCES sources fails; fixed schemes still combine.
    rng = np.random.default_rng(8)
    estimates = [_target_estimate(rng)] + [
        _source_estimate(rng, f"s{k}") for k in range(MAX_SOURCES + 1)]
    with pytest.raises(TooManySources, match=f"at most {MAX_SOURCES} sources, got 11"):
        cross_validate_lambda(estimates)
    sol = combine_fixed(estimates, "ivw")
    assert sol.eta.shape == (MAX_SOURCES + 2,)
    assert math.isclose(sol.eta.sum(), 1.0)
    # At the limit the adaptive weights are still solved.
    assert len(cross_validate_lambda(estimates[:-1]).eta) == MAX_SOURCES + 1


def test_adaptive_ensemble_target_alone():
    rng = np.random.default_rng(6)
    sol = cross_validate_lambda([_target_estimate(rng)])
    assert np.array_equal(sol.eta, [1.0])


def test_adaptive_ensemble_duplicated_source():
    rng = np.random.default_rng(7)
    tgt = _target_estimate(rng)
    s1 = _source_estimate(rng, "s1")
    s1b = SiteEstimate(site_id="s1b", mu=s1.mu, on_target=s1.on_target.copy(),
                       n_k=s1.n_k, own=s1.own)
    sol = cross_validate_lambda([tgt, s1, s1b])
    assert np.all(sol.eta >= 0.0)
    assert abs(sol.eta.sum() - 1.0) < 1e-12


def test_global_estimate_target_only_hand_computation():
    rng = np.random.default_rng(8)
    tgt = _target_estimate(rng, n=400, mu=(1.0, 2.5))
    sol = combine_fixed([tgt], "target")
    report = global_estimate([tgt], sol, "target")
    assert abs(report.delta_hat - 1.5) < 1e-12
    xi_d = tgt.on_target * 400  # the centered influence values
    expected_var = float(np.sum(xi_d**2)) / 400**2
    assert abs(report.variance - expected_var) < 1e-15
    half = 1.959963984540054 * math.sqrt(expected_var)
    assert abs((report.ci[1] - report.ci[0]) / 2.0 - half) < 1e-9
    assert report.ci[0] < report.delta_hat < report.ci[1]


def test_global_estimate_weighted_mean():
    estimates = _trio(mu_src=(1.2, 2.6))
    sol = combine_fixed(estimates, "ss")
    report = global_estimate(estimates, sol, "ss")
    w_src = sol.eta[1] + sol.eta[2]
    expected = (1.0 - w_src) * (2.0 - 1.0) + w_src * (2.6 - 1.2)
    assert abs(report.delta_hat - expected) < 1e-12
    assert [p["site_id"] for p in report.per_site] == ["tgt", "s1", "s2"]
    assert abs(sum(p["eta"] for p in report.per_site) - 1.0) < 1e-12


def test_global_report_json():
    estimates = _trio()
    sol = combine_fixed(estimates, "ivw")
    report = global_estimate(estimates, sol, "ivw")
    obj = json.loads(report.to_json())
    assert obj["method"] == "ivw"
    assert obj["eta"] == dict(zip(["tgt", "s1", "s2"], sol.eta.tolist()))
    assert obj["ci"][0] < obj["delta_hat"] < obj["ci"][1]


def _rel_close(a, b, tol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * max(np.max(np.abs(b)), 1e-300)))


def test_summary_algebra_matches_per_unit_formulas():
    """Oracle: every coordinator quantity built from the uploaded sums equals
    the per-unit formula it replaces, on random centered influence values.

    The IVW and global-variance oracles are written in the pooled scale
    (site probabilities n_k / N, influence values d = n * contribution), which
    the per-site contributions make an identity."""
    seed = 3
    shifts_exceeding = []
    for trial in range(20):
        rng = np.random.default_rng((trial, 41))
        n_T = int(rng.integers(20, 200))
        tgt = _target_estimate(rng, n=n_T, mu=tuple(rng.normal(size=2)))
        sources, own_units = [], []
        for k in range(int(rng.integers(1, 4))):
            n_k = int(rng.integers(20, 300))
            own = _contributions(rng, n_k, scale=float(rng.uniform(0.5, 3.0)))
            own_units.append(own * n_k)
            # Arm means near the target's or far from them, so that some
            # shifts fall inside their threshold and some exceed it.
            shift = rng.normal(size=2) * rng.choice([0.01, 1.0])
            sources.append(SiteEstimate(
                site_id=f"s{k}", mu=tuple(np.add(tgt.mu, shift)),
                on_target=_contributions(rng, n_T), n_k=n_k,
                own=OwnSummary.of(own, split_masks(n_k, seed + k, f"s{k}"))))
        estimates = [tgt] + sources
        N = n_T + sum(e.n_k for e in sources)
        d_T = [e.on_target * n_T for e in estimates]

        # IVW: per-site variance from the per-unit values.
        sigma2 = [np.sum((d_T[0] * N / n_T) ** 2) / N**2] + [
            (np.sum((d * N / e.n_k) ** 2) + np.sum((d_T[i + 1] * N / n_T) ** 2)) / N**2
            for i, (e, d) in enumerate(zip(sources, own_units))]
        inv = 1.0 / np.array(sigma2)
        ivw = combine_fixed(estimates, "ivw")
        assert _rel_close(ivw.eta, inv / inv.sum())

        # Global variance: target-unit mix plus each source's own-unit part.
        eta = ivw.eta
        target_contrib = sum(eta[i] * d_T[i] * N / n_T for i in range(len(estimates)))
        source_sq = sum(np.sum((eta[i + 1] * d * N / e.n_k) ** 2)
                        for i, (e, d) in enumerate(zip(sources, own_units)))
        expected = (np.sum(target_contrib**2) + source_sq) / N**2
        assert _rel_close(global_estimate(estimates, ivw, "ivw").variance, expected)

        # Stacked system: target rows of column k are xi_T - on_k less the
        # shift delta_k soft-thresholded at twice the per-unit SD of delta_k,
        # over sqrt(n_T).
        r_T, G_T, own_sq, *_ = _stacked_system(estimates)
        delta = [(e.mu[1] - e.mu[0]) - (tgt.mu[1] - tgt.mu[0]) for e in estimates]
        for k, (e, d) in enumerate(zip(sources, own_units), 1):
            sd = math.sqrt(np.sum((d_T[k] - d_T[0]) ** 2) / n_T**2 + np.sum(d**2) / e.n_k**2)
            shrunk = np.sign(delta[k]) * max(abs(delta[k]) - 2.0 * sd, 0.0)
            shifts_exceeding.append(shrunk != 0.0)
            expected = (d_T[0] - d_T[k]) / n_T - shrunk / math.sqrt(n_T)
            assert _rel_close(G_T[:, k - 1], expected)
        assert _rel_close(r_T, d_T[0] / n_T)

        # Source k's per-unit rows are -d_k / n_k in column k.
        systems = _cv_systems(estimates, r_T, G_T, own_sq, seed)
        assert [len(x) for x in systems] == [CV_SPLITS + 1] * 3
        whole = tuple(x[-1] for x in systems)

        def per_unit_rows(target_units, source_units):
            blocks = [G_T[target_units]]
            for col, (e, d) in enumerate(zip(sources, own_units)):
                block = np.zeros((int(source_units[col].sum()), len(sources)))
                block[:, col] = -d[source_units[col]] / e.n_k
                blocks.append(block)
            r = np.concatenate([r_T[target_units]] + [np.zeros(len(b)) for b in blocks[1:]])
            return np.vstack(blocks), r

        def same_cross_products(products, unit_rows):
            (gram, gtr, rtr), (G_u, r_u) = products, unit_rows
            return (_rel_close(gram, G_u.T @ G_u) and _rel_close(gtr, G_u.T @ r_u)
                    and _rel_close(rtr, r_u @ r_u))

        everything = np.ones(n_T, dtype=bool)
        all_units = [np.ones(e.n_k, dtype=bool) for e in sources]
        assert same_cross_products(whole, per_unit_rows(everything, all_units))

        # Per split: explicit fold masks at every site, fixed weights.
        fold_T = split_masks(n_T, seed, "tgt")
        folds = [split_masks(e.n_k, seed + k, e.site_id)
                 for k, e in enumerate(sources)]
        eta_src = rng.uniform(0.0, 0.5, len(sources))
        for s in range(CV_SPLITS):
            fit = tuple(x[s] for x in systems)
            val = tuple(all_rows - part for all_rows, part in zip(whole, fit))
            unit_fit = per_unit_rows(fold_T[s], [f[s] for f in folds])
            unit_val = per_unit_rows(~fold_T[s], [~f[s] for f in folds])
            assert same_cross_products(fit, unit_fit)
            assert same_cross_products(val, unit_val)
            G_uv, r_uv = unit_val
            err = _squared_error(val, eta_src)
            assert _rel_close(err, np.sum((r_uv - G_uv @ eta_src) ** 2))
    # Both branches of the threshold were checked.
    assert any(shifts_exceeding) and not all(shifts_exceeding)
