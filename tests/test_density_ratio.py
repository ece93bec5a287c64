"""Tests for the exponential-tilt density-ratio model."""

import json

import numpy as np
import pytest

from fedcausal import density_ratio
from fedcausal.density_ratio import (
    MomentSummary,
    solve_tilt,
    target_moments,
    truncate_weights,
)
from fedcausal.errors import ExtremeWeightsWarning, MissingColumns, TooFewUnits
from fedcausal.numkit import add_intercept, newton_solve


def test_basis_expand_linear():
    # The tilt basis is (1, V): the ratio is exp(-(g0 + g1 V1 + g2 V2)), and
    # the Jacobian is the ratio-weighted mean of psi psi'.
    rng = np.random.default_rng(1)
    V = rng.standard_normal((40, 2))
    tilt = solve_tilt(V, target_moments(V + 0.3))
    g = tilt.gamma
    expected = np.exp(-(g[0] + g[1] * V[:, 0] + g[2] * V[:, 1]))
    assert np.allclose(tilt.weights, expected, rtol=1e-12, atol=0.0)
    psi = add_intercept(V)
    assert np.array_equal(tilt.jacobian, (psi * tilt.weights[:, None]).T @ psi / len(V))


@pytest.mark.parametrize("n", [7, 10_000])
def test_tilt_weights_are_bitwise_the_out_of_place_formula(n):
    # n = 1 is below every basis dimension, so no tilt solves there.
    rng = np.random.default_rng(n)
    V = rng.standard_normal((n, 2))
    tilt = solve_tilt(V, target_moments(V[: max(2, n // 2)] + 0.1))
    assert np.array_equal(tilt.weights, np.exp(-tilt.basis @ tilt.gamma))


def test_target_moments_values():
    V = np.array([[1.0, 3.0], [3.0, 5.0]])
    summary = target_moments(V)
    assert np.allclose(summary.mean_v, [2.0, 4.0])
    with pytest.raises(TooFewUnits):
        target_moments(np.zeros((0, 2)))


def test_summaries_of_different_targets_differ_in_every_entry():
    # The summary holds only what a source cannot derive: no entry, such as
    # the mean of psi's constant column, is the same for every target sample.
    rng = np.random.default_rng(12)
    first, second = (target_moments(rng.standard_normal((50, 3))).mean_v for _ in range(2))
    assert len(first) == len(second) == 3
    assert np.all(first != second)


def test_moment_summary_json_round_trip():
    summary = target_moments(np.random.default_rng(0).standard_normal((10, 3)))
    text = summary.to_json()
    assert json.loads(text).keys() == {"mean_v"}
    assert len(json.loads(text)["mean_v"]) == 3
    back = MomentSummary.from_json(text)
    assert np.array_equal(back.mean_v, summary.mean_v)


def test_solve_tilt_matches_moments_on_random_shifts():
    # 100 random shifted-Gaussian source/target pairs; the fitted weights must
    # reproduce the target basis means essentially exactly.
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = rng.integers(1, 4)
        n = int(rng.integers(200, 500))
        V_src = rng.standard_normal((n, d))
        shift = rng.uniform(-0.8, 0.8, d)
        V_tgt = rng.standard_normal((400, d)) + shift
        summary = target_moments(V_tgt)
        tilt = solve_tilt(V_src, summary)
        assert tilt.residual_norm < 1e-8
        zeta = tilt.weights
        assert np.all(zeta > 0.0)
        # First basis element is the constant 1, so the weights average to 1.
        assert abs(zeta.mean() - 1.0) < 1e-8
        weighted = (add_intercept(V_src) * zeta[:, None]).mean(axis=0)
        assert np.max(np.abs(weighted - tilt.target_mean)) < 1e-8
        assert np.array_equal(tilt.target_mean, np.concatenate(([1.0], summary.mean_v)))


def _tilt_with_separate_closures(V, summary):
    """The tilt solve with a residual and a Jacobian that each weight the
    basis afresh; returns gamma, the residual norm, the weights and the
    Jacobian at gamma."""
    psi = add_intercept(V)

    def residual(gamma):
        return (np.concatenate(([1.0], summary.mean_v))
                - psi.T @ np.exp(-psi @ gamma) / len(psi))

    def jacobian(gamma):
        return (psi * np.exp(-psi @ gamma)[:, None]).T @ psi / len(psi)

    gamma = newton_solve(residual, jacobian, np.zeros(psi.shape[1]))
    return (gamma, float(np.max(np.abs(residual(gamma)))), np.exp(-psi @ gamma),
            jacobian(gamma))


def _assert_tilts_are_bitwise(reference, seed):
    """solve_tilt's gamma, residual norm, weights and Jacobian equal those of
    ``reference`` on 30 random source/target pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(30):
        d = rng.integers(1, 4)
        V_src = rng.standard_normal((int(rng.integers(50, 400)), d))
        summary = target_moments(rng.standard_normal((300, d)) + rng.uniform(-1.0, 1.0, d))
        gamma, residual_norm, weights, B = reference(V_src, summary)
        tilt = solve_tilt(V_src, summary)
        assert np.array_equal(tilt.gamma, gamma)
        assert tilt.residual_norm == residual_norm
        assert np.array_equal(tilt.weights, weights)
        assert np.array_equal(tilt.jacobian, B)


def test_solve_tilt_equals_separate_residual_and_jacobian():
    _assert_tilts_are_bitwise(_tilt_with_separate_closures, 43)


def _tilt_with_an_equality_memo(V, summary):
    """The tilt solve whose residual memo compares each trial gamma by value;
    returns gamma, the residual norm, the weights and the Jacobian at gamma."""
    psi = add_intercept(V)
    n_k = len(psi)
    tgt = np.concatenate(([1.0], summary.mean_v))
    last = {}

    def residual(gamma):
        if not np.array_equal(last.get("gamma"), gamma):
            weights = np.exp(-(psi @ gamma))
            last.update(gamma=gamma, weights=weights, r=tgt - psi.T @ weights / n_k)
        return last["r"]

    def jacobian(gamma):
        residual(gamma)
        return (psi * last["weights"][:, None]).T @ psi / n_k

    gamma = newton_solve(residual, jacobian, np.zeros(psi.shape[1]))
    B = jacobian(gamma)
    return gamma, float(np.max(np.abs(last["r"]))), last["weights"], B


def test_solve_tilt_is_bitwise_the_equality_memo():
    # The memo keyed by the identity of the trial gamma evaluates the same
    # points as one keyed by its value.
    _assert_tilts_are_bitwise(_tilt_with_an_equality_memo, 44)


def test_tilt_basis_is_column_major(monkeypatch):
    # The tilt solve runs its per-unit sums down contiguous columns of psi,
    # whatever the layout of the covariates; the target means need no psi.
    bases = []

    def recorded(V):
        bases.append(add_intercept(V))
        return bases[-1]

    monkeypatch.setattr(density_ratio, "add_intercept", recorded)
    V = np.random.default_rng(9).standard_normal((200, 2))
    assert V.flags.c_contiguous
    solve_tilt(V, target_moments(V + 0.2))
    assert len(bases) == 1 and all(psi.flags.f_contiguous for psi in bases)


def test_solve_tilt_no_shift_is_near_identity():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((500, 2))
    summary = target_moments(V)
    tilt = solve_tilt(V, summary)
    assert np.max(np.abs(tilt.weights - 1.0)) < 1e-6


def test_solve_tilt_input_validation():
    rng = np.random.default_rng(6)
    V = rng.standard_normal((50, 2))
    summary = target_moments(V)
    with pytest.raises(TooFewUnits):
        solve_tilt(V[:2], summary)
    bad = MomentSummary(np.zeros(7))
    with pytest.raises(MissingColumns, match="7 shared covariate means"):
        solve_tilt(V, bad)


def test_truncate_weights_no_op_on_mild_weights():
    w = np.linspace(0.5, 2.0, 100)
    capped, diag = truncate_weights("s", w)
    assert np.array_equal(capped, w)
    assert diag["n_capped"] == 0
    # Nothing is capped however extreme the weights: they come back as given.
    w = np.ones(2000)
    w[0] = 1e5
    with pytest.warns(ExtremeWeightsWarning):
        capped, diag = truncate_weights("s", w)
    assert np.array_equal(capped, w)
    assert diag["n_capped"] == 0
    assert diag["max_over_mean"] == w.max() / w.mean()


def test_truncate_weights_warns_on_concentration():
    # A 0.5% cluster of huge weights is concentrated enough to trip the
    # ratio alarm.
    w = np.ones(1000)
    w[:5] = 1000.0
    with pytest.warns(ExtremeWeightsWarning, match="site s7: "):
        truncate_weights("s7", w)
