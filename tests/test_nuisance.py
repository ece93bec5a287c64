"""Tests for the candidate nuisance models and risk-weighted mixing."""

import math

import numpy as np
import pytest

from fedcausal.errors import CandidateFitWarning, TooFewUnits
from fedcausal.numkit import LinearFit, expit
from fedcausal.nuisance import (
    DEFAULT_CLIP,
    CandidateSpec,
    FeatureMap,
    FittedCandidate,
    MixedModel,
    NuisanceFit,
    default_kappa,
    fit_nuisances,
    kang_schafer,
    mix_outcome,
    mix_propensity,
    predict,
    split_data,
)


def test_kang_schafer_hand_values():
    z = kang_schafer(np.zeros((1, 4)))
    assert np.allclose(z[0], [1.0, 10.0, 0.216, 400.0], atol=1e-12)
    z = kang_schafer(np.array([[2.0, 0.0, 0.0, 0.0]]))
    assert np.allclose(z[0], [math.e, 10.0, 0.216, 400.0], atol=1e-12)
    with pytest.raises(ValueError):
        kang_schafer(np.zeros((3, 3)))


def test_feature_maps():
    X = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(FeatureMap("raw").apply(X), X)
    assert np.array_equal(FeatureMap("subset", (3, 1)).apply(X), X[:, [3, 1]])
    assert np.array_equal(FeatureMap("kangschafer").apply(X), kang_schafer(X))
    with pytest.raises(ValueError):
        FeatureMap("subset").apply(X)
    with pytest.raises(ValueError):
        FeatureMap("pca").apply(X)


def test_candidate_spec_round_trip():
    spec = CandidateSpec("m1", "outcome", FeatureMap("subset", (0, 2)))
    back = CandidateSpec.from_dict(spec.to_dict())
    assert back == spec
    spec = CandidateSpec("p1", "treatment", FeatureMap("raw"))
    assert CandidateSpec.from_dict(spec.to_dict()) == spec


def test_split_data_deterministic_partition():
    tr1, va1 = split_data(100, seed=3)
    tr2, va2 = split_data(100, seed=3)
    assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
    assert len(tr1) == 50 and len(va1) == 50
    assert sorted(np.concatenate([tr1, va1])) == list(range(100))
    tr3, _ = split_data(100, seed=4)
    assert not np.array_equal(tr1, tr3)


def test_split_data_floors():
    with pytest.raises(TooFewUnits):
        split_data(1, seed=0)
    tr, va = split_data(7, seed=0)
    assert len(tr) == 3 and len(va) == 4


def test_default_kappa():
    assert default_kappa(1) == 1
    assert default_kappa(2) == 1
    assert default_kappa(8) == 2
    assert default_kappa(25) == 3


def _sim_binary(rng, n=2000):
    X = rng.standard_normal((n, 3))
    X[:, 2] = rng.standard_normal(n)  # pure noise column
    p = expit(0.8 * X[:, 0] - 1.2 * X[:, 1])
    a = (rng.random(n) < p).astype(int)
    return X, a


def test_mix_propensity_single_and_symmetry():
    rng = np.random.default_rng(0)
    X, a = _sim_binary(rng)
    raw = CandidateSpec("only", "treatment", FeatureMap("subset", (0, 1)))
    model = mix_propensity(X, a, [raw], seed=1)
    assert np.array_equal(model.weights, [1.0])

    twin = CandidateSpec("twin", "treatment", FeatureMap("subset", (0, 1)))
    model = mix_propensity(X, a, [raw, twin], seed=1)
    assert np.array_equal(model.weights, [0.5, 0.5])


def test_mix_propensity_risk_dominance():
    rng = np.random.default_rng(1)
    X, a = _sim_binary(rng)
    good = CandidateSpec("good", "treatment", FeatureMap("subset", (0, 1)))
    noise = CandidateSpec("noise", "treatment", FeatureMap("subset", (2,)))
    model = mix_propensity(X, a, [good, noise], seed=2)
    assert model.weights[0] > 0.9
    # Permuting the candidate list permutes the weights.
    flipped = mix_propensity(X, a, [noise, good], seed=2)
    assert np.array_equal(flipped.weights, model.weights[::-1])


def test_mix_outcome_risk_dominance():
    rng = np.random.default_rng(2)
    X, a = _sim_binary(rng)
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * a + rng.standard_normal(len(a))
    good = CandidateSpec("good", "outcome", FeatureMap("subset", (0, 1)))
    noise = CandidateSpec("noise", "outcome", FeatureMap("subset", (2,)))
    model = mix_outcome(X, y, a, 1, [good, noise], seed=3)
    assert model.weights[0] > 0.9


def test_mix_outcome_too_few_units():
    X = np.zeros((10, 2))
    y = np.zeros(10)
    a = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    spec = CandidateSpec("m", "outcome", FeatureMap("raw"))
    with pytest.raises(TooFewUnits):
        mix_outcome(X, y, a, 1, [spec], seed=0)


def test_mix_outcome_log_space_no_overflow():
    # One candidate is off by a thousand; the cumulative squared-error scores
    # are around -1e6 per unit and must still give finite simplex weights.
    rng = np.random.default_rng(3)
    n = 500
    X = rng.standard_normal((n, 2))
    y = X[:, 0] + rng.standard_normal(n)
    a = np.ones(n, dtype=int)
    good = CandidateSpec("good", "outcome", FeatureMap("subset", (0,)))
    awful = CandidateSpec("awful", "outcome", FeatureMap("subset", (1,)))
    y_shifted = y.copy()
    model = mix_outcome(X, y_shifted + 1000.0 * X[:, 1], a, 1, [good, awful], seed=4)
    assert np.all(np.isfinite(model.weights))
    assert abs(model.weights.sum() - 1.0) < 1e-12
    assert np.all(model.weights >= 0.0)


def test_failed_candidate_gets_zero_weight():
    rng = np.random.default_rng(4)
    n = 400
    X = rng.standard_normal((n, 3))
    X[:, 2] = 1.0  # constant column duplicates the intercept
    y = X[:, 0] + rng.standard_normal(n)
    a = np.ones(n, dtype=int)
    ok = CandidateSpec("ok", "outcome", FeatureMap("subset", (0, 1)))
    broken = CandidateSpec("broken", "outcome", FeatureMap("subset", (2,)))
    with pytest.warns(CandidateFitWarning):
        model = mix_outcome(X, y, a, 1, [ok, broken], seed=5)
    assert model.weights[1] == 0.0
    assert model.weights[0] == 1.0
    assert model.candidates[1].fit is None


def _constant_model(coefficients):
    spec = CandidateSpec("c", "outcome", FeatureMap("raw"))
    cand = FittedCandidate(spec=spec, fit=LinearFit(np.asarray(coefficients, float)))
    return MixedModel(candidates=(cand,), weights=np.array([1.0]))


def test_predict_propensity_identities():
    X = np.random.default_rng(5).standard_normal((20, 2))
    flat = _constant_model([0.0, 0.0, 0.0])
    fit = NuisanceFit(pi=flat, m1=flat, m0=flat)
    (p0, p1), _, clipped = predict(fit, X)
    assert np.all(p1 == 0.5)
    assert np.allclose(p1 + p0, 1.0, atol=1e-15)
    assert not clipped

    steep = _constant_model([50.0, 0.0, 0.0])
    fit = NuisanceFit(pi=steep, m1=flat, m0=flat)
    pi, _, clipped = predict(fit, X)
    assert np.all(pi[1] == 0.99)
    assert np.all(pi[0] == 0.01)
    assert clipped


def test_mixture_prediction_is_weighted_sum():
    X = np.random.default_rng(6).standard_normal((15, 2))
    spec = CandidateSpec("c", "treatment", FeatureMap("raw"))
    c1 = FittedCandidate(spec=spec, fit=LinearFit(np.array([0.2, 1.0, 0.0])))
    c2 = FittedCandidate(spec=spec, fit=LinearFit(np.array([-0.5, 0.0, 2.0])))
    mix = MixedModel(candidates=(c1, c2), weights=np.array([0.3, 0.7]))
    expected = 0.3 * c1.predict_probability(X) + 0.7 * c2.predict_probability(X)
    assert np.allclose(mix.predict_probability(X), expected, atol=1e-15)


def test_predict_outcome_constant_fit():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 2))
    y = np.full(40, 3.25)
    a = np.ones(40, dtype=int)
    spec = CandidateSpec("c", "outcome", FeatureMap("raw"))
    model = mix_outcome(X, y, a, 1, [spec], seed=8)
    fit = NuisanceFit(pi=_constant_model([0.0, 0.0, 0.0]), m1=model, m0=model)
    _, m, _ = predict(fit, X)
    assert np.allclose(m[1], 3.25, atol=1e-9)


def test_fit_nuisances_bundle():
    rng = np.random.default_rng(8)
    X, a = _sim_binary(rng, n=600)
    y = X[:, 0] + a + rng.standard_normal(600)
    t_spec = [CandidateSpec("p", "treatment", FeatureMap("raw"))]
    o_spec = [CandidateSpec("m", "outcome", FeatureMap("raw"))]
    fit = fit_nuisances(X, y, a, t_spec, o_spec, seed=9)
    pi, m, _ = predict(fit, X)
    assert np.all((pi[1] >= DEFAULT_CLIP[0]) & (pi[1] <= DEFAULT_CLIP[1]))
    # Outcome mixtures are fit per arm, so the effect lands in the contrast.
    gap = m[1] - m[0]
    assert abs(gap.mean() - 1.0) < 0.3
