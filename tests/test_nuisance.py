"""Tests for the candidate nuisance models and risk-weighted mixing."""

import math
import re
import warnings

import numpy as np
import pytest

from fedcausal import nuisance
from fedcausal.errors import CandidateFitWarning, MissingColumns, PositivityWarning, TooFewUnits
from fedcausal.numkit import (add_intercept, expit, fit_logistic, fit_ols, standardized_design,
                              take_rows)
from fedcausal.nuisance import (
    DEFAULT_CLIP,
    MAX_COLUMNS,
    FeatureMap,
    default_kappa,
    fit_nuisances,
    kang_schafer,
    mix_outcome,
    mix_propensity,
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
    # A map that does not fit the covariates raises a fedcausal error, which
    # fails the site that holds them and not the round.
    for fm in (FeatureMap("subset", (1, 4)), FeatureMap("kangschafer")):
        with pytest.raises(MissingColumns, match=re.escape(f"feature map {fm} does not fit")):
            fm.apply(X[:, :3])
    # A map checks itself when built: a known kind and, for a subset only, a
    # non-empty tuple of distinct ints in [0, MAX_COLUMNS), so no other value
    # can ride on one.
    bad = [
        ("pca", None), ("raw", (0,)), ("kangschafer", (0, 1)), ("subset", None),
        ("subset", ()), ("subset", [0, 1]), ("subset", (0, 0)), ("subset", (-1,)),
        ("subset", (1.0,)), ("subset", (True,)), ("subset", ("0",)),
        ("subset", (MAX_COLUMNS,)),
    ]
    for kind, columns in bad:
        with pytest.raises(ValueError):
            FeatureMap(kind, columns)


def test_feature_map_round_trip():
    fm = FeatureMap("subset", (0, 2))
    assert fm.to_dict() == {"kind": "subset", "columns": [0, 2]}
    assert FeatureMap.from_dict(fm.to_dict()) == fm
    fm = FeatureMap("raw")
    assert fm.to_dict() == {"kind": "raw"}
    assert FeatureMap.from_dict(fm.to_dict()) == fm
    with pytest.raises(ValueError):
        FeatureMap.from_dict({"kind": "subset", "columns": [0.0, 2.0]})


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


def _designs(X, maps):
    return {fm: add_intercept(fm.apply(X)) for fm in maps}


def _sim_binary(rng, n=2000):
    X = rng.standard_normal((n, 3))
    X[:, 2] = rng.standard_normal(n)  # pure noise column
    p = expit(0.8 * X[:, 0] - 1.2 * X[:, 1])
    a = (rng.random(n) < p).astype(int)
    return X, a


def test_mix_propensity_single_and_symmetry():
    rng = np.random.default_rng(0)
    X, a = _sim_binary(rng)
    fm = FeatureMap("subset", (0, 1))
    weights, _ = mix_propensity("s0", _designs(X, [fm]), a, [fm], seed=1)
    assert np.array_equal(weights, [1.0])

    weights, _ = mix_propensity("s0", _designs(X, [fm]), a, [fm, fm], seed=1)
    assert np.array_equal(weights, [0.5, 0.5])


def test_mix_propensity_risk_dominance():
    rng = np.random.default_rng(1)
    X, a = _sim_binary(rng)
    good = FeatureMap("subset", (0, 1))
    noise = FeatureMap("subset", (2,))
    designs = _designs(X, [good, noise])
    weights, _ = mix_propensity("s0", designs, a, [good, noise], seed=2)
    assert weights[0] > 0.9
    # Permuting the candidate list permutes the weights.
    flipped, _ = mix_propensity("s0", designs, a, [noise, good], seed=2)
    assert np.array_equal(flipped, weights[::-1])


def test_mix_outcome_risk_dominance():
    rng = np.random.default_rng(2)
    X, a = _sim_binary(rng)
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * a + rng.standard_normal(len(a))
    good = FeatureMap("subset", (0, 1))
    noise = FeatureMap("subset", (2,))
    weights, _ = mix_outcome("s0", _designs(X, [good, noise]), y, a, 1, [good, noise], seed=3)
    assert weights[0] > 0.9


def test_mix_outcome_too_few_units():
    X = np.zeros((10, 2))
    y = np.zeros(10)
    a = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    fm = FeatureMap("raw")
    with pytest.raises(TooFewUnits):
        mix_outcome("s0", _designs(X, [fm]), y, a, 1, [fm], seed=0)


def _counted(monkeypatch, name, starts=None):
    """Replace the fitter ``name`` that the mixing routines call with one that
    records the number of rows of each fit, and in ``starts`` the start it
    was given (None for none)."""
    rows = []
    original = getattr(nuisance, name)

    def counted(X, y, **start):
        rows.append(len(y))
        if starts is not None:
            starts.append(start.get("start"))
        return original(X, y, **start)

    monkeypatch.setattr(nuisance, name, counted)
    return rows


def test_lone_candidate_is_fit_once_on_all_units(monkeypatch):
    rng = np.random.default_rng(12)
    X, a = _sim_binary(rng, n=301)
    y = X[:, 0] - X[:, 1] + a + rng.standard_normal(301)
    fm = FeatureMap("subset", (0, 1))
    design = _designs(X, [fm])[fm]

    # The propensity fit on every unit sees the design itself, and the
    # outcome fit its column-major gather of the arm's rows.
    logistic_rows = _counted(monkeypatch, "fit_logistic")
    weights, fitted = mix_propensity("s0", {fm: design}, a, [fm], seed=13)
    assert logistic_rows == [301]
    assert np.array_equal(weights, [1.0])
    assert np.array_equal(fitted, expit(design @ fit_logistic(design, a).coefficients))

    ols_rows = _counted(monkeypatch, "fit_ols")
    arm = np.flatnonzero(a == 1)
    weights, fitted = mix_outcome("s0", {fm: design}, y, a, 1, [fm], seed=13)
    assert ols_rows == [len(arm)]
    assert np.array_equal(weights, [1.0])
    assert np.array_equal(fitted, design @ fit_ols(take_rows(design, arm), y[arm]).coefficients)


def test_every_fit_runs_on_a_column_major_design(monkeypatch):
    # Every design and row gather a fit receives is column-major, whatever
    # the layout of the covariates; a lone candidate's fit on every unit
    # receives the design itself.
    rng = np.random.default_rng(20)
    X, a = _sim_binary(rng, n=301)
    X = np.column_stack([X, rng.standard_normal(301)])  # C-order, 4 columns
    y = X[:, 0] + a + rng.standard_normal(301)
    assert add_intercept(X).flags.f_contiguous
    seen = []
    for name in ("fit_logistic", "fit_ols"):
        monkeypatch.setattr(nuisance, name, lambda X, y, fit=getattr(nuisance, name), **start:
                            seen.append(X) or fit(X, y, **start))
    maps = [FeatureMap("raw"), FeatureMap("kangschafer"), FeatureMap("subset", (2, 0))]
    fit_nuisances("s0", X, y, a, maps, maps[1:], seed=21)
    assert len(seen) == 2 * 3 + 2 * 2 * 2
    assert all(design.flags.f_contiguous for design in seen)

    seen.clear()
    fm = FeatureMap("raw")
    design = _designs(X, [fm])[fm]
    mix_propensity("s0", {fm: design}, a, [fm], seed=22)
    assert len(seen) == 1 and seen[0] is design


def test_two_candidates_cost_two_fits_each(monkeypatch):
    rng = np.random.default_rng(14)
    X, a = _sim_binary(rng, n=301)
    y = X[:, 0] + a + rng.standard_normal(301)
    maps = [FeatureMap("subset", (0,)), FeatureMap("subset", (1, 2))]
    designs = _designs(X, maps)
    starts = []
    logistic_rows = _counted(monkeypatch, "fit_logistic", starts)
    mix_propensity("s0", designs, a, maps, seed=15)
    assert logistic_rows == [150, 301, 150, 301]
    # Each refit on all units starts at its candidate's train-half fit.
    train = split_data(301, 15)[0]
    train_fits = [fit_logistic(take_rows(designs[fm], train), a[train]).coefficients
                  for fm in maps]
    assert starts[0::2] == [None, None]
    assert all(np.array_equal(s, b) for s, b in zip(starts[1::2], train_fits))
    ols_rows = _counted(monkeypatch, "fit_ols")
    mix_outcome("s0", designs, y, a, 0, maps, seed=15)
    n0 = int(np.sum(a == 0))
    assert ols_rows == [n0 // 2, n0, n0 // 2, n0]


def test_lone_candidate_needs_only_both_classes_in_the_full_sample():
    # Every treated unit falls in the validation half of the seeded split, so
    # a train-half fit would see one class; the lone candidate is fit on all
    # units instead, and fits.
    n, seed = 60, 16
    train, val = split_data(n, seed)
    a = np.zeros(n, dtype=int)
    a[val[:12]] = 1
    X = np.random.default_rng(17).standard_normal((n, 1))
    fm = FeatureMap("raw")
    design = _designs(X, [fm])[fm]
    assert a[train].max() == 0
    weights, fitted = mix_propensity("s0", {fm: design}, a, [fm], seed=seed)
    assert np.array_equal(weights, [1.0])
    assert np.array_equal(fitted, expit(design @ fit_logistic(design, a).coefficients))


def test_lone_candidate_keeps_the_split_size_floors():
    fm = FeatureMap("raw")
    for n, message in ((1, "leaves a part empty"), (2, "validation set needs at least 2")):
        X = np.arange(float(n))[:, None]
        with pytest.raises(TooFewUnits, match=message):
            mix_propensity("s0", _designs(X, [fm]), np.arange(n) % 2, [fm], seed=0)


def test_lone_candidate_that_fails_to_fit():
    X = np.random.default_rng(18).standard_normal((20, 2))
    fm = FeatureMap("raw")
    with pytest.warns(CandidateFitWarning, match=r"^s0: candidate raw failed"):
        with pytest.raises(TooFewUnits, match="all candidates failed to fit"):
            mix_propensity("s0", _designs(X, [fm]), np.ones(20, dtype=int), [fm], seed=0)


def test_mix_outcome_log_space_no_overflow():
    # One candidate is off by a thousand; the cumulative squared-error scores
    # are around -1e6 per unit and must still give finite simplex weights.
    rng = np.random.default_rng(3)
    n = 500
    X = rng.standard_normal((n, 2))
    y = X[:, 0] + rng.standard_normal(n)
    a = np.ones(n, dtype=int)
    good = FeatureMap("subset", (0,))
    awful = FeatureMap("subset", (1,))
    y_shifted = y.copy()
    weights, _ = mix_outcome("s0", _designs(X, [good, awful]), y_shifted + 1000.0 * X[:, 1], a, 1,
                             [good, awful], seed=4)
    assert np.all(np.isfinite(weights))
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.all(weights >= 0.0)


def test_failed_candidate_gets_zero_weight():
    rng = np.random.default_rng(4)
    n = 400
    X = rng.standard_normal((n, 3))
    X[:, 2] = 1.0  # constant column duplicates the intercept
    y = X[:, 0] + rng.standard_normal(n)
    a = np.ones(n, dtype=int)
    ok = FeatureMap("subset", (0, 1))
    broken = FeatureMap("subset", (2,))
    designs = _designs(X, [ok, broken])
    with pytest.warns(CandidateFitWarning, match=r"^s0: candidate subset \[2\] failed"):
        weights, fitted = mix_outcome("s0", designs, y, a, 1, [ok, broken], seed=5)
    assert weights[1] == 0.0
    assert weights[0] == 1.0
    assert np.array_equal(fitted, mix_outcome("s0", designs, y, a, 1, [ok], seed=5)[1])


@pytest.mark.parametrize("value", [0.1, 0.3])
def test_constant_covariate_candidate_fails_without_nan(value):
    # A constant covariate column is zero in its standardized design, so the
    # candidate fails at the first IRLS iteration, as an exactly collinear
    # one does, and never gives NaN; the other candidate takes all the
    # weight. Unscaled, the column left IRLS a nearly singular system: at
    # 0.1 the propensity candidate fitted, at 0.3 it failed at iteration 4.
    rng = np.random.default_rng(30)
    X, a = _sim_binary(rng, n=400)
    X[:, 2] = value
    y = X[:, 0] + a + rng.standard_normal(400)
    ok, constant = FeatureMap("subset", (0, 1)), FeatureMap("subset", (0, 2))
    failed = "s0: candidate subset [0, 2] failed to fit: "
    singular = "singular cross-products X'X"
    with pytest.warns(CandidateFitWarning) as caught:
        fit = fit_nuisances("s0", X, y, a, [ok, constant], [ok, constant], seed=31)
    messages = [str(w.message) for w in caught if w.category is CandidateFitWarning]
    assert messages[0] == failed + "singular IRLS system at iteration 1"
    assert len(messages) == 3 and all(m == failed + singular for m in messages[1:])
    assert np.isfinite(fit.pi).all() and np.isfinite(fit.m).all()

    designs = {fm: standardized_design(fm.apply(X)) for fm in (ok, constant)}
    assert np.array_equal(designs[constant][:, 2], np.zeros(400))
    with pytest.warns(CandidateFitWarning):
        weights = [mix_propensity("s0", designs, a, [ok, constant], seed=31)[0],
                   mix_outcome("s0", designs, y, a, 1, [ok, constant], seed=31)[0]]
    assert all(np.array_equal(w, [1.0, 0.0]) for w in weights)


def test_predict_propensity_identities():
    rng = np.random.default_rng(5)
    X, a = _sim_binary(rng, n=400)
    y = X[:, 0] + rng.standard_normal(400)
    raw = [FeatureMap("raw")]
    outcome = [FeatureMap("raw")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", PositivityWarning)
        fit = fit_nuisances("s0", X, y, a, raw, outcome, seed=6)
    assert np.allclose(fit.pi[0] + fit.pi[1], 1.0, atol=1e-15)
    assert fit.pi.shape == fit.m.shape == (2, 400)

    # A steep propensity sends many units past the clip at both ends.
    a = (rng.random(400) < expit(6.0 * X[:, 0])).astype(int)
    with pytest.warns(PositivityWarning, match="^propensity clipping active at site s0$"):
        fit = fit_nuisances("s0", X, y, a, raw, outcome, seed=6)
    assert fit.pi[1].max() == DEFAULT_CLIP[1] and fit.pi[1].min() == DEFAULT_CLIP[0]
    assert fit.pi[0].max() == DEFAULT_CLIP[1] and fit.pi[0].min() == DEFAULT_CLIP[0]


def test_mixture_prediction_is_weighted_sum():
    rng = np.random.default_rng(6)
    X, a = _sim_binary(rng, n=300)
    maps = [FeatureMap("subset", (0,)), FeatureMap("subset", (1, 2))]
    designs = _designs(X, maps)
    weights, fitted = mix_propensity("s0", designs, a, maps, seed=7)
    assert np.all(weights > 0.0)
    expected = sum(
        w * expit(designs[fm] @ fit_logistic(designs[fm], a).coefficients)
        for w, fm in zip(weights, maps)
    )
    assert np.allclose(fitted, expected, atol=1e-15)


def test_predict_outcome_constant_fit():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 2))
    y = np.full(40, 3.25)
    a = np.tile([0, 1], 20)
    fm = FeatureMap("raw")
    fit = fit_nuisances("s0", X, y, a, [fm], [fm], seed=8)
    assert np.allclose(fit.m, 3.25, atol=1e-9)


def test_fit_nuisances_bundle():
    rng = np.random.default_rng(8)
    X, a = _sim_binary(rng, n=600)
    y = X[:, 0] + a + rng.standard_normal(600)
    t_maps = [FeatureMap("raw")]
    o_maps = [FeatureMap("raw")]
    fit = fit_nuisances("s0", X, y, a, t_maps, o_maps, seed=9)
    assert np.all((fit.pi[1] >= DEFAULT_CLIP[0]) & (fit.pi[1] <= DEFAULT_CLIP[1]))
    # Outcome mixtures are fit per arm, so the effect lands in the contrast.
    gap = fit.m[1] - fit.m[0]
    assert abs(gap.mean() - 1.0) < 0.3


def test_each_feature_map_is_applied_once_per_fit(monkeypatch):
    # Treatment and outcome candidates on the raw map share one design.
    calls = []
    original = FeatureMap.apply

    def counted(self, X):
        calls.append(self)
        return original(self, X)

    monkeypatch.setattr(FeatureMap, "apply", counted)
    rng = np.random.default_rng(10)
    X, a = _sim_binary(rng, n=300)
    y = X[:, 0] + a + rng.standard_normal(300)
    raw, sub = FeatureMap("raw"), FeatureMap("subset", (0, 1))
    treatment = [raw]
    outcome = [raw, sub]
    fit_nuisances("s0", X, y, a, treatment, outcome, seed=11)
    assert len(calls) == 2 and set(calls) == {raw, sub}
