"""Per-site candidate nuisance models and risk-weighted model mixing.

Each site may propose several treatment (propensity) and outcome models built
from different feature maps of its covariates. Candidates are fit on a seeded
train split; mixing weights come from cumulative predictive risk on the
validation split (Bernoulli likelihood for treatment models, exponentiated
negative squared error for outcome models), accumulated in log space. The
weighted candidates are then refit on the full site sample for prediction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CandidateFitWarning, FedcausalError, TooFewUnits
from .numkit import LinearFit, add_intercept, expit, fit_logistic, fit_ols

DEFAULT_CLIP = (0.01, 0.99)


def kang_schafer(X: np.ndarray) -> np.ndarray:
    """Nonlinear four-column covariate transform used by the benchmark DGP."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != 4:
        raise ValueError(f"kang_schafer needs 4 covariate columns, got {X.shape[1]}")
    z1 = np.exp(X[:, 0] / 2.0)
    z2 = X[:, 1] / (1.0 + np.exp(X[:, 0])) + 10.0
    z3 = (X[:, 0] * X[:, 2] / 25.0 + 0.6) ** 3
    z4 = (X[:, 1] + X[:, 3] + 20.0) ** 2
    return np.column_stack([z1, z2, z3, z4])


@dataclass(frozen=True)
class FeatureMap:
    """Selects or derives model features from a site's covariate matrix."""

    kind: str  # raw | kangschafer | subset
    columns: tuple[int, ...] | None = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "raw":
            return X
        if self.kind == "kangschafer":
            return kang_schafer(X)
        if self.kind == "subset":
            if not self.columns:
                raise ValueError("subset feature map needs columns")
            return X[:, list(self.columns)]
        raise ValueError(f"unknown feature map kind {self.kind!r}")


@dataclass(frozen=True)
class CandidateSpec:
    id: str
    target: str  # treatment | outcome
    feature_map: FeatureMap

    def to_dict(self) -> dict:
        fm: dict = {"kind": self.feature_map.kind}
        if self.feature_map.columns is not None:
            fm["columns"] = list(self.feature_map.columns)
        return {"id": self.id, "target": self.target, "feature_map": fm}

    @staticmethod
    def from_dict(obj: dict) -> "CandidateSpec":
        fm = obj["feature_map"]
        cols = tuple(fm["columns"]) if "columns" in fm and fm["columns"] is not None else None
        return CandidateSpec(
            id=obj["id"],
            target=obj["target"],
            feature_map=FeatureMap(kind=fm["kind"], columns=cols),
        )


@dataclass(frozen=True)
class FittedCandidate:
    spec: CandidateSpec
    fit: LinearFit | None  # None when the candidate failed

    def design(self, X: np.ndarray) -> np.ndarray:
        return add_intercept(self.spec.feature_map.apply(X))

    def predict_linear(self, X: np.ndarray) -> np.ndarray:
        return self.design(X) @ self.fit.coefficients

    def predict_probability(self, X: np.ndarray) -> np.ndarray:
        return expit(self.predict_linear(X))


@dataclass(frozen=True)
class MixedModel:
    """Fitted candidates plus simplex mixing weights."""

    candidates: tuple[FittedCandidate, ...]
    weights: np.ndarray

    def predict_probability(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(np.atleast_2d(X).shape[0])
        for w, cand in zip(self.weights, self.candidates):
            if w > 0.0 and cand.fit is not None:
                out += w * cand.predict_probability(X)
        return out

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(np.atleast_2d(X).shape[0])
        for w, cand in zip(self.weights, self.candidates):
            if w > 0.0 and cand.fit is not None:
                out += w * cand.predict_linear(X)
        return out


@dataclass(frozen=True)
class NuisanceFit:
    pi: MixedModel
    m1: MixedModel
    m0: MixedModel


def split_data(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded-shuffle partition into train (the first n // 2) and validation.

    Validation indices keep the shuffle ordering, which also fixes the ordering
    of the cumulative-risk products.
    """
    n_train = n // 2
    if n_train < 1:
        raise TooFewUnits(f"a half split of {n} units leaves a part empty")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def _log_softmax_weights(cum_log_risk: np.ndarray) -> np.ndarray:
    """Average per-unit softmax weights from cumulative log-scores.

    ``cum_log_risk`` has shape (n_val, J): row i holds each candidate's
    cumulative log-likelihood (or negative scaled squared error) over
    validation units strictly before i; row 0 is all zeros so the first unit
    weight is uniform.
    """
    shifted = cum_log_risk - cum_log_risk.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    w /= w.sum(axis=1, keepdims=True)
    return w.mean(axis=0)


def _mix(
    X: np.ndarray,
    y: np.ndarray,
    specs: list[CandidateSpec],
    seed: int,
    fit_one,
    log_score,
) -> MixedModel:
    """Shared mixing driver for treatment and outcome candidates."""
    if not specs:
        raise ValueError("need at least one candidate spec")
    n = len(y)
    train_idx, val_idx = split_data(n, seed)
    if len(val_idx) < 2:
        raise TooFewUnits("validation set needs at least 2 units")

    train_fits: list[LinearFit | None] = []
    for spec in specs:
        design = add_intercept(spec.feature_map.apply(X[train_idx]))
        try:
            train_fits.append(fit_one(design, y[train_idx]))
        except FedcausalError as exc:
            warnings.warn(
                f"candidate {spec.id!r} failed on the training split: {exc}",
                CandidateFitWarning,
                stacklevel=3,
            )
            train_fits.append(None)
    alive = [j for j, f in enumerate(train_fits) if f is not None]
    if not alive:
        raise TooFewUnits("all candidates failed to fit")

    # Per-unit log scores of each surviving candidate on the validation split.
    n_val = len(val_idx)
    scores = np.zeros((n_val, len(alive)))
    for col, j in enumerate(alive):
        design = add_intercept(specs[j].feature_map.apply(X[val_idx]))
        scores[:, col] = log_score(design @ train_fits[j].coefficients, y[val_idx])
    cum = np.zeros_like(scores)
    cum[1:] = np.cumsum(scores[:-1], axis=0)
    alive_weights = _log_softmax_weights(cum)

    weights = np.zeros(len(specs))
    weights[alive] = alive_weights
    weights /= weights.sum()

    refits: list[FittedCandidate] = []
    for j, spec in enumerate(specs):
        if weights[j] > 0.0:
            design = add_intercept(spec.feature_map.apply(X))
            refits.append(FittedCandidate(spec=spec, fit=fit_one(design, y)))
        else:
            refits.append(FittedCandidate(spec=spec, fit=None))
    return MixedModel(candidates=tuple(refits), weights=weights)


def mix_propensity(
    X: np.ndarray,
    a: np.ndarray,
    specs: list[CandidateSpec],
    seed: int = 0,
) -> MixedModel:
    """Mix treatment candidates by cumulative Bernoulli validation likelihood."""
    a = np.asarray(a, dtype=float)

    def log_score(linear, y):
        p = np.clip(expit(linear), 1e-12, 1.0 - 1e-12)
        return y * np.log(p) + (1.0 - y) * np.log1p(-p)

    return _mix(X, a, specs, seed, fit_logistic, log_score)


def default_kappa(n_candidates: int) -> int:
    """Mixing temperature for outcome models: max(1, floor(log L))."""
    return max(1, int(math.floor(math.log(n_candidates))))


def mix_outcome(
    X: np.ndarray,
    y: np.ndarray,
    a: np.ndarray,
    arm: int,
    specs: list[CandidateSpec],
    seed: int = 0,
) -> MixedModel:
    """Mix outcome candidates on the given arm's units by cumulative squared error,
    at temperature :func:`default_kappa`."""
    mask = np.asarray(a) == arm
    if mask.sum() < 4:
        raise TooFewUnits(f"need at least 4 units with A={arm} to split")
    kappa = default_kappa(len(specs))
    X_arm = np.atleast_2d(np.asarray(X, dtype=float))[mask]
    y_arm = np.asarray(y, dtype=float)[mask]

    def log_score(linear, y_obs):
        return -kappa * (y_obs - linear) ** 2

    return _mix(X_arm, y_arm, specs, seed, fit_ols, log_score)


def predict(fit: NuisanceFit, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Arm-indexed (2, n) propensities and outcome means on ``X``.

    Evaluates each mixture once. Propensities are clipped to
    ``DEFAULT_CLIP``; ``clipped`` tells whether the clip changed any of them.
    """
    p1 = fit.pi.predict_probability(X)
    unclipped = np.stack([1.0 - p1, p1])
    pi = np.clip(unclipped, *DEFAULT_CLIP)
    m = np.stack([fit.m0.predict_mean(X), fit.m1.predict_mean(X)])
    return pi, m, bool(np.any(pi != unclipped))


def fit_nuisances(
    X: np.ndarray,
    y: np.ndarray,
    a: np.ndarray,
    treatment_specs: list[CandidateSpec],
    outcome_specs: list[CandidateSpec],
    seed: int = 0,
) -> NuisanceFit:
    """Fit the full nuisance bundle (propensity mixture, per-arm outcome mixtures)
    on a 0.5 train split seeded by ``seed``."""
    pi = mix_propensity(X, a, treatment_specs, seed=seed)
    m1 = mix_outcome(X, y, a, 1, outcome_specs, seed=seed)
    m0 = mix_outcome(X, y, a, 0, outcome_specs, seed=seed)
    return NuisanceFit(pi=pi, m1=m1, m0=m0)
