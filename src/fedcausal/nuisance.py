"""Per-site candidate nuisance models and risk-weighted model mixing.

Each site may propose several treatment (propensity) and outcome models built
from different feature maps of its covariates. Candidates are fit on a seeded
train split; mixing weights come from cumulative predictive risk on the
validation split (Bernoulli likelihood for treatment models, exponentiated
negative squared error for outcome models), accumulated in log space. The
weighted candidates are then refit on the full site sample, and the mixtures
are evaluated on the site's own units, the only units any estimator needs
them on. A lone candidate has weight 1 whatever its risk, so it is fit once,
on all units, and no split is drawn; the sample must still be large enough
to split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CandidateFitWarning, FedcausalError, PositivityWarning, TooFewUnits
from .numkit import add_intercept, bernoulli_loglik, expit, fit_logistic, fit_ols

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
    feature_map: FeatureMap

    def to_dict(self) -> dict:
        fm: dict = {"kind": self.feature_map.kind}
        if self.feature_map.columns is not None:
            fm["columns"] = list(self.feature_map.columns)
        return {"id": self.id, "feature_map": fm}

    @staticmethod
    def from_dict(obj: dict) -> "CandidateSpec":
        fm = obj["feature_map"]
        cols = tuple(fm["columns"]) if "columns" in fm and fm["columns"] is not None else None
        return CandidateSpec(
            id=obj["id"],
            feature_map=FeatureMap(kind=fm["kind"], columns=cols),
        )


@dataclass(frozen=True)
class NuisanceFit:
    """Arm-indexed (2, n) propensities, clipped to ``DEFAULT_CLIP``, and outcome
    means of a site's units."""

    pi: np.ndarray
    m: np.ndarray


def _train_size(n: int) -> int:
    """Size n // 2 of the train half of n units; raises :class:`TooFewUnits`
    unless the train half has a unit and the validation half has two."""
    n_train = n // 2
    if n_train < 1:
        raise TooFewUnits(f"a half split of {n} units leaves a part empty")
    if n - n_train < 2:
        raise TooFewUnits("validation set needs at least 2 units")
    return n_train


def split_data(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded-shuffle partition into train (the first n // 2) and validation.

    Validation indices keep the shuffle ordering, which also fixes the ordering
    of the cumulative-risk products.
    """
    n_train = _train_size(n)
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


def _fit_or_warn(site_id: str, spec: CandidateSpec, fit_one, design: np.ndarray,
                 y: np.ndarray) -> np.ndarray | None:
    """Coefficients of ``fit_one(design, y)``, or None after a
    :class:`CandidateFitWarning` naming the site and candidate if the fit fails."""
    try:
        return fit_one(design, y).coefficients
    except FedcausalError as exc:
        warnings.warn(f"{site_id}: candidate {spec.id!r} failed to fit: {exc}",
                      CandidateFitWarning, stacklevel=4)
        return None


def _mix(
    site_id: str,
    designs: dict,
    y: np.ndarray,
    rows: np.ndarray,
    specs: list[CandidateSpec],
    seed: int,
    fit_one,
    log_score,
    link,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared mixing routine for treatment and outcome candidates.

    Fits each candidate on the train split of ``rows``, scores it on the
    validation split and refits it on all of ``rows``; a candidate that fails
    either fit gets weight zero. A lone candidate's weight is 1 whatever its
    score, so it is only fit on all of ``rows``. Returns the weights and the
    mixture on every unit of the site.
    """
    if not specs:
        raise ValueError("need at least one candidate spec")
    if len(specs) == 1:
        _train_size(len(rows))  # the size floors hold with or without a split
        design = designs[specs[0].feature_map]
        beta = _fit_or_warn(site_id, specs[0], fit_one, design[rows], y[rows])
        if beta is None:
            raise TooFewUnits("all candidates failed to fit")
        return np.ones(1), link(design @ beta)
    train_idx, val_idx = (rows[idx] for idx in split_data(len(rows), seed))

    # Per-unit validation log scores and full-sample coefficients of each
    # candidate that fits.
    scores, coefficients = [], {}
    for j, spec in enumerate(specs):
        design = designs[spec.feature_map]
        train_beta = _fit_or_warn(site_id, spec, fit_one, design[train_idx], y[train_idx])
        beta = None if train_beta is None else _fit_or_warn(site_id, spec, fit_one,
                                                            design[rows], y[rows])
        if beta is not None:
            coefficients[j] = beta
            scores.append(log_score(design[val_idx] @ train_beta, y[val_idx]))
    if not coefficients:
        raise TooFewUnits("all candidates failed to fit")
    scores = np.column_stack(scores)
    cum = np.zeros_like(scores)
    cum[1:] = np.cumsum(scores[:-1], axis=0)
    weights = np.zeros(len(specs))
    weights[list(coefficients)] = _log_softmax_weights(cum)
    weights /= weights.sum()

    fitted = np.zeros(len(y))
    for j, beta in coefficients.items():
        fitted += weights[j] * link(designs[specs[j].feature_map] @ beta)
    return weights, fitted


def mix_propensity(
    site_id: str,
    designs: dict,
    a: np.ndarray,
    specs: list[CandidateSpec],
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Mix treatment candidates by cumulative Bernoulli validation likelihood.

    ``designs`` maps each feature map to its design on the units of site
    ``site_id``, which labels the warning for a candidate that fails to fit.
    Returns the weights and the mixed P(A=1) of every unit."""
    a = np.asarray(a, dtype=float)

    def log_score(linear, y):
        return bernoulli_loglik(expit(linear), y, 1.0 - y)

    return _mix(site_id, designs, a, np.arange(len(a)), specs, seed, fit_logistic, log_score,
                expit)


def default_kappa(n_candidates: int) -> int:
    """Mixing temperature for outcome models: max(1, floor(log L))."""
    return max(1, int(math.floor(math.log(n_candidates))))


def mix_outcome(
    site_id: str,
    designs: dict,
    y: np.ndarray,
    a: np.ndarray,
    arm: int,
    specs: list[CandidateSpec],
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Mix outcome candidates fitted on the given arm's units by cumulative
    squared error, at temperature :func:`default_kappa`.

    Returns the weights and the mixed outcome mean of every unit."""
    rows = np.flatnonzero(np.asarray(a) == arm)
    if len(rows) < 4:
        raise TooFewUnits(f"need at least 4 units with A={arm} to split")
    kappa = default_kappa(len(specs))

    def log_score(linear, y_obs):
        return -kappa * (y_obs - linear) ** 2

    return _mix(site_id, designs, np.asarray(y, dtype=float), rows, specs, seed, fit_ols,
                log_score, lambda linear: linear)


def fit_nuisances(
    site_id: str,
    X: np.ndarray,
    y: np.ndarray,
    a: np.ndarray,
    treatment_specs: list[CandidateSpec],
    outcome_specs: list[CandidateSpec],
    seed: int = 0,
) -> NuisanceFit:
    """Fit the propensity and per-arm outcome mixtures on a 0.5 train split
    seeded by ``seed``, on one design per distinct feature map, and evaluate
    them on the units of site ``site_id``. Warns with
    :class:`PositivityWarning` if the clip changes any propensity."""
    maps = dict.fromkeys(s.feature_map for s in (*treatment_specs, *outcome_specs))
    designs = {fm: add_intercept(fm.apply(X)) for fm in maps}
    p1 = mix_propensity(site_id, designs, a, treatment_specs, seed=seed)[1]
    m1 = mix_outcome(site_id, designs, y, a, 1, outcome_specs, seed=seed)[1]
    m0 = mix_outcome(site_id, designs, y, a, 0, outcome_specs, seed=seed)[1]
    unclipped = np.stack([1.0 - p1, p1])
    pi = np.clip(unclipped, *DEFAULT_CLIP)
    if np.any(pi != unclipped):
        warnings.warn(f"propensity clipping active at site {site_id}", PositivityWarning,
                      stacklevel=2)
    return NuisanceFit(pi=pi, m=np.stack([m0, m1]))
