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

from .errors import (CandidateFitWarning, FedcausalError, MissingColumns, PositivityWarning,
                     TooFewUnits)
from .numkit import expit, fit_logistic, fit_ols, logistic_loglik, standardized_design, take_rows

DEFAULT_CLIP = (0.01, 0.99)
# Protocol bounds on the candidates a config lists: at most MAX_CANDIDATES
# distinct feature maps per list, and subset columns below MAX_COLUMNS, so
# no list of maps can carry a sample.
MAX_CANDIDATES = 8
MAX_COLUMNS = 64


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
    """A candidate model's features of a site's covariate matrix: all of them
    (``raw``), their :func:`kang_schafer` transform, or the given ``columns``
    (``subset``). A map is checked when it is built, so one decoded from the
    config broadcast holds a kind and, for a subset only, a non-empty tuple of
    distinct column indices in [0, ``MAX_COLUMNS``): nothing else."""

    kind: str
    columns: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("raw", "kangschafer", "subset"):
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if (self.columns is not None) != (self.kind == "subset"):
            raise ValueError("a subset feature map, and only a subset, takes columns")
        if self.columns is not None and not (
            isinstance(self.columns, tuple) and self.columns
            and all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c < MAX_COLUMNS
                    for c in self.columns)
            and len(set(self.columns)) == len(self.columns)
        ):
            raise ValueError(f"subset columns {self.columns!r} are not a tuple of "
                             f"distinct ints in [0, {MAX_COLUMNS})")

    def __str__(self) -> str:
        return self.kind if self.columns is None else f"{self.kind} {list(self.columns)}"

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The map's features of ``X``; :class:`MissingColumns` if it does not fit them."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "raw":
            return X
        if self.kind == "kangschafer" and X.shape[1] == 4:
            return kang_schafer(X)
        if self.kind == "subset" and max(self.columns) < X.shape[1]:
            return X[:, list(self.columns)]
        raise MissingColumns(f"feature map {self} does not fit {X.shape[1]} covariate columns")

    def to_dict(self) -> dict:
        """Wire form: ``{"kind"}``, or ``{"kind", "columns"}`` for a subset."""
        if self.columns is None:
            return {"kind": self.kind}
        return {"kind": self.kind, "columns": list(self.columns)}

    @staticmethod
    def from_dict(obj: dict) -> "FeatureMap":
        return FeatureMap(obj["kind"], tuple(obj["columns"]) if "columns" in obj else None)


def is_candidate_list(maps) -> bool:
    """Whether ``maps`` is 1 to ``MAX_CANDIDATES`` distinct feature maps."""
    return (isinstance(maps, (list, tuple)) and 0 < len(maps) <= MAX_CANDIDATES
            and all(isinstance(fm, FeatureMap) for fm in maps) and len(set(maps)) == len(maps))


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


def _fit_or_warn(site_id: str, fm: FeatureMap, fit_one, design: np.ndarray,
                 y: np.ndarray, **start) -> np.ndarray | None:
    """Coefficients of ``fit_one(design, y, **start)``, or None after a
    :class:`CandidateFitWarning` naming the site and the candidate's feature
    map (its kind, and its columns for a subset) if the fit fails."""
    try:
        return fit_one(design, y, **start).coefficients
    except FedcausalError as exc:
        warnings.warn(f"{site_id}: candidate {fm} failed to fit: {exc}",
                      CandidateFitWarning, stacklevel=5)
        return None


def _mix(
    site_id: str,
    designs: dict,
    y: np.ndarray,
    rows: np.ndarray,
    maps: list[FeatureMap],
    seed: int,
    fit_one,
    log_score,
    link,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared mixing routine for treatment and outcome candidates.

    Fits each candidate on the train split of ``rows``, scores it on the
    validation split and refits it on all of ``rows``, starting
    ``fit_one(X, y, start=...)`` at the train coefficients; a candidate that
    fails either fit gets weight zero. A lone candidate's weight is 1
    whatever its score, so it is only fit on all of ``rows``. Every fit sees
    the column-major rows :func:`numkit.take_rows` gathers, and a fit on
    every unit sees the design itself. Returns the weights and the mixture
    on every unit of the site.
    """
    if not maps:
        raise ValueError("need at least one candidate feature map")
    if len(maps) == 1:
        _train_size(len(rows))  # the size floors hold with or without a split
        design = designs[maps[0]]
        beta = _fit_or_warn(site_id, maps[0], fit_one, take_rows(design, rows), y[rows])
        if beta is None:
            raise TooFewUnits("all candidates failed to fit")
        return np.ones(1), link(design @ beta)
    train_idx, val_idx = (rows[idx] for idx in split_data(len(rows), seed))

    # Per-unit validation log scores and full-sample coefficients of each
    # candidate that fits.
    scores, coefficients = [], {}
    for j, fm in enumerate(maps):
        design = designs[fm]
        train_beta = _fit_or_warn(site_id, fm, fit_one, take_rows(design, train_idx),
                                  y[train_idx])
        beta = None if train_beta is None else _fit_or_warn(
            site_id, fm, fit_one, take_rows(design, rows), y[rows], start=train_beta)
        if beta is not None:
            coefficients[j] = beta
            scores.append(log_score(take_rows(design, val_idx) @ train_beta, y[val_idx]))
    if not coefficients:
        raise TooFewUnits("all candidates failed to fit")
    scores = np.column_stack(scores)
    cum = np.zeros_like(scores)
    cum[1:] = np.cumsum(scores[:-1], axis=0)
    weights = np.zeros(len(maps))
    weights[list(coefficients)] = _log_softmax_weights(cum)
    weights /= weights.sum()

    fitted = np.zeros(len(y))
    for j, beta in coefficients.items():
        fitted += weights[j] * link(designs[maps[j]] @ beta)
    return weights, fitted


def mix_propensity(
    site_id: str,
    designs: dict,
    a: np.ndarray,
    maps: list[FeatureMap],
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Mix treatment candidates by cumulative Bernoulli validation likelihood.

    ``designs`` maps each feature map to its design on the units of site
    ``site_id``, which labels the warning for a candidate that fails to fit.
    Returns the weights and the mixed P(A=1) of every unit."""
    a = np.asarray(a, dtype=float)
    return _mix(site_id, designs, a, np.arange(len(a)), maps, seed, fit_logistic,
                logistic_loglik, expit)


def default_kappa(n_candidates: int) -> int:
    """Mixing temperature for outcome models: max(1, floor(log L))."""
    return max(1, int(math.floor(math.log(n_candidates))))


def mix_outcome(
    site_id: str,
    designs: dict,
    y: np.ndarray,
    a: np.ndarray,
    arm: int,
    maps: list[FeatureMap],
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Mix outcome candidates fitted on the given arm's units by cumulative
    squared error, at temperature :func:`default_kappa`.

    Returns the weights and the mixed outcome mean of every unit."""
    rows = np.flatnonzero(np.asarray(a) == arm)
    if len(rows) < 4:
        raise TooFewUnits(f"need at least 4 units with A={arm} to split")
    kappa = default_kappa(len(maps))

    def log_score(linear, y_obs):
        return -kappa * (y_obs - linear) ** 2

    def fit_one(X, y_obs, start=None):
        return fit_ols(X, y_obs)  # exact: no start to warm

    return _mix(site_id, designs, np.asarray(y, dtype=float), rows, maps, seed, fit_one,
                log_score, lambda linear: linear)


def fit_nuisances(
    site_id: str,
    X: np.ndarray,
    y: np.ndarray,
    a: np.ndarray,
    treatment_maps: list[FeatureMap],
    outcome_maps: list[FeatureMap],
    seed: int = 0,
) -> NuisanceFit:
    """Fit the propensity and per-arm outcome mixtures on a 0.5 train split
    seeded by ``seed``, on one standardized design
    (:func:`numkit.standardized_design`) per distinct feature map, and
    evaluate them on the units of site ``site_id``. Warns with
    :class:`PositivityWarning` if the clip changes any propensity."""
    maps = dict.fromkeys((*treatment_maps, *outcome_maps))
    # A map that overflows gives a non-finite design, which its fits reject.
    with np.errstate(over="ignore", invalid="ignore"):
        designs = {fm: standardized_design(fm.apply(X)) for fm in maps}
    p1 = mix_propensity(site_id, designs, a, treatment_maps, seed=seed)[1]
    m1 = mix_outcome(site_id, designs, y, a, 1, outcome_maps, seed=seed)[1]
    m0 = mix_outcome(site_id, designs, y, a, 0, outcome_maps, seed=seed)[1]
    unclipped = np.stack([1.0 - p1, p1])
    pi = np.clip(unclipped, *DEFAULT_CLIP)
    if np.any(pi != unclipped):
        warnings.warn(f"propensity clipping active at site {site_id}", PositivityWarning,
                      stacklevel=2)
    return NuisanceFit(pi=pi, m=np.stack([m0, m1]))
