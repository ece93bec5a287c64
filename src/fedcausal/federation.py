"""Combine site estimates into the federated global estimator.

Fixed weighting schemes (target-only, sample-size, inverse-variance), adaptive
nonnegative weights from a penalized regression of influence values with
cross-validated penalty (every split and penalty fit, and the refit on all
rows, in one batched solve), and the influence-based variance and confidence
interval of the combined effect estimate. Every function here takes the site
estimates target first, as :func:`fedcausal.fedruntime.run_sites` lists them,
and returns the site weights eta in that order. Every variance here is a sum of
squared contributions exactly as the sites hold them (see
:mod:`fedcausal.site_estimator`): no quantity is rescaled by a sample size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import MissingTarget, TooManySources, ZeroVariance
from .numkit import nnls_coordinate_descent
from .site_estimator import CV_SPLITS, SiteEstimate, split_masks

# The weighting methods: fixed schemes, and the adaptive penalized ensembles
# whose penalty is cross-validated over the protocol's fixed grid. Every
# interval is at the protocol's level ALPHA; a report's variance gives any other.
# An adaptive round takes at most MAX_SOURCES sources: its weight solve
# enumerates every subset of them, so its cost doubles with each.
FIXED_SCHEMES = ("target", "ss", "ivw")
ADAPTIVE_METHODS = ("aipw_l1", "mr_l1")
LAMBDA_GRID = (0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
ALPHA = 0.05
MAX_SOURCES = 10


@dataclass(frozen=True)
class EnsembleSolution:
    """Site weights chosen by a fixed scheme or the adaptive penalized fit.

    ``eta`` holds one weight per site, shared by both arms, target first and
    then the sources in the order of the estimates they were fit to.
    """

    eta: np.ndarray
    lambda_: float | None = None
    cv_trace: dict = field(default_factory=dict)


@dataclass
class GlobalReport:
    delta_hat: float
    mu: tuple[float, float]
    variance: float
    ci: tuple[float, float]
    method: str
    solution: EnsembleSolution
    per_site: list = field(default_factory=list)
    privacy_ledger: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta_hat": self.delta_hat,
                "mu0": self.mu[0],
                "mu1": self.mu[1],
                "variance": self.variance,
                "ci": list(self.ci),
                "alpha": ALPHA,
                "method": self.method,
                "eta": {site["site_id"]: site["eta"] for site in self.per_site},
                "lambda": self.solution.lambda_,
                "cv_trace": self.solution.cv_trace,
                "per_site": self.per_site,
                "privacy_ledger": [r.to_dict() for r in self.privacy_ledger],
                "diagnostics": self.diagnostics,
            },
            indent=2,
        )


def _target_first(estimates: list[SiteEstimate]) -> SiteEstimate:
    """The target estimate, which must come first and be the only one."""
    if not (estimates and estimates[0].is_target
            and not any(e.is_target for e in estimates[1:])):
        raise MissingTarget("expected the target estimate first and no other")
    return estimates[0]


def combine_fixed(estimates: list[SiteEstimate], scheme: str) -> EnsembleSolution:
    """Fixed weighting: target-only, sample-size (n_k/N), or inverse variance."""
    if scheme not in FIXED_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _target_first(estimates)
    K = len(estimates)
    eta = np.zeros(K)
    if scheme == "target":
        eta[0] = 1.0
    elif scheme == "ss":
        n = np.array([e.n_k for e in estimates], dtype=float)
        eta = n / n.sum()
    else:  # ivw, each site's variance summed from its contributions
        inv_var = np.zeros(K)
        for i, est in enumerate(estimates):
            sigma2 = (0.0 if est.is_target else est.own.sq) + float(np.sum(est.on_target**2))
            if sigma2 <= 0.0:
                raise ZeroVariance(f"site {est.site_id} has zero influence variance")
            inv_var[i] = 1.0 / sigma2
        eta = inv_var / inv_var.sum()
    return EnsembleSolution(eta=eta)


def _stacked_system(estimates: list[SiteEstimate]):
    """Target block of the stacked influence regression for the site weights.

    Rows hold the sites' effect-difference contributions as they are, so the
    sum of squares estimates the combination's variance and the lambda grid
    acts on a comparable scale. Each target row of column k also carries
    -shrunk_delta_k / sqrt(n_T), which adds the squared combined shift to the
    objective, making it a mean-squared-error estimate (variance plus squared
    bias). The shift estimate delta_k is soft-thresholded at twice its
    plug-in standard error before entering the columns: the raw difference is
    dominated by the shared noise of the target estimate, which would anchor
    the fit to the target, while a real bias far exceeds the threshold and
    still suppresses the site. The response on target rows is the target
    estimator's contributions. Source k's own-unit rows (minus its own-unit
    contributions in column k, response zero) are summarized by their sum of
    squares, returned per source as ``own_sq``. Callers reduce the rows to
    cross-products (:func:`_cross_products`).
    """
    tgt_est = _target_first(estimates)
    sources = estimates[1:]
    n_T = tgt_est.n_T
    xi_T = tgt_est.on_target
    G = np.zeros((n_T, len(sources)))
    own_sq = np.array([est.own.sq for est in sources])
    var_T = float(np.sum(xi_T**2))
    arm_shift_sq = np.zeros(len(sources))
    for col, est in enumerate(sources):
        delta = (est.mu[1] - est.mu[0]) - (tgt_est.mu[1] - tgt_est.mu[0])
        arm_shift_sq[col] = 0.5 * sum(
            (est.mu[arm] - tgt_est.mu[arm]) ** 2 for arm in (0, 1)
        )
        on_tgt = est.on_target
        # Plug-in variance of delta_k; the cross term comes from the shared
        # target rows.
        var_d = (var_T + own_sq[col] + float(np.sum(on_tgt**2))
                 - 2.0 * float(np.sum(xi_T * on_tgt)))
        threshold = 2.0 * math.sqrt(max(var_d, 0.0))
        shrunk = math.copysign(max(abs(delta) - threshold, 0.0), delta)
        G[:, col] = xi_T - on_tgt - shrunk / math.sqrt(n_T)
    return xi_T, G, own_sq, arm_shift_sq


def _cross_products(G: np.ndarray, r: np.ndarray, source_sq: np.ndarray):
    """(G'G, G'r, r'r) of a block of target rows ``G``, ``r`` of the stacked
    regression plus each source's own-unit rows.

    Source k's own-unit rows are nonzero only in column k and have response
    zero, so their whole contribution is ``source_sq[k]`` on the diagonal of
    G'G; G'r and r'r are the target rows' alone.
    """
    return G.T @ G + np.diag(source_sq), G.T @ r, float(r @ r)


def _cv_systems(estimates: list[SiteEstimate], r_T, G_T, whole, seed: int):
    """Yield the fit-half and validation-half cross-products of each CV split.

    Every site splits its own units (:func:`split_masks`). The fit half is
    reduced from the target's masked rows plus each source's uploaded
    fit-half sum of squares; the validation half is ``whole`` (the
    cross-products of all rows, target and source) minus the fit half.
    """
    sources = estimates[1:]
    for est in sources:
        if len(est.own.fit_sq) != CV_SPLITS:
            raise ValueError(
                f"site {est.site_id} summarizes {len(est.own.fit_sq)} splits, "
                f"expected {CV_SPLITS}"
            )
    masks = split_masks(estimates[0].n_T, seed, estimates[0].site_id)
    for s, fit_units in enumerate(masks):
        fit_sq = np.array([e.own.fit_sq[s] for e in sources])
        fit = _cross_products(G_T[fit_units], r_T[fit_units], fit_sq)
        yield fit, tuple(all_rows - part for all_rows, part in zip(whole, fit))


def cross_validate_lambda(estimates: list[SiteEstimate], seed: int = 0) -> EnsembleSolution:
    """Choose the penalty from ``LAMBDA_GRID`` by ``CV_SPLITS`` repeated 50/50
    splits of every site's units.

    Each site splits its own units (:func:`_cv_systems`). Weights are fit on
    one half and scored by the unpenalized objective ||r - G eta||^2 on the
    other, both from K x K cross-products of the stacked system built once
    here: every (split, penalty) fit and every penalty's refit on all rows
    is one problem of a single batched solve, and every score comes from the
    validation half's cross-products.
    The selected value is the largest penalty whose mean validation error
    sits within one standard error of the minimum, which stabilizes the
    weights when the error curve is nearly flat. The final weights are refit
    on all rows at the chosen value; if the source weights sum above one they
    are scaled to sum to one, and the target takes the remainder.
    More than ``MAX_SOURCES`` sources raise :class:`TooManySources`.
    """
    if len(estimates) - 1 > MAX_SOURCES:
        raise TooManySources(f"adaptive weights take at most {MAX_SOURCES} sources, "
                             f"got {len(estimates) - 1}")
    r_T, G_T, own_sq, arm_shift_sq = _stacked_system(estimates)
    whole = _cross_products(G_T, r_T, own_sq)
    fits, vals = zip(*_cv_systems(estimates, r_T, G_T, whole, seed))
    gram, gtr, _ = map(np.array, zip(*fits, whole))  # the fit halves, then all rows
    gram_val, gtr_val, rtr_val = map(np.array, zip(*vals))
    penalties = np.array(LAMBDA_GRID)[:, None] * arm_shift_sq
    # (split or all rows, penalty, source) weights; the score is
    # r'r - 2 eta'G'r + eta'G'G eta.
    eta = nnls_coordinate_descent(gram, gtr, penalties)
    eta_cv = eta[:-1]
    errors = (rtr_val[:, None] - 2.0 * np.einsum("slk,sk->sl", eta_cv, gtr_val)
              + np.einsum("slj,sjk,slk->sl", eta_cv, gram_val, eta_cv))
    mean_err = errors.mean(axis=0)
    se_err = errors.std(axis=0, ddof=1) / math.sqrt(CV_SPLITS)
    min_j = int(np.argmin(mean_err))
    best_j = np.flatnonzero(mean_err <= mean_err[min_j] + se_err[min_j])[-1]
    eta_src = eta[-1, best_j]
    total = eta_src.sum()
    if total > 1.0:
        eta_src = eta_src / total
        total = 1.0
    return EnsembleSolution(
        eta=np.concatenate(([1.0 - total], eta_src)),
        lambda_=LAMBDA_GRID[best_j],
        cv_trace={"lambda": list(LAMBDA_GRID), "mean_validation_error": mean_err.tolist()},
    )


def global_estimate(
    estimates: list[SiteEstimate],
    solution: EnsembleSolution,
    method: str,
) -> GlobalReport:
    """Weighted combination with influence-based variance and normal CI at
    level ``ALPHA``.

    The variance sums squared per-unit contributions: on target units the
    weighted mix of every site's target-unit contributions (which captures
    their cross-site covariance), and on each source's own units its weighted
    own-unit part, whose squares the source uploads already summed.
    """
    tgt_est = _target_first(estimates)

    eta = solution.eta
    mu_g = []
    for arm in (0, 1):
        mu = tgt_est.mu[arm]
        combined = mu + sum(
            eta[i] * (estimates[i].mu[arm] - mu) for i in range(len(estimates))
        )
        mu_g.append(float(combined))
    delta_hat = mu_g[1] - mu_g[0]

    target_contrib = sum(eta[i] * est.on_target for i, est in enumerate(estimates))
    variance = float(np.sum(target_contrib**2)) + sum(
        eta[i] ** 2 * est.own.sq for i, est in enumerate(estimates[1:], 1))
    z = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
    half = z * math.sqrt(variance)
    per_site = [
        {
            "site_id": est.site_id,
            "mu0": est.mu[0],
            "mu1": est.mu[1],
            "n_k": est.n_k,
            "eta": float(solution.eta[i]),
        }
        for i, est in enumerate(estimates)
    ]
    return GlobalReport(
        delta_hat=delta_hat,
        mu=(mu_g[0], mu_g[1]),
        variance=variance,
        ci=(delta_hat - half, delta_hat + half),
        method=method,
        solution=solution,
        per_site=per_site,
    )
