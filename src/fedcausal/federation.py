"""Combine site estimates into the federated global estimator.

Fixed weighting schemes (target-only, sample-size, inverse-variance), adaptive
nonnegative weights from a penalized regression of influence values with
cross-validated penalty (every split and penalty fit, and the refit on all
rows, in one batched solve), and the influence-based variance and confidence
interval of the combined effect estimate. Every function here takes the site
estimates target first, as :func:`fedcausal.fedruntime.run_sites` lists them,
and returns the site weights eta in that order. Nothing here reads a seed
or a per-unit value: every variance and cross-product is a quadratic form in
the target's moment stack M at the sites' target coordinates ``coef`` (see
:mod:`fedcausal.site_estimator`) plus the sources' uploaded sums of squares,
so the combine step's work and state grow with no site's sample size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import MissingTarget, TooManySources, ZeroVariance
from .numkit import nnls_coordinate_descent
from .site_estimator import CV_SPLITS, SiteEstimate

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
    if any(e.coef.shape != estimates[0].moments.shape[-1:] for e in estimates):
        raise ValueError("every site's target coordinates must index the target's moments")
    return estimates[0]


def _variance(estimates: list[SiteEstimate], c) -> float:
    """Plug-in variance of sum_i c_i * estimate_i, target first.

    It sums squared per-unit contributions: on target units the mix of every
    site's target-unit contributions (which captures their cross-site
    covariance), u'M u with u = sum_i c_i * coef_i and M the target's moments
    over all rows, and on each source's own units its scaled own-unit part,
    whose squares the source uploaded already summed.
    """
    u = sum(c[i] * est.coef for i, est in enumerate(estimates))
    return float(u @ estimates[0].moments[-1] @ u) + sum(
        c[i] ** 2 * est.own_sq for i, est in enumerate(estimates[1:], 1))


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
    else:  # ivw, each site's own plug-in variance
        inv_var = np.zeros(K)
        for i, (est, c) in enumerate(zip(estimates, np.eye(K))):
            sigma2 = _variance(estimates, c)
            if sigma2 <= 0.0:
                raise ZeroVariance(f"site {est.site_id} has zero influence variance")
            inv_var[i] = 1.0 / sigma2
        eta = inv_var / inv_var.sum()
    return EnsembleSolution(eta=eta)


def _stacked_system(estimates: list[SiteEstimate]):
    """Target block G = Z C of the stacked influence regression for the site
    weights, as the map C (q + 2, K - 1), with each source's squared arm shift.

    Rows hold the sites' effect-difference contributions as they are, so the
    sum of squares estimates the combination's variance and the lambda grid
    acts on a comparable scale. Column k of C is coef_0 - coef_k -
    shrunk_delta_k * e_{q+1}, so each target row also carries
    -shrunk_delta_k / sqrt(n_T), which adds the squared combined shift to the
    objective, making it a mean-squared-error estimate (variance plus squared
    bias). The shift estimate delta_k is soft-thresholded at twice its
    plug-in standard error (:func:`_variance` of source k minus the target):
    the raw difference is dominated by the shared noise of the target
    estimate, which would anchor the fit to the target, while a real bias far
    exceeds the threshold and still suppresses the site. The response on
    target rows is Z coef_0. Source k's own-unit rows (minus its own-unit
    contributions in column k, response zero) are summarized by its ``own_sq``
    and ``fit_sq``, which :func:`_cv_systems` adds to the cross-products.
    """
    tgt_est = _target_first(estimates)
    sources = estimates[1:]
    C = np.zeros((len(tgt_est.coef), len(sources)))
    arm_shift_sq = np.zeros(len(sources))
    unit = np.eye(len(estimates))
    for col, est in enumerate(sources):
        delta = (est.mu[1] - est.mu[0]) - (tgt_est.mu[1] - tgt_est.mu[0])
        arm_shift_sq[col] = 0.5 * sum(
            (est.mu[arm] - tgt_est.mu[arm]) ** 2 for arm in (0, 1)
        )
        threshold = 2.0 * math.sqrt(_variance(estimates, unit[col + 1] - unit[0]))
        shrunk = math.copysign(max(abs(delta) - threshold, 0.0), delta)
        C[:, col] = tgt_est.coef - est.coef
        C[-1, col] -= shrunk
    return C, arm_shift_sq


def _cv_systems(estimates: list[SiteEstimate], C: np.ndarray):
    """Stacked (G'G, G'r, r'r) of the stacked regression's rows in each CV
    split's fit half, then in all rows.

    Every site splits its own units (:func:`~fedcausal.site_estimator.split_masks`).
    A row set is the target's rows G = Z C, r = Z e_0 in that half, whose
    cross-products are C'M_s C, C'M_s e_0 and M_s[0, 0] in its moments M_s,
    plus each source's own-unit rows, which are nonzero only in column k with
    response zero, so their whole contribution is the source's sum of squares
    on the diagonal of G'G: its uploaded fit-half ``fit_sq`` per split,
    ``own_sq`` for all rows. A validation half is all rows minus its fit half.
    """
    M, sources = estimates[0].moments, estimates[1:]
    for est, splits in [(estimates[0], len(M) - 1)] + [(e, len(e.fit_sq)) for e in sources]:
        if splits != CV_SPLITS:
            raise ValueError(f"site {est.site_id} summarizes {splits} splits, "
                             f"expected {CV_SPLITS}")
    gram = C.T @ M @ C
    for k, est in enumerate(sources):
        gram[:, k, k] += [*est.fit_sq, est.own_sq]
    return gram, M[:, :, 0] @ C, M[:, 0, 0]


def check_adaptive_sources(n_sources: int) -> None:
    """Raise :class:`TooManySources` if an adaptive round has more than
    ``MAX_SOURCES`` sources to weight."""
    if n_sources > MAX_SOURCES:
        raise TooManySources(f"adaptive weights take at most {MAX_SOURCES} sources, "
                             f"got {n_sources}")


def cross_validate_lambda(estimates: list[SiteEstimate]) -> EnsembleSolution:
    """Choose the penalty from ``LAMBDA_GRID`` by ``CV_SPLITS`` repeated 50/50
    splits of every site's units.

    Each site splits its own units (:func:`_cv_systems`) as the transport
    drew them, and summarizes each split, so nothing is drawn here and no
    unit is read. Weights are fit on
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
    More than ``MAX_SOURCES`` sources raise :class:`TooManySources`
    (:func:`check_adaptive_sources`).
    """
    check_adaptive_sources(len(estimates) - 1)
    C, arm_shift_sq = _stacked_system(estimates)
    gram, gtr, rtr = _cv_systems(estimates, C)
    gram_val, gtr_val, rtr_val = (x[-1] - x[:-1] for x in (gram, gtr, rtr))
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

    The variance is the plug-in :func:`_variance` of the combination at the
    weights ``solution.eta``.
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

    variance = _variance(estimates, eta)
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
