"""Combine site estimates into the federated global estimator.

Fixed weighting schemes (target-only, sample-size, inverse-variance), adaptive
nonnegative weights from a penalized regression of influence values with
cross-validated penalty, and the influence-based variance and confidence
interval of the combined effect estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingTarget, ZeroVariance
from .numkit import nnls_coordinate_descent
from .site_estimator import SiteEstimate, influence_values, split_masks

FIXED_SCHEMES = ("target_only", "ss", "ivw")
DEFAULT_LAMBDA_GRID = (0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def z_quantile(p: float) -> float:
    """Standard normal quantile via Acklam's rational approximation plus one
    Halley refinement step (absolute error well below 1e-9)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # Halley refinement against the normal CDF.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


@dataclass(frozen=True)
class EnsembleSolution:
    """Site weights chosen by a fixed scheme or the adaptive penalized fit."""

    site_ids: tuple[str, ...]
    eta: np.ndarray  # one weight per site, shared by both arms
    method: str
    lambda_: float | None = None
    cv_trace: dict = field(default_factory=dict)
    delta: np.ndarray | None = None  # effect-difference shift per site, 0 for target


@dataclass
class GlobalReport:
    delta_hat: float
    mu: tuple[float, float]
    variance: float
    ci: tuple[float, float]
    alpha: float
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
                "alpha": self.alpha,
                "method": self.method,
                "eta": {s: float(w) for s, w in zip(self.solution.site_ids, self.solution.eta)},
                "per_site": self.per_site,
                "privacy_ledger": [r.to_dict() for r in self.privacy_ledger],
                "diagnostics": self.diagnostics,
            },
            indent=2,
        )


def _split_target(estimates: list[SiteEstimate]) -> tuple[int, list[int]]:
    target_pos = [i for i, e in enumerate(estimates) if e.is_target]
    if len(target_pos) != 1:
        raise MissingTarget(f"expected exactly one target estimate, got {len(target_pos)}")
    t = target_pos[0]
    return t, [i for i in range(len(estimates)) if i != t]


def _total_n(estimates: list[SiteEstimate]) -> int:
    t, src = _split_target(estimates)
    return estimates[t].n_T + sum(estimates[i].n_k for i in src)


def combine_fixed(estimates: list[SiteEstimate], scheme: str) -> EnsembleSolution:
    """Fixed weighting: target-only, sample-size (n_k/N), or inverse variance."""
    if scheme not in FIXED_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    t, src = _split_target(estimates)
    K = len(estimates)
    eta = np.zeros(K)
    if scheme == "target_only":
        eta[t] = 1.0
    elif scheme == "ss":
        n = np.array([e.n_k for e in estimates], dtype=float)
        eta = n / n.sum()
    else:  # ivw, with per-site variance from the delta influence values
        N = _total_n(estimates)
        inv_var = np.zeros(K)
        for i, est in enumerate(estimates):
            own_sq, on_tgt = influence_values(est, N)
            tgt_d = on_tgt[1] - on_tgt[0]
            sigma2 = (own_sq + np.sum(tgt_d**2)) / N**2
            if sigma2 <= 0.0:
                raise ZeroVariance(f"site {est.site_id} has zero influence variance")
            inv_var[i] = 1.0 / sigma2
        eta = inv_var / inv_var.sum()
    return EnsembleSolution(
        site_ids=tuple(e.site_id for e in estimates),
        eta=eta,
        method=scheme,
    )


def _stacked_system(estimates: list[SiteEstimate]):
    """Target block of the stacked influence regression for the site weights.

    The regression works on the effect-difference (treated minus control)
    influence values, since one weight per site multiplies both arm means.
    Rows hold per-unit contributions to the estimator deviations (centered
    influence values divided by the relevant sample size), so the sum of
    squares estimates the combination's variance and the lambda grid acts on
    a comparable scale. Each target row of column k also carries
    -shrunk_delta_k / sqrt(n_T), which adds the squared combined shift to the
    objective, making it a mean-squared-error estimate (variance plus squared
    bias). The shift estimate delta_k is soft-thresholded at twice its
    plug-in standard error before entering the columns: the raw difference is
    dominated by the shared noise of the target estimate, which would anchor
    the fit to the target, while a real bias far exceeds the threshold and
    still suppresses the site. The response on target rows is the target
    estimator's contributions. Source k's own-unit rows (minus its own-unit
    contributions in column k, response zero) are summarized by their sum of
    squares, returned per source as ``own_sq``; see :func:`_with_source_rows`.
    Callers reduce the rows to cross-products (:func:`_cross_products`).
    """
    t, src = _split_target(estimates)
    tgt_est = estimates[t]
    n_T = tgt_est.n_T
    xi_T = (tgt_est.xi_on_target[1] - tgt_est.xi_on_target[0]) / n_T
    G = np.zeros((n_T, len(src)))
    delta = np.zeros(len(src))
    own_sq = np.array([estimates[i].own.sq / estimates[i].n_k**2 for i in src])
    var_T = float(np.sum(xi_T**2))
    arm_shift_sq = np.zeros(len(src))
    for col, i in enumerate(src):
        est = estimates[i]
        delta[col] = (est.mu[1] - est.mu[0]) - (tgt_est.mu[1] - tgt_est.mu[0])
        arm_shift_sq[col] = 0.5 * sum(
            (est.mu[arm] - tgt_est.mu[arm]) ** 2 for arm in (0, 1)
        )
        on_tgt = (est.xi_on_target[1] - est.xi_on_target[0]) / n_T
        # Plug-in variance of delta_k; the cross term comes from the shared
        # target rows.
        var_d = (var_T + own_sq[col] + float(np.sum(on_tgt**2))
                 - 2.0 * float(np.sum(xi_T * on_tgt)))
        threshold = 2.0 * math.sqrt(max(var_d, 0.0))
        shrunk = math.copysign(max(abs(delta[col]) - threshold, 0.0), delta[col])
        G[:, col] = xi_T - on_tgt - shrunk / math.sqrt(n_T)
    return xi_T, G, own_sq, delta, arm_shift_sq, t, src


def _cross_products(G: np.ndarray, r: np.ndarray):
    """(G'G, G'r, r'r) of a block of rows of the stacked regression."""
    return G.T @ G, G.T @ r, float(r @ r)


def _with_source_rows(products, source_sq: np.ndarray):
    """Add each source's own-unit rows to the target rows' cross-products.

    Source k's own-unit rows are nonzero only in column k and have response
    zero, so their whole contribution is ``source_sq[k]`` on the diagonal of
    G'G; G'r and r'r are unchanged.
    """
    gram, gtr, rtr = products
    return gram + np.diag(source_sq), gtr, rtr


def _cv_systems(estimates: list[SiteEstimate], r_T, G_T, target, n_splits: int, seed: int):
    """Yield the fit-half and validation-half cross-products of each CV split.

    Every site splits its own units (:func:`split_masks`). The target's fit
    half is reduced from its masked rows and its validation half is
    ``target`` (all target rows' cross-products) minus the fit half. Each
    source split its units before upload and sent the sums of squares of
    both halves.
    """
    t, src = _split_target(estimates)
    sources = [estimates[i] for i in src]
    for est in sources:
        if len(est.own.fit_sq) != n_splits or len(est.own.val_sq) != n_splits:
            raise ValueError(
                f"site {est.site_id} summarizes {len(est.own.fit_sq)} splits, "
                f"expected {n_splits}"
            )
    masks = split_masks(estimates[t].n_T, n_splits, seed, estimates[t].site_id)
    for s, fit_units in enumerate(masks):
        fit = _cross_products(G_T[fit_units], r_T[fit_units])
        val = tuple(whole - part for whole, part in zip(target, fit))
        fit_sq = np.array([e.own.fit_sq[s] / e.n_k**2 for e in sources])
        val_sq = np.array([e.own.val_sq[s] / e.n_k**2 for e in sources])
        yield _with_source_rows(fit, fit_sq), _with_source_rows(val, val_sq)


def _squared_error(products, eta: np.ndarray) -> float:
    """||r - G eta||^2 from cross-products: r'r - 2 eta'G'r + eta'G'G eta."""
    gram, gtr, rtr = products
    return rtr - 2.0 * float(eta @ gtr) + float(eta @ gram @ eta)


def _weights_from_source_eta(eta_src: np.ndarray, t: int, src: list[int], K: int) -> np.ndarray:
    eta = np.zeros(K)
    total = eta_src.sum()
    if total > 1.0:
        eta_src = eta_src / total
        total = 1.0
    for col, i in enumerate(src):
        eta[i] = eta_src[col]
    eta[t] = 1.0 - total
    return eta


def _refit(target, own_sq, penalties, t: int, src: list[int], K: int, support=None):
    """Site weights from all rows: the target's cross-products plus every source."""
    gram, gtr, _ = _with_source_rows(target, own_sq)
    eta_src = nnls_coordinate_descent(gram, gtr, penalties, support)
    return _weights_from_source_eta(eta_src, t, src, K)


def solve_l1_weights(estimates: list[SiteEstimate], lambda_: float) -> np.ndarray:
    """Nonnegative site weights at a fixed penalty level.

    Source coefficients solve the stacked regression, each penalized by
    ``lambda_`` times the mean squared per-arm shift of that site's estimates
    from the target's; the target weight is the simplex remainder, floored at
    zero with renormalization.
    """
    r_T, G_T, own_sq, delta, arm_shift_sq, t, src = _stacked_system(estimates)
    if not src:
        return _weights_from_source_eta(np.zeros(0), t, src, len(estimates))
    return _refit(_cross_products(G_T, r_T), own_sq, lambda_ * arm_shift_sq,
                  t, src, len(estimates))


def cross_validate_lambda(
    estimates: list[SiteEstimate],
    grid=DEFAULT_LAMBDA_GRID,
    n_splits: int = 5,
    seed: int = 0,
) -> EnsembleSolution:
    """Choose the penalty by repeated 50/50 splits of every site's units.

    Each site splits its own units (:func:`_cv_systems`). Weights are fit on
    one half and scored by the unpenalized objective on the other, both from
    K x K cross-products of the stacked system built once here; each fit
    warm-starts from the support of the fit before it along the sorted grid.
    The selected value is the largest penalty whose mean validation error
    sits within one standard error of the minimum, which stabilizes the
    weights when the error curve is nearly flat. The final weights are refit
    on all rows at the chosen value.
    """
    grid = sorted(set(float(g) for g in grid))
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    r_T, G_T, own_sq, delta, arm_shift_sq, t, src = _stacked_system(estimates)
    K = len(estimates)
    if not src:
        eta = _weights_from_source_eta(np.zeros(0), t, src, K)
        return EnsembleSolution(
            site_ids=tuple(e.site_id for e in estimates),
            eta=eta,
            method="adaptive_l1",
            lambda_=grid[0],
            delta=np.zeros(K),
        )

    target = _cross_products(G_T, r_T)
    errors = np.zeros((n_splits, len(grid)))
    halves = _cv_systems(estimates, r_T, G_T, target, n_splits, seed)
    # Each fit warm-starts from the support at the previous penalty, or, for
    # the first penalty, at the same penalty in the previous split.
    supports = [None] * len(grid)
    for s, ((gram_fit, gtr_fit, _), val) in enumerate(halves):
        for j, lam in enumerate(grid):
            start = supports[j - 1] if j else supports[0]
            eta_src = nnls_coordinate_descent(gram_fit, gtr_fit, lam * arm_shift_sq, start)
            supports[j] = eta_src > 0.0
            errors[s, j] = _squared_error(val, eta_src)
    mean_err = errors.mean(axis=0)
    se_err = errors.std(axis=0, ddof=1) / math.sqrt(n_splits) if n_splits > 1 else np.zeros(len(grid))
    min_j = int(np.argmin(mean_err))
    cutoff = mean_err[min_j] + se_err[min_j]
    best_j = min_j
    for j in range(len(grid)):
        if mean_err[j] <= cutoff and grid[j] > grid[best_j]:
            best_j = j
    lam = grid[best_j]
    eta = _refit(target, own_sq, lam * arm_shift_sq, t, src, K, supports[best_j])
    delta_full = np.zeros(K)
    for col, i in enumerate(src):
        delta_full[i] = delta[col]
    return EnsembleSolution(
        site_ids=tuple(e.site_id for e in estimates),
        eta=eta,
        method="adaptive_l1",
        lambda_=lam,
        cv_trace={"lambda": list(grid), "mean_validation_error": mean_err.tolist()},
        delta=delta_full,
    )


def global_estimate(
    estimates: list[SiteEstimate],
    solution: EnsembleSolution,
    alpha: float = 0.05,
    method: str | None = None,
) -> GlobalReport:
    """Weighted combination with influence-based variance and normal CI.

    The variance sums squared per-unit contributions: on target units the
    weighted mix of every site's target-sample influence parts (which captures
    their cross-site covariance), and on each source's own units its weighted
    own-sample part, whose squares the source uploads already summed.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    t, _ = _split_target(estimates)
    N = _total_n(estimates)
    tgt_est = estimates[t]

    eta = solution.eta
    mu_g = []
    for arm in (0, 1):
        mu = tgt_est.mu[arm]
        combined = mu + sum(
            eta[i] * (estimates[i].mu[arm] - mu) for i in range(len(estimates))
        )
        mu_g.append(float(combined))
    delta_hat = mu_g[1] - mu_g[0]

    n_T = tgt_est.n_T
    target_contrib = np.zeros(n_T)
    source_sq = 0.0
    for i, est in enumerate(estimates):
        own_sq, on_tgt = influence_values(est, N)
        target_contrib += eta[i] * (on_tgt[1] - on_tgt[0])
        source_sq += eta[i] ** 2 * own_sq
    sigma_hat = (float(np.sum(target_contrib**2)) + source_sq) / N
    variance = sigma_hat / N
    z = z_quantile(1.0 - alpha / 2.0)
    half = z * math.sqrt(variance)
    per_site = [
        {
            "site_id": est.site_id,
            "mu0": est.mu[0],
            "mu1": est.mu[1],
            "n_k": est.n_k,
            "eta": float(solution.eta[i]),
            "diagnostics": est.diagnostics,
        }
        for i, est in enumerate(estimates)
    ]
    return GlobalReport(
        delta_hat=delta_hat,
        mu=(mu_g[0], mu_g[1]),
        variance=variance,
        ci=(delta_hat - half, delta_hat + half),
        alpha=alpha,
        method=method or solution.method,
        solution=solution,
        per_site=per_site,
    )
