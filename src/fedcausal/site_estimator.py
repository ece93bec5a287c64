"""Site-level estimates of the target-population mean potential outcomes.

The target site uses a standard AIPW estimator on its own covariates. Each
source site transports its information through three pieces: density-ratio
weighting of its AIPW residuals, a projection of its outcome-model predictions
onto the covariates shared with the target, and the mean of that projection
over the target sample. The source side produces a :class:`SourceSiteReport`
(the wire payload: the own-unit mean terms, sums of squared own-unit
influence values, and projection coefficients); evaluating the projection on
target units happens at the target, so no individual target rows are ever
needed at a source, and no per-unit value ever leaves a source.
"""

from __future__ import annotations

import json
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .density_ratio import BasisSpec, TiltCoefficients, ratio_weights, truncate_weights
from .errors import PositivityWarning, SingularJacobian
from .nuisance import NuisanceFit, predict
from .numkit import add_intercept, fit_ols


@dataclass(frozen=True)
class SiteFrame:
    """One site's individual-level data.

    ``shared_cols`` indexes the columns of ``X`` observed at the target site;
    a target frame's ``X`` holds only those shared columns (in the same order
    the sources use).
    """

    site_id: str
    role: str  # target | source
    y: np.ndarray
    a: np.ndarray
    X: np.ndarray
    shared_cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a))
        object.__setattr__(self, "X", np.atleast_2d(np.asarray(self.X, dtype=float)))
        if self.role not in ("target", "source"):
            raise ValueError(f"bad role {self.role!r}")
        n = len(self.y)
        if len(self.a) != n or self.X.shape[0] != n or n < 1:
            raise ValueError("y, a, X must share a positive length")
        if not self.shared_cols:
            raise ValueError("shared_cols must be non-empty")
        if self.role == "target" and tuple(self.shared_cols) != tuple(range(self.X.shape[1])):
            raise ValueError("a target frame's X must hold exactly the shared columns")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def V(self) -> np.ndarray:
        return self.X[:, list(self.shared_cols)]


def split_masks(n: int, n_splits: int, seed: int, site_id: str) -> np.ndarray:
    """Fit-half membership of a site's units in each cross-validation split.

    Row ``s`` marks the ``n // 2`` units in the fit half of split ``s``; the
    rest form its validation half. Each split draws from a stream seeded by
    ``(seed, s, site id)``, so every site draws its folds locally and no unit
    index ever crosses sites.
    """
    site = zlib.crc32(site_id.encode("utf-8"))
    masks = np.zeros((n_splits, n), dtype=bool)
    for s in range(n_splits):
        rng = np.random.default_rng(np.random.SeedSequence((seed, s, site)))
        masks[s, rng.permutation(n)[: n // 2]] = True
    return masks


@dataclass(frozen=True)
class OwnSummary:
    """Sums of squared effect-difference influence values on a source's own units.

    With d the treated-minus-control influence values, ``sq`` is the sum of
    d**2 over all own units, and ``fit_sq[s]`` and ``val_sq[s]`` are its sums
    over the fit and validation halves of split ``s`` (:func:`split_masks`).
    They are all the coordinator needs of the own-unit part: the IVW and
    global variances use ``sq``, and the adaptive weight regression uses one
    pseudo-row per half.
    """

    sq: float
    fit_sq: np.ndarray
    val_sq: np.ndarray

    @staticmethod
    def of(d: np.ndarray, masks: np.ndarray) -> "OwnSummary":
        sq = d * d
        return OwnSummary(
            sq=float(sq.sum()),
            fit_sq=np.array([sq[m].sum() for m in masks]),
            val_sq=np.array([sq[~m].sum() for m in masks]),
        )


@dataclass(frozen=True)
class SiteEstimate:
    """Per-arm mean estimates with their influence parts.

    ``xi_on_target`` holds centered per-unit values on the target's units
    (shape (2, n_T), arm-indexed): the target estimate's own AIPW influence
    values, or a source estimate's projection and tilt-noise terms. Both live
    at the target, which coordinates. ``own`` summarizes a source's own-unit
    part and is None for the target estimate. Values are stored without the
    site-probability scaling; see :func:`influence_values`.
    """

    site_id: str
    mu: tuple[float, float]  # (mu_0, mu_1)
    xi_on_target: np.ndarray
    n_k: int
    n_T: int
    own: OwnSummary | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_target(self) -> bool:
        return self.own is None

    def to_json(self) -> str:
        """Scalar summary of the estimate; per-unit values are not sent."""
        return json.dumps(
            {
                "site_id": self.site_id,
                "mu0": self.mu[0],
                "mu1": self.mu[1],
                "n_k": self.n_k,
                "n_T": self.n_T,
                "diagnostics": self.diagnostics,
            }
        )


@dataclass(frozen=True)
class SourceSiteReport:
    """Summary-level payload a source uploads to the coordinator.

    Carries the source-sample means of the transported estimator, the sums of
    squares of its centered own-unit influence values (:class:`OwnSummary`),
    and the per-arm projection coefficients; the coordinator evaluates the
    projection on the target sample to complete the estimate.
    """

    site_id: str
    n_k: int
    mu_own: tuple[float, float]
    own: OwnSummary
    tau_coefficients: tuple[np.ndarray, np.ndarray]  # arm 0, arm 1
    # B^{-1} dmu/dgamma per arm, for the tilt-noise variance term
    tilt_sensitivity: tuple[np.ndarray, np.ndarray]
    basis_kind: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "site_id": self.site_id,
                "n_k": self.n_k,
                "mu_own0": self.mu_own[0],
                "mu_own1": self.mu_own[1],
                "own_sq": self.own.sq,
                "fit_sq": list(map(float, self.own.fit_sq)),
                "val_sq": list(map(float, self.own.val_sq)),
                "tau0": list(map(float, self.tau_coefficients[0])),
                "tau1": list(map(float, self.tau_coefficients[1])),
                "tilt_sens0": list(map(float, self.tilt_sensitivity[0])),
                "tilt_sens1": list(map(float, self.tilt_sensitivity[1])),
                "basis_kind": self.basis_kind,
                "diagnostics": self.diagnostics,
            }
        )

    @staticmethod
    def from_json(payload: str) -> "SourceSiteReport":
        obj = json.loads(payload)
        return SourceSiteReport(
            site_id=obj["site_id"],
            n_k=int(obj["n_k"]),
            mu_own=(float(obj["mu_own0"]), float(obj["mu_own1"])),
            own=OwnSummary(
                sq=float(obj["own_sq"]),
                fit_sq=np.asarray(obj["fit_sq"], dtype=float),
                val_sq=np.asarray(obj["val_sq"], dtype=float),
            ),
            tau_coefficients=(
                np.asarray(obj["tau0"], dtype=float),
                np.asarray(obj["tau1"], dtype=float),
            ),
            tilt_sensitivity=(
                np.asarray(obj["tilt_sens0"], dtype=float),
                np.asarray(obj["tilt_sens1"], dtype=float),
            ),
            basis_kind=obj["basis_kind"],
            diagnostics=obj.get("diagnostics", {}),
        )


def estimate_target(frame: SiteFrame, fit: NuisanceFit) -> SiteEstimate:
    """Standard AIPW estimate on the target sample with centered influence values."""
    if frame.role != "target":
        raise ValueError("estimate_target requires a target frame")
    pi, m, clipped = predict(fit, frame.X)
    if clipped:
        warnings.warn("propensity clipping active on target units", PositivityWarning, stacklevel=2)
    mu = []
    xi = np.zeros((2, frame.n))
    for arm in (0, 1):
        # Per-unit AIPW kernel I(A=a)/pi_a * (Y - m_a) + m_a.
        ind = (frame.a == arm).astype(float)
        kernel = ind / pi[arm] * (frame.y - m[arm]) + m[arm]
        mu_a = float(kernel.mean())
        mu.append(mu_a)
        xi[arm] = kernel - mu_a
    return SiteEstimate(
        site_id=frame.site_id,
        mu=(mu[0], mu[1]),
        xi_on_target=xi,
        n_k=frame.n,
        n_T=frame.n,
    )


def source_influence(
    source: SiteFrame,
    fit: NuisanceFit,
    tilt: TiltCoefficients,
    seed: int = 0,
    n_splits: int = 5,
) -> tuple[SourceSiteReport, np.ndarray]:
    """Source-side portion of the transported estimator.

    Computes the tilt-weighted AIPW residual term and the tilt-weighted excess
    of the outcome model over its shared-covariate projection, both means over
    the source sample, plus the projection coefficients per arm (the outcome
    model's predictions regressed on (1, V) over all source units). The per-unit
    influence values include the first-order term from estimating the tilt
    coefficients: with the moment-matching Jacobian B and the estimator's
    sensitivity A = dmu/dgamma, each unit contributes through A'B^{-1} times
    its centered moment-equation value. The same sensitivity vector is
    reported so the coordinator can add the matching target-sample term.

    Returns the upload, which summarizes the per-unit values over this site's
    own cross-validation folds (``seed``, ``n_splits``), together with the
    centered per-unit values themselves (shape (2, n_k), arm-indexed), which
    stay at the source. Raises :class:`SingularJacobian` when B is singular.
    """
    if source.role != "source":
        raise ValueError("the source estimator requires a source frame")
    zeta_raw = ratio_weights(tilt, source.V)
    zeta, weight_diag = truncate_weights(zeta_raw)
    pi, m, clipped = predict(fit, source.X)
    if clipped:
        warnings.warn(
            f"propensity clipping active on source {source.site_id}",
            PositivityWarning,
            stacklevel=2,
        )
    psi = tilt.basis.expand(source.V)
    zeta_psi = psi * zeta_raw[:, None]
    B = zeta_psi.T @ psi / source.n
    moment_noise = zeta_psi - zeta_psi.mean(axis=0)
    design_V = add_intercept(source.V)
    mu_own = []
    xi_own = np.zeros((2, source.n))
    tau_coefs = []
    sens = []
    for arm in (0, 1):
        tau = fit_ols(design_V, m[arm]).coefficients
        tau_coefs.append(tau)
        ind = (source.a == arm).astype(float)
        h = ind / pi[arm] * (source.y - m[arm]) + (m[arm] - design_V @ tau)
        own = zeta * h
        mu_own.append(float(own.mean()))
        # Derivative of the truncated weight is zero where the cap binds.
        zeta_d = np.where(zeta == zeta_raw, zeta, 0.0)
        A = -(psi * (zeta_d * h)[:, None]).mean(axis=0)
        try:
            w = np.linalg.solve(B, A)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"tilt Jacobian is singular at source {source.site_id}"
            ) from exc
        xi_own[arm] = own - own.mean() + moment_noise @ w
        sens.append(w)
    masks = split_masks(source.n, n_splits, seed, source.site_id)
    report = SourceSiteReport(
        site_id=source.site_id,
        n_k=source.n,
        mu_own=(mu_own[0], mu_own[1]),
        own=OwnSummary.of(xi_own[1] - xi_own[0], masks),
        tau_coefficients=(tau_coefs[0], tau_coefs[1]),
        tilt_sensitivity=(sens[0], sens[1]),
        basis_kind=tilt.basis.kind,
        diagnostics={"zeta": weight_diag},
    )
    return report, xi_own


def source_report(
    source: SiteFrame,
    fit: NuisanceFit,
    tilt: TiltCoefficients,
    seed: int = 0,
    n_splits: int = 5,
) -> SourceSiteReport:
    """The upload of :func:`source_influence`, without the per-unit values."""
    return source_influence(source, fit, tilt, seed, n_splits)[0]


def complete_source_estimate(report: SourceSiteReport, target: SiteFrame) -> SiteEstimate:
    """Target-side completion: add the projection mean over target units.

    Also adds the target half of the tilt-noise influence term: the target
    basis means feed the moment-matching equation, so their sampling noise
    propagates into the source estimate through the reported sensitivity.
    """
    if target.role != "target":
        raise ValueError("completion requires the target frame")
    psi_tgt = BasisSpec(report.basis_kind).expand(target.X)
    psi_centered = psi_tgt - psi_tgt.mean(axis=0)
    design = add_intercept(target.X)
    mu = []
    xi_tgt = np.zeros((2, target.n))
    for arm in (0, 1):
        on_target = design @ report.tau_coefficients[arm]
        mu.append(report.mu_own[arm] + float(on_target.mean()))
        xi_tgt[arm] = on_target - on_target.mean() - psi_centered @ report.tilt_sensitivity[arm]
    return SiteEstimate(
        site_id=report.site_id,
        mu=(mu[0], mu[1]),
        xi_on_target=xi_tgt,
        n_k=report.n_k,
        n_T=target.n,
        own=report.own,
        diagnostics=report.diagnostics,
    )


def estimate_source(
    source: SiteFrame,
    target: SiteFrame,
    fit: NuisanceFit,
    tilt: TiltCoefficients,
    seed: int = 0,
    n_splits: int = 5,
) -> SiteEstimate:
    """Transported estimate from one source site (report + completion)."""
    return complete_source_estimate(
        source_report(source, fit, tilt, seed, n_splits), target
    )


def influence_values(est: SiteEstimate, total_n: int) -> tuple[float, np.ndarray]:
    """Influence parts with site probabilities replaced by empirical plug-ins.

    Returns the own-unit sum of squared effect-difference values scaled by
    ``(total_n / n_k)**2`` (zero for the target estimate, whose own units are
    the target units) and the target-unit values scaled by ``total_n / n_T``,
    where ``total_n`` is the federation's pooled sample size.
    """
    own_sq = 0.0 if est.is_target else est.own.sq * (total_n / est.n_k) ** 2
    return own_sq, est.xi_on_target * (total_n / est.n_T)
