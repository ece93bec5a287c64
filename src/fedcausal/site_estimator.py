"""Site-level estimates of the target-population mean potential outcomes.

The target site uses a standard AIPW estimator on its own covariates. Each
source site transports its information through three pieces: density-ratio
weighting of its AIPW residuals, a projection of its outcome-model predictions
onto the covariates shared with the target, and the mean of that projection
over the target sample. The source side produces a :class:`SourceSiteReport`
(the wire payload: the own-unit mean terms, sums of squared own-unit
contributions, and projection coefficients); evaluating the projection on
target units happens at the target, so no individual target rows are ever
needed at a source, and no per-unit value ever leaves a source.

One weight per site multiplies both arm means, so the federation only ever
needs the influence of the treated-minus-control difference. Every site
estimate therefore carries a single influence vector of *contributions*: the
centered effect-difference influence values divided by the sample size of the
site that holds them, so that sums of squared contributions are variances.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .density_ratio import TiltCoefficients, truncate_weights
from .errors import SingularJacobian
from .nuisance import NuisanceFit
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


CV_SPLITS = 5


def split_masks(n: int, seed: int, site_id: str) -> np.ndarray:
    """Fit-half membership of a site's units in each of the ``CV_SPLITS``
    cross-validation splits.

    Row ``s`` marks the ``n // 2`` units in the fit half of split ``s``; the
    rest form its validation half. Each split draws from a stream seeded by
    ``(seed, s, site id)``, so every site draws its folds locally and no unit
    index ever crosses sites.
    """
    site = zlib.crc32(site_id.encode("utf-8"))
    masks = np.zeros((CV_SPLITS, n), dtype=bool)
    for s in range(CV_SPLITS):
        rng = np.random.default_rng(np.random.SeedSequence((seed, s, site)))
        masks[s, rng.permutation(n)[: n // 2]] = True
    return masks


@dataclass(frozen=True)
class OwnSummary:
    """Sums of squared effect-difference contributions on a source's own units.

    With d the own-unit contributions, ``sq`` is the sum of d**2 over all own
    units (the own-unit part of the estimate's variance), and ``fit_sq[s]``
    is its sum over the fit half of split ``s`` (:func:`split_masks`).
    They are all the coordinator needs of the own-unit part: the IVW and
    global variances use ``sq``, and the adaptive weight regression uses one
    pseudo-row per half, the validation half's being ``sq - fit_sq[s]``.
    """

    sq: float
    fit_sq: np.ndarray

    @staticmethod
    def of(d: np.ndarray, masks: np.ndarray) -> "OwnSummary":
        sq = d * d
        return OwnSummary(sq=float(sq.sum()), fit_sq=np.array([sq[m].sum() for m in masks]))


@dataclass(frozen=True)
class SiteEstimate:
    """Per-arm mean estimates with their effect-difference influence part.

    ``on_target`` holds one contribution per target unit (the centered
    treated-minus-control influence values divided by n_T): the target
    estimate's own AIPW part, or a source estimate's projection and tilt-noise
    part. Both live at the target, which coordinates. ``own`` summarizes a
    source's own-unit contributions and is None for the target estimate.
    """

    site_id: str
    mu: tuple[float, float]  # (mu_0, mu_1)
    on_target: np.ndarray
    n_k: int
    own: OwnSummary | None = None

    @property
    def n_T(self) -> int:
        return len(self.on_target)

    @property
    def is_target(self) -> bool:
        return self.own is None

    def to_json(self) -> str:
        """Scalar summary of the estimate; per-unit values are left out.

        No package code calls it: it is kept only because the benchmark's
        tracer names it among the wire codecs (``perfbench/tracing.py``,
        checked by ``tests/test_traced_names.py``), and goes with the
        benchmark refresh (ROADMAP items 5 and 6).
        """
        return json.dumps(
            {
                "site_id": self.site_id,
                "mu0": self.mu[0],
                "mu1": self.mu[1],
                "n_k": self.n_k,
                "n_T": self.n_T,
            }
        )


@dataclass(frozen=True)
class SourceSiteReport:
    """Summary-level payload a source uploads to the coordinator.

    Carries the source-sample means of the transported estimator, the sums of
    squares of its own-unit contributions (:class:`OwnSummary`), the per-arm
    projection coefficients, and the tilt sensitivity of the effect
    difference; the coordinator evaluates the projection and the tilt-noise
    term on the target sample to complete the estimate. Each field is a count,
    a number or a vector of protocol-fixed length; site-local facts such as
    the weight diagnostics stay at the source. It does not name its sender:
    the message that carries it does.
    """

    n_k: int
    mu_own: tuple[float, float]
    own: OwnSummary
    tau_coefficients: tuple[np.ndarray, np.ndarray]  # arm 0, arm 1
    # B^{-1} d(mu_1 - mu_0)/dgamma, for the tilt-noise variance term
    tilt_sensitivity: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_k": self.n_k,
                "mu_own0": self.mu_own[0],
                "mu_own1": self.mu_own[1],
                "own_sq": self.own.sq,
                "fit_sq": list(map(float, self.own.fit_sq)),
                "tau0": list(map(float, self.tau_coefficients[0])),
                "tau1": list(map(float, self.tau_coefficients[1])),
                "tilt_sens": list(map(float, self.tilt_sensitivity)),
            }
        )

    @staticmethod
    def from_json(payload: str) -> "SourceSiteReport":
        obj = json.loads(payload)
        return SourceSiteReport(
            n_k=int(obj["n_k"]),
            mu_own=(float(obj["mu_own0"]), float(obj["mu_own1"])),
            own=OwnSummary(float(obj["own_sq"]), np.asarray(obj["fit_sq"], dtype=float)),
            tau_coefficients=(
                np.asarray(obj["tau0"], dtype=float),
                np.asarray(obj["tau1"], dtype=float),
            ),
            tilt_sensitivity=np.asarray(obj["tilt_sens"], dtype=float),
        )


def _ipw_residual(frame: SiteFrame, fit: NuisanceFit, where: str) -> np.ndarray:
    """Per-unit I(A=a)/pi_a * (Y - m_a), arm-indexed; rejects a nuisance fit
    of another frame's units."""
    if not fit.pi.shape == fit.m.shape == (2, frame.n):
        raise ValueError(f"the nuisance fit does not cover the {frame.n} units of {where}")
    ind = np.stack([frame.a == 0, frame.a == 1]).astype(float)
    return ind / fit.pi * (frame.y - fit.m)


def estimate_target(frame: SiteFrame, fit: NuisanceFit) -> SiteEstimate:
    """Standard AIPW estimate on the target sample with its contributions."""
    if frame.role != "target":
        raise ValueError("estimate_target requires a target frame")
    # Per-unit AIPW kernel I(A=a)/pi_a * (Y - m_a) + m_a, arm-indexed.
    kernel = _ipw_residual(frame, fit, "target units") + fit.m
    d = kernel[1] - kernel[0]
    return SiteEstimate(
        site_id=frame.site_id,
        mu=(float(kernel[0].mean()), float(kernel[1].mean())),
        on_target=(d - d.mean()) / frame.n,
        n_k=frame.n,
    )


def source_influence(
    source: SiteFrame,
    fit: NuisanceFit,
    tilt: TiltCoefficients,
    seed: int = 0,
) -> tuple[SourceSiteReport, np.ndarray]:
    """Source-side portion of the transported estimator.

    Computes the tilt-weighted AIPW residual term and the tilt-weighted excess
    of the outcome model over its shared-covariate projection, both means over
    the source sample, plus the projection coefficients per arm (the outcome
    model's predictions regressed on psi = (1, V), the tilt basis, over all
    source units). The own-unit contributions include the first-order term
    from estimating the tilt coefficients: with the moment-matching Jacobian
    B and the effect difference's sensitivity A = d(mu_1 - mu_0)/dgamma, each
    unit contributes through A'B^{-1} times its centered moment-equation
    value. The same sensitivity vector is reported so the coordinator can add
    the matching target-sample term. ``tilt`` is this source's
    :func:`solve_tilt` result; its weights and B are used as solved.

    Returns the upload, which summarizes the contributions over this site's
    own cross-validation folds (:func:`split_masks` with ``seed``), with the
    contributions themselves (shape (n_k,)), which stay at the source. Raises
    :class:`SingularJacobian` when B is singular.
    """
    if source.role != "source":
        raise ValueError("the source estimator requires a source frame")
    psi = add_intercept(source.V)
    zeta_raw, B = tilt.weights, tilt.jacobian
    zeta, _ = truncate_weights(source.site_id, zeta_raw)
    resid = _ipw_residual(source, fit, f"source {source.site_id}")
    zeta_psi = psi * zeta_raw[:, None]
    tau = [fit_ols(psi, fit.m[arm]).coefficients for arm in (0, 1)]
    h = resid + (fit.m - np.stack([psi @ t for t in tau]))
    own = zeta * h
    # Derivative of the truncated weight is zero where the cap binds.
    zeta_d = np.where(zeta == zeta_raw, zeta, 0.0)
    A = -(psi * (zeta_d * (h[1] - h[0]))[:, None]).mean(axis=0)
    try:
        w = np.linalg.solve(B, A)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"tilt Jacobian is singular at source {source.site_id}") from exc
    d = own[1] - own[0]
    contributions = (d - d.mean() + (zeta_psi - zeta_psi.mean(axis=0)) @ w) / source.n
    report = SourceSiteReport(
        n_k=source.n,
        mu_own=(float(own[0].mean()), float(own[1].mean())),
        own=OwnSummary.of(contributions, split_masks(source.n, seed, source.site_id)),
        tau_coefficients=(tau[0], tau[1]),
        tilt_sensitivity=w,
    )
    return report, contributions


def source_report(
    source: SiteFrame,
    fit: NuisanceFit,
    tilt: TiltCoefficients,
    seed: int = 0,
) -> SourceSiteReport:
    """The upload of :func:`source_influence`, without the contributions."""
    return source_influence(source, fit, tilt, seed)[0]


def complete_source_estimate(
    site_id: str, report: SourceSiteReport, target: SiteFrame
) -> SiteEstimate:
    """Target-side completion of the upload of source ``site_id``: add the
    projection mean over target units.

    Also adds the target half of the tilt-noise influence term: the target
    means of psi = (1, V) feed the moment-matching equation, so their sampling
    noise propagates into the effect difference through the reported
    sensitivity.
    """
    if target.role != "target":
        raise ValueError("completion requires the target frame")
    psi = add_intercept(target.X)
    projected = [psi @ tau for tau in report.tau_coefficients]
    d = projected[1] - projected[0]
    tilt_noise = (psi - psi.mean(axis=0)) @ report.tilt_sensitivity
    return SiteEstimate(
        site_id=site_id,
        mu=tuple(mu + float(p.mean()) for mu, p in zip(report.mu_own, projected)),
        on_target=(d - d.mean() - tilt_noise) / target.n,
        n_k=report.n_k,
        own=report.own,
    )
