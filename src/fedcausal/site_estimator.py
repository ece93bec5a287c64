"""Site-level estimates of the target-population mean potential outcomes.

The target site uses a standard AIPW estimator on its own covariates. Each
source site transports its information through three pieces: density-ratio
weighting of its AIPW residuals, a linear projection of its outcome-model
predictions onto psi = (1, V), the tilt basis of the covariates V shared with
the target, and the mean of that projection over the target sample, which is
the projection evaluated at the target mean of psi, (1, mean of V), that its
tilt balances. The source finishes its own estimate and uploads a
:class:`SourceSiteReport` under the wire's names (the arm means ``mu0`` and
``mu1``, the sums of squared own-unit contributions ``own_sq`` and ``fit_sq``,
and ``target_coef``, one target-influence slope per shared covariate), so no
individual target rows are ever needed at a source, and no per-unit value ever
leaves a source.

One weight per site multiplies both arm means, so the federation only ever
needs the influence of the treated-minus-control difference: its
*contributions*, the centered influence values divided by the sample size of
the site that holds them, so that sums of squared contributions are
variances. On the target's units every site's contributions are Z coef, with
Z = [xi, V_c / n_T, 1 / sqrt(n_T)] for the target's own contributions xi and
its shared covariates V_c centered by the broadcast means. The target sums
its units once into the moment stack M of Z'Z per CV fit half, if the round
draws folds, and over all rows, so the coordinator forms every variance from
M and keeps no per-unit value.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .density_ratio import TiltCoefficients
from .errors import SingularJacobian
from .nuisance import CV_SPLITS, MAX_COLUMNS, NuisanceFit, is_column_list, split_data
from .numkit import fit_ols, gram
from .wire import payload_text, read_payload


@dataclass(frozen=True)
class SiteFrame:
    """One site's individual-level data.

    ``y`` and ``a`` hold one entry per unit and ``X`` one row per unit;
    ``y`` and ``X`` are finite and ``a`` is 0/1. ``shared_cols`` holds the 1
    to ``MAX_COLUMNS`` distinct indices of the columns of ``X`` observed at
    the target site (:func:`~fedcausal.nuisance.is_column_list`); a target
    frame's ``X`` holds only those shared columns (in the same order the
    sources use).
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
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        if self.role not in ("target", "source"):
            raise ValueError(f"bad role {self.role!r}")
        if not (self.y.ndim == self.a.ndim == 1 and self.X.ndim == 2):
            raise ValueError("y and a must be 1-D and X 2-D")
        n = len(self.y)
        if len(self.a) != n or self.X.shape[0] != n or n < 1:
            raise ValueError("y, a, X must share a positive length")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise ValueError("y and X must be finite")
        cols = self.shared_cols
        if not is_column_list(cols, self.X.shape[1]):
            raise ValueError(f"shared_cols {cols!r} are not a tuple of 1 to {MAX_COLUMNS} "
                             f"distinct column indices below {self.X.shape[1]}")
        if not np.all((self.a == 0) | (self.a == 1)):
            raise ValueError("a must be a 0/1 treatment indicator")
        if self.role == "target" and cols != tuple(range(self.X.shape[1])):
            raise ValueError("a target frame's X must hold exactly the shared columns")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def V(self) -> np.ndarray:
        return self.X[:, list(self.shared_cols)]


def site_split_seed(seed: int, site_id: str) -> int:
    """Deterministic per-site seed for the train/validation split."""
    return (int(seed) * 1_000_003 + zlib.crc32(site_id.encode("utf-8"))) % (2**31)


def split_masks(n: int, seed: int, site_id: str) -> np.ndarray:
    """Fit-half membership of a site's units in each of the ``CV_SPLITS``
    cross-validation splits.

    Row ``s`` marks the ``n // 2`` units in the fit half of split ``s``; the
    rest form its validation half. Each fit half is the first half of
    :func:`~fedcausal.nuisance.split_data`, the nuisance split's draw, seeded
    by ``(seed, s, site id)``, so every site draws its folds locally and no
    unit index ever crosses sites.
    """
    site = zlib.crc32(site_id.encode("utf-8"))
    masks = np.zeros((CV_SPLITS, n), dtype=bool)
    for s in range(CV_SPLITS):
        masks[s, split_data(n, np.random.SeedSequence((seed, s, site)))[0]] = True
    return masks


@dataclass(frozen=True)
class SiteEstimate:
    """Per-arm mean estimates with their effect-difference influence part.

    ``coef`` (length q + 2) holds the coordinates of the estimate's target-unit
    contributions in the target's Z = [xi, V_c / n_T, 1 / sqrt(n_T)]: e_0 for
    the target estimate, whose own contributions are xi, and (0, target_coef,
    0) for a source. ``moments`` is the target's stack of Z_s'Z_s, one per CV
    fit half and last over all rows, shape (splits + 1, q + 2, q + 2) for the
    transport's split count, ``CV_SPLITS`` or 0, and None for a source.
    ``own_sq`` and ``fit_sq`` are a source's uploaded sums
    (:class:`SourceSiteReport`), both None for the target estimate.
    """

    site_id: str
    mu: tuple[float, float]  # (mu_0, mu_1)
    coef: np.ndarray
    n_k: int
    own_sq: float | None = None
    fit_sq: np.ndarray | None = None
    moments: np.ndarray | None = None

    @property
    def is_target(self) -> bool:
        return self.own_sq is None

    def to_json(self) -> str:
        """Scalar summary of the estimate.

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
            }
        )


@dataclass(frozen=True)
class SourceSiteReport:
    """Summary-level payload a source uploads to the coordinator, each field
    sent under its own name.

    ``mu0`` and ``mu1`` are the transported arm means. With d the own-unit
    effect-difference contributions, ``own_sq`` is the sum of d**2 over all
    own units (the own-unit part of the estimate's variance) and ``fit_sq[s]``
    its sum over the fit half of split ``s`` (:func:`split_masks`), one per
    split the round draws: none when no adaptive method combines it. They are
    all the coordinator needs of the own-unit part: the IVW and global
    variances use ``own_sq``, and the adaptive weight regression uses one
    pseudo-row per half, the validation half's being ``own_sq - fit_sq[s]``.
    The target-unit contributions are the centered V values times
    ``target_coef``, one slope per shared covariate, divided by n_T. Each
    field is a count, a number or a vector of protocol-fixed length;
    site-local facts such as the weight diagnostics stay at the source. It
    does not name its sender: the message that carries it does.
    """

    n_k: int
    mu0: float
    mu1: float
    own_sq: float
    fit_sq: np.ndarray
    target_coef: np.ndarray

    def to_json(self) -> str:
        return payload_text(self)

    @staticmethod
    def from_json(payload: str, dims: dict | None = None) -> "SourceSiteReport":
        return read_payload("site_estimate", payload, SourceSiteReport, dims=dims)


def _ipw_residual(frame: SiteFrame, fit: NuisanceFit, where: str) -> np.ndarray:
    """Per-unit I(A=a)/pi_a * (Y - m_a), arm-indexed; rejects a nuisance fit
    of another frame's units."""
    if not fit.pi.shape == fit.m.shape == (2, frame.n):
        raise ValueError(f"the nuisance fit does not cover the {frame.n} units of {where}")
    quotient = np.equal(frame.a, [[0], [1]], out=np.empty((2, frame.n)))
    quotient /= fit.pi
    quotient *= frame.y - fit.m
    return quotient


def estimate_target(frame: SiteFrame, fit: NuisanceFit, centered: np.ndarray,
                    folds: np.ndarray) -> SiteEstimate:
    """Standard AIPW estimate on the target sample with its moments: Z'Z over
    each fit half of ``folds`` and over all units, for Z = [xi, centered / n_T,
    1 / sqrt(n_T)], ``centered`` the shared covariates less the broadcast means.
    ``folds`` holds ``CV_SPLITS`` fold masks, or none for a round that no
    adaptive method combines."""
    if frame.role != "target":
        raise ValueError("estimate_target requires a target frame")
    n = frame.n
    if np.shape(folds) not in ((CV_SPLITS, n), (0, n)):
        raise ValueError(f"target folds have shape {np.shape(folds)}, "
                         f"expected {(CV_SPLITS, n)} or {(0, n)}")
    # Per-unit AIPW kernel I(A=a)/pi_a * (Y - m_a) + m_a, arm-indexed.
    kernel = _ipw_residual(frame, fit, "target units") + fit.m
    d = kernel[1] - kernel[0]
    # Row-major, so fold rows gather as contiguous blocks.
    Z = np.ascontiguousarray(np.column_stack([(d - d.mean()) / n, centered / n,
                                              np.full(n, 1.0 / math.sqrt(n))]))
    return SiteEstimate(
        site_id=frame.site_id,
        mu=(float(kernel[0].mean()), float(kernel[1].mean())),
        coef=np.eye(Z.shape[1])[0],
        n_k=n,
        moments=np.stack([gram(Z.take(rows, axis=0)) for rows in map(np.flatnonzero, folds)]
                         + [gram(Z)]),
    )


def source_report(
    source: SiteFrame,
    fit: NuisanceFit,
    tilt: TiltCoefficients,
    folds: np.ndarray,
) -> tuple[SourceSiteReport, np.ndarray]:
    """Source-side transported estimator.

    Each arm mean is the source-sample mean of the tilt-weighted AIPW residual
    plus the tilt-weighted excess of the outcome model over its projection
    tau_a on psi = (1, V), the tilt basis (fitted over all source units), plus
    the projection's target mean, ``tilt.target_mean @ tau_a``. The own-unit
    contributions include the first-order term from estimating the tilt
    coefficients: with the moment-matching Jacobian B and the effect
    difference's sensitivity A = d(mu_1 - mu_0)/dgamma, each unit contributes
    through A'B^{-1} times its centered moment-equation value. On the target
    side the projection and the target means of V both vary, so a target unit
    contributes its centered psi times tau_1 - tau_0 - B^{-1}A; the constant
    of centered psi is zero, so the reported ``target_coef`` is that vector's
    slopes. ``tilt`` is this source's :func:`solve_tilt` result; its basis
    psi, target mean of psi, uncapped weights and B are used as solved.

    Returns the upload, which summarizes the contributions over ``folds``,
    this site's own cross-validation folds (:func:`split_masks`, or none),
    with the contributions themselves (shape (n_k,)), which stay at the
    source. Raises :class:`SingularJacobian` when B is singular.
    """
    if source.role != "source":
        raise ValueError("the source estimator requires a source frame")
    psi, zeta, B = tilt.basis, tilt.weights, tilt.jacobian
    resid = _ipw_residual(source, fit, f"source {source.site_id}")
    tau = fit_ols(psi, fit.m.T).coefficients  # (d, 2): both arms' projections
    h = resid + (fit.m - (psi @ tau).T)
    own = zeta * h
    A = -psi.T @ (zeta * (h[1] - h[0])) / source.n
    try:
        w = np.linalg.solve(B, A)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"tilt Jacobian is singular at source {source.site_id}") from exc
    d = own[1] - own[0]
    noise = zeta * (psi @ w)  # the moment-equation values zeta * psi, times w
    contributions = (d - d.mean() + noise - noise.mean()) / source.n
    sq = contributions * contributions
    report = SourceSiteReport(
        n_k=source.n,
        mu0=float(own[0].mean() + tilt.target_mean @ tau[:, 0]),
        mu1=float(own[1].mean() + tilt.target_mean @ tau[:, 1]),
        own_sq=float(sq.sum()),
        fit_sq=folds @ sq,
        target_coef=(tau[:, 1] - tau[:, 0] - w)[1:],
    )
    return report, contributions


def complete_source_estimate(site_id: str, report: SourceSiteReport) -> SiteEstimate:
    """Target-side estimate of source ``site_id`` from its upload: its
    target-unit contributions are the target's centered V times the reported
    ``target_coef``, divided by n_T, so their coordinates in the target's Z
    are (0, target_coef, 0)."""
    return SiteEstimate(
        site_id=site_id,
        mu=(report.mu0, report.mu1),
        coef=np.concatenate(([0.0], report.target_coef, [0.0])),
        n_k=report.n_k,
        own_sq=report.own_sq,
        fit_sq=report.fit_sq,
    )
