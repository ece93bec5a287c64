"""Exponential-tilt density ratio between target and source covariate laws.

The target site shares only the sample mean of a basis expansion of its
shared covariates; each source site solves the moment-matching estimating
equation with its own data. The ratio model is ``exp(-gamma' psi(V))`` with a
basis ``psi`` whose first element is the constant 1, so the fitted weights
average to one over the source sample by construction.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, ExtremeWeightsWarning
from .numkit import newton_solve

BASIS_KINDS = ("linear", "linear_plus_squares")
TRUNCATION_PERCENTILE = 99.9
TRUNCATION_FACTOR = 10.0
EXTREME_RATIO = 100.0


@dataclass(frozen=True)
class BasisSpec:
    """Basis expansion for the tilt model: constant 1 plus covariate terms."""

    kind: str = "linear"

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")

    def expand(self, V: np.ndarray) -> np.ndarray:
        """Map an (n, q) covariate block to its (n, d) basis expansion."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        ones = np.ones((V.shape[0], 1))
        if self.kind == "linear":
            return np.hstack([ones, V])
        return np.hstack([ones, V, V**2])

    def dimension(self, n_covariates: int) -> int:
        if self.kind == "linear":
            return 1 + n_covariates
        return 1 + 2 * n_covariates


@dataclass(frozen=True)
class MomentSummary:
    """Summary-level payload: basis means of the target covariates."""

    site_id: str
    n: int
    basis: BasisSpec
    mean_basis: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "site_id": self.site_id,
                "n": self.n,
                "basis": {"kind": self.basis.kind, "d": len(self.mean_basis)},
                "mean_basis": list(map(float, self.mean_basis)),
            }
        )

    @staticmethod
    def from_json(payload: str) -> "MomentSummary":
        obj = json.loads(payload)
        return MomentSummary(
            site_id=obj["site_id"],
            n=int(obj["n"]),
            basis=BasisSpec(kind=obj["basis"]["kind"]),
            mean_basis=np.asarray(obj["mean_basis"], dtype=float),
        )


@dataclass(frozen=True)
class TiltCoefficients:
    gamma: np.ndarray
    basis: BasisSpec
    residual_norm: float


def target_moments(V_target: np.ndarray, basis: BasisSpec, site_id: str = "target") -> MomentSummary:
    """Componentwise sample mean of ``psi(V)`` over the target units."""
    V_target = np.atleast_2d(np.asarray(V_target, dtype=float))
    if V_target.shape[0] == 0:
        raise EmptySample("target covariate block is empty")
    psi = basis.expand(V_target)
    return MomentSummary(
        site_id=site_id,
        n=V_target.shape[0],
        basis=basis,
        mean_basis=psi.mean(axis=0),
    )


def solve_tilt(
    source_V: np.ndarray,
    target_summary: MomentSummary,
    basis: BasisSpec,
) -> TiltCoefficients:
    """Solve the moment-matching equation for the tilt coefficients.

    The residual is the target basis mean minus the tilt-weighted source basis
    mean; the Newton solve starts at gamma = 0, the no-shift reference point,
    and stops at a residual norm of ``numkit.NEWTON_TOL``.
    """
    if basis.kind != target_summary.basis.kind:
        raise ValueError("basis mismatch between source and target summary")
    psi = basis.expand(source_V)
    n_k, d = psi.shape
    if n_k < d:
        raise EmptySample(f"source sample size {n_k} below basis dimension {d}")
    if len(target_summary.mean_basis) != d:
        raise ValueError("target summary dimension does not match basis")
    tgt = np.asarray(target_summary.mean_basis, dtype=float)

    def residual(gamma):
        w = np.exp(-psi @ gamma)
        return tgt - (psi * w[:, None]).mean(axis=0)

    def jacobian(gamma):
        w = np.exp(-psi @ gamma)
        return (psi * w[:, None]).T @ psi / n_k

    gamma = newton_solve(residual, jacobian, np.zeros(d))
    return TiltCoefficients(
        gamma=gamma,
        basis=basis,
        residual_norm=float(np.max(np.abs(residual(gamma)))),
    )


def ratio_weights(coeffs: TiltCoefficients, source_V: np.ndarray) -> np.ndarray:
    """Evaluate ``exp(-gamma' psi(V))`` on source units; strictly positive."""
    psi = coeffs.basis.expand(source_V)
    if psi.shape[1] != len(coeffs.gamma):
        raise ValueError("dimension mismatch between coefficients and covariates")
    return np.exp(-psi @ coeffs.gamma)


def truncate_weights(weights: np.ndarray) -> tuple[np.ndarray, dict]:
    """Cap extreme density-ratio weights inside estimators.

    The cap is ``TRUNCATION_FACTOR`` times the ``TRUNCATION_PERCENTILE``
    percentile. Returns the capped weights and a diagnostics dict; warns when
    the post-cap max/mean ratio exceeds ``EXTREME_RATIO``.
    """
    weights = np.asarray(weights, dtype=float)
    cap = float(np.percentile(weights, TRUNCATION_PERCENTILE)) * TRUNCATION_FACTOR
    capped = np.minimum(weights, cap)
    n_capped = int(np.sum(weights > cap))
    ratio = float(capped.max() / capped.mean()) if capped.mean() > 0 else np.inf
    diagnostics = {"cap": cap, "n_capped": n_capped, "max_over_mean": ratio}
    if ratio > EXTREME_RATIO:
        warnings.warn(
            f"density-ratio weights max/mean = {ratio:.1f} exceeds {EXTREME_RATIO}",
            ExtremeWeightsWarning,
            stacklevel=2,
        )
    return capped, diagnostics
