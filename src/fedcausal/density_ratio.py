"""Exponential-tilt density ratio between target and source covariate laws.

The target site shares only the sample means of its shared covariates; each
source site solves the moment-matching estimating equation with its own data.
The ratio model is ``exp(-gamma' psi(V))`` with the linear basis
``psi(V) = (1, V)`` (``numkit.add_intercept``), so the fitted weights average
to one over the source sample and balance the shared-covariate means, as in
entropy balancing. A summary of q shared covariates has dimension d = q + 1.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, ExtremeWeightsWarning
from .numkit import add_intercept, newton_solve

TRUNCATION_PERCENTILE = 99.9
TRUNCATION_FACTOR = 10.0
EXTREME_RATIO = 100.0


@dataclass(frozen=True)
class MomentSummary:
    """Summary-level payload: means of ``(1, V)`` over the target units.

    The wire form also carries the basis dimension ``d``, which the ledger
    audit reads; the sender is the logged message's ``from_site``.
    """

    mean_basis: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {"d": len(self.mean_basis), "mean_basis": list(map(float, self.mean_basis))}
        )

    @staticmethod
    def from_json(payload: str) -> "MomentSummary":
        return MomentSummary(np.asarray(json.loads(payload)["mean_basis"], dtype=float))


@dataclass(frozen=True)
class TiltCoefficients:
    """A solved tilt: its coefficients and residual norm, the weights
    ``exp(-psi gamma)`` on the source units, and the moment-matching Jacobian
    ``B = mean(psi psi' exp(-psi gamma))``, all at the returned gamma."""

    gamma: np.ndarray
    residual_norm: float
    weights: np.ndarray
    jacobian: np.ndarray


def target_moments(V_target: np.ndarray) -> MomentSummary:
    """Componentwise sample mean of ``(1, V)`` over the target units."""
    V_target = np.atleast_2d(np.asarray(V_target, dtype=float))
    if V_target.shape[0] == 0:
        raise EmptySample("target covariate block is empty")
    return MomentSummary(add_intercept(V_target).mean(axis=0))


def solve_tilt(source_V: np.ndarray, target_summary: MomentSummary) -> TiltCoefficients:
    """Solve the moment-matching equation for the tilt coefficients.

    The residual is the target basis mean minus the tilt-weighted source basis
    mean; the Newton solve starts at gamma = 0, the no-shift reference point,
    and stops at a residual norm of ``numkit.NEWTON_TOL``. The weighted basis
    psi * exp(-psi gamma) is computed once per trial gamma: the Newton solver
    asks for the Jacobian only at the point whose residual it accepted last,
    and the reported residual norm, weights and Jacobian are those of the
    returned gamma.
    """
    psi = add_intercept(source_V)
    n_k, d = psi.shape
    if n_k < d:
        raise EmptySample(f"source sample size {n_k} below basis dimension {d}")
    if len(target_summary.mean_basis) != d:
        raise ValueError("target summary dimension does not match basis")
    tgt = np.asarray(target_summary.mean_basis, dtype=float)

    last = {}  # the last trial gamma, its weights, weighted basis and residual

    def residual(gamma):
        if not np.array_equal(last.get("gamma"), gamma):
            weights = np.exp(-psi @ gamma)
            weighted = psi * weights[:, None]
            last.update(gamma=gamma, weights=weights, weighted=weighted,
                        r=tgt - weighted.mean(axis=0))
        return last["r"]

    def jacobian(gamma):
        residual(gamma)
        return last["weighted"].T @ psi / n_k

    gamma = newton_solve(residual, jacobian, np.zeros(d))
    B = jacobian(gamma)  # also leaves ``last`` at the returned gamma
    return TiltCoefficients(
        gamma=gamma,
        residual_norm=float(np.max(np.abs(last["r"]))),
        weights=last["weights"],
        jacobian=B,
    )


def truncate_weights(site_id: str, weights: np.ndarray) -> tuple[np.ndarray, dict]:
    """Cap extreme density-ratio weights of source ``site_id`` inside estimators.

    The cap is ``TRUNCATION_FACTOR`` times the ``TRUNCATION_PERCENTILE``
    percentile. Returns the capped weights and a diagnostics dict, which stays
    at the site (only the benchmark's tracer reads it); warns, naming the
    site, when the post-cap max/mean ratio exceeds ``EXTREME_RATIO``.
    """
    weights = np.asarray(weights, dtype=float)
    cap = float(np.percentile(weights, TRUNCATION_PERCENTILE)) * TRUNCATION_FACTOR
    capped = np.minimum(weights, cap)
    n_capped = int(np.sum(weights > cap))
    ratio = float(capped.max() / capped.mean()) if capped.mean() > 0 else np.inf
    diagnostics = {"cap": cap, "n_capped": n_capped, "max_over_mean": ratio}
    if ratio > EXTREME_RATIO:
        warnings.warn(
            f"site {site_id}: density-ratio weights max/mean = {ratio:.1f} "
            f"exceeds {EXTREME_RATIO}",
            ExtremeWeightsWarning,
            stacklevel=2,
        )
    return capped, diagnostics
