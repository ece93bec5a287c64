"""Exponential-tilt density ratio between target and source covariate laws.

The target site shares only the sample means of its q shared covariates V;
each source site solves the moment-matching estimating equation with its own
data. The ratio model is ``exp(-gamma' psi(V))`` with the linear basis
``psi(V) = (1, V)`` (``numkit.add_intercept``), so the fitted weights average
to one over the source sample and balance the shared-covariate means, as in
entropy balancing. The constant of psi, whose target mean is 1, lives only in
the source's tilt: a summary holds the q means of V. No weight is capped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExtremeWeightsWarning, MissingColumns, TooFewUnits
from .numkit import add_intercept, newton_solve
from .wire import payload_text, read_payload

EXTREME_RATIO = 100.0


@dataclass(frozen=True)
class MomentSummary:
    """Summary-level payload: means of the shared covariates V over the
    target units.

    Its length is the shared dimension q, which the ledger audit reads; the
    sender is the logged message's ``from_site``.
    """

    mean_v: np.ndarray

    def to_json(self) -> str:
        return payload_text(self)

    @staticmethod
    def from_json(payload: str) -> "MomentSummary":
        return read_payload("moment_summary", payload, MomentSummary)


@dataclass(frozen=True)
class TiltCoefficients:
    """A solved tilt at the returned gamma: gamma, its residual norm, the
    weights ``exp(-psi gamma)`` on the source units, which every estimator
    reads uncapped, and the moment-matching Jacobian ``B = mean(psi psi'
    exp(-psi gamma))``, with the basis ``psi = (1, V)`` they were solved on
    and the target mean of psi, ``(1, mean_v)``, that they balance."""

    gamma: np.ndarray
    residual_norm: float
    weights: np.ndarray
    jacobian: np.ndarray
    basis: np.ndarray
    target_mean: np.ndarray


def target_moments(V_target: np.ndarray) -> MomentSummary:
    """Componentwise sample mean of the shared covariates over the target
    units; :class:`TooFewUnits` if there are none."""
    V_target = np.atleast_2d(np.asarray(V_target, dtype=float))
    if V_target.shape[0] == 0:
        raise TooFewUnits("target covariate block is empty")
    return MomentSummary(V_target.mean(axis=0))


def solve_tilt(source_V: np.ndarray, target_summary: MomentSummary) -> TiltCoefficients:
    """Solve the moment-matching equation for the tilt coefficients.

    The residual is the target basis mean ``tgt = (1, mean_v)`` minus the
    tilt-weighted source basis mean, ``tgt - psi' zeta / n`` with
    zeta = exp(-psi gamma), whose first entry makes the weights average to
    one; the Newton solve starts at gamma = 0, the no-shift reference point,
    and stops at a residual norm of ``numkit.NEWTON_TOL``. The weights are
    computed once per trial gamma, and the weighted basis psi * zeta only for
    the Jacobian, which the Newton solver asks for only at the point whose
    residual it accepted last; the reported residual norm, weights and
    Jacobian are those of the returned gamma. Fewer source units than basis
    columns raise :class:`TooFewUnits`.
    """
    psi = add_intercept(source_V)
    n_k, d = psi.shape
    if n_k < d:
        raise TooFewUnits(f"source sample size {n_k} below basis dimension {d}")
    if len(target_summary.mean_v) != d - 1:
        raise MissingColumns(f"target summary has {len(target_summary.mean_v)} shared "
                             f"covariate means, the source has {d - 1} shared covariates")
    tgt = np.concatenate(([1.0], target_summary.mean_v))

    # The last trial gamma, by identity, with its weights and residual:
    # newton_solve asks for the Jacobian only at the array it evaluated last.
    last = {}

    def residual(gamma):
        if gamma is not last.get("gamma"):
            weights = psi @ gamma
            np.exp(np.negative(weights, out=weights), out=weights)
            last.update(gamma=gamma, weights=weights, r=tgt - psi.T @ weights / n_k)
        return last["r"]

    def jacobian(gamma):
        residual(gamma)
        return (psi * last["weights"][:, None]).T @ psi / n_k

    gamma = newton_solve(residual, jacobian, np.zeros(d))
    B = jacobian(gamma)  # also leaves ``last`` at the returned gamma
    return TiltCoefficients(
        gamma=gamma,
        residual_norm=float(np.max(np.abs(last["r"]))),
        weights=last["weights"],
        jacobian=B,
        basis=psi,
        target_mean=tgt,
    )


def truncate_weights(site_id: str, weights: np.ndarray) -> tuple[np.ndarray, dict]:
    """Check the tilt weights of source ``site_id``: warn, naming the site,
    when their max/mean ratio exceeds ``EXTREME_RATIO``.

    Returns the weights unchanged with ``{"n_capped": 0, "max_over_mean":
    ratio}``: nothing is capped, and the name and result shape stay only for
    the benchmark's tracer, until the benchmark refresh (ROADMAP items 5, 6).
    """
    weights = np.asarray(weights, dtype=float)
    ratio = float(weights.max() / weights.mean()) if weights.mean() > 0 else np.inf
    if ratio > EXTREME_RATIO:
        warnings.warn(
            f"site {site_id}: density-ratio weights max/mean = {ratio:.1f} "
            f"exceeds {EXTREME_RATIO}",
            ExtremeWeightsWarning,
            stacklevel=2,
        )
    return weights, {"n_capped": 0, "max_over_mean": ratio}
