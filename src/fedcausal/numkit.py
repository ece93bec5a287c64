"""Dense numerical primitives used by the statistical modules.

Linear least squares, logistic regression via iteratively reweighted least
squares (IRLS), a damped Newton root finder, and nonnegative coordinate-descent
penalized least squares. All routines are deterministic pure functions of
their inputs; no explicit matrix inversion is performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MissingClass,
    NoConvergence,
    RankDeficient,
    Separated,
    SingularJacobian,
)

# Relative singular-value cutoff below which a design is treated as rank deficient.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class LinearFit:
    """Coefficients of a fitted linear or logistic model."""

    coefficients: np.ndarray
    converged: bool = True
    iterations: int = 0


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a constant-one column to a 2-D feature array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([np.ones((X.shape[0], 1)), X])


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Ordinary least squares via an SVD-backed solve.

    Raises
    ------
    RankDeficient
        If the smallest singular value is below ``RANK_TOL`` times the largest.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise RankDeficient(f"need rows >= cols, got shape {X.shape}")
    coef, _, rank, sv = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1] or sv[-1] < RANK_TOL * sv[0]:
        raise RankDeficient(
            f"smallest singular value {sv[-1]:.3e} below {RANK_TOL:.0e} * {sv[0]:.3e}"
        )
    return LinearFit(coefficients=coef)


def _bernoulli_loglik(p: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
    max_halvings: int = 30,
) -> LinearFit:
    """Logistic regression by IRLS (Newton) with step halving.

    Convergence is declared when the mean score vector has infinity norm at
    most ``tol``; after ``max_iter`` iterations the fit is returned with
    ``converged=False``.

    Raises
    ------
    MissingClass
        If ``y`` is constant.
    Separated
        If step halving fails ``max_halvings`` consecutive times, indicating
        quasi-separation.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("y must be binary 0/1")
    if y.min() == y.max():
        raise MissingClass("response is constant; both classes required")

    n, d = X.shape
    beta = np.zeros(d)
    p = expit(X @ beta)
    ll = _bernoulli_loglik(p, y)
    for it in range(1, max_iter + 1):
        grad = X.T @ (y - p) / n
        if np.max(np.abs(grad)) <= tol:
            return LinearFit(coefficients=beta, converged=True, iterations=it - 1)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (X * w[:, None]).T @ X / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise Separated(f"singular IRLS system at iteration {it}") from exc
        alpha = 1.0
        for halving in range(max_halvings + 1):
            cand = beta + alpha * step
            p_new = expit(X @ cand)
            ll_new = _bernoulli_loglik(p_new, y)
            if np.isfinite(ll_new) and ll_new >= ll:
                # The accepted candidate's probabilities start the next iteration.
                beta, p, ll = cand, p_new, ll_new
                break
            alpha *= 0.5
        else:
            raise Separated(
                f"step halving failed {max_halvings} times at iteration {it}"
            )
    return LinearFit(coefficients=beta, converged=False, iterations=max_iter)


def newton_solve(
    residual,
    jacobian,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200,
    max_halvings: int = 30,
) -> np.ndarray:
    """Damped Newton root finder enforcing monotone residual decrease.

    Parameters
    ----------
    residual, jacobian : callable
        Map an (d,) vector to the residual vector / Jacobian matrix.
    x0 : array_like
        Starting point.
    tol : float
        Convergence threshold on the infinity norm of the residual.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    r = np.atleast_1d(residual(x))
    nr = np.max(np.abs(r))
    if not np.isfinite(nr):
        raise NoConvergence("residual not finite at starting point")
    for _ in range(max_iter):
        if nr <= tol:
            return x
        jac = np.atleast_2d(jacobian(x))
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("Jacobian solve failed") from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Jacobian solve produced non-finite step")
        alpha = 1.0
        for _halving in range(max_halvings + 1):
            x_new = x - alpha * step
            r_new = np.atleast_1d(residual(x_new))
            nr_new = np.max(np.abs(r_new))
            if np.isfinite(nr_new) and nr_new < nr:
                x, r, nr = x_new, r_new, nr_new
                break
            alpha *= 0.5
        else:
            raise NoConvergence("step halving could not reduce the residual")
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def nnls_coordinate_descent(
    G: np.ndarray,
    r: np.ndarray,
    penalties: np.ndarray,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> np.ndarray:
    """Minimize ``||r - G eta||^2 + sum_k penalties[k] * eta[k]`` over eta >= 0.

    Exact coordinate soft-threshold-at-zero updates; sweeps stop once the
    largest coordinate change in a full sweep falls below ``tol``.
    """
    G = np.asarray(G, dtype=float)
    r = np.asarray(r, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    p = G.shape[1]
    if penalties.shape != (p,):
        raise ValueError("penalties length must equal the number of columns")
    if np.any(penalties < 0):
        raise ValueError("penalties must be nonnegative")

    gram = G.T @ G
    gtr = G.T @ r
    diag = np.diag(gram)
    eta = np.zeros(p)
    for _sweep in range(max_sweeps):
        max_change = 0.0
        for k in range(p):
            if diag[k] <= 0.0:
                continue
            # Partial residual correlation with column k, excluding eta_k itself.
            rho = gtr[k] - gram[k] @ eta + diag[k] * eta[k]
            numer = rho - 0.5 * penalties[k]
            new = numer / diag[k] if numer > 0.0 else 0.0
            change = abs(new - eta[k])
            if change > max_change:
                max_change = change
            eta[k] = new
        if max_change < tol:
            return eta
    raise NoConvergence(f"coordinate descent: no convergence in {max_sweeps} sweeps")
