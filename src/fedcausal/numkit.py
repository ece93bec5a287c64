"""Dense numerical primitives used by the statistical modules.

Linear least squares, logistic regression via iteratively reweighted least
squares (IRLS), a damped Newton root finder, and an exact solver for
nonnegative penalized least squares on cross-products by enumeration of the
supports, which solves a batch of such problems in one call. All routines
are deterministic pure functions of their inputs; systems are solved by
factorization, never by multiplying with an inverse. Tolerances and
iteration caps are module constants, named in each solver's docstring.
Designs are column-major: :func:`add_intercept` builds them so and
:func:`take_rows` gathers their rows so.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    MissingClass,
    NoConvergence,
    RankDeficient,
    Separated,
    SingularJacobian,
)

# Relative singular-value cutoff below which a design is treated as rank deficient.
RANK_TOL = 1e-10
# Variance inflation above which a Gram column counts as dependent on the others.
MAX_VIF = 1e10
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 200
MAX_HALVINGS = 30
NNLS_TOL = 1e-10


@dataclass(frozen=True)
class LinearFit:
    """Coefficients of a fitted linear or logistic model."""

    coefficients: np.ndarray
    converged: bool = True
    iterations: int = 0


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a constant-one column to a 2-D feature array.

    The result is column-major, like every design the fits here receive
    (see :func:`take_rows`): each per-unit product and sum then runs down
    contiguous columns.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    design = np.empty((X.shape[0], X.shape[1] + 1), order="F")
    design[:, 0] = 1.0
    design[:, 1:] = X
    return design


def take_rows(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of a 2-D design, column-major like :func:`add_intercept`'s;
    ``X`` itself, not a copy, when ``rows`` is every row in order."""
    if len(rows) == X.shape[0] and np.array_equal(rows, np.arange(len(rows))):
        return X
    return X.T.take(rows, axis=1).T  # a C-order (d, m) gather, transposed


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: with e = exp(-|z|), it is
    1 / (1 + e) for z >= 0 and e / (1 + e) otherwise, so exp never overflows."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Ordinary least squares via an SVD-backed solve.

    ``X`` is (n, d). A (n,) response gives (d,) coefficients; a (n, k)
    response gives (d, k), column j fitted to ``y[:, j]``, from the one SVD
    of ``X`` that all k share.

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


def bernoulli_loglik(p: np.ndarray, y: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Per-unit Bernoulli log-likelihood of ``y`` at ``p`` clipped to
    [1e-12, 1 - 1e-12]; ``y0`` is 1 - y."""
    p = np.minimum(np.maximum(p, 1e-12), 1.0 - 1e-12)
    return y * np.log(p) + y0 * np.log1p(-p)


def fit_logistic(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Logistic regression by IRLS (Newton) with step halving.

    Convergence is declared when the mean score vector has infinity norm at
    most ``IRLS_TOL``; after ``IRLS_MAX_ITER`` iterations the fit is returned
    with ``converged=False`` and a :class:`ConvergenceWarning`.

    Raises
    ------
    MissingClass
        If ``y`` is constant.
    Separated
        If step halving fails ``MAX_HALVINGS`` consecutive times, indicating
        quasi-separation.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be binary 0/1")
    if y.min() == y.max():
        raise MissingClass("response is constant; both classes required")

    n, d = X.shape
    beta = np.zeros(d)
    y0 = 1.0 - y
    p = expit(X @ beta)
    ll = float(np.sum(bernoulli_loglik(p, y, y0)))
    for it in range(1, IRLS_MAX_ITER + 1):
        grad = X.T @ (y - p) / n
        if np.max(np.abs(grad)) <= IRLS_TOL:
            return LinearFit(coefficients=beta, converged=True, iterations=it - 1)
        w = np.maximum(p * (1.0 - p), 1e-10)
        hess = (X * w[:, None]).T @ X / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise Separated(f"singular IRLS system at iteration {it}") from exc
        alpha = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            cand = beta + alpha * step
            p_new = expit(X @ cand)
            ll_new = float(np.sum(bernoulli_loglik(p_new, y, y0)))
            if np.isfinite(ll_new) and ll_new >= ll:
                # The accepted candidate's probabilities start the next iteration.
                beta, p, ll = cand, p_new, ll_new
                break
            alpha *= 0.5
        else:
            raise Separated(
                f"step halving failed {MAX_HALVINGS} times at iteration {it}"
            )
    warnings.warn(
        f"IRLS stopped at its {IRLS_MAX_ITER}-iteration cap before converging",
        ConvergenceWarning,
        stacklevel=2,
    )
    return LinearFit(coefficients=beta, converged=False, iterations=IRLS_MAX_ITER)


def newton_solve(residual, jacobian, x0: np.ndarray) -> np.ndarray:
    """Damped Newton root finder enforcing monotone residual decrease.

    Converges when the infinity norm of the residual is at most ``NEWTON_TOL``
    within ``NEWTON_MAX_ITER`` iterations of at most ``MAX_HALVINGS`` step
    halvings each.

    Parameters
    ----------
    residual, jacobian : callable
        Map an (d,) vector to the residual vector / Jacobian matrix.
    x0 : array_like
        Starting point.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    r = np.atleast_1d(residual(x))
    nr = np.max(np.abs(r))
    if not np.isfinite(nr):
        raise NoConvergence("residual not finite at starting point")
    for _ in range(NEWTON_MAX_ITER):
        if nr <= NEWTON_TOL:
            return x
        jac = np.atleast_2d(jacobian(x))
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("Jacobian solve failed") from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("Jacobian solve produced non-finite step")
        alpha = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            x_new = x - alpha * step
            r_new = np.atleast_1d(residual(x_new))
            nr_new = np.max(np.abs(r_new))
            if np.isfinite(nr_new) and nr_new < nr:
                x, r, nr = x_new, r_new, nr_new
                break
            alpha *= 0.5
        else:
            raise NoConvergence("step halving could not reduce the residual")
    raise NoConvergence(f"no convergence after {NEWTON_MAX_ITER} iterations")


def nnls_coordinate_descent(
    gram: np.ndarray,
    gtr: np.ndarray,
    penalties: np.ndarray,
) -> np.ndarray:
    """Minimize ``||r - G eta||^2 + sum_k penalties[k] * eta[k]`` over eta >= 0,
    given only the cross-products ``gram = G'G`` and ``gtr = G'r``.

    ``gram`` (..., p, p) and ``gtr`` (..., p) broadcast to a batch of Gram
    systems, each solved for every row of ``penalties`` (L, p): eta is
    (..., L, p), or (..., p) for one (p,) row.

    Exact by support enumeration: some optimum is the stationary point of a
    support with independent columns and positive weights (Lawson and Hanson,
    *Solving Least Squares Problems*, 1974). The systems of all 2^p supports,
    the identity off the support, are built once per Gram matrix and solved
    in one stack against ``[c_1 ... c_L | I]``, ``c_l = gtr - penalties[l]/2``.
    Columns with a zero Gram diagonal get eta_k = 0. A support counts if the
    variance inflation ``gram_kk * inv(gram_SS)_kk`` read off the ``I`` block
    is at most ``MAX_VIF`` and its weights are positive. The least objective,
    ``-c'eta`` at a stationary point, wins (eta = 0 always counts) and must
    pass the KKT conditions to relative tolerance ``NNLS_TOL``. The cost
    doubles with each column.

    The name predates the enumeration; it is kept because the benchmark's
    tracer (``perfbench/tracing.py``) finds the weight solver by it.

    Raises
    ------
    ValueError
        On mismatched shapes, non-finite input or negative penalties.
    NoConvergence
        If some result fails the KKT conditions.
    """
    gram = np.asarray(gram, dtype=float)
    gtr = np.asarray(gtr, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    p = gtr.shape[-1] if gtr.ndim else -1
    if gram.shape[-2:] != (p, p):
        raise ValueError(f"need a ... x p x p gram and ... x p gtr, got {gram.shape} and {gtr.shape}")
    if penalties.ndim not in (1, 2) or penalties.shape[-1] != p:
        raise ValueError("penalties must be (L, p) or (p,), one per column")
    batch = np.broadcast_shapes(gram.shape[:-2], gtr.shape[:-1])
    if not (np.isfinite(gram).all() and np.isfinite(gtr).all() and np.isfinite(penalties).all()):
        raise ValueError("gram, gtr and penalties must be finite")
    if (penalties < 0).any():
        raise ValueError("penalties must be nonnegative")

    # Problems are (Gram matrix i, penalty row l). Supports are rows s of `on`,
    # bit k of s holding column k, so s = 0 is eta = 0; a support drops its
    # zero-diagonal columns, which makes it a copy of a smaller one.
    n, L = math.prod(batch), math.prod(penalties.shape[:-1])
    gram = np.broadcast_to(gram, batch + (p, p)).reshape(n, p, p)
    c = np.broadcast_to(gtr, batch + (p,)).reshape(n, 1, p) - 0.5 * penalties.reshape(L, p)
    usable = np.diagonal(gram, axis1=1, axis2=2) > 0.0
    on = ((np.arange(2**p)[:, None] >> np.arange(p)) & 1 == 1) & usable[:, None, :]
    system = np.where(on[..., :, None] & on[..., None, :], gram[:, None], np.eye(p))
    rhs = np.concatenate((c.transpose(0, 2, 1), np.broadcast_to(np.eye(p), (n, p, p))), axis=2)
    # np.linalg.solve fails a whole stack for one singular system; such a
    # stack is solved one at a time.
    try:
        sol = np.linalg.solve(system, rhs[:, None])
    except np.linalg.LinAlgError:
        sol = np.full(system.shape[:-1] + (L + p,), np.nan)
        for i in np.ndindex(system.shape[:2]):
            try:
                sol[i] = np.linalg.solve(system[i], rhs[i[0]])
            except np.linalg.LinAlgError:
                pass  # left NaN, so its variance inflation fails below
    vif = np.abs(np.diagonal(system, axis1=2, axis2=3)
                 * np.diagonal(sol[..., L:], axis1=2, axis2=3))
    independent = (vif <= MAX_VIF).all(axis=2)  # also rejects NaN
    eta = np.where(on[:, :, None, :], sol[..., :L].transpose(0, 1, 3, 2), 0.0)
    counted = independent[:, :, None] & ((eta > 0.0) | ~on[:, :, None, :]).all(axis=3)
    objective = np.where(counted, -np.einsum("nlk,nslk->nsl", c, eta), np.inf)
    eta = np.take_along_axis(eta, np.argmin(objective, axis=1)[:, None, :, None], axis=1)[:, 0]

    # KKT: half the negative gradient w = c - gram @ eta is zero on the
    # support and nonpositive on the other usable columns.
    w = c - eta @ gram.transpose(0, 2, 1)
    bound = NNLS_TOL * (np.abs(c) + eta @ np.abs(gram).transpose(0, 2, 1))
    slack = np.where(eta > 0.0, np.abs(w), np.where(usable[:, None, :], w, -np.inf))
    if not (slack <= bound).all():  # also rejects NaN
        raise NoConvergence("support enumeration result fails the KKT conditions")
    return eta.reshape(batch + penalties.shape)
