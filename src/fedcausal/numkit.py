"""Dense numerical primitives used by the statistical modules.

Linear least squares, logistic regression via iteratively reweighted least
squares (IRLS), a damped Newton root finder, and an exact active-set solver for
nonnegative penalized least squares on cross-products, which solves a batch
of such problems in one call. All routines are
deterministic pure functions of their inputs; systems are solved by
factorization, never by multiplying with an inverse. Tolerances and
iteration caps are module constants, named in each solver's docstring.
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
NNLS_MAX_ITER = 100


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
    """Numerically stable logistic function: with e = exp(-|z|), it is
    1 / (1 + e) for z >= 0 and e / (1 + e) otherwise, so exp never overflows."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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

    Solves a batch of problems in one call: ``gram`` is (..., p, p), ``gtr``
    and ``penalties`` are (..., p), and the three broadcast against each
    other to the batch shape of the returned eta (..., p).

    Exact Lawson-Hanson active-set solve in Gram form (Bro and De Jong's fast
    NNLS), run on all problems in lockstep: columns enter each problem's
    passive set by largest gradient, the stationary points of all passive
    sets are solved in one stacked solve, and a step back to the feasible
    region drops columns that turn nonpositive. Columns with a zero
    Gram diagonal get ``eta_k = 0``. A column whose variance inflation on the
    passive set would exceed ``MAX_VIF`` counts as dependent on it and enters
    by exchange along the null direction instead of through a singular solve.
    Each problem follows the same steps as when solved alone, and its result
    must pass the KKT conditions to relative tolerance ``NNLS_TOL``.

    The name predates the active-set method; it is kept because the
    benchmark's tracer (``perfbench/tracing.py``) finds the weight solver by
    it.

    Raises
    ------
    ValueError
        On mismatched shapes, non-finite input or negative penalties.
    NoConvergence
        If some problem's ``NNLS_MAX_ITER`` passive-set changes do not reach
        the KKT conditions, or its final point fails them.
    """
    gram = np.asarray(gram, dtype=float)
    gtr = np.asarray(gtr, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    p = gtr.shape[-1] if gtr.ndim else -1
    if gram.shape[-2:] != (p, p):
        raise ValueError(f"need a ... x p x p gram and ... x p gtr, got {gram.shape} and {gtr.shape}")
    if penalties.shape[-1:] != (p,):
        raise ValueError("penalties length must equal the number of columns")
    batch = np.broadcast_shapes(gram.shape[:-2], gtr.shape[:-1], penalties.shape[:-1])
    if not (np.isfinite(gram).all() and np.isfinite(gtr).all() and np.isfinite(penalties).all()):
        raise ValueError("gram, gtr and penalties must be finite")
    if (penalties < 0).any():
        raise ValueError("penalties must be nonnegative")

    # Problems are rows. The objective is eta'gram eta - 2 c'eta; half its
    # negative gradient is w = c - gram @ eta.
    n = math.prod(batch)
    gram = np.broadcast_to(gram, batch + (p, p)).reshape(n, p, p)
    c = np.broadcast_to(gtr - 0.5 * penalties, batch + (p,)).reshape(n, p)
    usable = np.diagonal(gram, axis1=1, axis2=2) > 0.0
    both = np.concatenate((gram, np.abs(gram)), axis=1)  # gram @ eta, |gram| @ eta
    abs_c = np.abs(c)
    eye = np.eye(p)
    # Off the passive set the system is the identity, so one p x p solve of
    # [c | I] gives the stationary point and the passive columns' variance
    # inflation gram_kk * inv(gram_PP)_kk.
    rhs = np.zeros((n, p, p + 1))
    rhs[:, :, 1:] = eye
    eta = np.zeros((n, p))
    passive = np.zeros((n, p), dtype=bool)
    entries = np.zeros(n, dtype=int)
    # A problem is current when eta is its passive set's stationary point. A
    # finished problem stays current and is solved again on each pass, to the
    # same point, so the stack needs no bookkeeping of finished rows.
    current = np.ones(n, dtype=bool)

    while True:
        products = both @ eta[:, :, None]
        w = c - products[:, :p, 0]
        bound = NNLS_TOL * (abs_c + products[:, p:, 0])
        free = current[:, None] & usable & ~passive & (w > bound)
        enter = free.any(axis=1)
        if current.all() and not enter.any():
            if not np.all(np.abs(w[passive]) <= bound[passive]):
                raise NoConvergence("active-set solution fails the KKT conditions")
            return eta.reshape(batch + (p,))
        entries += enter
        if entries.max() > NNLS_MAX_ITER:
            raise NoConvergence(f"active set: no convergence in {NNLS_MAX_ITER} iterations")
        t = np.argmax(np.where(free, w, -np.inf), axis=1)
        passive[enter, t[enter]] = True

        # np.linalg.solve fails a whole stack for one singular system; such a
        # stack is solved one at a time.
        system = np.where(passive[:, :, None] & passive[:, None, :], gram, eye)
        rhs[:, :, 0] = np.where(passive, c, 0.0)
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            sol = np.full(rhs.shape, np.nan)
            for i in range(n):
                try:
                    sol[i] = np.linalg.solve(system[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass  # left NaN, so its variance inflation fails below
        vif = np.abs(np.diagonal(system, axis1=1, axis2=2)
                     * np.diagonal(sol, offset=1, axis1=1, axis2=2))
        independent = vif.max(axis=1) <= MAX_VIF  # also rejects NaN
        if not independent.all():
            if not (independent | enter).all():
                raise NoConvergence("passive columns became numerically dependent")
            for i in np.flatnonzero(~independent):
                # Column t is numerically the passive columns times a
                # (gram_Pt = gram_PP a). Moving along -a on them and +1 on t
                # leaves gram @ eta unchanged and lowers the objective until
                # a passive column reaches zero; that column leaves and t
                # enters. The next pass solves the new passive set.
                P = passive[i]
                P[t[i]] = False
                a = np.zeros(p)
                a[P] = np.linalg.solve(gram[i][P][:, P], gram[i][P, t[i]])
                shrink = P & (a > 0.0)
                if not shrink.any():
                    raise NoConvergence("objective unbounded along a dependent column")
                ratio = np.full(p, np.inf)
                ratio[shrink] = eta[i, shrink] / a[shrink]
                out = int(np.argmin(ratio))
                eta[i] = np.maximum(eta[i] - ratio[out] * a, 0.0)
                eta[i, out], eta[i, t[i]] = 0.0, ratio[out]
                passive[i] = (P & (eta[i] > 0.0)) | (np.arange(p) == t[i])

        s = sol[:, :, 0]
        neg = passive & (s <= 0.0)
        infeasible = neg.any(axis=1)
        current = independent & ~infeasible
        eta = np.where(current[:, None], s, eta)
        if infeasible.any():
            # Step from eta toward s until the first passive column hits zero.
            back = np.flatnonzero(independent & infeasible)
            e, s, neg = eta[back], s[back], neg[back]
            steps = np.full(e.shape, np.inf)
            steps[neg] = e[neg] / np.maximum(e[neg] - s[neg], np.finfo(float).tiny)
            out = np.argmin(steps, axis=1)
            k = np.arange(len(back))
            e = e + steps[k, out][:, None] * (s - e)
            e[k, out] = 0.0
            eta[back] = e
            passive[back] &= e > 0.0
