"""Dense numerical primitives used by the statistical modules.

Linear least squares, logistic regression via iteratively reweighted least
squares (IRLS), a damped Newton root finder, and an exact active-set solver for
nonnegative penalized least squares on cross-products. All routines are
deterministic pure functions of their inputs; systems are solved by
factorization, never by multiplying with an inverse. Tolerances and
iteration caps are module constants, named in each solver's docstring.
"""

from __future__ import annotations

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
    support: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize ``||r - G eta||^2 + sum_k penalties[k] * eta[k]`` over eta >= 0,
    given only the cross-products ``gram = G'G`` and ``gtr = G'r``.

    Exact Lawson-Hanson active-set solve in Gram form (Bro and De Jong's fast
    NNLS): columns enter the passive set by largest gradient, each passive
    set's stationary point is solved directly, and a step back to the
    feasible region drops columns that turn nonpositive. ``support`` (a
    boolean mask, e.g. the previous penalty's ``eta > 0``) warm-starts the
    passive set; a warm start changes the path, not the solution. Columns
    with a zero Gram diagonal get ``eta_k = 0``. A column whose variance
    inflation on the passive set would exceed ``MAX_VIF`` counts as dependent
    on it and enters by exchange along the null direction instead of through
    a singular solve. The result must pass the KKT conditions to relative
    tolerance ``NNLS_TOL``.

    The name predates the active-set method; it is kept because the
    benchmark's tracer (``perfbench/tracing.py``) finds the weight solver by
    it.

    Raises
    ------
    ValueError
        On mismatched shapes, non-finite input or negative penalties.
    NoConvergence
        If ``NNLS_MAX_ITER`` passive-set changes do not reach the KKT conditions,
        or the final point fails them.
    """
    gram = np.asarray(gram, dtype=float)
    gtr = np.asarray(gtr, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    p = gtr.shape[0]
    if gtr.ndim != 1 or gram.shape != (p, p):
        raise ValueError(f"need a p x p gram and length-p gtr, got {gram.shape} and {gtr.shape}")
    if penalties.shape != (p,):
        raise ValueError("penalties length must equal the number of columns")
    if not (np.isfinite(gram).all() and np.isfinite(gtr).all() and np.isfinite(penalties).all()):
        raise ValueError("gram, gtr and penalties must be finite")
    if (penalties < 0).any():
        raise ValueError("penalties must be nonnegative")

    # The objective is eta'gram eta - 2 c'eta; half its negative gradient is
    # w = c - gram @ eta.
    c = gtr - 0.5 * penalties
    usable = gram.diagonal() > 0.0
    abs_gram = np.abs(gram)
    eye = np.eye(p)
    rhs = np.column_stack((c, eye))

    def stationary(passive):
        """Stationary point over the passive columns (zero elsewhere), or
        None when they are numerically dependent. Off the passive set the
        system is the identity, so one p x p solve gives the point and the
        passive columns' variance inflation gram_kk * inv(gram_PP)_kk."""
        system = np.where(passive[:, None] & passive, gram, eye)
        rhs[:, 0] = np.where(passive, c, 0.0)
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        vif = np.abs(system.diagonal() * sol.diagonal(1))
        if not vif.max() <= MAX_VIF:  # also catches NaN
            return None
        return sol[:, 0]

    passive = np.zeros(p, dtype=bool) if support is None else np.asarray(support, bool) & usable
    eta = stationary(passive) if passive.any() else None
    if eta is None:
        passive[:] = False
        eta = np.zeros(p)
    while np.any(eta[passive] <= 0.0):  # warm start: keep the positive part
        passive &= eta > 0.0
        eta = stationary(passive)

    for _ in range(NNLS_MAX_ITER):
        w = c - gram @ eta
        bound = NNLS_TOL * (np.abs(c) + abs_gram @ eta)
        free = usable & ~passive & (w > bound)
        if not free.any():
            if not np.all(np.abs(w[passive]) <= bound[passive]):
                raise NoConvergence("active-set solution fails the KKT conditions")
            return eta
        t = int(np.argmax(np.where(free, w, -np.inf)))
        passive[t] = True
        s = stationary(passive)
        if s is None:
            # Column t is numerically the passive columns times a
            # (gram_Pt = gram_PP a). Moving along -a on them and +1 on t
            # leaves gram @ eta unchanged and lowers the objective until a
            # passive column reaches zero; that column leaves and t enters.
            passive[t] = False
            a = np.zeros(p)
            a[passive] = np.linalg.solve(gram[passive][:, passive], gram[passive, t])
            shrink = passive & (a > 0.0)
            if not shrink.any():
                raise NoConvergence("objective unbounded along a dependent column")
            ratio = np.full(p, np.inf)
            ratio[shrink] = eta[shrink] / a[shrink]
            out = int(np.argmin(ratio))
            eta = np.maximum(eta - ratio[out] * a, 0.0)
            eta[out], eta[t] = 0.0, ratio[out]
            passive = (passive & (eta > 0.0)) | (np.arange(p) == t)
            s = stationary(passive)
        while s is not None and np.any(s[passive] <= 0.0):
            # Step from eta toward s until the first passive column hits zero.
            neg = passive & (s <= 0.0)
            steps = eta[neg] / np.maximum(eta[neg] - s[neg], np.finfo(float).tiny)
            eta = eta + steps.min() * (s - eta)
            eta[np.flatnonzero(neg)[np.argmin(steps)]] = 0.0
            passive &= eta > 0.0
            s = stationary(passive)
        if s is None:
            raise NoConvergence("passive columns became numerically dependent")
        eta = s
    raise NoConvergence(f"active set: no convergence in {NNLS_MAX_ITER} iterations")
