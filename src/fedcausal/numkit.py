"""Dense numerical primitives used by the statistical modules.

Linear least squares, logistic regression via iteratively reweighted least
squares (IRLS), a damped Newton root finder, and an exact solver for
nonnegative penalized least squares on cross-products by enumeration of the
supports, which solves a batch of such problems in one call. All routines
are deterministic pure functions of their inputs; systems are solved by
factorization, never by multiplying with an inverse. Tolerances and
iteration caps are module constants, named in each solver's docstring.
Designs are column-major: :func:`add_intercept` builds them so,
:func:`standardized_design` builds them so with unit-SD feature columns, and
:func:`take_rows` gathers their rows so. :func:`gram` makes every unweighted
cross-product ``A'A``.

Both least-squares solvers, :func:`fit_ols` and the weight solver
:func:`nnls_coordinate_descent`, have one rule for a dependent column: a
column of the cross-products ``gram = G'G`` whose variance inflation
``gram_kk * inv(gram)_kk`` exceeds ``MAX_VIF``, or is NaN, depends on the
others. The inflation does not change when a column is rescaled, so the rule
does not depend on units, and a solution's relative error is about the
inflation times machine epsilon. :func:`fit_ols` and :func:`fit_logistic`
reject a design that holds a non-finite value, by name, before any solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    NoConvergence,
    RankDeficient,
    SingularJacobian,
    TooFewUnits,
)

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
    """Rows ``rows`` of a 2-D design, gathered into a new column-major array
    like :func:`add_intercept`'s."""
    return X.T.take(rows, axis=1).T  # a C-order (d, m) gather, transposed


def standardized_design(X: np.ndarray) -> np.ndarray:
    """:func:`add_intercept`'s design with each feature column centred and
    scaled to unit SD, in place on its contiguous columns.

    A constant column (min == max) becomes exactly zero, so a fit on the
    design fails as on a collinear one, never with NaN. Fitted values do not
    depend on the feature scales in exact arithmetic; in floating point the
    IRLS system is well conditioned whatever they are.
    """
    design = add_intercept(X)
    features = design.T[1:]  # a C-order (d, n) view of the feature columns
    constant = features.min(axis=1) == features.max(axis=1)
    features -= features.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.einsum("ij,ij->i", features, features) / features.shape[1])
    features /= np.where(constant, 1.0, sd)[:, None]
    features[constant] = 0.0
    return design


def _logistic(z: np.ndarray, y: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """expit(z) and, for a 0/1 ``y``, the per-unit Bernoulli log-likelihood
    y z - max(z, 0) - log1p(e) of ``y`` at linear predictor ``z``, both from
    one e = exp(-|z|), so exp never overflows: expit is 1 / (1 + e) for
    z >= 0 and e / (1 + e) otherwise."""
    shape = np.shape(z)
    e = np.abs(z, out=np.empty(shape))  # a float array, also for an int or 0-d z
    np.exp(np.negative(e, out=e), out=e)
    p = np.maximum(e, z >= 0, out=np.empty(shape))  # 1 where z >= 0, e elsewhere
    den = np.add(e, 1.0, out=np.empty(shape))  # an array the max below can fill
    p /= den
    if y is None:
        return p, None
    units = y * z
    units -= np.maximum(z, 0.0, out=den)
    units -= np.log1p(e, out=e)
    return p, units


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (see :func:`_logistic`)."""
    return _logistic(np.asarray(z, dtype=float), None)[0]


def logistic_loglik(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-unit Bernoulli log-likelihood of a 0/1 ``y`` at linear predictor
    ``z`` (see :func:`_logistic`); finite for every finite z, with no clip."""
    return _logistic(z, y)[1]


def gram(A: np.ndarray) -> np.ndarray:
    """The cross-products ``A'A`` of a 2-D array, as a new array.

    The product runs on a copy of ``A`` in its own layout: numpy sends the
    product of one buffer with its own transpose to BLAS syrk, which on tall,
    narrow designs is 2.5-4x slower than gemm on two buffers (10,000 x 5,
    OpenBLAS 0.3.31) and rounds apart from it.
    """
    return A.T @ A.copy(order="K")


def _finite_design(X: np.ndarray) -> np.ndarray:
    """``X`` as a float array; :class:`RankDeficient` if it holds a non-finite value."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise RankDeficient("design holds a non-finite value")
    return X


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Ordinary least squares from the cross-products: one solve of the Gram
    matrix ``X'X`` against ``[X'y | I]``, as :func:`nnls_coordinate_descent`
    solves each support.

    ``X`` is (n, d). A (n,) response gives (d,) coefficients; a (n, k)
    response gives (d, k), column j fitted to ``y[:, j]``, from the one solve
    that all k share.

    A column counts as dependent on the others under the weight solver's
    rule: its variance inflation ``gram_kk * inv(gram)_kk``, read off the
    ``I`` block, exceeds ``MAX_VIF``. The inflation does not change when a
    column is rescaled, so neither does the rule: a column in units of 1e-11
    of the others fits. The coefficients' relative error is about the
    largest inflation times machine epsilon (the normal equations square the
    design's condition number). ``site_estimator.source_report`` projects on
    the raw tilt basis psi = (1, V), where a shifted covariate inflates the
    intercept: with every site's covariates shifted by 500 (preset c1,
    aipw_l1, 20 replications, seed 5), the round's estimate agrees with an
    SVD solve (``np.linalg.lstsq``) to 3.9e-12.

    Raises
    ------
    TooFewUnits
        If the design has fewer rows than columns.
    RankDeficient
        If the design holds a non-finite value, if ``X'X`` is singular, or if
        some column's variance inflation exceeds ``MAX_VIF`` or is NaN.
    """
    X = _finite_design(X)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise TooFewUnits(f"need rows >= cols, got shape {X.shape}")
    XtX, d = gram(X), X.shape[1]
    k = 1 if y.ndim == 1 else y.shape[1]
    rhs = np.eye(d, d + k, k)  # [0 | I], its first k columns filled with X'y
    rhs[:, :k] = (X.T @ y).reshape(d, k)
    try:
        sol = np.linalg.solve(XtX, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("singular cross-products X'X") from exc
    vif = np.abs(XtX.diagonal() * sol.diagonal(k))  # sol.diagonal(k): that of the I block
    if not (vif <= MAX_VIF).all():  # also rejects NaN
        raise RankDeficient(f"variance inflation {vif.max():.3e} above MAX_VIF {MAX_VIF:.0e}")
    return LinearFit(coefficients=sol[:, :k].reshape((d,) + y.shape[1:]))


def fit_logistic(X: np.ndarray, y: np.ndarray, start: np.ndarray | None = None) -> LinearFit:
    """Logistic regression by IRLS (Newton) with step halving, from ``start``
    (zero by default).

    Each trial point is evaluated from its linear predictor z = X beta alone:
    its probabilities and log-likelihood come from :func:`_logistic`. The
    IRLS weights are computed in place, and every iteration writes ``X'``
    scaled by them into one array of the call. Convergence is declared when
    the mean score vector has infinity norm at most ``IRLS_TOL``; after
    ``IRLS_MAX_ITER`` iterations the fit is returned with ``converged=False``
    and a :class:`ConvergenceWarning`. Completely separated data converge too
    (in about 20 iterations), to large coefficients whose probabilities reach
    0 or 1, which the caller clips.

    Raises
    ------
    TooFewUnits
        If ``y`` is constant or empty.
    RankDeficient
        If the design holds a non-finite value, checked before the first
        iteration.
    SingularJacobian
        If the IRLS system is singular.
    NoConvergence
        If no step of ``MAX_HALVINGS`` halvings raises the log-likelihood.
    """
    X = _finite_design(X)
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be binary 0/1")
    if y.size == 0 or y.min() == y.max():
        raise TooFewUnits("response is constant or empty; both classes required")

    n, d = X.shape
    Xt = X.T
    beta = np.zeros(d) if start is None else np.asarray(start, dtype=float)
    p, units = _logistic(X @ beta, y)
    ll = units.sum()
    weighted = np.empty_like(Xt)  # X' scaled by w, rewritten by each iteration
    for it in range(1, IRLS_MAX_ITER + 1):
        grad = Xt @ (y - p) / n
        if abs(grad).max() <= IRLS_TOL:
            return LinearFit(coefficients=beta, converged=True, iterations=it - 1)
        w = 1.0 - p
        w *= p
        np.maximum(w, 1e-10, out=w)
        hess = np.multiply(Xt, w, out=weighted) @ X / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"singular IRLS system at iteration {it}") from exc
        alpha = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            cand = beta + alpha * step
            p_new, units = _logistic(X @ cand, y)
            ll_new = units.sum()
            if ll_new >= ll:  # False for NaN
                # The accepted candidate's probabilities start the next iteration.
                beta, p, ll = cand, p_new, ll_new
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"step halving failed {MAX_HALVINGS} times at iteration {it}")
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
    nr = abs(r).max()
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
            nr_new = abs(r_new).max()
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
    # np.linalg.solve fails a whole stack on one zero LU pivot, so such systems
    # are solved as the identity, and their NaN solutions fail the VIF below.
    singular = np.linalg.slogdet(system)[0] == 0
    sol = np.linalg.solve(np.where(singular[..., None, None], np.eye(p), system), rhs[:, None])
    sol[singular] = np.nan
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
