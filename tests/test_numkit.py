"""Tests for the dense numerical primitives, with scipy as independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from fedcausal.errors import (
    MissingClass,
    NoConvergence,
    RankDeficient,
    SingularJacobian,
)
from fedcausal.numkit import (
    add_intercept,
    expit,
    fit_logistic,
    fit_ols,
    newton_solve,
    nnls_coordinate_descent,
)


def nnls_objective(G, r, penalties, eta):
    resid = r - G @ eta
    return float(resid @ resid + penalties @ eta)


def test_add_intercept():
    X = np.arange(6.0).reshape(3, 2)
    D = add_intercept(X)
    assert D.shape == (3, 3)
    assert np.all(D[:, 0] == 1.0)
    assert np.array_equal(D[:, 1:], X)


def test_expit_matches_scipy():
    z = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    out = expit(z)
    assert np.allclose(out, special.expit(z), atol=1e-15)
    assert np.all(np.isfinite(out))


def test_fit_ols_exact_recovery():
    rng = np.random.default_rng(0)
    X = add_intercept(rng.standard_normal((50, 3)))
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    fit = fit_ols(X, X @ beta)
    assert np.allclose(fit.coefficients, beta, atol=1e-10)


def test_fit_ols_rank_deficient():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20)
    X = np.column_stack([np.ones(20), x, 2.0 * x])
    with pytest.raises(RankDeficient):
        fit_ols(X, rng.standard_normal(20))
    with pytest.raises(RankDeficient):
        fit_ols(rng.standard_normal((2, 5)), rng.standard_normal(2))


def test_fit_logistic_against_scipy_mle():
    rng = np.random.default_rng(2)
    X = add_intercept(rng.standard_normal((4000, 2)))
    beta = np.array([0.3, -1.0, 0.7])
    y = (rng.random(4000) < special.expit(X @ beta)).astype(float)

    fit = fit_logistic(X, y)
    assert fit.converged

    def nll(b):
        p = np.clip(special.expit(X @ b), 1e-12, 1 - 1e-12)
        return -np.sum(y * np.log(p) + (1 - y) * np.log1p(-p))

    oracle = optimize.minimize(nll, np.zeros(3), method="BFGS", options={"gtol": 1e-9})
    assert np.allclose(fit.coefficients, oracle.x, atol=1e-5)


def test_fit_logistic_missing_class():
    X = add_intercept(np.random.default_rng(3).standard_normal((30, 2)))
    with pytest.raises(MissingClass):
        fit_logistic(X, np.ones(30))


def test_fit_logistic_rejects_nonbinary():
    X = add_intercept(np.zeros((5, 1)))
    with pytest.raises(ValueError):
        fit_logistic(X, np.array([0.0, 1.0, 2.0, 0.0, 1.0]))


def test_newton_solve_known_root():
    root = newton_solve(
        lambda x: np.array([x[0] ** 3 - 8.0]),
        lambda x: np.array([[3.0 * x[0] ** 2]]),
        np.array([1.0]),
    )
    assert abs(root[0] - 2.0) < 1e-10


def test_newton_solve_singular_jacobian():
    with pytest.raises(SingularJacobian):
        newton_solve(
            lambda x: np.array([1.0 + x[0]]),
            lambda x: np.array([[0.0]]),
            np.array([0.0]),
        )


def test_newton_solve_no_progress():
    # Constant residual: no step can reduce it.
    with pytest.raises(NoConvergence):
        newton_solve(
            lambda x: np.array([1.0]),
            lambda x: np.array([[1.0]]),
            np.array([0.0]),
        )


def _random_instance(rng):
    n, p = 40, 5
    G = rng.standard_normal((n, p))
    r = rng.standard_normal(n)
    penalties = rng.uniform(0.0, 2.0, p)
    return G, r, penalties


def test_nnls_matches_projected_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        G, r, penalties = _random_instance(rng)
        eta = nnls_coordinate_descent(G.T @ G, G.T @ r, penalties)
        assert np.all(eta >= 0.0)
        oracle = optimize.minimize(
            lambda e: nnls_objective(G, r, penalties, e),
            np.full(5, 0.1),
            method="L-BFGS-B",
            bounds=[(0.0, None)] * 5,
            options={"ftol": 1e-15, "gtol": 1e-12},
        )
        ours = nnls_objective(G, r, penalties, eta)
        assert ours <= oracle.fun + 1e-6


def test_nnls_kkt_conditions():
    rng = np.random.default_rng(8)
    G, r, penalties = _random_instance(rng)
    eta = nnls_coordinate_descent(G.T @ G, G.T @ r, penalties)
    grad = 2.0 * G.T @ (G @ eta - r) + penalties
    for k in range(len(eta)):
        if eta[k] > 0.0:
            assert abs(grad[k]) < 1e-6
        else:
            assert grad[k] > -1e-6


def test_nnls_recovers_nonnegative_truth():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((60, 4))
    eta_true = np.array([0.5, 0.0, 2.0, 1.25])
    eta = nnls_coordinate_descent(G.T @ G, G.T @ (G @ eta_true), np.zeros(4))
    assert np.allclose(eta, eta_true, atol=1e-8)


def test_nnls_huge_penalty_gives_zero():
    rng = np.random.default_rng(10)
    G, r, _ = _random_instance(rng)
    eta = nnls_coordinate_descent(G.T @ G, G.T @ r, np.full(5, 1e12))
    assert np.array_equal(eta, np.zeros(5))


def test_nnls_penalty_validation():
    G = np.eye(3)
    r = np.ones(3)
    with pytest.raises(ValueError):
        nnls_coordinate_descent(G.T @ G, G.T @ r, np.zeros(2))
    with pytest.raises(ValueError):
        nnls_coordinate_descent(G.T @ G, G.T @ r, np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        nnls_coordinate_descent(np.ones((3, 2)), r, np.zeros(3))


def test_nnls_dependent_column_enters_by_exchange():
    # Column 0 is half of column 1. Column 1 enters first; column 0, with a
    # smaller penalty, must then replace it along the null direction.
    G = np.array([[1.0, 2.0]])
    r = np.array([1.0])
    eta = nnls_coordinate_descent(G.T @ G, G.T @ r, np.array([0.0, 1.0]))
    assert np.allclose(eta, [1.0, 0.0], rtol=0.0, atol=1e-12)


@st.composite
def _gram_problems(draw):
    """Cross-products of random designs with K <= 8 columns: fewer rows than
    columns or a duplicated column make the Gram matrix rank deficient, and
    zeroed columns give zero rows and columns."""
    K = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, K)) * rng.uniform(0.1, 10.0, K)
    if K > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    X[:, draw(st.lists(st.booleans(), min_size=K, max_size=K))] = 0.0
    r = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    penalties = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0),
                              min_size=K, max_size=K))
    support = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    return X.T @ X, X.T @ r, np.array(penalties), np.array(support)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gram_problems())
def test_nnls_gram_kkt_zero_columns_and_warm_start(problem):
    gram, gtr, penalties, support = problem
    eta = nnls_coordinate_descent(gram, gtr, penalties)
    usable = np.diag(gram) > 0.0
    assert np.all(eta >= 0.0)
    assert np.all(eta[~usable] == 0.0)

    # KKT for eta'G eta - 2 eta'G'r + penalties'eta, relative to the size of
    # the terms that make up each gradient component.
    grad = 2.0 * (gram @ eta - gtr) + penalties
    scale = 2.0 * (np.abs(gram) @ eta + np.abs(gtr)) + penalties
    active = eta > 0.0
    assert np.all(np.abs(grad[active]) <= 1e-8 * scale[active])
    assert np.all(grad[usable & ~active] >= -1e-8 * scale[usable & ~active])

    warm = nnls_coordinate_descent(gram, gtr, penalties, support)
    sub = gram[usable][:, usable]
    if usable.any() and np.linalg.eigvalsh(sub)[0] > 1e-8 * np.max(np.diag(sub)):
        # Positive definite on its usable columns: the minimizer is unique.
        assert np.max(np.abs(warm - eta), initial=0.0) <= 1e-10 * max(1.0, np.max(eta))
    else:
        # A singular Gram matrix can have a set of minimizers; both starts
        # must reach the same objective value.
        def q(e):
            return e @ gram @ e - 2.0 * e @ gtr + penalties @ e

        size = eta @ gram @ eta + 2.0 * np.abs(gtr) @ eta + penalties @ eta
        assert abs(q(warm) - q(eta)) <= 1e-10 * max(size, 1e-300)
