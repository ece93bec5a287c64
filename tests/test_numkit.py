"""Tests for the dense numerical primitives, with scipy as independent oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from fedcausal import numkit
from fedcausal.errors import (
    ConvergenceWarning,
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
    logistic_loglik,
    newton_solve,
    nnls_coordinate_descent,
    standardized_design,
    take_rows,
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


def test_standardized_design():
    # Each feature column is centred and scaled to unit SD in the
    # column-major design; a constant column becomes exactly zero.
    rng = np.random.default_rng(5)
    X = np.column_stack([570.0 * rng.random(40), np.full(40, 3.7), rng.standard_normal(40)])
    D = standardized_design(X)
    assert D.shape == (40, 4) and D.flags.f_contiguous
    assert np.all(D[:, 0] == 1.0) and np.all(D[:, 2] == 0.0)
    for j in (1, 3):
        assert abs(D[:, j].mean()) < 1e-14 and abs(D[:, j].std() - 1.0) < 1e-14
        assert np.allclose(D[:, j], (X[:, j - 1] - X[:, j - 1].mean()) / X[:, j - 1].std(),
                           rtol=0.0, atol=1e-13)


def test_logistic_loglik_matches_scipy():
    # log P(y | z) with no clip: finite, and accurate where p is near 0 or 1.
    z = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    assert np.allclose(logistic_loglik(z, np.ones(7)), special.log_expit(z),
                       rtol=1e-15, atol=0.0)
    assert np.allclose(logistic_loglik(z, np.zeros(7)), special.log_expit(-z),
                       rtol=1e-15, atol=0.0)


def test_fitted_probabilities_do_not_depend_on_the_feature_scale():
    # A feature scaled to ~500 fits to the same probabilities on its
    # standardized design as a unit-scale copy of it.
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 2))
    y = (rng.random(300) < special.expit(0.4 + x @ [1.0, -0.8])).astype(float)
    scaled = np.column_stack([500.0 + 40.0 * x[:, 0], 1e-3 * x[:, 1]])
    p = [expit(D @ fit_logistic(D, y).coefficients)
         for D in (standardized_design(x), standardized_design(scaled))]
    assert np.allclose(p[0], p[1], rtol=0.0, atol=1e-10)


def test_expit_matches_scipy():
    z = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    out = expit(z)
    assert np.allclose(out, special.expit(z), atol=1e-15)
    assert np.all(np.isfinite(out))


def _masked_expit(z):
    """The two-branch form, each branch on its own masked gather."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_expit_is_bitwise_the_masked_formula():
    rng = np.random.default_rng(11)
    z = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 750.0, -750.0, 36.7, -36.7, 745.2, -745.2],
        np.linspace(-60.0, 60.0, 4001),
        30.0 * rng.standard_normal(2000),
    ])
    new, old = expit(z), _masked_expit(z)
    assert np.array_equal(np.isnan(new), np.isnan(old))
    finite = ~np.isnan(old)
    assert np.array_equal(new[finite].view(np.uint64), old[finite].view(np.uint64))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_design_fails_both_fits_by_name(bad):
    rng = np.random.default_rng(2)
    X = add_intercept(rng.standard_normal((30, 2)))
    X[4, 1] = bad
    with pytest.raises(RankDeficient, match="design holds a non-finite value"):
        fit_ols(X, rng.standard_normal(30))
    with pytest.raises(RankDeficient, match="design holds a non-finite value"):
        fit_logistic(X, (rng.random(30) < 0.5).astype(float))


def test_fit_ols_nearly_dependent_pair_is_rank_deficient():
    # The columns agree to 1e-6, so their variance inflation is ~1e12 >
    # MAX_VIF, the weight solver's rule for the same cross-products.
    rng = np.random.default_rng(6)
    x = rng.standard_normal(40)
    X = np.column_stack([np.ones(40), x, x + 1e-6 * rng.standard_normal(40)])
    with pytest.raises(RankDeficient, match="variance inflation"):
        fit_ols(X, rng.standard_normal(40))


def test_fit_ols_rule_does_not_depend_on_units():
    # A feature column in units of 1e-11 of the others fits, and its
    # coefficients are those of the rescaled fit, rescaled.
    rng = np.random.default_rng(7)
    X = add_intercept(rng.standard_normal((100, 3)))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.standard_normal(100)
    scale = np.array([1.0, 1.0, 1e-11, 1.0])
    small = fit_ols(X * scale, y).coefficients
    assert np.allclose(small * scale, fit_ols(X, y).coefficients, rtol=1e-10, atol=0.0)


@st.composite
def _ols_problems(draw):
    """Well-conditioned designs: an intercept and d - 1 independent normal
    columns of random scale, n from d to 5,000 rows, and 1 to 3 responses."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(d, 5000))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = add_intercept(rng.standard_normal((n, d - 1)) * rng.uniform(0.1, 10.0, d - 1))
    Y = X @ rng.standard_normal((d, k)) + rng.standard_normal((n, k))
    return X, Y[:, 0] if k == 1 and draw(st.booleans()) else Y


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ols_problems())
def test_fit_ols_matches_lstsq(problem):
    # lstsq is the reference. Below a condition number of 100 the normal
    # equations lose at most ~1e4 times machine epsilon.
    X, y = problem
    assume(np.linalg.cond(X) < 100.0)
    coef = fit_ols(X, y).coefficients
    reference = np.linalg.lstsq(X, y, rcond=None)[0]
    assert coef.shape == reference.shape
    assert np.allclose(coef, reference, rtol=1e-10, atol=1e-10 * np.abs(reference).max())


def test_fit_ols_many_responses_match_column_fits():
    # A (n, k) response is k fits sharing one solve of the cross-products:
    # coefficients (d, k), column j that of y[:, j] alone.
    rng = np.random.default_rng(3)
    X = add_intercept(rng.standard_normal((200, 3)))
    Y = X @ rng.standard_normal((4, 2)) + rng.standard_normal((200, 2))
    coef = fit_ols(X, Y).coefficients
    assert coef.shape == (4, 2)
    for j in range(2):
        assert np.allclose(coef[:, j], fit_ols(X, Y[:, j]).coefficients, rtol=1e-12, atol=0.0)
    X[:, 3] = 2.0 * X[:, 1]
    with pytest.raises(RankDeficient):
        fit_ols(X, Y)


def test_take_rows_is_a_column_major_gather():
    rng = np.random.default_rng(4)
    X = add_intercept(rng.standard_normal((30, 2)))
    rows = np.array([3, 1, 17, 29])
    gathered = take_rows(X, rows)
    assert gathered.flags.f_contiguous and np.array_equal(gathered, X[rows])
    assert take_rows(X, np.arange(30)) is X
    assert np.array_equal(take_rows(X, np.arange(30)[::-1]), X[::-1])


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


def test_fit_logistic_warns_at_the_iteration_cap(monkeypatch):
    rng = np.random.default_rng(2)
    X = add_intercept(rng.standard_normal((400, 2)))
    y = (rng.random(400) < special.expit(X @ [0.3, -1.0, 0.7])).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        converged = fit_logistic(X, y)
    assert converged.converged and converged.iterations > 1

    monkeypatch.setattr(numkit, "IRLS_MAX_ITER", 1)
    with pytest.warns(ConvergenceWarning):
        capped = fit_logistic(X, y)
    assert not capped.converged and capped.iterations == 1


def test_fit_logistic_warm_start():
    rng = np.random.default_rng(7)
    X = add_intercept(rng.standard_normal((500, 2)))
    y = (rng.random(500) < special.expit(X @ [0.3, -1.0, 0.7])).astype(float)
    cold = fit_logistic(X, y)
    # Started at its own optimum, a fit stops at once.
    at_optimum = fit_logistic(X, y, start=cold.coefficients)
    assert at_optimum.converged and at_optimum.iterations == 0
    assert np.array_equal(at_optimum.coefficients, cold.coefficients)
    # Started at a half-sample fit, it reaches the same optimum in fewer steps.
    half = fit_logistic(X[:250], y[:250]).coefficients
    warm = fit_logistic(X, y, start=half)
    assert warm.converged and warm.iterations < cold.iterations
    assert np.allclose(warm.coefficients, cold.coefficients, rtol=0.0, atol=1e-7)


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


def test_nnls_rejects_non_finite_input():
    # Each of these once returned weights: the NaN column or penalty was
    # silently zeroed or ignored.
    gram = np.eye(2)
    cases = [
        (gram, np.array([np.nan, 1.0]), np.zeros(2)),
        (gram, np.array([np.nan, np.nan]), np.zeros(2)),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2), np.zeros(2)),
        (gram, np.ones(2), np.array([np.nan, 0.0])),
    ]
    for g, gtr, penalties in cases:
        with pytest.raises(ValueError, match="finite"):
            nnls_coordinate_descent(g, gtr, penalties)


def test_nnls_cheaper_of_two_dependent_columns_takes_the_weight():
    # Column 0 is half of column 1, so both fit r equally well; column 0,
    # with the smaller penalty, must take all the weight.
    G = np.array([[1.0, 2.0]])
    r = np.array([1.0])
    eta = nnls_coordinate_descent(G.T @ G, G.T @ r, np.array([0.0, 1.0]))
    assert np.allclose(eta, [1.0, 0.0], rtol=0.0, atol=1e-12)


def test_nnls_nearly_dependent_pair_is_not_a_support():
    # The columns agree to 1e-6, so their two-column system has variance
    # inflation ~1e12 > MAX_VIF, and its stationary point, whose weights the
    # rounding error moves by ~1e-3, is not taken: one column carries r.
    G = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]])
    r = G @ np.ones(2)
    eta = nnls_coordinate_descent(G.T @ G, G.T @ r, np.zeros(2))
    assert np.count_nonzero(eta) == 1
    assert np.isclose(eta.sum(), 2.0, rtol=1e-6)


@st.composite
def _gram_problems(draw, K=None):
    """Cross-products of random designs with K <= 8 columns: fewer rows than
    columns or a duplicated column make the Gram matrix rank deficient, and
    zeroed columns give zero rows and columns."""
    K = draw(st.integers(1, 8)) if K is None else K
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, K)) * rng.uniform(0.1, 10.0, K)
    if K > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    X[:, draw(st.lists(st.booleans(), min_size=K, max_size=K))] = 0.0
    r = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    penalties = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0),
                              min_size=K, max_size=K))
    return X.T @ X, X.T @ r, np.array(penalties)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_gram_problems())
def test_nnls_gram_kkt_and_zero_columns(problem):
    gram, gtr, penalties = problem
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda K: st.lists(_gram_problems(K), min_size=1, max_size=6)))
def test_nnls_batch_matches_one_at_a_time(problems):
    # Every problem's Gram matrix against every problem's penalty row.
    gram, gtr, penalties = (np.stack(parts) for parts in zip(*problems))
    eta = nnls_coordinate_descent(gram, gtr, penalties)
    assert eta.shape == (len(problems),) + penalties.shape
    for i, j in np.ndindex(eta.shape[:2]):
        assert np.array_equal(eta[i, j], nnls_coordinate_descent(gram[i], gtr[i], penalties[j]))


def test_nnls_batch_with_exchange_and_singular_problems():
    # Column 0 is (nearly) half of column 1 in problems 0 and 1; under the
    # penalty rows that spare it, it takes the weight from column 1. Problem
    # 0's two-column system solves with variance inflation ~1e15; problem
    # 1's is exactly singular, which fails np.linalg.solve for the whole
    # stack. Problems 2 and 3 are regular.
    rng = np.random.default_rng(12)
    designs = [np.array([[1.0, 2.0], [1.0, 2.0 + 1e-7]]), np.array([[1.0, 2.0]]),
               rng.standard_normal((6, 2)), rng.standard_normal((6, 2))]
    responses = [np.ones(2), np.ones(1), rng.standard_normal(6), rng.standard_normal(6)]
    gram = np.stack([X.T @ X for X in designs])
    gtr = np.stack([X.T @ y for X, y in zip(designs, responses)])
    penalties = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.5, 2.0]])
    eta = nnls_coordinate_descent(gram, gtr, penalties)
    assert eta.shape == (4, 4, 2)
    for i, j in np.ndindex(eta.shape[:2]):
        assert np.array_equal(eta[i, j], nnls_coordinate_descent(gram[i], gtr[i], penalties[j]))
    assert np.allclose(eta[:2, :2], [[1.0, 0.0]], rtol=0.0, atol=1e-6)

    # One Gram matrix against every penalty row, and a batch of Gram
    # matrices broadcast against one gtr.
    assert np.array_equal(nnls_coordinate_descent(gram[2], gtr[2], penalties), eta[2])
    shared = nnls_coordinate_descent(gram, gtr[2], penalties)
    for i, j in np.ndindex(shared.shape[:2]):
        assert np.array_equal(shared[i, j], nnls_coordinate_descent(gram[i], gtr[2], penalties[j]))
