import numpy as np
import pytest

from gpcurve.bsplines import eval_basis, uniform_basis
from gpcurve.fregress import (
    concurrent_design,
    fit_concurrent,
    fit_scalar_on_function,
    predict,
    scalar_design,
    trapezoid_weights,
)

DOMAIN = (0.0, 2.0)
GRID = np.linspace(*DOMAIN, 60)


def test_trapezoid_weights_oracle():
    grid = np.array([0.0, 0.5, 2.0, 2.1])
    w = trapezoid_weights(grid)
    np.testing.assert_allclose(w, [0.25, 1.0, 0.8, 0.05])
    assert w.sum() == pytest.approx(grid[-1] - grid[0])
    # Trapezoid rule is exact for affine integrands.
    assert w @ (3.0 * grid + 1.0) == pytest.approx(
        1.5 * (grid[-1] ** 2 - grid[0] ** 2) + (grid[-1] - grid[0])
    )


def _span_scalar_problem(n=40, seed=0, noise=0.0):
    """Scalar responses built exactly from the model the fitter assumes."""
    rng = np.random.default_rng(seed)
    x_basis = uniform_basis(DOMAIN, 20)
    beta_basis = uniform_basis(DOMAIN, 10)
    phi_x = eval_basis(x_basis, GRID)
    phi_beta = eval_basis(beta_basis, GRID)
    x = rng.normal(size=(n, 20)) @ phi_x.T
    theta = rng.normal(size=10)
    beta_true = phi_beta @ theta
    w = trapezoid_weights(GRID)
    y = 0.7 + x @ (w * beta_true) + noise * rng.normal(size=n)
    return x, y, beta_true


def test_scalar_exact_recovery_in_span():
    x, y, beta_true = _span_scalar_problem()
    fit = fit_scalar_on_function(scalar_design(GRID, x), y, lamb=0.0)
    assert fit.beta0 == pytest.approx(0.7, abs=1e-8)
    np.testing.assert_allclose(fit.beta, beta_true, atol=1e-7)
    np.testing.assert_allclose(fit.fitted, y, atol=1e-8)
    assert fit.sigma_e2 < 1e-16


def test_scalar_predict_on_train_matches_fitted():
    x, y, _ = _span_scalar_problem(noise=0.3)
    design = scalar_design(GRID, x)
    fit = fit_scalar_on_function(design, y, lamb=0.1)
    np.testing.assert_allclose(predict(fit, design), fit.fitted, atol=1e-10)
    # New curves off the training grid are refused when their design is built.
    with pytest.raises(ValueError, match="must be \\(n, 60\\)"):
        scalar_design(GRID, x[:, :10])


def test_scalar_scale_equivariance_of_bands():
    # y -> 2y doubles the fit and takes sigma_e2 -> 4 sigma_e2, while the
    # normal matrix depends on the design only, so any sandwich band's
    # half-width doubles.
    x, y, _ = _span_scalar_problem(noise=0.5)
    design = scalar_design(GRID, x)
    fit1 = fit_scalar_on_function(design, y, lamb=0.2)
    fit2 = fit_scalar_on_function(design, 2.0 * y, lamb=0.2)
    np.testing.assert_allclose(fit2.beta, 2.0 * fit1.beta, atol=1e-9)
    assert fit2.beta0 == pytest.approx(2.0 * fit1.beta0, abs=1e-9)
    assert fit2.sigma_e2 == pytest.approx(4.0 * fit1.sigma_e2, rel=1e-9)


def test_concurrent_exact_recovery_in_span():
    rng = np.random.default_rng(3)
    beta_basis = uniform_basis(DOMAIN, 8)
    phi = eval_basis(beta_basis, GRID)
    b0 = phi @ rng.normal(size=8)
    b1 = phi @ rng.normal(size=8)
    x = np.vstack([np.sin((k + 1) * GRID) + rng.normal(size=GRID.size) for k in range(6)])
    y = b0[None, :] + x * b1[None, :]
    design = concurrent_design(GRID, x, beta_nbasis=8)
    fit = fit_concurrent(design, y, lamb=0.0)
    np.testing.assert_allclose(fit.beta0, b0, atol=1e-8)
    np.testing.assert_allclose(fit.beta, b1, atol=1e-8)
    np.testing.assert_allclose(fit.fitted, y, atol=1e-8)
    np.testing.assert_allclose(predict(fit, design), fit.fitted, atol=1e-10)


def test_lambda_zero_rank_deficient_raises():
    # 3 curves cannot identify 11 coefficients without the penalty.
    x, y, _ = _span_scalar_problem(n=3)
    design = scalar_design(GRID, x)
    with pytest.raises(ValueError, match="positive penalty weight"):
        fit_scalar_on_function(design, y, lamb=0.0)
    fit = fit_scalar_on_function(design, y, lamb=0.1)
    assert np.isfinite(fit.beta).all()


def test_fit_validation():
    x, y, _ = _span_scalar_problem(n=5)
    with pytest.raises(ValueError, match="must be \\(n,"):
        scalar_design(GRID, x[:, :-1])
    with pytest.raises(ValueError, match="must be \\(n,"):
        concurrent_design(GRID, x[:, :-1])
    with pytest.raises(ValueError, match="scalar responses"):
        fit_scalar_on_function(scalar_design(GRID, x), np.ones(4))
    with pytest.raises(ValueError, match="functional responses"):
        fit_concurrent(concurrent_design(GRID, x), np.ones(5))
    with pytest.raises(ValueError, match="nonnegative"):
        fit_scalar_on_function(scalar_design(GRID, x), y, lamb=-0.1)


def test_cross_validate_validation():
    x, y, _ = _span_scalar_problem(n=2)
    # The design carries the model's kind; a fit of the other kind refuses it.
    with pytest.raises(ValueError, match="kind"):
        fit_concurrent(scalar_design(GRID, x), y)
    with pytest.raises(ValueError, match="kind"):
        fit_scalar_on_function(concurrent_design(GRID, x), y)
