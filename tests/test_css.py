import numpy as np
import pytest

from gpcurve.css import (
    css_eval,
    css_fit,
    css_gcv,
    default_lambda_grid,
    near_interp_weight,
)
from gpcurve.css import _gram, _penalized_solve, _smoother_trace, _spline_system


def smoother_trace(grid, lamb):
    # The trace reuses the banded factor of the fit's penalized solve.
    q, r = _spline_system(grid)
    qtq = _gram(q)
    alpha = (1.0 - lamb) / lamb
    _, factor = _penalized_solve(np.zeros(grid.size), alpha, q, r, qtq)
    return _smoother_trace(grid.size, alpha, factor, qtq)


def dense_operators(grid):
    # Q (n x (n-2)) and R ((n-2) x (n-2)) as dense matrices, from their bands.
    q_bands, r_bands = _spline_system(grid)
    cols = np.arange(grid.size - 2)
    q = np.zeros((grid.size, grid.size - 2))
    for k in range(3):
        q[cols + k, cols] = q_bands[k]
    off = r_bands[1, :-1]
    return q, np.diag(r_bands[0]) + np.diag(off, -1) + np.diag(off, 1)


def dense_smoother(grid, lamb):
    # Classical dense form: fitted = (I + alpha Q R^-1 Q^T)^-1 y.
    q, r = dense_operators(grid)
    alpha = (1.0 - lamb) / lamb
    k = q @ np.linalg.solve(r, q.T)
    return np.linalg.inv(np.eye(grid.size) + alpha * k)


def noisy_curve(n=50, seed=0):
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(0.0, np.pi / 2, size=n))
    truth = 3.0 * np.sin(4.0 * grid)
    return grid, truth, truth + rng.normal(scale=0.8, size=n)


def test_banded_fit_matches_dense_normal_equations():
    grid, _, y = noisy_curve(n=50, seed=1)
    # The dense-inverse oracle itself carries ~1e-8 conditioning noise on
    # irregular grids, so the comparison is at 1e-6.
    for lamb in (0.3, 0.9, 0.99):
        fit = css_fit(grid, y, lamb)
        oracle = dense_smoother(grid, lamb) @ y
        np.testing.assert_allclose(fit.fitted, oracle, atol=1e-6)


def test_smoother_matrix_properties_and_trace():
    grid, _, y = noisy_curve(n=60, seed=2)
    for lamb in (0.5, 0.95):
        smoother = dense_smoother(grid, lamb)
        np.testing.assert_allclose(smoother, smoother.T, atol=1e-10)
        eig = np.linalg.eigvalsh((smoother + smoother.T) / 2.0)
        assert eig.min() > -1e-7 and eig.max() < 1.0 + 1e-7
        assert abs(smoother_trace(grid, lamb) - np.trace(smoother)) < 1e-6


def test_trace_decreases_with_more_smoothing():
    grid, _, _ = noisy_curve(n=40, seed=3)
    traces = [smoother_trace(grid, lamb) for lamb in (0.99, 0.9, 0.5, 0.1)]
    assert all(a > b for a, b in zip(traces, traces[1:]))
    # Lines are never penalized: the trace stays above 2.
    assert traces[-1] > 2.0


def test_interpolation_limit():
    # Even spacing keeps the penalty scale bounded so the limit is clean.
    grid = np.linspace(0.0, np.pi / 2, 30)
    rng = np.random.default_rng(4)
    y = 3.0 * np.sin(4.0 * grid) + rng.normal(scale=0.8, size=30)
    fit = css_fit(grid, y, 1.0 - 1e-12)
    np.testing.assert_allclose(fit.fitted, y, atol=1e-5)


def test_line_limit_matches_least_squares():
    grid, _, y = noisy_curve(n=30, seed=5)
    fit = css_fit(grid, y, 1e-12)
    design = np.column_stack([np.ones_like(grid), grid])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(fit.fitted, design @ coef, atol=1e-6)


def test_reproduces_lines_exactly():
    grid = np.linspace(0.0, 2.0, 25)
    line = 1.5 - 0.7 * grid
    for lamb in (0.1, 0.9):
        np.testing.assert_allclose(css_fit(grid, line, lamb).fitted, line, atol=1e-10)


def test_affine_equivariance():
    grid, _, y = noisy_curve(n=35, seed=6)
    base = css_fit(grid, y, 0.9).fitted
    shifted = css_fit(grid, 2.5 * y + 4.0, 0.9).fitted
    np.testing.assert_allclose(shifted, 2.5 * base + 4.0, atol=1e-8)


def test_gcv_matches_dense_scores_and_improves_on_raw():
    grid, truth, y = noisy_curve(n=80, seed=7)
    candidates = default_lambda_grid()
    n = grid.size
    scores = []
    for lamb in candidates:
        smoother = dense_smoother(grid, lamb)
        fitted = smoother @ y
        rss = float(np.sum((y - fitted) ** 2))
        scores.append(n * rss / (n - np.trace(smoother)) ** 2)
    fit, lamb = css_gcv(grid, y, candidates)
    assert lamb == candidates[int(np.argmin(scores))]
    assert fit.gcv == pytest.approx(min(scores), rel=1e-6)
    rmse_fit = np.sqrt(np.mean((fit.fitted - truth) ** 2))
    rmse_raw = np.sqrt(np.mean((y - truth) ** 2))
    assert rmse_fit < rmse_raw


def test_gcv_candidate_order_does_not_matter():
    grid, _, y = noisy_curve(n=40, seed=9)
    fit_a, lamb_a = css_gcv(grid, y, candidates=[0.97, 0.91, 0.94])
    fit_b, lamb_b = css_gcv(grid, y, candidates=[0.91, 0.94, 0.97])
    assert lamb_a == lamb_b
    np.testing.assert_array_equal(fit_a.fitted, fit_b.fitted)
    # An exact duplicate ties with itself and cannot flip the choice.
    _, lamb_c = css_gcv(grid, y, candidates=[lamb_a, lamb_a])
    assert lamb_c == lamb_a


def test_eval_interior_exterior_and_scalar():
    grid, _, y = noisy_curve(n=30, seed=8)
    fit = css_fit(grid, y, 0.95)
    np.testing.assert_allclose(css_eval(fit, grid), fit.fitted, atol=1e-12)
    cs = fit.interpolant()
    hi = grid[-1]
    slope = float(cs(hi, 1))
    assert css_eval(fit, hi + 0.2) == pytest.approx(fit.fitted[-1] + 0.2 * slope)
    lo = grid[0]
    slope_lo = float(cs(lo, 1))
    assert css_eval(fit, lo - 0.1) == pytest.approx(fit.fitted[0] - 0.1 * slope_lo)
    assert isinstance(css_eval(fit, float(grid[3])), float)


def test_near_interp_weight_formula():
    grid = np.linspace(0.0, 1.0, 11)
    assert near_interp_weight(grid) == pytest.approx(1.0 / (1.0 + 0.1**3 / 6.0))


def test_default_lambda_grid_contents():
    grid = default_lambda_grid()
    assert grid.size == 10
    assert grid[0] == 0.90 and grid[-1] == 0.99
    np.testing.assert_allclose(np.diff(grid), 0.01, atol=1e-12)


def test_input_validation():
    grid = np.linspace(0.0, 1.0, 10)
    y = np.zeros(10)
    with pytest.raises(ValueError, match="at least 4"):
        css_fit(grid[:3], y[:3], 0.9)
    with pytest.raises(ValueError, match="strictly inside"):
        css_fit(grid, y, 1.0)
    with pytest.raises(ValueError, match="does not match"):
        css_fit(grid, y[:-1], 0.9)
    with pytest.raises(ValueError, match="increasing"):
        css_fit(grid[::-1], y, 0.9)
    with pytest.raises(ValueError, match="at least one candidate"):
        css_gcv(grid, y, candidates=[])
