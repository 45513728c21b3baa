import numpy as np
import pytest

from gpcurve.gridutil import check_grid, grid_positions, pooled_union
from gpcurve.kernels import (
    CovarianceModel,
    MaternParams,
    fit_matern,
    matern_cor,
    nonstationary_cov,
    stationary_cov,
)


def half_closed_form(d, rho):
    return np.exp(-d / rho)


def three_halves_closed_form(d, rho):
    z = np.sqrt(3.0) * d / rho
    return (1.0 + z) * np.exp(-z)


def test_matern_closed_forms():
    # nu = 1/2 and nu = 3/2 have elementary forms; the Bessel-function
    # evaluation must agree with them everywhere.
    rng = np.random.default_rng(42)
    d = rng.uniform(1e-6, 10.0, size=1000)
    rho = rng.uniform(0.05, 5.0, size=1000)
    for nu, oracle in [(0.5, half_closed_form), (1.5, three_halves_closed_form)]:
        got = np.array([matern_cor(di, MaternParams(rho=ri, nu=nu)) for di, ri in zip(d, rho)])
        np.testing.assert_allclose(got, oracle(d, rho), atol=1e-10)


def test_matern_zero_distance_is_exactly_one():
    for nu in (0.5, 1.5, 2.5, 3.5):
        assert matern_cor(0.0, MaternParams(rho=0.7, nu=nu)) == 1.0


def test_matern_known_values():
    # e^{-1} at d = rho for nu = 1/2, and the nu = 3/2 value at d = rho.
    assert abs(matern_cor(1.0, MaternParams(rho=1.0, nu=0.5)) - np.exp(-1.0)) < 1e-12
    z = np.sqrt(3.0)
    expected = (1.0 + z) * np.exp(-z)
    assert abs(matern_cor(1.0, MaternParams(rho=1.0, nu=1.5)) - expected) < 1e-12
    assert abs(expected - 0.48335772) < 1e-7


def test_matern_monotone_decreasing_and_bounded():
    params = MaternParams(rho=0.5, nu=2.5)
    d = np.linspace(0.0, 6.0, 400)
    vals = matern_cor(d, params)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_matern_rejects_negative_distance_and_bad_params():
    with pytest.raises(ValueError, match="nonnegative"):
        matern_cor(-0.1, MaternParams(rho=1.0, nu=0.5))
    with pytest.raises(ValueError, match="rho"):
        MaternParams(rho=0.0, nu=1.0)
    with pytest.raises(ValueError, match="nu"):
        MaternParams(rho=1.0, nu=-1.0)


def test_stationary_cov_is_spd_on_a_long_grid():
    grid = np.linspace(0.0, 3.0, 200)
    spd = stationary_cov(grid, 2.5, MaternParams(rho=0.4, nu=3.5))
    assert spd.dim == 200
    assert spd.jitter <= 1e-4 * 2.5
    np.testing.assert_allclose(np.diag(spd.mat), 2.5, atol=1e-3)


def test_nonstationary_cov_structure():
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    s2 = 1.7
    spd = nonstationary_cov(grid, s2, MaternParams(rho=0.8, nu=1.5))
    # Diagonal carries the amplitude profile s2 (t + 1/2)^2 exactly.
    np.testing.assert_allclose(np.diag(spd.mat), s2 * (grid + 0.5) ** 2, atol=1e-10)
    # Off-diagonal matches the hand-computed warped-distance formula.
    warp = grid ** (2.0 / 3.0)
    d01 = abs(warp[0] - warp[1])
    expect = s2 * (grid[0] + 0.5) * (grid[1] + 0.5) * matern_cor(d01, MaternParams(rho=0.8, nu=1.5))
    np.testing.assert_allclose(spd.mat[0, 1], expect, atol=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        nonstationary_cov(np.array([-0.5, 0.5]), 1.0, MaternParams(rho=1.0, nu=0.5))


def test_covariance_model_dispatch():
    grid = np.linspace(0.0, 1.0, 10)
    params = MaternParams(rho=0.3, nu=2.5)
    stat = CovarianceModel(kind="stationary-matern", s2=2.0, params=params)
    np.testing.assert_allclose(
        stat.evaluate(grid).mat, stationary_cov(grid, 2.0, params).mat, atol=1e-14
    )
    emp = CovarianceModel(
        kind="empirical", s2=1.0, base=stationary_cov(grid, 1.0, params), grid=grid
    )
    assert emp.evaluate(grid).dim == 10
    with pytest.raises(ValueError, match="grid"):
        emp.evaluate(np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="unknown covariance kind"):
        CovarianceModel(kind="spectral", s2=1.0, params=params)


def test_fit_matern_recovers_true_parameters():
    grid = np.linspace(0.0, np.pi / 2, 40)
    truth = MaternParams(rho=0.5, nu=3.5)
    target = stationary_cov(grid, 5.0, truth).mat
    s2, params = fit_matern(target, grid, rho_grid=np.linspace(0.1, 1.5, 29))
    assert abs(s2 - 5.0) < 1e-8
    assert params.nu == 3.5
    assert abs(params.rho - 0.5) < 0.05


def test_fit_matern_white_noise_prefers_smallest_range():
    grid = np.linspace(0.0, 1.0, 20)
    s2, params = fit_matern(2.0 * np.eye(20), grid)
    assert abs(s2 - 2.0) < 1e-12
    assert params.rho == pytest.approx(np.min(np.diff(grid)))


def test_fit_matern_constant_correlation_prefers_largest_range():
    grid = np.linspace(0.0, 1.0, 15)
    mat = np.full((15, 15), 0.999) + 0.001 * np.eye(15)
    _, params = fit_matern(mat, grid)
    assert params.rho == pytest.approx(grid[-1] - grid[0])


def test_fit_matern_shape_mismatch():
    with pytest.raises(ValueError, match="does not match grid"):
        fit_matern(np.eye(3), np.linspace(0.0, 1.0, 4))


def test_check_grid_errors():
    with pytest.raises(ValueError, match="increasing"):
        check_grid(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="0.5") as err:
        check_grid(np.array([0.0, 0.5, 0.5, 1.0]))
    # The value prints as a plain float, not as a numpy scalar's repr.
    assert "np.float64" not in str(err.value)
    assert "(value 0.5)" in str(err.value)
    with pytest.raises(ValueError):
        check_grid(np.array([[0.0, 1.0]]))


def test_pooled_union_merges_and_sorts():
    got = pooled_union([np.array([0.0, 0.5]), np.array([0.25, 0.5, 1.0])])
    np.testing.assert_array_equal(got, [0.0, 0.25, 0.5, 1.0])


def test_grid_positions_need_every_point_on_the_grid():
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    np.testing.assert_array_equal(grid_positions(grid, np.array([0.25, 1.0]), "c", "g"), [1, 3])
    # 0.3 lands in range (at 0.5's position) but is no point of the grid.
    with pytest.raises(ValueError, match="curve 2 has grid points outside the pooled grid"):
        grid_positions(grid, np.array([0.0, 0.3]), "curve 2", "the pooled grid")
    with pytest.raises(ValueError, match="outside"):
        grid_positions(grid, np.array([0.5, 2.0]), "curve 2", "the pooled grid")
