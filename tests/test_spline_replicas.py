"""The package's spline kernels against the scipy.interpolate calls they replace.

`bsplines.eval_basis`, `bsplines.eval_basis_deriv2` and `css.NaturalCubic`
compute in scipy's operation order, so they must agree with
`BSpline.design_matrix`, `BSpline.derivative(2)` and
`CubicSpline(bc_type="natural")` bit for bit, not merely to rounding: the
samplers' outputs are pinned to those bits.  The package itself never
imports scipy.interpolate; these tests do.
"""

import numpy as np
import pytest
from scipy.interpolate import BSpline, CubicSpline

from gpcurve.bsplines import (
    BSplineBasis,
    build_basis,
    eval_basis,
    eval_basis_deriv2,
    select_working_grid,
    uniform_basis,
)
from gpcurve.css import NaturalCubic, css_eval, css_gcv


def same_bits(a, b) -> bool:
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def random_basis(rng, repeat_interior: bool) -> BSplineBasis:
    lo, hi = np.sort(rng.uniform(-5.0, 5.0, 2))
    hi = max(hi, lo + 0.01)
    interior = np.sort(rng.uniform(lo, hi, rng.integers(0, 30)))
    if repeat_interior and interior.size > 2:
        interior[1] = interior[2]
    knots = np.concatenate([np.full(4, lo), interior, np.full(4, hi)])
    return BSplineBasis(knots=knots, domain=(float(lo), float(hi)))


def points(rng, basis: BSplineBasis) -> np.ndarray:
    lo, hi = basis.domain
    # Both domain ends, every knot, and random points in between.
    return np.concatenate([[lo, hi], np.unique(basis.knots), rng.uniform(lo, hi, 60)])


def scipy_rows(basis, at):
    return BSpline.design_matrix(at, basis.knots, 3).toarray()


def scipy_deriv2(basis, at):
    spline = BSpline(basis.knots, np.eye(basis.size), 3, extrapolate=False)
    return np.nan_to_num(spline.derivative(2)(at))


@pytest.mark.parametrize("repeat_interior", [False, True])
def test_basis_rows_match_scipy_on_random_knots(repeat_interior):
    rng = np.random.default_rng(11 + repeat_interior)
    for _ in range(200):
        basis = random_basis(rng, repeat_interior)
        at = points(rng, basis)
        assert same_bits(eval_basis(basis, at), scipy_rows(basis, at))


def test_second_derivative_rows_match_scipy_on_random_knots():
    rng = np.random.default_rng(12)
    for _ in range(200):
        basis = random_basis(rng, repeat_interior=False)
        at = points(rng, basis)
        assert same_bits(eval_basis_deriv2(basis, at), scipy_deriv2(basis, at))


@pytest.mark.parametrize("nbasis", [6, 7, 10, 16, 20, 25, 33, 40])
def test_uniform_bases_match_scipy(nbasis):
    basis = uniform_basis((0.0, np.pi / 2), nbasis)
    at = np.concatenate([[0.0, np.pi / 2], np.linspace(0.0, np.pi / 2, 97)])
    assert same_bits(eval_basis(basis, at), scipy_rows(basis, at))
    assert same_bits(eval_basis_deriv2(basis, at), scipy_deriv2(basis, at))


@pytest.mark.parametrize("L", [8, 12, 20, 30])
def test_working_grid_bases_match_scipy(L):
    rng = np.random.default_rng(L)
    pooled = np.sort(rng.uniform(0.0, np.pi / 2, 400))
    basis = build_basis(select_working_grid(pooled, L), domain=(0.0, np.pi / 2))
    assert same_bits(eval_basis(basis, pooled), scipy_rows(basis, pooled))
    assert same_bits(eval_basis_deriv2(basis, pooled), scipy_deriv2(basis, pooled))


def test_basis_refuses_nan_points_and_zeroes_their_second_derivative():
    basis = uniform_basis((0.0, 1.0), 6)
    with pytest.raises(ValueError, match="NaN"):
        eval_basis(basis, np.array([0.5, np.nan]))
    assert same_bits(eval_basis_deriv2(basis, np.array([np.nan]))[0], np.zeros(6))


def test_natural_cubic_matches_scipy_on_random_data():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(4, 60))
        grid = np.unique(rng.uniform(-3.0, 3.0, n))
        if grid.size < 4:
            continue
        values = rng.normal(size=grid.size) * 10.0 ** rng.uniform(-3, 3)
        ours, theirs = NaturalCubic(grid, values), CubicSpline(grid, values, bc_type="natural")
        assert same_bits(ours.coeffs, theirs.c)
        at = np.concatenate([grid, rng.uniform(grid[0], grid[-1], 80)])
        for nu in (0, 1, 2):
            assert same_bits(ours(at, nu), theirs(at, nu))
        # css_eval extrapolates with the slopes at the clamp points.
        for end in (grid[0], grid[-1]):
            assert same_bits(ours(end), theirs(end))
            assert same_bits(ours(end, 1), theirs(end, 1))


def test_css_eval_matches_the_scipy_interpolant_of_a_gcv_fit():
    rng = np.random.default_rng(14)
    for _ in range(20):
        grid = np.sort(rng.uniform(0.0, np.pi / 2, 40))
        fit, _ = css_gcv(grid, 3.0 * np.sin(4.0 * grid) + rng.normal(scale=0.8, size=40))
        cs = CubicSpline(fit.grid, fit.fitted, bc_type="natural")
        at = np.linspace(-0.3, np.pi / 2 + 0.3, 91)
        lo, hi = grid[0], grid[-1]
        want = cs(np.clip(at, lo, hi))
        want[at < lo] = fit.fitted[0] + float(cs(lo, 1)) * (at[at < lo] - lo)
        want[at > hi] = fit.fitted[-1] + float(cs(hi, 1)) * (at[at > hi] - hi)
        assert same_bits(css_eval(fit, at), want)
