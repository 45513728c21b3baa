import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline

from gpcurve.bsplines import (
    WorkingGrid,
    build_basis,
    coeff_transform,
    curvature_penalty,
    eval_basis,
    eval_basis_deriv2,
    select_working_grid,
    uniform_basis,
)


def deboor(knots, degree, j, x):
    # Cox-de Boor recursion, half-open intervals, 0/0 treated as 0.
    if degree == 0:
        return 1.0 if knots[j] <= x < knots[j + 1] else 0.0
    out = 0.0
    den = knots[j + degree] - knots[j]
    if den > 0.0:
        out += (x - knots[j]) / den * deboor(knots, degree - 1, j, x)
    den = knots[j + degree + 1] - knots[j + 1]
    if den > 0.0:
        out += (knots[j + degree + 1] - x) / den * deboor(knots, degree - 1, j + 1, x)
    return out


def default_basis(L=9):
    pooled = np.linspace(0.0, np.pi / 2, 41)
    working = select_working_grid(pooled, L)
    return build_basis(working, domain=(0.0, np.pi / 2)), working


def test_eval_matches_deboor_recursion():
    basis, _ = default_basis()
    rng = np.random.default_rng(0)
    pts = rng.uniform(1e-6, np.pi / 2 - 1e-6, size=100)
    got = eval_basis(basis, pts)
    want = np.array(
        [[deboor(basis.knots, 3, j, x) for j in range(basis.size)] for x in pts]
    )
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_partition_of_unity_including_boundaries():
    basis, _ = default_basis()
    pts = np.concatenate([[0.0, np.pi / 2], np.linspace(0.01, 1.55, 200)])
    rows = eval_basis(basis, pts)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(rows >= 0.0)


def test_working_grid_percentile_rule():
    # 100 k / (L + 1) percentiles of an evenly spaced grid over [0, 1]
    # are the points k / (L + 1) themselves.
    w = select_working_grid(np.linspace(0.0, 1.0, 101), 4)
    np.testing.assert_allclose(w.tau, [0.2, 0.4, 0.6, 0.8], atol=1e-12)
    assert w.source == "percentile"
    full = select_working_grid(np.linspace(0.0, 1.0, 9), 9)
    np.testing.assert_allclose(full.tau, np.linspace(0.1, 0.9, 9), atol=1e-12)


def test_working_grid_collapse_falls_back_to_equal_spacing():
    # Subnormal spacing makes interpolated percentiles round together,
    # which must trigger the equally-spaced fallback, never duplicates.
    tiny = 5e-324
    w = select_working_grid(tiny * np.arange(5), 4)
    assert w.source == "equally-spaced"
    assert np.all(np.diff(w.tau) > 0.0)


def test_working_grid_validation():
    pooled = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="at least 4"):
        select_working_grid(pooled, 3)
    with pytest.raises(ValueError, match="exceeds"):
        select_working_grid(pooled, 21)


def test_knot_vector_structure():
    basis, working = default_basis(L=9)
    tau = working.tau
    assert basis.size == 9
    assert basis.knots.size == 9 + 4
    np.testing.assert_array_equal(basis.knots[:4], 0.0)
    np.testing.assert_array_equal(basis.knots[-4:], np.pi / 2)
    interior = basis.knots[4:-4]
    want = [np.mean(tau[j + 1 : j + 4]) for j in range(9 - 4)]
    np.testing.assert_allclose(interior, want, atol=1e-14)
    # Averaged knots keep every site inside the support of its own basis
    # function (the Schoenberg-Whitney spacing condition).
    for j in range(9):
        assert basis.knots[j] < tau[j] < basis.knots[j + 4]


def test_collocation_interpolates_any_values():
    basis, working = default_basis(L=12)
    forward, inverse = coeff_transform(basis, working.tau)
    np.testing.assert_allclose(forward @ inverse, np.eye(12), atol=1e-10)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=12)
    np.testing.assert_allclose(forward @ (inverse @ vals), vals, atol=1e-10)


def test_cubic_polynomials_are_reproduced():
    basis, working = default_basis(L=10)
    poly = lambda t: 1.0 - 2.0 * t + 0.5 * t**2 + 0.25 * t**3
    _, inverse = coeff_transform(basis, working.tau)
    coeffs = inverse @ poly(working.tau)
    pts = np.linspace(0.0, np.pi / 2, 137)
    np.testing.assert_allclose(eval_basis(basis, pts) @ coeffs, poly(pts), atol=1e-8)


def test_degenerate_sites_use_pseudo_inverse():
    basis, _ = default_basis(L=8)
    sites = np.array([0.3, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5])
    forward, inverse = coeff_transform(basis, sites)
    assert np.all(np.isfinite(inverse))
    np.testing.assert_allclose(forward @ inverse @ forward, forward, atol=1e-8)


def test_ill_conditioned_collocation_is_rejected():
    tau = np.array([0.0, 1e-14, 2e-14, 3e-14, 1.0])
    with pytest.raises(ValueError, match="condition number"):
        build_basis(WorkingGrid(tau=tau, source="user"))


def test_domain_must_contain_sites():
    working = select_working_grid(np.linspace(0.0, 1.0, 21), 6)
    with pytest.raises(ValueError, match="does not contain"):
        build_basis(working, domain=(0.5, 1.0))


def test_out_of_domain_points_clamp_with_warning():
    basis, _ = default_basis()
    with pytest.warns(UserWarning, match="clamped"):
        rows = eval_basis(basis, np.array([-0.5, 2.0]))
    np.testing.assert_allclose(rows[0], eval_basis(basis, np.array([0.0]))[0])
    np.testing.assert_allclose(rows[1], eval_basis(basis, np.array([np.pi / 2]))[0])


def test_uniform_basis_layout():
    basis = uniform_basis((0.0, 2.0), 7)
    assert basis.size == 7
    np.testing.assert_allclose(basis.knots[4:-4], np.linspace(0.0, 2.0, 5)[1:-1])
    rows = eval_basis(basis, np.linspace(0.0, 2.0, 50))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="at least 4"):
        uniform_basis((0.0, 1.0), 3)
    with pytest.raises(ValueError, match="positive length"):
        uniform_basis((1.0, 1.0), 5)


def test_curvature_penalty_matches_quadrature():
    basis = uniform_basis((0.0, 1.0), 6)
    pen = curvature_penalty(basis)
    spline2 = BSpline(basis.knots, np.eye(basis.size), 3, extrapolate=False).derivative(2)

    def product(x, j, k):
        vals = np.nan_to_num(spline2(np.atleast_1d(x)))[0]
        return vals[j] * vals[k]

    for j, k in [(0, 0), (0, 1), (2, 3), (5, 5), (1, 4)]:
        want, _ = quad(product, 0.0, 1.0, args=(j, k), limit=200)
        assert pen[j, k] == pytest.approx(want, abs=1e-8)
    np.testing.assert_allclose(pen, pen.T, atol=1e-14)


def test_curvature_penalty_quadratic_forms():
    basis, working = default_basis(L=10)
    pen = curvature_penalty(basis)
    _, inverse = coeff_transform(basis, working.tau)
    # Lines have zero curvature energy; t^2 has integral of 2^2 over the span.
    line = inverse @ (3.0 - 2.0 * working.tau)
    assert line @ pen @ line == pytest.approx(0.0, abs=1e-8)
    quad_coeffs = inverse @ working.tau**2
    assert quad_coeffs @ pen @ quad_coeffs == pytest.approx(4.0 * np.pi / 2, rel=1e-8)


def test_second_derivative_evaluation():
    basis, working = default_basis(L=10)
    _, inverse = coeff_transform(basis, working.tau)
    coeffs = inverse @ working.tau**2
    pts = np.linspace(0.05, 1.5, 30)
    np.testing.assert_allclose(eval_basis_deriv2(basis, pts) @ coeffs, 2.0, atol=1e-7)
