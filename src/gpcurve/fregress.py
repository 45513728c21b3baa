"""Penalized functional linear regression on a common grid.

Two response types share one machinery: a scalar response regressed on
the integral of the covariate curve against a coefficient function, and a
concurrent functional response regressed pointwise on the covariate.
Coefficient functions live in a cubic spline basis with a curvature
penalty of a given weight.

A :class:`RegressionDesign` holds every curve's rows of the linear model,
built once per set of covariate curves.  A curve's rows do not depend on
which other curves are fitted with it, so fits and predictions select rows
from one design.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from gpcurve.bsplines import curvature_penalty, eval_basis, uniform_basis
from gpcurve.gridutil import check_grid

__all__ = [
    "RegressionDesign",
    "RegressionFit",
    "concurrent_design",
    "default_lambda_grid",
    "fit_concurrent",
    "fit_scalar_on_function",
    "predict",
    "scalar_design",
    "trapezoid_weights",
]

DEFAULT_X_NBASIS = 20
DEFAULT_BETA_NBASIS = 10
COND_LIMIT = 1e12


def default_lambda_grid() -> np.ndarray:
    """Penalty weight candidates 0, 0.1, ..., 1."""
    return np.round(np.linspace(0.0, 1.0, 11), 12)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Quadrature weights of the trapezoid rule on a (possibly uneven) grid."""
    h = np.diff(grid)
    w = np.zeros(grid.size)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    return w


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with blocks ``a`` and ``b``."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


@dataclass(frozen=True)
class RegressionDesign:
    """Every curve's rows of one regression model.

    ``rows`` is (n, 1 + kb) for the scalar model, rows ``[1, c_i^T J]``,
    and (n, p, 2 kb) for the concurrent model, rows
    ``[phi(t_j), x_i(t_j) phi(t_j)]``.  ``penalty`` is the curvature
    penalty on the coefficients and ``phi_beta`` the coefficient basis on
    ``grid``.
    """

    kind: str
    grid: np.ndarray
    rows: np.ndarray
    penalty: np.ndarray = field(repr=False)
    phi_beta: np.ndarray = field(repr=False)

    def take(self, idx) -> RegressionDesign:
        """The design of the curves ``idx``."""
        return replace(self, rows=self.rows[idx])


@dataclass
class RegressionFit:
    """A fitted penalized functional regression.

    ``beta`` is the coefficient function on the grid; ``beta0`` the
    intercept (a constant for scalar responses, a curve for concurrent
    ones).  ``alpha`` holds the coefficients that multiply a design's rows.
    """

    kind: str
    lamb: float
    alpha: np.ndarray
    beta0: float | np.ndarray
    beta: np.ndarray
    fitted: np.ndarray
    sigma_e2: float | np.ndarray
    normal_matrix: np.ndarray = field(repr=False)


def _beta_basis(grid, x, beta_nbasis, domain):
    """Checked grid and curves, the domain, and the coefficient basis on the
    grid with its curvature penalty."""
    grid = check_grid(grid)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != grid.size:
        raise ValueError(f"X must be (n, {grid.size}), got {x.shape}")
    if domain is None:
        domain = (float(grid[0]), float(grid[-1]))
    basis = uniform_basis(domain, beta_nbasis)
    return grid, x, domain, eval_basis(basis, grid), curvature_penalty(basis)


def scalar_design(
    grid,
    x,
    x_nbasis: int = DEFAULT_X_NBASIS,
    beta_nbasis: int = DEFAULT_BETA_NBASIS,
    domain=None,
) -> RegressionDesign:
    """Rows [1, c_i^T J] of y_i = beta0 + integral X_i(t) beta(t) dt.

    Curves are projected on an ``x_nbasis`` spline basis, the integral is
    a trapezoid-rule Gram J against the ``beta_nbasis`` basis, and only the
    coefficient function's curvature is penalized (never the intercept).
    """
    grid, x, domain, phi_beta, pen = _beta_basis(grid, x, beta_nbasis, domain)
    phi_x = eval_basis(uniform_basis(domain, x_nbasis), grid)
    coeffs = np.linalg.lstsq(phi_x, x.T, rcond=None)[0].T
    xj = phi_x.T @ (trapezoid_weights(grid)[:, None] * phi_beta)
    rows = np.hstack([np.ones((x.shape[0], 1)), coeffs @ xj])
    return RegressionDesign("scalar", grid, rows, _block_diag(np.zeros((1, 1)), pen), phi_beta)


def concurrent_design(
    grid,
    x,
    beta_nbasis: int = DEFAULT_BETA_NBASIS,
    domain=None,
) -> RegressionDesign:
    """Rows [phi(t_j), x_ij phi(t_j)] of Y_i(t) = beta0(t) + X_i(t) beta1(t).

    Both coefficient curves live in the same spline basis and both carry
    the curvature penalty.
    """
    grid, x, _, phi_beta, pen = _beta_basis(grid, x, beta_nbasis, domain)
    rows = np.concatenate(
        [np.broadcast_to(phi_beta, (x.shape[0],) + phi_beta.shape), x[:, :, None] * phi_beta],
        axis=2,
    )
    return RegressionDesign("concurrent", grid, rows, _block_diag(pen, pen), phi_beta)


def _check_responses(design: RegressionDesign, y, kind: str) -> np.ndarray:
    if design.kind != kind:
        raise ValueError(f"a {kind} fit needs a design of kind {kind!r}, got {design.kind!r}")
    y = np.asarray(y, dtype=float)
    if y.shape != design.rows.shape[:-1]:
        if kind == "scalar":
            raise ValueError(f"scalar responses must be a length-{design.rows.shape[0]} vector")
        raise ValueError(f"functional responses must match X's shape {design.rows.shape[:-1]}")
    return y


def _solve_penalized(gram, rhs, pen, lamb):
    m = gram + lamb * pen
    if lamb == 0.0:
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError(
                "normal equations are rank deficient at lambda = 0; "
                "supply a positive penalty weight"
            )
    return np.linalg.solve(m, rhs), m


def _fit(design: RegressionDesign, y, lamb: float, kind: str):
    """Penalized least squares over every row of the design."""
    y = _check_responses(design, y, kind)
    if not lamb >= 0.0:
        raise ValueError(f"lamb must be nonnegative, got {lamb}")
    d = design.rows.reshape(-1, design.rows.shape[-1])
    alpha, m = _solve_penalized(d.T @ d, d.T @ y.ravel(), design.penalty, float(lamb))
    fitted = (d @ alpha).reshape(y.shape)
    return alpha, m, fitted, y - fitted


def fit_scalar_on_function(design: RegressionDesign, y, lamb: float = 0.1) -> RegressionFit:
    """Fit y_i = beta0 + integral X_i(t) beta(t) dt + noise on a scalar design."""
    alpha, m, fitted, resid = _fit(design, y, lamb, "scalar")
    return RegressionFit(
        kind="scalar",
        lamb=float(lamb),
        alpha=alpha,
        beta0=float(alpha[0]),
        beta=design.phi_beta @ alpha[1:],
        fitted=fitted,
        sigma_e2=float(np.mean(resid**2)),
        normal_matrix=m,
    )


def fit_concurrent(design: RegressionDesign, y, lamb: float = 0.1) -> RegressionFit:
    """Fit Y_i(t) = beta0(t) + X_i(t) beta1(t) + noise on a concurrent design."""
    alpha, m, fitted, resid = _fit(design, y, lamb, "concurrent")
    kb = design.phi_beta.shape[1]
    return RegressionFit(
        kind="concurrent",
        lamb=float(lamb),
        alpha=alpha,
        beta0=design.phi_beta @ alpha[:kb],
        beta=design.phi_beta @ alpha[kb:],
        fitted=fitted,
        sigma_e2=np.mean(resid**2, axis=0),
        normal_matrix=m,
    )


def predict(fit: RegressionFit, design: RegressionDesign) -> np.ndarray:
    """Predicted responses of the design's curves."""
    return design.rows @ fit.alpha
