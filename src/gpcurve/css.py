"""Cubic smoothing splines with the (0, 1) interpolation-weight convention.

``lamb`` weights fidelity: the fit minimizes
``lamb * sum (y_i - f(t_i))^2 + (1 - lamb) * integral f''(u)^2 du``,
so ``lamb -> 1`` approaches natural-spline interpolation and ``lamb -> 0``
approaches the least-squares line.  The solve is the banded Reinsch
algorithm, O(n) in the number of grid points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy import sparse

from gpcurve.gridutil import check_grid, default_lambda_grid

__all__ = [
    "NaturalCubic",
    "SplineFit",
    "css_eval",
    "css_fit",
    "css_gcv",
    "default_lambda_grid",
    "near_interp_weight",
]

_TRACE_CHUNK = 256


def near_interp_weight(grid) -> float:
    """Weight putting the fit close to interpolation: ``1 / (1 + h^3 / 6)``
    with ``h`` the mean grid spacing."""
    grid = check_grid(grid)
    if grid.size < 2:
        raise ValueError("need at least 2 points to compute a spacing")
    h = float(np.mean(np.diff(grid)))
    return 1.0 / (1.0 + h**3 / 6.0)


class NaturalCubic:
    """Natural cubic interpolant of ``values`` at the strictly increasing
    ``grid``, built and evaluated as scipy's ``CubicSpline(grid, values,
    bc_type="natural")`` is, so the two agree bit for bit.

    The knot slopes solve scipy's tridiagonal system, whose end rows carry a
    zero second derivative; each interval then holds the Hermite cubic of
    its end values and slopes.  Evaluation follows scipy's ``PPoly``: points
    outside the grid use the end polynomials.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        dx = np.diff(grid)
        slope = np.diff(values) / dx
        n = grid.size
        ab = np.zeros((3, n))
        ab[0, 2:] = dx[:-1]
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[-1, :-2] = dx[1:]
        b = np.empty(n)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d2 = 0.0  # the natural end condition
        ab[1, 0], ab[0, 1] = 2 * dx[0], dx[0]
        b[0] = -0.5 * d2 * dx[0] ** 2 + 3 * (values[1] - values[0])
        ab[1, -1], ab[-1, -2] = 2 * dx[-1], dx[-1]
        b[-1] = 0.5 * d2 * dx[-1] ** 2 + 3 * (values[-1] - values[-2])
        s = sla.solve_banded(
            (1, 1), ab, b[:, None], overwrite_ab=True, overwrite_b=True, check_finite=False
        )[:, 0]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.breaks = grid
        # Power-basis coefficients per interval, highest degree first.
        self.coeffs = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], values[:-1]))

    def __call__(self, at, nu: int = 0) -> np.ndarray:
        """Value (``nu = 0``) or ``nu``-th derivative at ``at``, in its shape."""
        at = np.asarray(at, dtype=float)
        x = at.ravel()
        last = self.breaks.size - 2
        i = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, last)
        s = x - self.breaks[i]
        c = self.coeffs[:, i]
        # Ascending powers of s, each term scaled by its derivative factor.
        res, z = np.zeros_like(x), 1.0
        for power in range(nu, 4):
            factor = 1.0
            for k in range(power, power - nu, -1):
                factor *= k
            res = res + c[3 - power] * z * factor
            if power < 3:
                z = z * s
        return res.reshape(at.shape)


@dataclass
class SplineFit:
    """Fitted smoothing spline: grid, input values, fitted values, weight."""

    grid: np.ndarray
    values: np.ndarray
    fitted: np.ndarray
    lamb: float
    gcv: float | None = None
    _interp: NaturalCubic | None = field(default=None, repr=False, compare=False)

    def interpolant(self) -> NaturalCubic:
        # The smoothing-spline solution is the natural cubic interpolant of
        # its own fitted values, so this reproduces it exactly on the domain.
        if self._interp is None:
            self._interp = NaturalCubic(self.grid, self.fitted)
        return self._interp


def _spline_system(grid: np.ndarray):
    """Second-difference operator Q (n x (n-2)) and roughness Gram R."""
    h = np.diff(grid)
    n = grid.size
    q = sparse.diags_array(
        [1.0 / h[:-1], -(1.0 / h[:-1] + 1.0 / h[1:]), 1.0 / h[1:]],
        offsets=[0, -1, -2],
        shape=(n, n - 2),
    ).tocsc()
    r = sparse.diags_array(
        [h[1:-1] / 6.0, (h[:-1] + h[1:]) / 3.0, h[1:-1] / 6.0],
        offsets=[-1, 0, 1],
        shape=(n - 2, n - 2),
    ).tocsc()
    return q, r


def _banded_lower(mat: sparse.csc_matrix, bandwidth: int = 2) -> np.ndarray:
    """Lower-banded storage of a symmetric banded sparse matrix."""
    dim = mat.shape[0]
    ab = np.zeros((bandwidth + 1, dim))
    ab[0] = mat.diagonal(0)
    for k in range(1, bandwidth + 1):
        ab[k, : dim - k] = mat.diagonal(-k)
    return ab


def _validate_inputs(grid, values, lamb):
    grid = check_grid(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(
            f"values shape {values.shape} does not match grid shape {grid.shape}"
        )
    if grid.size < 4:
        raise ValueError(f"need at least 4 points for a cubic smoothing spline, got {grid.size}")
    if not 0.0 < lamb < 1.0:
        raise ValueError(f"lamb must lie strictly inside (0, 1), got {lamb}")
    return grid, values


def css_fit(grid, values, lamb: float) -> SplineFit:
    """Fit a cubic smoothing spline at interpolation weight ``lamb``."""
    grid, values = _validate_inputs(grid, values, lamb)
    q, r = _spline_system(grid)
    fitted, _ = _penalized_solve(values, (1.0 - lamb) / lamb, q, r, (q.T @ q).tocsc())
    return SplineFit(grid=grid, values=values, fitted=fitted, lamb=float(lamb))


def _penalized_solve(values, alpha: float, q, r, qtq):
    """Fitted values ``values - alpha Q M^-1 Q^T values`` with
    ``M = R + alpha Q^T Q``, and M's lower banded Cholesky factor."""
    factor = sla.cholesky_banded(_banded_lower(r + alpha * qtq), lower=True)
    gamma = sla.cho_solve_banded((factor, True), q.T @ values)
    return values - alpha * (q @ gamma), factor


def _smoother_trace(n: int, alpha: float, factor, qtq) -> float:
    """Trace of the smoother matrix: ``n - alpha * tr(M^-1 Q^T Q)``.

    Solved column-by-column through M's banded Cholesky factor, chunked so
    memory stays O(n * chunk) even on dense grids.
    """
    dim = qtq.shape[0]
    trace_mb = 0.0
    for start in range(0, dim, _TRACE_CHUNK):
        stop = min(start + _TRACE_CHUNK, dim)
        cols = qtq[:, start:stop].toarray()
        sol = sla.cho_solve_banded((factor, True), cols)
        trace_mb += float(np.sum(sol[np.arange(start, stop), np.arange(stop - start)]))
    return n - alpha * trace_mb


def css_gcv(grid, values, candidates=None) -> tuple[SplineFit, float]:
    """Pick the interpolation weight by generalized cross-validation.

    GCV(lamb) = n * RSS / (n - tr S)^2.  Ties resolve to the smaller
    weight.  Returns the winning fit (with its score filled in) and the
    chosen weight.
    """
    if candidates is None:
        candidates = default_lambda_grid()
    candidates = np.sort(np.asarray(candidates, dtype=float))
    if candidates.size == 0:
        raise ValueError("need at least one candidate lambda")
    grid, values = _validate_inputs(grid, values, float(candidates[0]))
    q, r = _spline_system(grid)
    qtq = (q.T @ q).tocsc()
    n = grid.size

    best_fit = None
    best_score = np.inf
    for lamb in candidates:
        alpha = (1.0 - lamb) / lamb
        fitted, factor = _penalized_solve(values, alpha, q, r, qtq)
        rss = float(np.sum((values - fitted) ** 2))
        denom = n - _smoother_trace(n, alpha, factor, qtq)
        score = n * rss / denom**2 if denom > 0.0 else np.inf
        if score < best_score:
            best_score = score
            best_fit = SplineFit(
                grid=grid, values=values, fitted=fitted, lamb=float(lamb), gcv=score
            )
    return best_fit, best_fit.lamb


def css_eval(fit: SplineFit, at):
    """Evaluate a fit; outside the data range the curve extends linearly,
    continuing the boundary value and slope."""
    at = np.asarray(at, dtype=float)
    scalar = at.ndim == 0
    at = np.atleast_1d(at)
    cs = fit.interpolant()
    lo, hi = fit.grid[0], fit.grid[-1]
    out = cs(np.clip(at, lo, hi))
    left = at < lo
    if np.any(left):
        out[left] = fit.fitted[0] + float(cs(lo, 1)) * (at[left] - lo)
    right = at > hi
    if np.any(right):
        out[right] = fit.fitted[-1] + float(cs(hi, 1)) * (at[right] - hi)
    if scalar:
        return float(out[0])
    return out
