"""Cubic smoothing splines with the (0, 1) interpolation-weight convention.

``lamb`` weights fidelity: the fit minimizes
``lamb * sum (y_i - f(t_i))^2 + (1 - lamb) * integral f''(u)^2 du``,
so ``lamb -> 1`` approaches natural-spline interpolation and ``lamb -> 0``
approaches the least-squares line.  The solve is the banded Reinsch
algorithm (Reinsch 1967), O(n) in the number of grid points.

The operators are kept as band arrays and go straight to LAPACK's banded
routines (:func:`gpcurve.stochastic._lapack`).  Their products add up in the
order scipy's sparse kernels would, and each routine gets the arguments and
checks scipy.linalg's banded solvers give it, so the fits are the ones a
``scipy.sparse``/``scipy.linalg`` formulation computes, bit for bit, without
loading either package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpcurve.gridutil import check_grid, default_lambda_grid
from gpcurve.stochastic import _check_finite, _lapack, _lapack_info

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
        # The three diagonals scipy's solve_banded hands to LAPACK gtsv.
        sub = np.empty(n - 1)
        sub[:-1], sub[-1] = dx[1:], dx[-1]
        diag = np.empty(n)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        diag[0], diag[-1] = 2 * dx[0], 2 * dx[-1]
        sup = np.empty(n - 1)
        sup[0], sup[1:] = dx[0], dx[:-1]
        b = np.empty(n)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d2 = 0.0  # the natural end condition
        b[0] = -0.5 * d2 * dx[0] ** 2 + 3 * (values[1] - values[0])
        b[-1] = 0.5 * d2 * dx[-1] ** 2 + 3 * (values[-1] - values[-2])
        *_, s, info = _lapack().gtsv(sub, diag, sup, b[:, None], 1, 1, 1, 1)
        _lapack_info(info, "gtsv")
        if info:
            raise np.linalg.LinAlgError("singular matrix")
        s = s[:, 0]
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
    """Bands of the second-difference operator Q (n x (n-2)) and of the
    roughness Gram R ((n-2) x (n-2), symmetric tridiagonal).

    Column j of Q holds ``q[0, j]``, ``q[1, j]`` and ``q[2, j]`` in rows
    j, j+1 and j+2.  ``r[0]`` is R's diagonal and ``r[1, :-1]`` its
    subdiagonal.
    """
    h = np.diff(grid)
    q = np.stack([1.0 / h[:-1], -(1.0 / h[:-1] + 1.0 / h[1:]), 1.0 / h[1:]])
    r = np.zeros((2, grid.size - 2))
    r[0] = (h[:-1] + h[1:]) / 3.0
    r[1, :-1] = h[1:-1] / 6.0
    return q, r


# The products below start from zero and add Q's entries in ascending row
# order, as scipy's sparse kernels do, so that even signed zeros agree.


def _gram(q: np.ndarray) -> np.ndarray:
    """Lower bands of the pentadiagonal Q^T Q: row k holds the entries
    (j + k, j) in column j."""
    a, b, c = q
    qtq = np.zeros_like(q)
    qtq[0] = 0.0 + a * a + b * b + c * c
    qtq[1, :-1] = 0.0 + b[:-1] * a[1:] + c[:-1] * b[1:]
    qtq[2, :-2] = 0.0 + c[:-2] * a[2:]
    return qtq


def _q_transpose_times(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q^T y."""
    return 0.0 + q[0] * y[:-2] + q[1] * y[1:-1] + q[2] * y[2:]


def _q_times(q: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Q gamma: row j adds the products of columns j-2, j-1 and j."""
    out = np.zeros(gamma.size + 2)
    out[2:] += q[2] * gamma
    out[1:-1] += q[1] * gamma
    out[:-2] += q[0] * gamma
    return out


def _pbtrs(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with M's lower banded Cholesky factor, checked as
    ``scipy.linalg.cho_solve_banded`` checks."""
    _check_finite(factor, rhs)
    x, info = _lapack().pbtrs(factor, rhs, lower=1)
    _lapack_info(info, "pbtrs")
    if info:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    return x


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
    fitted, _ = _penalized_solve(values, (1.0 - lamb) / lamb, q, r, _gram(q))
    return SplineFit(grid=grid, values=values, fitted=fitted, lamb=float(lamb))


def _penalized_solve(values, alpha: float, q, r, qtq):
    """Fitted values ``values - alpha Q M^-1 Q^T values`` with
    ``M = R + alpha Q^T Q``, and M's lower banded Cholesky factor."""
    m = alpha * qtq
    m[:2] = r + m[:2]
    _check_finite(m)
    factor, info = _lapack().pbtrf(m, lower=1, overwrite_ab=1)
    _lapack_info(info, "pbtrf")
    if info:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    gamma = _pbtrs(factor, _q_transpose_times(q, values))
    return values - alpha * _q_times(q, gamma), factor


def _smoother_trace(n: int, alpha: float, factor, qtq) -> float:
    """Trace of the smoother matrix: ``n - alpha * tr(M^-1 Q^T Q)``.

    Solved for Q^T Q's columns, formed from its bands a chunk at a time,
    so memory stays O(n * chunk) even on dense grids.
    """
    dim = qtq.shape[1]
    trace_mb = 0.0
    for start in range(0, dim, _TRACE_CHUNK):
        stop = min(start + _TRACE_CHUNK, dim)
        cols = np.zeros((dim, stop - start), order="F")
        for k in range(3):
            # Column j holds (j + k, j) below the diagonal and, mirrored,
            # (j - k, j) above it.
            j = np.arange(start, min(stop, dim - k))
            cols[j + k, j - start] = qtq[k, j]
            j = np.arange(max(start, k), stop)
            cols[j - k, j - start] = qtq[k, j - k]
        sol = _pbtrs(factor, cols)
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
    qtq = _gram(q)
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
