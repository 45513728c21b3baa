"""The smoothing-spline kernels written on scipy.sparse and scipy.linalg.

This is the formulation `gpcurve.css` replaced with band arrays and direct
LAPACK calls; the tests hold the package's kernels to it bit for bit.
"""

import numpy as np
from scipy import linalg as sla
from scipy import sparse

TRACE_CHUNK = 256


def spline_system(grid):
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


def banded_lower(mat, bandwidth=2):
    """Lower-banded storage of a symmetric banded sparse matrix."""
    dim = mat.shape[0]
    ab = np.zeros((bandwidth + 1, dim))
    ab[0] = mat.diagonal(0)
    for k in range(1, bandwidth + 1):
        ab[k, : dim - k] = mat.diagonal(-k)
    return ab


def gram(q):
    return (q.T @ q).tocsc()


def penalized_solve(values, alpha, q, r, qtq):
    """Fitted values and M's lower banded Cholesky factor."""
    factor = sla.cholesky_banded(banded_lower(r + alpha * qtq), lower=True)
    gamma = sla.cho_solve_banded((factor, True), q.T @ values)
    return values - alpha * (q @ gamma), factor


def smoother_trace(n, alpha, factor, qtq):
    dim = qtq.shape[0]
    trace_mb = 0.0
    for start in range(0, dim, TRACE_CHUNK):
        stop = min(start + TRACE_CHUNK, dim)
        cols = qtq[:, start:stop].toarray()
        sol = sla.cho_solve_banded((factor, True), cols)
        trace_mb += float(np.sum(sol[np.arange(start, stop), np.arange(stop - start)]))
    return n - alpha * trace_mb


def css_gcv_scores(grid, values, candidates):
    """(fitted, GCV score) of every candidate weight, in the given order."""
    q, r = spline_system(grid)
    qtq = gram(q)
    n = grid.size
    out = []
    for lamb in candidates:
        alpha = (1.0 - lamb) / lamb
        fitted, factor = penalized_solve(values, alpha, q, r, qtq)
        rss = float(np.sum((values - fitted) ** 2))
        denom = n - smoother_trace(n, alpha, factor, qtq)
        out.append((fitted, n * rss / denom**2 if denom > 0.0 else np.inf))
    return out


def natural_cubic_coeffs(grid, values):
    """Power-basis coefficients of the natural cubic interpolant per
    interval, its knot slopes solved by solve_banded."""
    dx = np.diff(grid)
    slope = np.diff(values) / dx
    n = grid.size
    ab = np.zeros((3, n))
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[-1, :-2] = dx[1:]
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d2 = 0.0
    ab[1, 0], ab[0, 1] = 2 * dx[0], dx[0]
    b[0] = -0.5 * d2 * dx[0] ** 2 + 3 * (values[1] - values[0])
    ab[1, -1], ab[-1, -2] = 2 * dx[-1], dx[-1]
    b[-1] = 0.5 * d2 * dx[-1] ** 2 + 3 * (values[-1] - values[-2])
    s = sla.solve_banded(
        (1, 1), ab, b[:, None], overwrite_ab=True, overwrite_b=True, check_finite=False
    )[:, 0]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], values[:-1]))
