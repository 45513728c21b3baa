"""Matern correlation and the covariance models used as prior structure.

Three interchangeable covariance constructions feed the samplers: a
stationary Matern family, a nonstationary family obtained by warping the
time axis and rescaling the amplitude, and a raw empirical matrix pinned
to the grid it was estimated on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gpcurve.gridutil import check_grid
from gpcurve.stochastic import SpdMatrix

__all__ = [
    "CovarianceModel",
    "MaternParams",
    "fit_matern",
    "matern_cor",
    "nonstationary_cov",
    "stationary_cov",
]

# Below this scaled distance the Bessel-function product is numerically
# unstable; the correlation is 1 to double precision anyway.
_TINY_SCALED_DIST = 1e-13

FIT_NU_GRID = (0.5, 1.5, 2.5, 3.5, 4.5)
FIT_RHO_POINTS = 50


@dataclass(frozen=True)
class MaternParams:
    """Matern correlation parameters: range ``rho``, smoothness ``nu``."""

    rho: float
    nu: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")


def matern_cor(d, params: MaternParams):
    """Matern correlation at distances ``d``.

    Evaluates ``2^(1-nu)/Gamma(nu) * x^nu * K_nu(x)`` with
    ``x = sqrt(2 nu) d / rho``; ``d = 0`` maps to exactly 1.
    """
    # Imported on first call, so that importing the package loads no scipy.
    from scipy.special import gamma as gamma_fn
    from scipy.special import kv

    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("distances must be nonnegative")
    x = math.sqrt(2.0 * params.nu) * d / params.rho
    out = np.ones_like(x)
    big = x >= _TINY_SCALED_DIST
    xb = x[big]
    out[big] = (2.0 ** (1.0 - params.nu) / gamma_fn(params.nu)) * xb**params.nu * kv(
        params.nu, xb
    )
    # kv underflows to 0 at large x and the product may carry 1-ulp noise.
    np.clip(out, 0.0, 1.0, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def stationary_cov(grid, s2: float, params: MaternParams) -> SpdMatrix:
    """Stationary Matern covariance ``s2 * matern_cor(|t_i - t_j|)`` on a grid."""
    grid = check_grid(grid)
    if not s2 > 0.0:
        raise ValueError(f"s2 must be positive, got {s2}")
    dist = np.abs(grid[:, None] - grid[None, :])
    mat = s2 * matern_cor(dist, params)
    return SpdMatrix.from_matrix(mat, name="stationary Matern covariance")


def nonstationary_cov(grid, s2: float, params: MaternParams) -> SpdMatrix:
    """Nonstationary covariance: warped time axis, linearly growing amplitude.

    ``cov(t, t') = s2 (t + 1/2)(t' + 1/2) matern_cor(|t^(2/3) - t'^(2/3)|)``.
    Requires a nonnegative grid so the warp is real and increasing.
    """
    grid = check_grid(grid)
    if np.any(grid < 0.0):
        raise ValueError("nonstationary covariance requires a nonnegative grid")
    if not s2 > 0.0:
        raise ValueError(f"s2 must be positive, got {s2}")
    warped = grid ** (2.0 / 3.0)
    dist = np.abs(warped[:, None] - warped[None, :])
    amp = grid + 0.5
    mat = s2 * np.outer(amp, amp) * matern_cor(dist, params)
    return SpdMatrix.from_matrix(mat, name="nonstationary covariance")


@dataclass
class CovarianceModel:
    """A covariance construction the samplers can evaluate on a grid.

    ``kind`` is one of ``"stationary-matern"``, ``"nonstationary-transformed"``,
    or ``"empirical"``.  The first two carry ``params``; the empirical kind
    carries the estimated matrix ``base`` together with the grid it lives on
    and can only be evaluated there.
    """

    kind: str
    s2: float
    params: MaternParams | None = None
    base: SpdMatrix | None = None
    grid: np.ndarray | None = None

    _KINDS = ("stationary-matern", "nonstationary-transformed", "empirical")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "empirical":
            if self.base is None or self.grid is None:
                raise ValueError("empirical covariance model needs base and grid")
        elif self.params is None:
            raise ValueError(f"{self.kind} covariance model needs MaternParams")

    def evaluate(self, grid) -> SpdMatrix:
        grid = np.asarray(grid, dtype=float)
        if self.kind == "stationary-matern":
            return stationary_cov(grid, self.s2, self.params)
        if self.kind == "nonstationary-transformed":
            return nonstationary_cov(grid, self.s2, self.params)
        if self.grid.shape != grid.shape or not np.array_equal(self.grid, grid):
            raise ValueError(
                "empirical covariance model can only be evaluated on the grid "
                "it was estimated on"
            )
        return self.base


def fit_matern(emp_cov, grid, nu_grid=None, rho_grid=None) -> tuple[float, MaternParams]:
    """Least-squares Matern fit to an empirical covariance.

    The marginal variance is the mean diagonal.  ``(nu, rho)`` minimize the
    sum of squared differences between the Matern correlation and the
    empirical correlation over a small grid of smoothness values and a
    50-point log-spaced range grid spanning [min spacing, grid range].
    Ties resolve to the first candidate in scan order (rho ascending within
    nu ascending), so a flat objective returns the smallest values.
    """
    mat = emp_cov.mat if isinstance(emp_cov, SpdMatrix) else np.asarray(emp_cov, dtype=float)
    grid = check_grid(grid)
    if mat.shape != (grid.size, grid.size):
        raise ValueError(
            f"covariance shape {mat.shape} does not match grid of length {grid.size}"
        )
    diag = np.diag(mat)
    if np.any(diag <= 0.0):
        raise ValueError("empirical covariance has nonpositive diagonal entries")
    s2 = float(np.mean(diag))
    corr = mat / np.sqrt(np.outer(diag, diag))
    dist = np.abs(grid[:, None] - grid[None, :])

    if nu_grid is None:
        nu_grid = FIT_NU_GRID
    if rho_grid is None:
        spacing = float(np.min(np.diff(grid))) if grid.size > 1 else 1.0
        span = float(grid[-1] - grid[0]) if grid.size > 1 else 1.0
        rho_grid = np.geomspace(spacing, span, FIT_RHO_POINTS)

    best = (np.inf, None)
    for nu in nu_grid:
        for rho in rho_grid:
            cand = MaternParams(rho=float(rho), nu=float(nu))
            sse = float(np.sum((matern_cor(dist, cand) - corr) ** 2))
            if sse < best[0]:
                best = (sse, cand)
    return s2, best[1]
