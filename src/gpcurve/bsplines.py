"""Cubic B-spline bases: working grids, collocation, coefficient transforms.

The basis-approximated sampler works on spline coefficients rather than
grid values, so everything here revolves around a square collocation
matrix B(tau) that must stay well conditioned: the working grid tau picks
L spread-out sites, and the knots are placed by averaging neighbouring
sites so interpolation at tau is safe.

Basis rows come from the Cox-de Boor recurrence (de Boor 1972, "On
calculating with B-splines", J. Approx. Theory 6:50), evaluated in the
order scipy.interpolate uses, so the rows equal ``BSpline.design_matrix``
and ``BSpline.derivative`` bit for bit without importing it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from gpcurve.gridutil import check_grid
from gpcurve.stochastic import pseudo_inverse

__all__ = [
    "BSplineBasis",
    "WorkingGrid",
    "build_basis",
    "coeff_transform",
    "curvature_penalty",
    "eval_basis",
    "eval_basis_deriv2",
    "select_working_grid",
    "uniform_basis",
]

ORDER = 4  # cubic
COLLOCATION_COND_LIMIT = 1e12


@dataclass
class WorkingGrid:
    """L sites inside the data range, plus how they were chosen."""

    tau: np.ndarray
    source: str  # "percentile" or "equally-spaced"

    def __post_init__(self):
        self.tau = check_grid(self.tau, name="working grid")

    @property
    def size(self) -> int:
        return self.tau.size


def select_working_grid(pooled_grid, L: int) -> WorkingGrid:
    """Pick L working sites at the percentiles 100 k / (L + 1), k = 1..L.

    Percentiles use linear interpolation on the pooled grid.  If rounding
    collapses any two sites, fall back to L equally spaced points over the
    data range.
    """
    pooled_grid = check_grid(pooled_grid, name="pooled grid")
    if L < 4:
        raise ValueError(f"need at least 4 working sites for a cubic basis, got L={L}")
    if L > pooled_grid.size:
        raise ValueError(
            f"L={L} exceeds the {pooled_grid.size} distinct pooled grid points"
        )
    qs = np.arange(1, L + 1) / (L + 1)
    tau = np.quantile(pooled_grid, qs, method="linear")
    if np.unique(tau).size < L:
        tau = np.linspace(pooled_grid[0], pooled_grid[-1], L)
        return WorkingGrid(tau=tau, source="equally-spaced")
    return WorkingGrid(tau=tau, source="percentile")


@dataclass
class BSplineBasis:
    """A cubic B-spline basis on a fixed knot vector.

    ``knots`` carries boundary knots of multiplicity 4 at the domain ends;
    the number of basis functions is ``len(knots) - 4``.
    """

    knots: np.ndarray
    domain: tuple[float, float]

    @property
    def size(self) -> int:
        return self.knots.size - ORDER


def _averaged_knots(tau: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
    """Knot vector from site averages (K = L basis functions).

    Interior knot j is the mean of sites tau[j+1 .. j+3]; boundary knots
    repeat the domain ends 4 times.  Averaging keeps each site inside the
    support of its matching basis function, which is what makes square
    collocation at tau invertible.
    """
    lo, hi = domain
    n_interior = tau.size - ORDER
    interior = np.array(
        [np.mean(tau[j + 1 : j + ORDER]) for j in range(n_interior)]
    )
    return np.concatenate([np.full(ORDER, lo), interior, np.full(ORDER, hi)])


def build_basis(working: WorkingGrid, domain: tuple[float, float] | None = None) -> BSplineBasis:
    """Build the K = L cubic basis whose knots average the working sites.

    The domain must contain the sites; it defaults to their range.  The
    square collocation matrix at the sites is checked for conditioning,
    since everything downstream inverts it.
    """
    tau = working.tau
    if domain is None:
        domain = (float(tau[0]), float(tau[-1]))
    lo, hi = float(domain[0]), float(domain[1])
    if lo > tau[0] or hi < tau[-1]:
        raise ValueError(
            f"domain [{lo}, {hi}] does not contain the working sites "
            f"[{tau[0]}, {tau[-1]}]"
        )
    basis = BSplineBasis(knots=_averaged_knots(tau, (lo, hi)), domain=(lo, hi))
    btau = eval_basis(basis, tau)
    cond = np.linalg.cond(btau)
    if not np.isfinite(cond) or cond > COLLOCATION_COND_LIMIT:
        raise ValueError(
            f"collocation matrix at the working sites has condition number "
            f"{cond:.3g}; reduce L or spread the sites"
        )
    return basis


def _knot_interval(knots: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """Per point, the index l with knots[l] <= x < knots[l + 1], closed at the
    right end of the domain: scipy's ``_find_interval`` for points inside."""
    last = knots.size - degree - 2
    return np.clip(np.searchsorted(knots, x, side="right") - 1, degree, last)


def _deboor_rows(knots: np.ndarray, degree: int, x: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """The degree + 1 B-splines of ``degree`` that can be nonzero at each
    point, those of indices ell - degree .. ell, by the Cox-de Boor
    recurrence in the operation order of scipy's ``_deBoor_D``."""
    h = np.zeros((x.size, degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            right = knots[ell + m]
            left = knots[ell + m - j]
            empty = right == left
            w = prev[:, m - 1] / np.where(empty, 1.0, right - left)
            h[:, m - 1] = np.where(empty, h[:, m - 1], h[:, m - 1] + w * (right - x))
            h[:, m] = np.where(empty, 0.0, w * (x - left))
    return h


def eval_basis(basis: BSplineBasis, at) -> np.ndarray:
    """Evaluate all basis functions at ``at``; rows sum to 1 inside the domain.

    Points outside the domain are clamped to the nearer end, with a
    warning, so callers never receive NaN rows.
    """
    at = np.asarray(at, dtype=float)
    lo, hi = basis.domain
    if np.any(at < lo) or np.any(at > hi):
        warnings.warn(
            f"evaluation points outside the basis domain [{lo}, {hi}] "
            "were clamped to the boundary",
            stacklevel=2,
        )
        at = np.clip(at, lo, hi)
    at = np.atleast_1d(at)
    if not np.isfinite(at).all():
        raise ValueError("evaluation points must not contain infs or NaNs")
    degree = ORDER - 1
    ell = _knot_interval(basis.knots, degree, at)
    out = np.zeros((at.size, basis.size))
    # Added into zeros, as a sparse design matrix is densified.
    out[np.arange(at.size)[:, None], ell[:, None] - degree + np.arange(ORDER)] += _deboor_rows(
        basis.knots, degree, at, ell
    )
    return out


def eval_basis_deriv2(basis: BSplineBasis, at) -> np.ndarray:
    """Second derivative of every basis function at ``at``.

    The identity coefficients are differenced twice as scipy's ``splder``
    does, leaving a degree-1 spline on the knots without their ends; its
    rows are combined in the order of scipy's ``evaluate_spline``.
    """
    at = np.atleast_1d(np.clip(np.asarray(at, dtype=float), *basis.domain))
    knots, degree = basis.knots, ORDER - 1
    coeffs = np.concatenate([np.eye(basis.size), np.zeros((ORDER, basis.size))])
    with np.errstate(invalid="raise", divide="raise"):
        try:
            for _ in range(2):
                dt = knots[degree + 1 : -1] - knots[1 : -degree - 1]
                coeffs = (coeffs[1 : -1 - degree] - coeffs[: -2 - degree]) * degree / dt[:, None]
                coeffs = np.concatenate([coeffs, np.zeros((degree, basis.size))])
                knots = knots[1:-1]
                degree -= 1
        except FloatingPointError as err:
            raise ValueError("the basis has interior knots repeated too often for B''") from err
    ell = _knot_interval(knots, degree, at)
    rows = _deboor_rows(knots, degree, at, ell)
    out = 0.0 + coeffs[ell - degree] * rows[:, :1]
    for a in range(1, degree + 1):
        out += coeffs[ell - degree + a] * rows[:, a : a + 1]
    return np.nan_to_num(out)


def coeff_transform(basis: BSplineBasis, tau) -> tuple[np.ndarray, np.ndarray]:
    """Collocation matrix B(tau) and its inverse.

    The inverse maps grid values to spline coefficients.  A singular
    collocation matrix (e.g. duplicated sites) falls back to the
    pseudo-inverse, giving minimum-norm coefficients.
    """
    tau = np.asarray(tau, dtype=float)
    forward = eval_basis(basis, tau)
    if forward.shape[0] != forward.shape[1]:
        return forward, pseudo_inverse(forward)
    svals = np.linalg.svd(forward, compute_uv=False)
    if svals[-1] <= svals[0] * 1e-12:
        inverse = pseudo_inverse(forward)
    else:
        inverse = np.linalg.solve(forward, np.eye(forward.shape[0]))
    return forward, inverse


def uniform_basis(domain: tuple[float, float], nbasis: int) -> BSplineBasis:
    """Cubic basis with equally spaced interior knots (for regression)."""
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("domain must have positive length")
    if nbasis < ORDER:
        raise ValueError(f"need at least {ORDER} basis functions, got {nbasis}")
    interior = np.linspace(lo, hi, nbasis - ORDER + 2)[1:-1]
    knots = np.concatenate([np.full(ORDER, lo), interior, np.full(ORDER, hi)])
    return BSplineBasis(knots=knots, domain=(lo, hi))


def curvature_penalty(basis: BSplineBasis) -> np.ndarray:
    """Gram matrix of second derivatives: P_jk = integral B_j'' B_k''.

    Second derivatives of a cubic spline are piecewise linear, so their
    products are piecewise quadratic and Simpson's rule on each knot
    interval integrates them exactly.
    """
    knots = np.unique(basis.knots)
    lo = knots[:-1]
    hi = knots[1:]
    mid = (lo + hi) / 2.0
    d2_lo = eval_basis_deriv2(basis, lo)
    d2_hi = eval_basis_deriv2(basis, hi)
    d2_mid = eval_basis_deriv2(basis, mid)
    widths = hi - lo
    # Simpson per interval; evaluate the endpoint limits from inside each
    # interval to dodge the jump in B'' at the knots.
    pen = np.zeros((basis.size, basis.size))
    for k in range(widths.size):
        a = d2_lo[k][:, None] * d2_lo[k][None, :]
        m = d2_mid[k][:, None] * d2_mid[k][None, :]
        b = d2_hi[k][:, None] * d2_hi[k][None, :]
        pen += widths[k] / 6.0 * (a + 4.0 * m + b)
    return (pen + pen.T) / 2.0
