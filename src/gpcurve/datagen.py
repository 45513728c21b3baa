"""Simulated functional datasets: n noisy curves sharing one GP law."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpcurve.gridutil import check_grid, pooled_union
from gpcurve.kernels import MaternParams, nonstationary_cov, stationary_cov
from gpcurve.stochastic import RngStream, SpdMatrix

__all__ = [
    "Curve",
    "FunctionalDataset",
    "SimConfig",
    "sim_gfd",
    "sim_gfd_rgrid",
    "true_mean_function",
]


def _mean_stationary(t: np.ndarray) -> np.ndarray:
    return 3.0 * np.sin(4.0 * t)


def _mean_nonstationary(t: np.ndarray) -> np.ndarray:
    return 3.0 * (t + 0.5) * np.sin(4.0 * t ** (2.0 / 3.0))


def true_mean_function(stat: bool):
    """The mean function each generator draws around."""
    return _mean_stationary if stat else _mean_nonstationary


@dataclass
class Curve:
    """One observed curve: its grid, noisy values, and (if known) the truth."""

    grid: np.ndarray
    raw: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        self.grid = check_grid(self.grid, name="curve grid")
        self.raw = np.asarray(self.raw, dtype=float)
        if self.raw.shape != self.grid.shape:
            raise ValueError("raw values must match the curve grid in length")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
            if self.truth.shape != self.grid.shape:
                raise ValueError("truth values must match the curve grid in length")


@dataclass
class FunctionalDataset:
    """A collection of curves plus the sorted deduplicated union of their grids.

    Simulated datasets also carry the generator truth: the mean vector on
    the pooled grid and, when small enough to be worth storing, the
    covariance on the pooled grid.  Every raw and true curve value must be
    finite; the first non-finite one is reported by curve and position.
    """

    curves: list[Curve]
    pooled_grid: np.ndarray = field(default=None)
    true_mean: np.ndarray | None = None
    true_cov: SpdMatrix | None = None

    def __post_init__(self):
        if not self.curves:
            raise ValueError("dataset needs at least one curve")
        for i, curve in enumerate(self.curves):
            for label, values in (("raw", curve.raw), ("truth", curve.truth)):
                if values is None:
                    continue
                bad = np.flatnonzero(~np.isfinite(values))
                if bad.size:
                    j = int(bad[0])
                    raise ValueError(
                        f"curve {i} has a non-finite {label} value ({values[j]}) at "
                        f"position {j} (t={curve.grid[j]:.6g}); {bad.size} such value(s) "
                        "in that curve"
                    )
        union = pooled_union([c.grid for c in self.curves])
        if self.pooled_grid is None:
            self.pooled_grid = union
        elif not np.array_equal(np.asarray(self.pooled_grid, dtype=float), union):
            raise ValueError("pooled_grid must equal the sorted union of curve grids")
        if self.true_mean is not None:
            self.true_mean = np.asarray(self.true_mean, dtype=float)
            if self.true_mean.shape != self.pooled_grid.shape:
                raise ValueError("true_mean must live on the pooled grid")
        if self.true_cov is not None and self.true_cov.dim != self.pooled_grid.size:
            raise ValueError("true_cov must live on the pooled grid")

    @property
    def n_curves(self) -> int:
        return len(self.curves)

    def common_grid(self) -> bool:
        """True when every curve is observed on the full pooled grid."""
        return all(
            c.grid.size == self.pooled_grid.size and np.array_equal(c.grid, self.pooled_grid)
            for c in self.curves
        )


@dataclass(frozen=True)
class SimConfig:
    """Generator settings: sizes, domain, signal and noise scales, GP law.

    ``s`` is the marginal signal scale, ``r`` the signal-to-noise ratio, so
    noise is N(0, (s/r)^2).  ``dense`` is the fraction of grid points each
    curve keeps when ``cgrid`` is false.  ``stat`` switches between the
    stationary law and the warped, amplitude-modulated one.
    """

    n: int = 30
    p: int = 40
    au: float = 0.0
    bu: float = np.pi / 2
    s: float = np.sqrt(5.0)
    r: float = 2.0
    nu: float = 3.5
    rho: float = 0.5
    dense: float = 0.6
    cgrid: bool = True
    stat: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be at least 1")
        if not self.au < self.bu:
            raise ValueError("need au < bu")
        if not (self.s > 0 and self.r > 0):
            raise ValueError("s and r must be positive")
        if not 0.0 < self.dense <= 1.0:
            raise ValueError("dense must lie in (0, 1]")
        if not self.stat and self.au < 0:
            raise ValueError("the nonstationary law needs a nonnegative domain")

    @property
    def noise_sd(self) -> float:
        return self.s / self.r

    def matern(self) -> MaternParams:
        return MaternParams(rho=self.rho, nu=self.nu)

    def law_covariance(self, grid: np.ndarray) -> SpdMatrix:
        if self.stat:
            return stationary_cov(grid, self.s**2, self.matern())
        return nonstationary_cov(grid, self.s**2, self.matern())


def _draw_signal(cfg: SimConfig, grid: np.ndarray, chol: np.ndarray, gen) -> np.ndarray:
    mean = true_mean_function(cfg.stat)(grid)
    return mean + chol @ gen.standard_normal(grid.size)


def sim_gfd(cfg: SimConfig) -> FunctionalDataset:
    """Simulate curves on a shared equally spaced grid.

    With ``cgrid`` false each curve keeps a random subset of
    ``round(dense * p)`` points (at least 2), drawn without replacement.
    Per-curve substreams make curve i's data independent of n.
    """
    pgrid = np.linspace(cfg.au, cfg.bu, cfg.p)
    keep = int(round(cfg.dense * cfg.p))
    if not cfg.cgrid and keep < 2:
        raise ValueError(
            f"dense={cfg.dense} keeps {keep} of {cfg.p} points per curve; need at least 2"
        )
    law = cfg.law_covariance(pgrid)
    root = RngStream(cfg.seed)
    curves = []
    for i in range(cfg.n):
        gen = root.substream(i).generator
        truth = _draw_signal(cfg, pgrid, law.chol, gen)
        raw = truth + gen.normal(0.0, cfg.noise_sd, cfg.p)
        if cfg.cgrid:
            curves.append(Curve(grid=pgrid, raw=raw, truth=truth))
        else:
            idx = np.sort(gen.choice(cfg.p, size=keep, replace=False))
            curves.append(Curve(grid=pgrid[idx], raw=raw[idx], truth=truth[idx]))
    data = FunctionalDataset(curves=curves)
    pooled = data.pooled_grid
    data.true_mean = true_mean_function(cfg.stat)(pooled)
    data.true_cov = cfg.law_covariance(pooled)
    return data


def sim_gfd_rgrid(cfg: SimConfig) -> FunctionalDataset:
    """Simulate curves observed on independent random grids.

    Each curve gets p sorted Uniform(au, bu) points, its own GP draw there,
    and iid noise.  The pooled grid is the union of all observation points;
    the covariance there is not stored (it grows as (n p)^2) but remains
    recomputable from the configuration.
    """
    root = RngStream(cfg.seed)
    curves = []
    for i in range(cfg.n):
        gen = root.substream(i).generator
        grid = np.sort(gen.uniform(cfg.au, cfg.bu, cfg.p))
        law = cfg.law_covariance(grid)
        truth = _draw_signal(cfg, grid, law.chol, gen)
        raw = truth + gen.normal(0.0, cfg.noise_sd, cfg.p)
        curves.append(Curve(grid=grid, raw=raw, truth=truth))
    data = FunctionalDataset(curves=curves)
    data.true_mean = true_mean_function(cfg.stat)(data.pooled_grid)
    return data
