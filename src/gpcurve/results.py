"""Retained draws and posterior summary containers shared by both samplers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Draws",
    "SmoothResult",
    "credible_band",
    "physical_memory_bytes",
    "retained_bytes",
    "scalar_summary",
    "summarize_draws",
]

BAND_PROBS = (0.025, 0.975)

# Working memory for one block of grid-space draws when a band or a
# covariance diagonal is derived from coefficient draws.
CHUNK_BYTES = 1 << 24


def physical_memory_bytes() -> int | None:
    """This machine's physical memory, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def retained_bytes(n: int, K: int, curve_sizes, ndraws: int, n_resid: int) -> int:
    """Bytes :meth:`Draws.allocate` keeps: per draw the n x K coefficients,
    the K mean, the K x K covariance and two scalars, plus the thinned
    residuals."""
    return 8 * ndraws * (n * K + K + K * K + 2) + 8 * n_resid * sum(curve_sizes)


@dataclass
class Draws:
    """Retained post-burn-in draws in coefficient space, plus thinned
    standardized residuals.

    ``coef`` holds each curve's coefficients (ndraws, n, K); ``mu`` and
    ``Sigma`` are the mean and covariance in the same space.  Grid-space
    draws are their linear images through ``basis`` (evaluation points x
    K); ``None`` is the identity, as for the full-grid sampler, whose
    coefficients are the pooled-grid values.
    """

    coef: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    precision: np.ndarray
    sigma_s2: np.ndarray
    resid: list[np.ndarray]
    M: int
    burnin: int
    resid_thin: int
    basis: np.ndarray | None = None

    @classmethod
    def allocate(
        cls, n: int, K: int, curve_sizes, M: int, burnin: int, resid_thin: int, basis=None
    ) -> "Draws":
        """Empty draws for sweeps ``burnin`` .. ``M - 1``.

        Refuses with ``ValueError`` before allocating when the retained bytes
        (:func:`retained_bytes`) exceed the machine's physical memory.
        """
        if burnin < 0 or M <= burnin:
            raise ValueError(f"need M > burnin >= 0, got M={M}, burnin={burnin}")
        if resid_thin < 1:
            raise ValueError(f"resid_thin must be at least 1, got {resid_thin}")
        ndraws = M - burnin
        n_resid = ndraws // resid_thin
        need = retained_bytes(n, K, curve_sizes, ndraws, n_resid)
        limit = physical_memory_bytes()
        if limit is not None and need > limit:
            raise ValueError(
                f"keeping {ndraws} draws (--M {M} minus --Burnin {burnin}) needs "
                f"{need / 2**30:.1f} GiB, more than this machine's "
                f"{limit / 2**30:.1f} GiB of memory; lower --M or raise --Burnin"
            )
        return cls(
            coef=np.empty((ndraws, n, K)),
            mu=np.empty((ndraws, K)),
            Sigma=np.empty((ndraws, K, K)),
            precision=np.empty(ndraws),
            sigma_s2=np.empty(ndraws),
            resid=[np.empty((n_resid, m)) for m in curve_sizes],
            M=M,
            burnin=burnin,
            resid_thin=resid_thin,
            basis=basis,
        )

    def record(self, it: int, coef, mu, Sigma, precision, sigma_s2, resid) -> None:
        """Keep sweep ``it``'s state unless it is a burn-in sweep.

        ``resid`` returns the per-curve standardized residuals; it is called
        on every ``resid_thin``-th retained sweep only.
        """
        k = it - self.burnin
        if k < 0:
            return
        self.coef[k] = coef
        self.mu[k] = mu
        self.Sigma[k] = Sigma
        self.precision[k] = precision
        self.sigma_s2[k] = sigma_s2
        if (k + 1) % self.resid_thin == 0:
            slot = (k + 1) // self.resid_thin - 1
            for out, r in zip(self.resid, resid()):
                out[slot] = r

    def grid_mu(self) -> np.ndarray:
        """Mean draws on the evaluation grid, (ndraws, E)."""
        return self.mu if self.basis is None else self.mu @ self.basis.T

    def grid_sigma_diag(self) -> np.ndarray:
        """Covariance diagonal on the evaluation grid per draw, (ndraws, E),
        as rowsum(B Sigma o B) over blocks of draws."""
        if self.basis is None:
            diag = np.arange(self.Sigma.shape[1])
            return self.Sigma[:, diag, diag]
        B = self.basis
        out = np.empty((self.Sigma.shape[0], B.shape[0]))
        step = max(1, CHUNK_BYTES // (8 * B.size))
        for k in range(0, out.shape[0], step):
            out[k : k + step] = np.sum((B @ self.Sigma[k : k + step]) * B, axis=2)
        return out


def credible_band(draws: np.ndarray, left=None, right=None):
    """Pointwise 95% credible band of the draws ``left @ draws[k] @ right.T``.

    ``draws`` is (ndraws, R, C); ``None`` for ``left`` or ``right`` is the
    identity.  The image draws are formed and reduced block by block, so no
    more than about :data:`CHUNK_BYTES` of them exist at once.
    """
    ndraws, _, inner = draws.shape
    R = draws.shape[1] if left is None else left.shape[0]
    C = draws.shape[2] if right is None else right.shape[0]
    lo, hi = np.empty((R, C)), np.empty((R, C))
    cells = max(1, CHUNK_BYTES // (8 * ndraws))
    cols = min(C, cells)
    # A row of ``left @ draws`` holds ``inner`` cells per draw.
    rows = max(1, cells // max(cols, inner))
    for r in range(0, R, rows):
        rs = slice(r, r + rows)
        part = draws[:, rs] if left is None else left[rs] @ draws
        for c in range(0, C, cols):
            cs = slice(c, c + cols)
            block = part[:, :, cs] if right is None else part @ right[cs].T
            lo[rs, cs], hi[rs, cs] = np.quantile(block, BAND_PROBS, axis=0)
    return lo, hi


def summarize_draws(draws: Draws, basis=None) -> dict[str, np.ndarray]:
    """Posterior means, 95% bands and the cross-curve SE covariance of the
    curve, mean and covariance draws, keyed by their :class:`SmoothResult`
    field names.

    With ``basis`` (E x K) these summarize the grid-space draws B zeta,
    B mu and B Sigma B^T: means exactly as B times the coefficient means,
    bands from the image draws in blocks (:func:`credible_band`).
    """
    z = draws.coef.mean(axis=0)
    mu = draws.mu.mean(axis=0)
    sigma = draws.Sigma.mean(axis=0)
    if basis is not None:
        z = z @ basis.T
        mu = basis @ mu
        sigma = basis @ sigma @ basis.T
    z_cl, z_ul = credible_band(draws.coef, right=basis)
    mu_cl, mu_ul = credible_band(draws.mu[:, None, :], right=basis)
    sigma_cl, sigma_ul = credible_band(draws.Sigma, basis, basis)
    dev = z - z.mean(axis=0)
    return dict(
        Z=z,
        Z_CL=z_cl,
        Z_UL=z_ul,
        mu=mu,
        mu_CI=np.concatenate([mu_cl, mu_ul]),
        Sigma=sigma,
        Sigma_CL=sigma_cl,
        Sigma_UL=sigma_ul,
        Sigma_SE=dev.T @ dev / max(z.shape[0] - 1, 1),
    )


def scalar_summary(draws: np.ndarray):
    """Posterior mean and 95% interval of a scalar chain."""
    draws = np.asarray(draws, dtype=float)
    return float(draws.mean()), np.quantile(draws, BAND_PROBS)


@dataclass
class SmoothResult:
    """Posterior estimates from one smoothing run.

    Curve-level summaries live on ``grid``: the pooled grid for the
    full-grid sampler, the evaluation grid for the basis-approximated one.
    The basis-approximated sampler additionally fills the coefficient-space
    and working-grid fields.
    """

    method: str
    grid: np.ndarray
    Z: np.ndarray
    Z_CL: np.ndarray
    Z_UL: np.ndarray
    mu: np.ndarray
    mu_CI: np.ndarray
    Sigma: np.ndarray
    Sigma_CL: np.ndarray
    Sigma_UL: np.ndarray
    Sigma_SE: np.ndarray
    rn: float
    rn_CI: np.ndarray
    rs: float
    rs_CI: np.ndarray
    rho: float | None = None
    nu: float | None = None
    pmin_vec: np.ndarray | None = None
    runtime_seconds: float = 0.0

    # Basis-approximated sampler only: observed-grid and coefficient-space
    # summaries plus the basis artifacts needed to reuse the fit.
    tau: np.ndarray | None = None
    Zt: list[np.ndarray] | None = None
    Zt_CL: list[np.ndarray] | None = None
    Zt_UL: list[np.ndarray] | None = None
    Zeta: np.ndarray | None = None
    Zeta_CL: np.ndarray | None = None
    Zeta_UL: np.ndarray | None = None
    Sigma_zeta: np.ndarray | None = None
    Sigma_zeta_CL: np.ndarray | None = None
    Sigma_zeta_UL: np.ndarray | None = None
    Sigma_zeta_SE: np.ndarray | None = None
    mu_zeta: np.ndarray | None = None
    mu_zeta_CI: np.ndarray | None = None
    Sigma_tau: np.ndarray | None = None
    mu_tau: np.ndarray | None = None
    Btau: np.ndarray | None = None
    BT: list[np.ndarray] | None = field(default=None, repr=False)
    knots: np.ndarray | None = None
