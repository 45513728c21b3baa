"""Full-grid Gibbs sampler for the hierarchical Gaussian-Wishart model.

The model: observed curves are signals plus iid Gaussian noise, the
signals share one GP law, the GP mean gets a conjugate GP prior tied to
the same covariance, the covariance gets an inverse-Wishart-process prior
whose scale is itself Gamma-distributed, and the noise precision is
Gamma.  All five full conditionals are conjugate, so each sweep is five
exact draws.  On a common grid all curves share one factorization of a
p x p precision.  On grid subsets the signals are drawn pathwise, so curve i
costs one factorization of its m_i x m_i observed block: O(sum_i m_i^3)
per sweep, plus one product of n prior draws with the covariance factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from gpcurve.datagen import FunctionalDataset
from gpcurve.diagnostics import pdm_pvalues
from gpcurve.empirical import NOISE_FLOOR, EmpiricalEstimates, HyperParams, empirical_estimates
from gpcurve.results import Draws, SmoothResult, scalar_summary, summarize_draws
from gpcurve.stochastic import (
    RngStream,
    SpdMatrix,
    cho_factor_lower,
    cho_solve_batched,
    cho_solve_lower,
    sample_gamma,
    sample_inverse_wishart,
    solve_triangular,
)

__all__ = [
    "BhmState",
    "SelectionMap",
    "bhm_init",
    "bhm_run",
    "bhm_step_cov",
    "bhm_step_mean",
    "bhm_step_noise",
    "bhm_step_scale",
    "bhm_step_signals",
    "build_context",
]


@dataclass
class SelectionMap:
    """Positions of each curve's observation grid inside the pooled grid."""

    indices: list[np.ndarray]

    @classmethod
    def build(cls, data: FunctionalDataset) -> "SelectionMap":
        pooled = data.pooled_grid
        indices = []
        for i, curve in enumerate(data.curves):
            idx = np.searchsorted(pooled, curve.grid)
            if np.any(idx >= pooled.size) or not np.array_equal(pooled[idx], curve.grid):
                raise ValueError(f"curve {i} has grid points outside the pooled grid")
            indices.append(idx.astype(np.intp))
        return cls(indices=indices)


@dataclass
class BhmState:
    """Current values of all sampled quantities."""

    Z: np.ndarray
    mu: np.ndarray
    Sigma: SpdMatrix
    sigma_eps2: float
    sigma_s2: float


@dataclass
class BhmContext:
    """Precomputed run-constant arrays: data layout and prior pieces.

    The observations also come padded to ``m_max``, the size of the
    largest observation grid: ``obs_valid`` (n, m_max) marks the real
    entries, ``obs_flat`` holds their flat positions in an (n, p) array and
    ``x_obs`` their values, both in curve order.  ``block_gather``
    (n, m_max, m_max) holds flat indices that pick each curve's observed
    block out of a p x p matrix bordered by one row and one column of
    zeros, a (p + 1) x (p + 1) matrix; padded entries pick the zero border.
    It is None on a common grid, which does not use it.
    """

    data: FunctionalDataset
    smap: SelectionMap
    hyper: HyperParams
    obs_mask: np.ndarray
    x_scatter: np.ndarray
    n_obs: int
    common: bool
    A: np.ndarray
    mu0: np.ndarray
    obs_valid: np.ndarray
    obs_flat: np.ndarray
    x_obs: np.ndarray
    block_gather: np.ndarray | None

    @property
    def n(self) -> int:
        return self.data.n_curves

    @property
    def p(self) -> int:
        return self.data.pooled_grid.size


def build_context(data: FunctionalDataset, hyper: HyperParams) -> BhmContext:
    pooled = data.pooled_grid
    if hyper.grid.shape != pooled.shape or not np.array_equal(hyper.grid, pooled):
        raise ValueError(
            "hyperparameters were built on a different grid than the pooled "
            "grid of this dataset"
        )
    smap = SelectionMap.build(data)
    n, p = data.n_curves, pooled.size
    obs_mask = np.zeros((n, p))
    x_scatter = np.zeros((n, p))
    for i, curve in enumerate(data.curves):
        obs_mask[i, smap.indices[i]] = 1.0
        x_scatter[i, smap.indices[i]] = curve.raw
    sizes = np.array([idx.size for idx in smap.indices])
    obs_valid = np.arange(sizes.max())[None, :] < sizes[:, None]
    obs_idx = np.full(obs_valid.shape, p, dtype=np.intp)
    obs_idx[obs_valid] = np.concatenate(smap.indices)
    common = data.common_grid()
    return BhmContext(
        data=data,
        smap=smap,
        hyper=hyper,
        obs_mask=obs_mask,
        x_scatter=x_scatter,
        n_obs=int(obs_mask.sum()),
        common=common,
        A=hyper.A.evaluate(pooled).mat,
        mu0=hyper.mu0,
        obs_valid=obs_valid,
        obs_flat=(obs_idx + p * np.arange(n)[:, None])[obs_valid],
        x_obs=np.concatenate([curve.raw for curve in data.curves]),
        block_gather=None if common else obs_idx[:, :, None] * (p + 1) + obs_idx[:, None, :],
    )


def bhm_init(
    data: FunctionalDataset,
    hyper: HyperParams,
    est: EmpiricalEstimates | None = None,
    candidates=None,
) -> BhmState:
    """Initialize: raw data with spline interpolation at unobserved points,
    empirical mean and noise variance, identity covariance, prior-mean scale."""
    if est is None:
        est = empirical_estimates(data, candidates=candidates)
    pooled = data.pooled_grid
    if est.grid.shape != pooled.shape or not np.array_equal(est.grid, pooled):
        raise ValueError("empirical estimates must be on the pooled grid")
    smap = SelectionMap.build(data)
    z0 = est.smoothed.copy()
    for i, curve in enumerate(data.curves):
        z0[i, smap.indices[i]] = curve.raw
    p = pooled.size
    return BhmState(
        Z=z0,
        mu=est.mu_hat.copy(),
        Sigma=SpdMatrix.from_matrix(np.eye(p)),
        sigma_eps2=max(est.noise_var_hat, NOISE_FLOOR),
        sigma_s2=hyper.delta - 2.0,
    )


def bhm_step_signals(state: BhmState, ctx: BhmContext, rng: RngStream) -> np.ndarray:
    """Draw every signal from its Gaussian full conditional.

    Curve i's conditional is N((Sigma^-1 + D_i / s2)^-1 (Sigma^-1 mu + x_i / s2),
    (Sigma^-1 + D_i / s2)^-1), with D_i the indicator of its observed points
    and s2 the noise variance.

    On a common grid all curves share one precision and one factorization,
    taken with raw LAPACK calls; the draw is mean + L^-T z with L the
    precision factor, from n * p standard normals.

    On grid subsets the draw is pathwise (Matheron's rule; Wilson et al.
    2020): a prior path f_i = mu + L_Sigma z_i, then the correction
    Z_i = f_i + Sigma[:, O_i] (Sigma[O_i, O_i] + s2 I)^-1 (x_i - f_i[O_i] - sqrt(s2) e_i),
    which has the same law.  It uses n * p standard normals for the paths,
    then one per observation, in curve order, for the noise e.  The observed
    blocks are zero-padded to one size (padded rows and columns are the
    identity, padded residuals zero), factored in one batched Cholesky and
    solved with one Cholesky solve per curve.

    Raises :class:`numpy.linalg.LinAlgError` when the noise variance is not
    positive or a factorization fails.
    """
    if not state.sigma_eps2 > 0.0:
        raise np.linalg.LinAlgError(
            f"noise variance must be positive, got {state.sigma_eps2}"
        )
    gen = rng.generator
    n, p = ctx.n, ctx.p

    if ctx.common:
        sig_inv = state.Sigma.inverse()
        b = (sig_inv @ state.mu)[None, :] + ctx.x_scatter / state.sigma_eps2
        prec = sig_inv + np.eye(p) / state.sigma_eps2
        chol = cho_factor_lower(prec)
        means = cho_solve_lower(chol, b.T).T
        z = gen.standard_normal((p, n))
        return means + solve_triangular(chol, z, lower=True, trans=True).T

    sigma = state.Sigma.mat
    paths = state.mu + gen.standard_normal((n, p)) @ state.Sigma.chol.T
    noise = np.sqrt(state.sigma_eps2) * gen.standard_normal(ctx.n_obs)
    resid = np.zeros(ctx.obs_valid.shape)
    resid[ctx.obs_valid] = ctx.x_obs - np.take(paths, ctx.obs_flat) - noise
    bordered = np.zeros((p + 1, p + 1))
    bordered[:p, :p] = sigma
    blocks = np.take(bordered, ctx.block_gather)
    diag = np.arange(blocks.shape[1])
    blocks[:, diag, diag] += np.where(ctx.obs_valid, state.sigma_eps2, 1.0)
    weights = cho_solve_batched(np.linalg.cholesky(blocks), resid)
    scattered = np.zeros((n, p))
    scattered.ravel()[ctx.obs_flat] = weights[ctx.obs_valid]
    return paths + scattered @ sigma


def bhm_step_noise(state: BhmState, ctx: BhmContext, rng: RngStream) -> tuple[float, float]:
    """Draw the noise precision; returns (variance, precision).

    With no observations the conditional collapses to the prior.
    """
    resid = ctx.x_scatter - state.Z * ctx.obs_mask
    rss = float(np.sum(resid * resid))
    shape = ctx.hyper.a_eps + ctx.n_obs / 2.0
    rate = ctx.hyper.b_eps + rss / 2.0
    precision = float(sample_gamma(shape, rate, rng))
    return 1.0 / precision, precision


def bhm_step_mean(state: BhmState, ctx: BhmContext, rng: RngStream) -> np.ndarray:
    """Draw the GP mean: shrinks the signal average toward the prior mean,
    with covariance Sigma / (c + n)."""
    gen = rng.generator
    c = ctx.hyper.c
    loc = (c * ctx.mu0 + state.Z.sum(axis=0)) / (c + ctx.n)
    z = gen.standard_normal(ctx.p)
    return loc + (state.Sigma.chol @ z) / np.sqrt(c + ctx.n)


def bhm_step_cov(state: BhmState, ctx: BhmContext, rng: RngStream) -> SpdMatrix:
    """Draw the covariance from its inverse-Wishart full conditional.

    The scale accumulates the prior structure, the signal scatter about the
    mean, and the mean's own deviation from the prior mean.
    """
    dev = state.Z - state.mu[None, :]
    dmu = state.mu - ctx.mu0
    scale = state.sigma_s2 * ctx.A + dev.T @ dev + ctx.hyper.c * np.outer(dmu, dmu)
    scale = SpdMatrix.from_matrix(scale, name="covariance conditional scale")
    return sample_inverse_wishart(ctx.hyper.delta + ctx.n + 1.0, scale, rng)


def bhm_step_scale(state: BhmState, ctx: BhmContext, rng: RngStream) -> float:
    """Draw the inverse-Wishart scale multiplier from its Gamma conditional.

    The trace tr(Sigma^-1 A) is the dot product of the two symmetric
    matrices, taken with Sigma's cached inverse, which the next sweep's
    common-grid signal step reuses.
    """
    p = ctx.p
    delta = ctx.hyper.delta
    shape = ctx.hyper.a_s + p * (delta + p - 1.0) / 2.0
    rate = ctx.hyper.b_s + float(np.vdot(state.Sigma.inverse(), ctx.A)) / 2.0
    return float(sample_gamma(shape, rate, rng))


def bhm_run(
    data: FunctionalDataset,
    hyper: HyperParams,
    est: EmpiricalEstimates | None = None,
    M: int = 10000,
    burnin: int = 2000,
    rng: RngStream | None = None,
    resid_thin: int = 10,
    summarize: bool = True,
) -> tuple[Draws, SmoothResult | None]:
    """Run the five-step Gibbs sampler and summarize the retained draws.

    The draws' coefficients are the pooled-grid signal values (no basis).
    With ``summarize=False`` the posterior summaries and fit p-values are
    skipped and the result is ``None``; the draws are the same either way.
    """
    n, p = data.n_curves, data.pooled_grid.size
    draws = Draws.allocate(n, p, [c.grid.size for c in data.curves], M, burnin, resid_thin)
    if rng is None:
        rng = RngStream(0)
    if est is None:
        est = empirical_estimates(data)
    started = time.perf_counter()
    ctx = build_context(data, hyper)
    state = bhm_init(data, hyper, est)

    def resid():
        sd = np.sqrt(state.sigma_eps2)
        return [
            (curve.raw - z[idx]) / sd
            for curve, z, idx in zip(data.curves, state.Z, ctx.smap.indices)
        ]

    for it in range(M):
        state.Z = bhm_step_signals(state, ctx, rng)
        state.sigma_eps2, precision = bhm_step_noise(state, ctx, rng)
        state.mu = bhm_step_mean(state, ctx, rng)
        state.Sigma = bhm_step_cov(state, ctx, rng)
        state.sigma_s2 = bhm_step_scale(state, ctx, rng)
        draws.record(it, state.Z, state.mu, state.Sigma.mat, precision, state.sigma_s2, resid)

    return draws, _summarize(draws, ctx, started) if summarize else None


def _summarize(draws: Draws, ctx: BhmContext, started: float) -> SmoothResult:
    rn, rn_ci = scalar_summary(draws.precision)
    rs, rs_ci = scalar_summary(draws.sigma_s2)
    params = ctx.hyper.A.params
    pmin = pdm_pvalues(draws.resid).pmin_vec if draws.resid[0].shape[0] else None
    return SmoothResult(
        method="bhm",
        grid=ctx.data.pooled_grid,
        **summarize_draws(draws),
        rn=rn,
        rn_CI=rn_ci,
        rs=rs,
        rs_CI=rs_ci,
        rho=None if params is None else params.rho,
        nu=None if params is None else params.nu,
        pmin_vec=pmin,
        runtime_seconds=time.perf_counter() - started,
    )
