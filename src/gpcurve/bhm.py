"""The Gibbs engine of both samplers, and the full-grid design.

The model: observed curves are signals plus iid Gaussian noise, the
signals share one GP law, the GP mean gets a conjugate GP prior tied to
the same covariance, the covariance gets an inverse-Wishart-process prior
whose scale is itself Gamma-distributed, and the noise precision is
Gamma.  All five full conditionals are conjugate, so each sweep is five
exact draws.

Both samplers are this one engine over a :class:`Design`, the basis the
signals are written in: ``bhm`` samples the pooled-grid values themselves
(an identity basis, :func:`build_context`), ``babf`` the coefficients of a
cubic spline (:mod:`gpcurve.babf`).  Only the signal step, the residuals
and babf's extra result fields differ; the state, the mean, covariance,
noise and scale steps, the sweep loop and the summaries are written once,
here.  Every sweep runs
signals -> Sigma | Z, mu -> mu | Z, Sigma -> noise | Z -> sigma_s2 | Sigma.

Both samplers draw the signals with :func:`canonical_signals`, babf with
its spline rows and bhm on a common grid with the identity basis, where all
curves share one p x p precision and one factorization.  On grid subsets
bhm draws pathwise: curve i costs one factorization of its m_i x m_i
observed block, O(sum_i m_i^3) per sweep, plus one product of n prior
draws with the covariance factor.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from gpcurve import stochastic
from gpcurve.datagen import FunctionalDataset
from gpcurve.diagnostics import pdm_pvalues
from gpcurve.empirical import NOISE_FLOOR, EmpiricalEstimates, HyperParams, empirical_estimates
from gpcurve.gridutil import grid_positions
from gpcurve.results import Draws, SmoothResult, scalar_summary, summarize_draws
from gpcurve.stochastic import (
    RngStream,
    SpdMatrix,
    cho_solve_batched,
    sample_gamma,
    sample_inverse_wishart,
)

__all__ = [
    "BhmContext",
    "Design",
    "GibbsState",
    "SelectionMap",
    "bhm_init",
    "bhm_run",
    "bhm_step_cov",
    "bhm_step_mean",
    "bhm_step_meancov",
    "bhm_step_noise",
    "bhm_step_scale",
    "bhm_step_signals",
    "build_context",
    "canonical_signals",
    "run_sweeps",
]


@dataclass
class GibbsState:
    """Current values of all sampled quantities: every curve's coefficients
    (n, dim), their mean and covariance, the noise variance and the
    covariance scale."""

    coef: np.ndarray
    mu: np.ndarray
    Sigma: SpdMatrix
    sigma_eps2: float
    sigma_s2: float


@dataclass
class Design:
    """What the engine knows of a sampler: the basis its coefficients are in.

    The coefficients' covariance has the prior base ``prior_base`` (dim x dim)
    and their mean the prior mean ``mu0``.  ``signal_step(state, design, rng)``
    draws every curve's coefficients and :meth:`residuals` maps them to the
    data.  Summaries are reported on ``grid``, the image of the coefficients
    through the evaluation basis ``b_eval`` (``None``: the identity).

    ``keeps_order_stats`` says what a chain keeps (:class:`Draws`): order
    statistics of the coefficient and covariance cells for a design that
    reports on the grid it samples, with no evaluation basis, else the
    draws themselves.  The memory guard reads it before any design exists.
    """

    keeps_order_stats: ClassVar[bool]

    method: str
    data: FunctionalDataset
    hyper: HyperParams
    prior_base: np.ndarray
    mu0: np.ndarray
    n_obs: int
    grid: np.ndarray
    b_eval: np.ndarray | None
    signal_step: Callable[..., np.ndarray]

    @property
    def n(self) -> int:
        return self.data.n_curves

    @property
    def dim(self) -> int:
        return self.prior_base.shape[0]

    def residuals(self, coef: np.ndarray) -> np.ndarray:
        """Every curve's residuals at its observations, in curve order,
        zero-padded to (n, m_max)."""
        raise NotImplementedError

    def summary_fields(self, draws: Draws) -> dict:
        """Result fields of this design beyond the shared summaries."""
        return {}


@dataclass
class SelectionMap:
    """Positions of each curve's observation grid inside the pooled grid."""

    indices: list[np.ndarray]

    @classmethod
    def build(cls, data: FunctionalDataset) -> "SelectionMap":
        return cls(
            indices=[
                grid_positions(data.pooled_grid, curve.grid, f"curve {i}", "the pooled grid")
                for i, curve in enumerate(data.curves)
            ]
        )


@dataclass
class BhmContext(Design):
    """The full-grid design: a curve's coefficients are its values on the
    pooled grid, and ``prior_base`` is A there.

    ``obs_mask`` (n, p) is 1 at each curve's observed points and
    ``x_scatter`` holds the observations there, 0 elsewhere.  The
    observations also come padded to ``m_max``, the size of the largest
    observation grid: ``obs_valid`` (n, m_max) marks the real entries,
    ``obs_flat`` holds their flat positions in an (n, p) array and ``x_obs``
    their values, both in curve order.  ``block_gather`` (n, m_max, m_max)
    holds flat indices that pick each curve's observed block out of a p x p
    matrix bordered by one row and one column of zeros, a (p + 1) x (p + 1)
    matrix; padded entries pick the zero border.  It is None on a common
    grid, which does not use it.
    """

    smap: SelectionMap
    obs_mask: np.ndarray
    x_scatter: np.ndarray
    common: bool
    obs_valid: np.ndarray
    obs_flat: np.ndarray
    x_obs: np.ndarray
    block_gather: np.ndarray | None

    keeps_order_stats = True

    def residuals(self, coef: np.ndarray) -> np.ndarray:
        resid = np.zeros(self.obs_valid.shape)
        resid[self.obs_valid] = self.x_obs - np.take(coef, self.obs_flat)
        return resid


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
        method="bhm",
        data=data,
        hyper=hyper,
        prior_base=hyper.A.evaluate(pooled).mat,
        mu0=hyper.mu0,
        n_obs=int(sizes.sum()),
        grid=pooled,
        b_eval=None,
        signal_step=bhm_step_signals,
        smap=smap,
        obs_mask=obs_mask,
        x_scatter=x_scatter,
        common=common,
        obs_valid=obs_valid,
        obs_flat=(obs_idx + p * np.arange(n)[:, None])[obs_valid],
        x_obs=np.concatenate([curve.raw for curve in data.curves]),
        block_gather=None if common else obs_idx[:, :, None] * (p + 1) + obs_idx[:, None, :],
    )


def bhm_init(ctx: BhmContext, est: EmpiricalEstimates) -> GibbsState:
    """Initialize: raw data with spline interpolation at unobserved points,
    empirical mean and noise variance, identity covariance, prior-mean scale."""
    if est.grid.shape != ctx.grid.shape or not np.array_equal(est.grid, ctx.grid):
        raise ValueError("empirical estimates must be on the pooled grid")
    z0 = est.smoothed.copy()
    for i, curve in enumerate(ctx.data.curves):
        z0[i, ctx.smap.indices[i]] = curve.raw
    return GibbsState(
        coef=z0,
        mu=est.mu_hat.copy(),
        Sigma=SpdMatrix.from_matrix(np.eye(ctx.dim)),
        sigma_eps2=max(est.noise_var_hat, NOISE_FLOOR),
        sigma_s2=ctx.hyper.delta - 2.0,
    )


def canonical_signals(
    state: GibbsState, btb: np.ndarray, btx: np.ndarray, rng: RngStream
) -> np.ndarray:
    """Draw every curve's coefficients from N(P_i^-1 b_i, P_i^-1), with
    P_i = Sigma^-1 + btb_i / s2 and b_i = Sigma^-1 mu + btx_i / s2, where
    btb_i = B_i^T B_i and btx_i = B_i^T x_i for B_i the curve's basis rows.

    ``btb`` is an (n, dim, dim) stack, or one (dim, dim) matrix all curves
    share, factored once (:func:`~gpcurve.stochastic.sample_mvn_canonical`);
    the draw uses one (n, dim) array of standard normals.
    """
    sig_inv = state.Sigma.inverse()
    prec = sig_inv + btb / state.sigma_eps2
    b = (sig_inv @ state.mu)[None, :] + btx / state.sigma_eps2
    z = rng.generator.standard_normal(btx.shape)
    return stochastic.sample_mvn_canonical(prec, b, z)


def bhm_step_signals(state: GibbsState, ctx: BhmContext, rng: RngStream) -> np.ndarray:
    """Draw every signal from its Gaussian full conditional.

    Curve i's conditional is N((Sigma^-1 + D_i / s2)^-1 (Sigma^-1 mu + x_i / s2),
    (Sigma^-1 + D_i / s2)^-1), with D_i the indicator of its observed points
    and s2 the noise variance.

    On a common grid D_i = I: the draw is :func:`canonical_signals` with the
    identity basis, as babf's is with its spline rows, from n * p normals.

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
    if ctx.common:
        return canonical_signals(state, np.eye(ctx.dim), ctx.x_scatter, rng)

    gen = rng.generator
    n, p = ctx.n, ctx.dim
    sigma = state.Sigma.mat
    paths = state.mu + gen.standard_normal((n, p)) @ state.Sigma.chol.T
    noise = np.sqrt(state.sigma_eps2) * gen.standard_normal(ctx.n_obs)
    resid = ctx.residuals(paths)
    resid[ctx.obs_valid] -= noise
    bordered = np.zeros((p + 1, p + 1))
    bordered[:p, :p] = sigma
    blocks = np.take(bordered, ctx.block_gather)
    diag = np.arange(blocks.shape[1])
    blocks[:, diag, diag] += np.where(ctx.obs_valid, state.sigma_eps2, 1.0)
    weights = cho_solve_batched(np.linalg.cholesky(blocks), resid)
    scattered = np.zeros((n, p))
    scattered.ravel()[ctx.obs_flat] = weights[ctx.obs_valid]
    return paths + scattered @ sigma


def bhm_step_cov(state: GibbsState, ctx: Design, rng: RngStream) -> SpdMatrix:
    """Draw the covariance from its inverse-Wishart full conditional.

    The scale accumulates the prior structure, the coefficient scatter about
    the mean, and the mean's own deviation from the prior mean.  Each term
    is exactly symmetric as built, so the scale is factored as it is, with
    the ridge schedule (:func:`~gpcurve.stochastic.cholesky_with_jitter`).
    """
    dev = state.coef - state.mu[None, :]
    dmu = state.mu - ctx.mu0
    scale = state.sigma_s2 * ctx.prior_base + dev.T @ dev + ctx.hyper.c * np.outer(dmu, dmu)
    chol, ridge = stochastic.cholesky_with_jitter(scale, name="covariance conditional scale")
    if ridge:
        scale = scale + ridge * np.eye(ctx.dim)
    scale = SpdMatrix(mat=scale, chol=chol, jitter=ridge)
    return sample_inverse_wishart(ctx.hyper.delta + ctx.n + 1.0, scale, rng)


def bhm_step_mean(state: GibbsState, ctx: Design, rng: RngStream) -> np.ndarray:
    """Draw the mean: shrinks the coefficient average toward the prior mean,
    with covariance Sigma / (c + n)."""
    c = ctx.hyper.c
    loc = (c * ctx.mu0 + state.coef.sum(axis=0)) / (c + ctx.n)
    z = rng.generator.standard_normal(ctx.dim)
    return loc + (state.Sigma.chol @ z) / np.sqrt(c + ctx.n)


def bhm_step_meancov(
    state: GibbsState, ctx: Design, rng: RngStream
) -> tuple[np.ndarray, SpdMatrix]:
    """Draw the covariance, then the mean given it; returns (mean, covariance)."""
    sigma = bhm_step_cov(state, ctx, rng)
    return bhm_step_mean(dataclasses.replace(state, Sigma=sigma), ctx, rng), sigma


def bhm_step_noise(state: GibbsState, ctx: Design, rng: RngStream) -> tuple[float, float]:
    """Draw the noise precision; returns (variance, precision).

    The residuals of all curves come zero-padded to one size
    (:meth:`Design.residuals`), so padded entries add exact zeros.  Each
    curve's sum of squares is a dot product, and these are added in curve
    order, as a loop over the curves would add them.
    """
    r = ctx.residuals(state.coef)
    rss = float(np.cumsum(np.matmul(r[:, None, :], r[:, :, None]))[-1])
    shape = ctx.hyper.a_eps + ctx.n_obs / 2.0
    rate = ctx.hyper.b_eps + rss / 2.0
    precision = float(sample_gamma(shape, rate, rng))
    return 1.0 / precision, precision


def bhm_step_scale(state: GibbsState, ctx: Design, rng: RngStream) -> float:
    """Draw the inverse-Wishart scale multiplier from its Gamma conditional.

    The trace tr(Sigma^-1 prior_base) is the dot product of the two
    symmetric matrices, taken with Sigma's cached inverse, which the next
    sweep's common-grid or coefficient signal step reuses.  Through a basis
    it equals tr(A(tau,tau) Sigma_Z(tau,tau)^-1), since
    prior_base = B^-1 A B^-T and Sigma_Z = B Sigma B^T.
    """
    d, delta = ctx.dim, ctx.hyper.delta
    shape = ctx.hyper.a_s + d * (delta + d - 1.0) / 2.0
    rate = ctx.hyper.b_s + float(np.vdot(state.Sigma.inverse(), ctx.prior_base)) / 2.0
    return float(sample_gamma(shape, rate, rng))


def run_sweeps(
    ctx: Design,
    state: GibbsState,
    M: int,
    burnin: int,
    rng: RngStream,
    resid_thin: int,
    summarize: bool = True,
) -> Draws:
    """Run M sweeps from ``state``, which they update, and return what
    sweeps ``burnin`` .. ``M - 1`` leave in a :class:`Draws`: order
    statistics or the draws, as the design keeps (``keeps_order_stats``);
    with ``summarize`` False only the monitored draws
    (:meth:`Draws.allocate` checks the counts and the memory first).

    Each sweep draws the signals, the covariance given them and the mean,
    the mean given the new covariance, the noise, then the scale.
    """
    sizes = [c.grid.size for c in ctx.data.curves]
    draws = Draws.allocate(
        ctx.n, ctx.dim, sizes, M, burnin, resid_thin,
        order_stats=ctx.keeps_order_stats, basis=ctx.b_eval, summarize=summarize,
    )

    def resid():
        r = ctx.residuals(state.coef) / np.sqrt(state.sigma_eps2)
        return [r_i[:m] for r_i, m in zip(r, sizes)]

    for it in range(M):
        state.coef = ctx.signal_step(state, ctx, rng)
        state.mu, state.Sigma = bhm_step_meancov(state, ctx, rng)
        state.sigma_eps2, precision = bhm_step_noise(state, ctx, rng)
        state.sigma_s2 = bhm_step_scale(state, ctx, rng)
        draws.record(it, state.coef, state.mu, state.Sigma.mat, precision, state.sigma_s2, resid)
    return draws


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
    """Run the Gibbs sampler on the pooled grid and summarize what it kept.

    The coefficients are the pooled-grid signal values (no basis), so the
    draws keep the order statistics and running sums of the curve and
    covariance cells, not every draw (:class:`Draws`).  With
    ``summarize=False`` the posterior summaries and fit p-values are
    skipped, the result is ``None`` and the draws keep only the monitored
    ones, the same as a summarized run's.
    """
    if rng is None:
        rng = RngStream(0)
    if est is None:
        est = empirical_estimates(data)
    started = time.perf_counter()
    ctx = build_context(data, hyper)
    draws = run_sweeps(ctx, bhm_init(ctx, est), M, burnin, rng, resid_thin, summarize)
    return draws, _summarize(draws, ctx, started) if summarize else None


def _summarize(draws: Draws, ctx: Design, started: float) -> SmoothResult:
    """Posterior summaries on the design's grid, the scalar chains' means and
    intervals, the fit p-values and the design's own fields."""
    rn, rn_ci = scalar_summary(draws.precision)
    rs, rs_ci = scalar_summary(draws.sigma_s2)
    params = ctx.hyper.A.params
    pmin = pdm_pvalues(draws.resid) if draws.resid[0].shape[0] else None
    return SmoothResult(
        method=ctx.method,
        grid=ctx.grid,
        **summarize_draws(draws, draws.basis),
        rn=rn,
        rn_CI=rn_ci,
        rs=rs,
        rs_CI=rs_ci,
        rho=None if params is None else params.rho,
        nu=None if params is None else params.nu,
        pmin_vec=pmin,
        **ctx.summary_fields(draws),
        runtime_seconds=time.perf_counter() - started,
    )
