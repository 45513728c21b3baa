"""Basis-approximated Gibbs sampler on spline coefficients.

Identical model to the full-grid sampler, but the signals are restricted
to a cubic spline space: working on the K coefficient values instead of p
grid values drops the sweep cost from O(n p^3) to O(n K^3), which is what
makes dense or random grids tractable.  Only coefficient-space draws are
retained; grid-space summaries on any evaluation grid are derived from
them through the basis, so retained memory does not depend on the
evaluation or observation grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from gpcurve.bsplines import (
    BSplineBasis,
    WorkingGrid,
    build_basis,
    coeff_transform,
    eval_basis,
    select_working_grid,
)
from gpcurve.datagen import FunctionalDataset
from gpcurve.diagnostics import pdm_pvalues
from gpcurve.empirical import NOISE_FLOOR, EmpiricalEstimates, HyperParams, build_hyperparams, empirical_estimates
from gpcurve.gridutil import check_grid
from gpcurve.results import Draws, SmoothResult, credible_band, scalar_summary, summarize_draws
from gpcurve.stochastic import (
    RngStream,
    SpdMatrix,
    sample_gamma,
    sample_inverse_wishart,
    sample_mvn_canonical,
)

__all__ = [
    "BabfState",
    "babf_init",
    "babf_run",
    "babf_step_coeffs",
    "babf_step_meancov",
    "babf_step_noise",
    "babf_step_scale",
    "babf_working_grid",
    "build_babf_context",
]

DEFAULT_L = 20


@dataclass
class BabfState:
    """Current values of all sampled quantities, in coefficient space."""

    zeta: np.ndarray
    mu_zeta: np.ndarray
    Sigma_zeta: SpdMatrix
    sigma_eps2: float
    sigma_s2: float


@dataclass
class BabfContext:
    """Run-constant arrays: basis evaluations and transformed prior pieces."""

    data: FunctionalDataset
    hyper: HyperParams
    basis: BSplineBasis
    tau: np.ndarray
    eval_grid: np.ndarray
    btau: np.ndarray
    btau_inv: np.ndarray
    bt: list[np.ndarray]
    btb: np.ndarray
    btx: np.ndarray
    b_eval: np.ndarray
    n_obs: int
    prior_base: np.ndarray
    mu0_zeta: np.ndarray

    @property
    def n(self) -> int:
        return self.data.n_curves

    @property
    def K(self) -> int:
        return self.btau.shape[1]


def babf_working_grid(pooled: np.ndarray, L: int = DEFAULT_L, tau=None) -> WorkingGrid:
    """The working grid :func:`babf_run` samples on: ``tau`` when given,
    else L percentile sites of the pooled grid."""
    if tau is None:
        return select_working_grid(pooled, L)
    return WorkingGrid(tau=np.asarray(tau, dtype=float), source="user")


def build_babf_context(
    data: FunctionalDataset,
    hyper: HyperParams,
    basis: BSplineBasis,
    tau: np.ndarray,
    eval_grid: np.ndarray,
) -> BabfContext:
    tau = check_grid(tau, name="working grid")
    if hyper.grid.shape != tau.shape or not np.array_equal(hyper.grid, tau):
        raise ValueError("hyperparameters must be built on the working grid")
    btau, btau_inv = coeff_transform(basis, tau)
    K = btau.shape[1]
    bt = [eval_basis(basis, c.grid) for c in data.curves]
    btb = np.stack([b.T @ b for b in bt])
    btx = np.stack([b.T @ c.raw for b, c in zip(bt, data.curves)])
    a_tau = hyper.A.evaluate(tau).mat
    prior_base = btau_inv @ a_tau @ btau_inv.T
    prior_base = (prior_base + prior_base.T) / 2.0
    return BabfContext(
        data=data,
        hyper=hyper,
        basis=basis,
        tau=tau,
        eval_grid=eval_grid,
        btau=btau,
        btau_inv=btau_inv,
        bt=bt,
        btb=btb,
        btx=btx,
        b_eval=eval_basis(basis, eval_grid),
        n_obs=sum(c.grid.size for c in data.curves),
        prior_base=prior_base,
        mu0_zeta=btau_inv @ hyper.mu0,
    )


def babf_init(ctx: BabfContext, est: EmpiricalEstimates) -> BabfState:
    """Map the empirical estimates on the working grid into coefficient space."""
    if est.grid.shape != ctx.tau.shape or not np.array_equal(est.grid, ctx.tau):
        raise ValueError("empirical estimates must be on the working grid")
    sigma_tau = est.sigma_hat.mat
    sigma_zeta = ctx.btau_inv @ sigma_tau @ ctx.btau_inv.T
    return BabfState(
        zeta=est.smoothed @ ctx.btau_inv.T,
        mu_zeta=ctx.btau_inv @ est.mu_hat,
        Sigma_zeta=SpdMatrix.from_matrix(
            (sigma_zeta + sigma_zeta.T) / 2.0, name="initial coefficient covariance"
        ),
        sigma_eps2=max(est.noise_var_hat, NOISE_FLOOR),
        sigma_s2=ctx.hyper.delta - 2.0,
    )


def babf_step_coeffs(state: BabfState, ctx: BabfContext, rng: RngStream) -> np.ndarray:
    """Draw every curve's coefficient vector from its Gaussian conditional.

    Curve i's precision is Sigma_zeta^-1 + B_i^T B_i / sigma_eps2.  Each
    precision is factored once, L_i L_i^T, and the draw is taken as
    prec_i^-1 (b_i + L_i z_i), one Cholesky solve per curve
    (:func:`~gpcurve.stochastic.sample_mvn_canonical`), from n * K
    standard normals.
    """
    gen = rng.generator
    n, K = ctx.n, ctx.K
    sig_inv = state.Sigma_zeta.inverse()
    b = (sig_inv @ state.mu_zeta)[None, :] + ctx.btx / state.sigma_eps2
    prec = np.broadcast_to(sig_inv, (n, K, K)).copy()
    prec += ctx.btb / state.sigma_eps2
    return sample_mvn_canonical(prec, b, gen.standard_normal((n, K)))


def babf_step_meancov(
    state: BabfState, ctx: BabfContext, rng: RngStream
) -> tuple[np.ndarray, SpdMatrix]:
    """Draw the coefficient covariance, then the coefficient mean given it."""
    gen = rng.generator
    n = ctx.n
    c = ctx.hyper.c
    dev = state.zeta - state.mu_zeta[None, :]
    dmu = state.mu_zeta - ctx.mu0_zeta
    scale = state.sigma_s2 * ctx.prior_base + dev.T @ dev + c * np.outer(dmu, dmu)
    scale = SpdMatrix.from_matrix(
        (scale + scale.T) / 2.0, name="coefficient covariance conditional scale"
    )
    sigma_zeta = sample_inverse_wishart(ctx.hyper.delta + n + 1.0, scale, rng)
    loc = (c * ctx.mu0_zeta + state.zeta.sum(axis=0)) / (c + n)
    z = gen.standard_normal(ctx.K)
    mu_zeta = loc + (sigma_zeta.chol @ z) / np.sqrt(c + n)
    return mu_zeta, sigma_zeta


def babf_step_noise(state: BabfState, ctx: BabfContext, rng: RngStream) -> tuple[float, float]:
    """Draw the noise precision from the spline-space residuals."""
    rss = 0.0
    for b, curve, zeta_i in zip(ctx.bt, ctx.data.curves, state.zeta):
        r = curve.raw - b @ zeta_i
        rss += float(r @ r)
    shape = ctx.hyper.a_eps + ctx.n_obs / 2.0
    rate = ctx.hyper.b_eps + rss / 2.0
    precision = float(sample_gamma(shape, rate, rng))
    return 1.0 / precision, precision


def babf_step_scale(state: BabfState, ctx: BabfContext, rng: RngStream) -> float:
    """Draw the scale multiplier; the trace term uses the identity
    tr(A(tau,tau) Sigma_Z(tau,tau)^-1) = tr(B^-1 A B^-T Sigma_zeta^-1)."""
    L = ctx.tau.size
    delta = ctx.hyper.delta
    shape = ctx.hyper.a_s + L * (delta + L - 1.0) / 2.0
    rate = ctx.hyper.b_s + float(np.trace(state.Sigma_zeta.solve(ctx.prior_base))) / 2.0
    return float(sample_gamma(shape, rate, rng))


def babf_run(
    data: FunctionalDataset,
    hyper: HyperParams | None = None,
    est: EmpiricalEstimates | None = None,
    L: int = DEFAULT_L,
    tau: np.ndarray | None = None,
    eval_grid: np.ndarray | None = None,
    domain: tuple[float, float] | None = None,
    M: int = 10000,
    burnin: int = 2000,
    rng: RngStream | None = None,
    resid_thin: int = 10,
    hyper_kwargs: dict | None = None,
) -> tuple[Draws, SmoothResult]:
    """Run the coefficient-space Gibbs sampler and summarize.

    The working grid defaults to L percentile sites of the pooled grid
    (:func:`babf_working_grid`); ``eval_grid`` defaults to the pooled grid.
    When ``est`` is omitted or not on the working grid, empirical estimates
    are built there; when ``hyper`` is omitted, prior settings are built
    from them (``hyper_kwargs`` forwards to the prior constructor).
    ``runtime_seconds`` covers the sampler alone, as in ``bhm_run``:
    context, initial state, sweeps and summaries, not the empirical
    estimates or the prior settings.
    """
    if rng is None:
        rng = RngStream(0)

    pooled = data.pooled_grid
    working = babf_working_grid(pooled, L, tau)
    if est is None or est.grid.shape != working.tau.shape or not np.array_equal(est.grid, working.tau):
        est = empirical_estimates(data, eval_grid=working.tau)
    if hyper is None:
        hyper = build_hyperparams(est, **(hyper_kwargs or {}))

    started = time.perf_counter()
    if domain is None:
        domain = (float(pooled[0]), float(pooled[-1]))
    basis = build_basis(working, domain=domain)
    eval_grid = pooled if eval_grid is None else check_grid(eval_grid, "eval_grid")
    ctx = build_babf_context(data, hyper, basis, working.tau, eval_grid)
    state = babf_init(ctx, est)
    draws = Draws.allocate(
        ctx.n, ctx.K, [c.grid.size for c in data.curves], M, burnin, resid_thin, basis=ctx.b_eval
    )

    def resid():
        sd = np.sqrt(state.sigma_eps2)
        return [
            (curve.raw - b @ zeta_i) / sd
            for curve, b, zeta_i in zip(data.curves, ctx.bt, state.zeta)
        ]

    for it in range(M):
        state.zeta = babf_step_coeffs(state, ctx, rng)
        state.mu_zeta, state.Sigma_zeta = babf_step_meancov(state, ctx, rng)
        state.sigma_eps2, precision = babf_step_noise(state, ctx, rng)
        state.sigma_s2 = babf_step_scale(state, ctx, rng)
        draws.record(
            it, state.zeta, state.mu_zeta, state.Sigma_zeta.mat, precision, state.sigma_s2, resid
        )

    result = _summarize(draws, ctx, started)
    return draws, result


def _summarize(draws: Draws, ctx: BabfContext, started: float) -> SmoothResult:
    coef = summarize_draws(draws)
    zt_bands = [credible_band(draws.coef[:, i : i + 1], right=b) for i, b in enumerate(ctx.bt)]
    rn, rn_ci = scalar_summary(draws.precision)
    rs, rs_ci = scalar_summary(draws.sigma_s2)
    params = ctx.hyper.A.params
    pmin = pdm_pvalues(draws.resid).pmin_vec if draws.resid[0].shape[0] else None
    return SmoothResult(
        method="babf",
        grid=ctx.eval_grid,
        **summarize_draws(draws, ctx.b_eval),
        rn=rn,
        rn_CI=rn_ci,
        rs=rs,
        rs_CI=rs_ci,
        rho=None if params is None else params.rho,
        nu=None if params is None else params.nu,
        pmin_vec=pmin,
        runtime_seconds=time.perf_counter() - started,
        tau=ctx.tau,
        Zt=[b @ z for b, z in zip(ctx.bt, coef["Z"])],
        Zt_CL=[lo[0] for lo, _ in zt_bands],
        Zt_UL=[hi[0] for _, hi in zt_bands],
        Zeta=coef["Z"],
        Zeta_CL=coef["Z_CL"],
        Zeta_UL=coef["Z_UL"],
        Sigma_zeta=coef["Sigma"],
        Sigma_zeta_CL=coef["Sigma_CL"],
        Sigma_zeta_UL=coef["Sigma_UL"],
        Sigma_zeta_SE=coef["Sigma_SE"],
        mu_zeta=coef["mu"],
        mu_zeta_CI=coef["mu_CI"],
        Sigma_tau=ctx.btau @ coef["Sigma"] @ ctx.btau.T,
        mu_tau=ctx.btau @ coef["mu"],
        Btau=ctx.btau,
        BT=ctx.bt,
        knots=ctx.basis.knots,
    )
