"""The basis-approximated design: the Gibbs engine of :mod:`gpcurve.bhm`
run on spline coefficients.

Identical model to the full-grid sampler, but the signals are restricted
to a cubic spline space: working on the K coefficient values instead of p
grid values drops the sweep cost from O(n p^3) to O(n K^3), which is what
makes dense or random grids tractable.  The coefficients come from a square
collocation at the L-point working grid tau (K = L), so the prior base is
B(tau)^-1 A B(tau)^-T.  Only coefficient-space draws are retained;
grid-space summaries on any evaluation grid are derived from them through
the basis, so retained memory does not depend on the evaluation or
observation grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from gpcurve.bhm import (
    Design,
    GibbsState,
    _summarize,
    bhm_step_meancov as babf_step_meancov,
    bhm_step_noise as babf_step_noise,
    bhm_step_scale as babf_step_scale,
    canonical_signals,
    run_sweeps,
)
from gpcurve.bsplines import (
    BSplineBasis,
    WorkingGrid,
    build_basis,
    coeff_transform,
    eval_basis,
    select_working_grid,
)
from gpcurve.datagen import FunctionalDataset
from gpcurve.diagnostics import pdm_pvalues  # noqa: F401  (wrapped by bench/layers.py)
from gpcurve.empirical import NOISE_FLOOR, EmpiricalEstimates, HyperParams, build_hyperparams, empirical_estimates
from gpcurve.gridutil import check_grid
from gpcurve.results import Draws, SmoothResult, row_bands, summarize_draws
from gpcurve.stochastic import RngStream, SpdMatrix
from gpcurve.stochastic import sample_inverse_wishart  # noqa: F401  (wrapped by bench/layers.py)

__all__ = [
    "BabfContext",
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
class BabfContext(Design):
    """The coefficient design: basis evaluations and the transformed prior.

    ``btau`` is the collocation matrix B(tau) and ``btau_inv`` its inverse;
    ``bt`` holds each curve's basis rows at its observations, and
    ``b_pad``/``x_pad`` the same rows and the observations zero-padded to the
    longest curve, so the residuals of all curves are one batched product
    in which padded rows contribute exact zeros.
    """

    basis: BSplineBasis
    tau: np.ndarray
    btau: np.ndarray
    btau_inv: np.ndarray
    bt: list[np.ndarray]
    b_pad: np.ndarray
    x_pad: np.ndarray
    btb: np.ndarray
    btx: np.ndarray

    # Its grid bands are images of the draws through ``b_eval``.
    keeps_order_stats = False

    def residuals(self, coef: np.ndarray) -> np.ndarray:
        return self.x_pad - np.matmul(self.b_pad, coef[:, :, None])[:, :, 0]

    def summary_fields(self, draws: Draws) -> dict:
        """Observed-grid and coefficient-space summaries, the working grid
        and the knots.  Basis rows at any points follow from ``knots``
        (:func:`~gpcurve.bsplines.eval_basis`), so none are kept."""
        coef = summarize_draws(draws)
        zt_bands = row_bands(draws.coef, self.bt)
        return dict(
            tau=self.tau,
            Zt=[b @ z for b, z in zip(self.bt, coef["Z"])],
            Zt_CL=[lo for lo, _ in zt_bands],
            Zt_UL=[hi for _, hi in zt_bands],
            Zeta=coef["Z"],
            Zeta_CL=coef["Z_CL"],
            Zeta_UL=coef["Z_UL"],
            Sigma_zeta=coef["Sigma"],
            Sigma_zeta_CL=coef["Sigma_CL"],
            Sigma_zeta_UL=coef["Sigma_UL"],
            Sigma_zeta_SE=coef["Sigma_SE"],
            mu_zeta=coef["mu"],
            mu_zeta_CI=coef["mu_CI"],
            knots=self.basis.knots,
        )


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
    """The design of ``basis`` collocated at the working grid ``tau``.

    Raises ``ValueError`` when the hyperparameters are not on ``tau``, or
    when the basis size K differs from the working-grid size L: the shared
    scale step takes its Gamma shape from dim Sigma = K, which is the L of
    the working-grid model only for a square collocation.
    """
    tau = check_grid(tau, name="working grid")
    if hyper.grid.shape != tau.shape or not np.array_equal(hyper.grid, tau):
        raise ValueError("hyperparameters must be built on the working grid")
    btau, btau_inv = coeff_transform(basis, tau)
    K = btau.shape[1]
    if K != tau.size:
        raise ValueError(
            f"the basis has K={K} functions but the working grid has L={tau.size} "
            "points; the collocation must be square"
        )
    bt = [eval_basis(basis, c.grid) for c in data.curves]
    sizes = [c.grid.size for c in data.curves]
    b_pad = np.zeros((len(bt), max(sizes), K))
    x_pad = np.zeros((len(bt), max(sizes)))
    for i, (b, c) in enumerate(zip(bt, data.curves)):
        b_pad[i, : sizes[i]] = b
        x_pad[i, : sizes[i]] = c.raw
    prior_base = btau_inv @ hyper.A.evaluate(tau).mat @ btau_inv.T
    return BabfContext(
        method="babf",
        data=data,
        hyper=hyper,
        prior_base=(prior_base + prior_base.T) / 2.0,
        mu0=btau_inv @ hyper.mu0,
        n_obs=sum(sizes),
        grid=eval_grid,
        b_eval=eval_basis(basis, eval_grid),
        signal_step=babf_step_coeffs,
        basis=basis,
        tau=tau,
        btau=btau,
        btau_inv=btau_inv,
        bt=bt,
        b_pad=b_pad,
        x_pad=x_pad,
        btb=np.stack([b.T @ b for b in bt]),
        btx=np.stack([b.T @ c.raw for b, c in zip(bt, data.curves)]),
    )


def _require_on_working_grid(est: EmpiricalEstimates, tau: np.ndarray) -> None:
    if est.grid.shape != tau.shape or not np.array_equal(est.grid, tau):
        raise ValueError("empirical estimates must be on the working grid")


def babf_init(ctx: BabfContext, est: EmpiricalEstimates) -> GibbsState:
    """Map the empirical estimates on the working grid into coefficient space."""
    _require_on_working_grid(est, ctx.tau)
    sigma_zeta = ctx.btau_inv @ est.sigma_hat.mat @ ctx.btau_inv.T
    return GibbsState(
        coef=est.smoothed @ ctx.btau_inv.T,
        mu=ctx.btau_inv @ est.mu_hat,
        Sigma=SpdMatrix.from_matrix(
            (sigma_zeta + sigma_zeta.T) / 2.0, name="initial coefficient covariance"
        ),
        sigma_eps2=max(est.noise_var_hat, NOISE_FLOOR),
        sigma_s2=ctx.hyper.delta - 2.0,
    )


def babf_step_coeffs(state: GibbsState, ctx: BabfContext, rng: RngStream) -> np.ndarray:
    """Draw every curve's coefficient vector from its Gaussian conditional.

    The engine's conjugate draw (:func:`~gpcurve.bhm.canonical_signals`)
    with the spline rows B_i: curve i's precision is Sigma^-1 +
    B_i^T B_i / sigma_eps2, the n precisions are factored in one batched
    Cholesky, and the draw uses n * K standard normals.
    """
    return canonical_signals(state, ctx.btb, ctx.btx, rng)


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
    summarize: bool = True,
) -> tuple[Draws, SmoothResult | None]:
    """Run the coefficient-space Gibbs sampler and summarize.

    The working grid defaults to L percentile sites of the pooled grid
    (:func:`babf_working_grid`); ``eval_grid`` defaults to the pooled grid.
    When ``est`` is omitted, empirical estimates are built on the working
    grid; a given ``est`` must be on it (``ValueError`` otherwise).  When
    ``hyper`` is omitted, prior settings are built from the estimates
    (``hyper_kwargs`` forwards to the prior constructor).
    ``runtime_seconds`` covers the sampler alone, as in ``bhm_run``:
    context, initial state, sweeps and summaries, not the empirical
    estimates or the prior settings.  With ``summarize=False`` the posterior
    summaries and fit p-values are skipped, the result is ``None`` and the
    draws keep only the monitored ones, the same as a summarized run's.
    """
    if rng is None:
        rng = RngStream(0)

    pooled = data.pooled_grid
    working = babf_working_grid(pooled, L, tau)
    if est is None:
        est = empirical_estimates(data, eval_grid=working.tau)
    else:
        # Before any prior is built from them, so the refusal names them.
        _require_on_working_grid(est, working.tau)
    if hyper is None:
        hyper = build_hyperparams(est, **(hyper_kwargs or {}))

    started = time.perf_counter()
    if domain is None:
        domain = (float(pooled[0]), float(pooled[-1]))
    basis = build_basis(working, domain=domain)
    eval_grid = pooled if eval_grid is None else check_grid(eval_grid, "eval_grid")
    ctx = build_babf_context(data, hyper, basis, working.tau, eval_grid)
    draws = run_sweeps(ctx, babf_init(ctx, est), M, burnin, rng, resid_thin, summarize)
    return draws, _summarize(draws, ctx, started) if summarize else None
