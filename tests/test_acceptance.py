"""Acceptance gate: ten criteria with pinned thresholds.

Each test prints one [PASS]/[FAIL] verdict line with the measured values;
the lines are echoed in the pytest terminal summary so they stay visible
under captured output.  The simulation battery behind criteria 1-4 and 10
runs the full sweep budget and is shared through a session fixture.
"""

import numpy as np
import pytest

import harness
from harness import DOMAIN, SCENARIOS, STATIONARY, MomentChecker, iw_entry_moments, record

from gpcurve.babf import (
    babf_run,
    babf_init,
    babf_step_coeffs,
    babf_step_meancov,
    babf_step_noise,
    babf_step_scale,
    build_babf_context,
)
from gpcurve.bhm import (
    GibbsState,
    bhm_run,
    bhm_step_cov,
    bhm_step_mean,
    bhm_step_noise,
    bhm_step_scale,
    bhm_step_signals,
    build_context,
)
from gpcurve.bsplines import build_basis, select_working_grid
from gpcurve.datagen import Curve, FunctionalDataset, SimConfig, sim_gfd, sim_gfd_rgrid
from gpcurve.diagnostics import monitored_indices, monitored_scalars, psrf
from gpcurve.empirical import HyperParams, build_hyperparams, empirical_estimates
from gpcurve.kernels import CovarianceModel, MaternParams, matern_cor
from gpcurve.protocol import run_regression_protocol
from gpcurve.stochastic import RngStream, SpdMatrix

ORACLE_DRAWS = 2_000 if harness.FAST else 100_000
SE_LIMIT = 3.0
PSRF_LIMIT = 1.1


@pytest.fixture(scope="session")
def battery():
    return harness.run_battery()


def test_criterion_01_signal_band_coverage(battery):
    parts = []
    passed = True
    for scenario in STATIONARY:
        cov = float(np.mean([s.signal_coverage for s in battery[scenario.name]]))
        secs = harness.SCENARIO_SECONDS[scenario.name]
        parts.append(f"{scenario.name} {cov:.3f} ({secs:.0f}s)")
        passed = passed and cov > 0.93 and secs < 600.0
    assert record(
        1,
        passed,
        f"signal 95% band coverage > 0.93 over {harness.REPLICATES} replicates, "
        "each scenario under 600s: " + ", ".join(parts),
    )


def test_criterion_02_mean_band_coverage(battery):
    parts = []
    passed = True
    for scenario in STATIONARY:
        cov = float(np.mean([s.mu_coverage for s in battery[scenario.name]]))
        parts.append(f"{scenario.name} {cov:.3f}")
        passed = passed and cov > 0.85
    assert record(2, passed, "mean-curve 95% band coverage > 0.85: " + ", ".join(parts))


def test_criterion_03_smoothing_gain(battery):
    need = int(np.ceil(0.95 * harness.REPLICATES))
    parts = []
    passed = True
    for scenario in SCENARIOS:
        wins = sum(s.rmse_fit < s.rmse_raw for s in battery[scenario.name])
        parts.append(f"{scenario.name} {wins}/{harness.REPLICATES}")
        passed = passed and wins >= need
    assert record(
        3, passed, f"smoothed RMSE beats raw in >= {need} replicates: " + ", ".join(parts)
    )


def test_criterion_04_covariance_recovery(battery):
    need = int(np.ceil(0.90 * harness.REPLICATES))
    scores = battery[SCENARIOS[0].name]
    wins = sum(s.cov_rmse_fit < s.cov_rmse_sample for s in scores)
    assert record(
        4,
        wins >= need,
        f"covariance RMSE beats the sample covariance in {wins}/{harness.REPLICATES} "
        f"common-grid stationary replicates (needs >= {need})",
    )


@pytest.fixture(scope="session")
def protocol_report():
    data = sim_gfd_rgrid(SimConfig(n=30, p=40, seed=2026))
    _, result = babf_run(
        data,
        L=harness.WORKING_GRID_LEN,
        eval_grid=np.linspace(DOMAIN[0], DOMAIN[1], 40),
        domain=DOMAIN,
        M=harness.SWEEPS,
        burnin=harness.BURNIN,
        rng=RngStream(77),
        hyper_kwargs=dict(mat=True, ws=1.0),
    )
    return run_regression_protocol(
        data,
        result.Zt,
        n_train=20,
        replicates=harness.PROTOCOL_REPLICATES,
        lamb=0.1,
        seed=0,
        grid_len=40,
        domain=DOMAIN,
    )


def test_criterion_05_regression_ordering(protocol_report):
    report = protocol_report
    cells_ok = 0
    gaps = []
    for model in ("scalar", "functional"):
        for split in ("fitted", "predicted"):
            sampler = report.cell(model, "sampler", split).mean
            spline = report.cell(model, "css", split).mean
            cells_ok += sampler < spline
            if model == "functional":
                gaps.append(spline / sampler)
    passed = cells_ok == 4 and min(gaps) > 1.5
    assert record(
        5,
        passed,
        f"sampler-smoothed inputs beat spline-smoothed in {cells_ok}/4 MSE cells "
        f"({report.replicates} replicates); functional gap x{min(gaps):.2f} (needs > 1.5)",
    )


def _bhm_oracle_problem():
    """A tiny fixed uncommon-grid problem with every quantity hand-set."""
    grid = np.array([0.0, 0.35, 0.8, 1.3])
    rng = np.random.default_rng(42)
    curves = [
        Curve(grid=grid, raw=rng.normal(size=4)),
        Curve(grid=grid[[0, 2, 3]], raw=rng.normal(size=3)),
        Curve(grid=grid[[1, 2]], raw=rng.normal(size=2)),
    ]
    data = FunctionalDataset(curves=curves)
    a_mat = np.exp(-np.abs(grid[:, None] - grid[None, :]))
    hyper = HyperParams(
        grid=grid,
        mu0=np.array([0.5, -0.2, 0.3, 0.1]),
        A=CovarianceModel(
            kind="empirical", s2=1.0, base=SpdMatrix.from_matrix(a_mat), grid=grid
        ),
        c=1.3,
        delta=5.0,
        a_eps=2.0,
        b_eps=1.0,
        a_s=0.7,
        b_s=0.35,
    )
    ctx = build_context(data, hyper)
    state = GibbsState(
        coef=rng.normal(size=(3, 4)),
        mu=np.array([0.4, -0.1, 0.2, 0.0]),
        Sigma=SpdMatrix.from_matrix(0.8 * a_mat),
        sigma_eps2=0.25,
        sigma_s2=2.0,
    )
    return data, hyper, ctx, state


def _babf_oracle_problem():
    data = sim_gfd(SimConfig(n=3, p=10, seed=9))
    working = select_working_grid(data.pooled_grid, 5)
    basis = build_basis(working, domain=DOMAIN)
    est = empirical_estimates(data, eval_grid=working.tau)
    hyper = build_hyperparams(est, ws=1.0)
    ctx = build_babf_context(data, hyper, basis, working.tau, data.pooled_grid)
    state = babf_init(ctx, est)
    state.sigma_eps2 = 0.3
    state.sigma_s2 = 1.7
    return data, hyper, ctx, state


def test_criterion_06_conjugate_oracles():
    chk = MomentChecker()

    data, hyper, ctx, state = _bhm_oracle_problem()
    n, p = ctx.n, ctx.dim
    sig_inv = np.linalg.inv(state.Sigma.mat)

    rng = RngStream(606)
    prec = np.array([bhm_step_noise(state, ctx, rng)[1] for _ in range(ORACLE_DRAWS)])
    rss = sum(
        float(np.sum((c.raw - state.coef[i, ctx.smap.indices[i]]) ** 2))
        for i, c in enumerate(data.curves)
    )
    shape = hyper.a_eps + ctx.n_obs / 2.0
    rate = hyper.b_eps + rss / 2.0
    chk.mean("noise precision", prec, shape / rate)
    chk.var("noise precision", prec, shape / rate**2)

    rng = RngStream(607)
    mu_draws = np.array([bhm_step_mean(state, ctx, rng) for _ in range(ORACLE_DRAWS)])
    loc = (hyper.c * ctx.mu0 + state.coef.sum(axis=0)) / (hyper.c + n)
    for j in (0, 2):
        chk.mean(f"mean[{j}]", mu_draws[:, j], loc[j])
        chk.var(f"mean[{j}]", mu_draws[:, j], state.Sigma.mat[j, j] / (hyper.c + n))
    chk.cov("mean[0,2]", mu_draws[:, 0], mu_draws[:, 2], state.Sigma.mat[0, 2] / (hyper.c + n))

    rng = RngStream(608)
    cov_draws = np.array([bhm_step_cov(state, ctx, rng).mat for _ in range(ORACLE_DRAWS)])
    dev = state.coef - state.mu[None, :]
    dmu = state.mu - ctx.mu0
    scale_mat = state.sigma_s2 * ctx.prior_base + dev.T @ dev + hyper.c * np.outer(dmu, dmu)
    dpost = hyper.delta + n + 1.0
    for i, j in ((0, 0), (0, 1)):
        m, v = iw_entry_moments(scale_mat, dpost, i, j)
        chk.mean(f"cov[{i},{j}]", cov_draws[:, i, j], m)
        chk.var(f"cov[{i},{j}]", cov_draws[:, i, j], v)

    rng = RngStream(609)
    s2_draws = np.array([bhm_step_scale(state, ctx, rng) for _ in range(ORACLE_DRAWS)])
    shape = hyper.a_s + p * (hyper.delta + p - 1.0) / 2.0
    rate = hyper.b_s + float(np.trace(np.linalg.solve(state.Sigma.mat, ctx.prior_base))) / 2.0
    chk.mean("scale", s2_draws, shape / rate)
    chk.var("scale", s2_draws, shape / rate**2)

    rng = RngStream(610)
    z_draws = np.array([bhm_step_signals(state, ctx, rng) for _ in range(ORACLE_DRAWS)])
    i = 1  # observes pooled points 0, 2, 3; point 1 is unobserved
    v_i = np.linalg.inv(sig_inv + np.diag(ctx.obs_mask[i]) / state.sigma_eps2)
    m_i = v_i @ (sig_inv @ state.mu + ctx.x_scatter[i] / state.sigma_eps2)
    for j in (0, 1):
        chk.mean(f"signal[{i},{j}]", z_draws[:, i, j], m_i[j])
        chk.var(f"signal[{i},{j}]", z_draws[:, i, j], v_i[j, j])
    chk.cov(f"signal[{i},0 vs 1]", z_draws[:, i, 0], z_draws[:, i, 1], v_i[0, 1])

    data, hyper, ctx, state = _babf_oracle_problem()
    n, K = ctx.n, ctx.dim
    sig_inv = np.linalg.inv(state.Sigma.mat)

    rng = RngStream(611)
    prec = np.array([babf_step_noise(state, ctx, rng)[1] for _ in range(ORACLE_DRAWS)])
    rss = sum(
        float(np.sum((c.raw - b @ z) ** 2))
        for c, b, z in zip(data.curves, ctx.bt, state.coef)
    )
    shape = hyper.a_eps + ctx.n_obs / 2.0
    rate = hyper.b_eps + rss / 2.0
    chk.mean("coeff noise precision", prec, shape / rate)
    chk.var("coeff noise precision", prec, shape / rate**2)

    rng = RngStream(612)
    s2_draws = np.array([babf_step_scale(state, ctx, rng) for _ in range(ORACLE_DRAWS)])
    L = ctx.tau.size
    shape = hyper.a_s + L * (hyper.delta + L - 1.0) / 2.0
    rate = hyper.b_s + float(np.trace(np.linalg.solve(state.Sigma.mat, ctx.prior_base))) / 2.0
    chk.mean("coeff scale", s2_draws, shape / rate)
    chk.var("coeff scale", s2_draws, shape / rate**2)

    rng = RngStream(613)
    pairs = [babf_step_meancov(state, ctx, rng) for _ in range(ORACLE_DRAWS)]
    mu_draws = np.array([m for m, _ in pairs])
    cov_draws = np.array([s.mat for _, s in pairs])
    dev = state.coef - state.mu[None, :]
    dmu = state.mu - ctx.mu0
    scale_mat = state.sigma_s2 * ctx.prior_base + dev.T @ dev + hyper.c * np.outer(dmu, dmu)
    dpost = hyper.delta + n + 1.0
    for i, j in ((0, 0), (0, 1)):
        m, v = iw_entry_moments(scale_mat, dpost, i, j)
        chk.mean(f"coeff cov[{i},{j}]", cov_draws[:, i, j], m)
        chk.var(f"coeff cov[{i},{j}]", cov_draws[:, i, j], v)
    loc = (hyper.c * ctx.mu0 + state.coef.sum(axis=0)) / (hyper.c + n)
    chk.mean("coeff mean[0]", mu_draws[:, 0], loc[0])
    chk.var(
        "coeff mean[0]",
        mu_draws[:, 0],
        scale_mat[0, 0] / ((dpost - 2.0) * (hyper.c + n)),
    )

    rng = RngStream(614)
    zeta_draws = np.array([babf_step_coeffs(state, ctx, rng) for _ in range(ORACLE_DRAWS)])
    i = 0
    v_i = np.linalg.inv(sig_inv + ctx.btb[i] / state.sigma_eps2)
    m_i = v_i @ (sig_inv @ state.mu + ctx.btx[i] / state.sigma_eps2)
    for j in (0, 1):
        chk.mean(f"coeff[{i},{j}]", zeta_draws[:, i, j], m_i[j])
        chk.var(f"coeff[{i},{j}]", zeta_draws[:, i, j], v_i[j, j])
    chk.cov(f"coeff[{i},0 vs 1]", zeta_draws[:, i, 0], zeta_draws[:, i, 1], v_i[0, 1])

    detail = (
        f"all Gibbs conditionals match analytic moments at {ORACLE_DRAWS} draws; "
        f"worst deviation {chk.worst:.2f} se (limit {SE_LIMIT})"
    )
    if not chk.ok():
        detail = "conjugate moment mismatches: " + "; ".join(chk.failures)
    assert record(6, chk.ok(), detail)


def test_criterion_07_exact_basis_equivalence():
    data = sim_gfd(SimConfig(n=20, p=10, seed=123))
    pooled = data.pooled_grid
    est = empirical_estimates(data)
    hyper = build_hyperparams(est, mat=True, ws=1.0)
    bhm_draws, _ = bhm_run(
        data, hyper, est=est, M=harness.SWEEPS, burnin=harness.BURNIN, rng=RngStream(31)
    )
    babf_draws, _ = babf_run(
        data,
        L=pooled.size,
        tau=pooled,
        eval_grid=pooled,
        domain=DOMAIN,
        M=harness.SWEEPS,
        burnin=harness.BURNIN,
        rng=RngStream(32),
        hyper_kwargs=dict(mat=True, ws=1.0),
    )
    diff = babf_draws.grid_mu().mean(axis=0) - bhm_draws.grid_mu().mean(axis=0)
    se = np.sqrt(
        harness.batch_means_se(babf_draws.grid_mu()) ** 2
        + harness.batch_means_se(bhm_draws.grid_mu()) ** 2
    )
    worst = float(np.max(np.abs(diff) / se))
    assert record(
        7,
        worst < SE_LIMIT,
        f"full-grid and collocation-basis mean estimates agree: worst "
        f"standardized gap {worst:.2f} se over {pooled.size} points (limit {SE_LIMIT})",
    )


def test_criterion_08_kernel_closed_forms():
    rng = np.random.default_rng(0)
    d = rng.uniform(0.0, 3.0, size=1000)
    rho = rng.uniform(0.1, 2.0, size=1000)
    err_half = max(
        abs(matern_cor(di, MaternParams(rho=ri, nu=0.5)) - np.exp(-di / ri))
        for di, ri in zip(d, rho)
    )
    err_three_halves = max(
        abs(
            matern_cor(di, MaternParams(rho=ri, nu=1.5))
            - (1.0 + np.sqrt(3.0) * di / ri) * np.exp(-np.sqrt(3.0) * di / ri)
        )
        for di, ri in zip(d, rho)
    )
    at_zero = matern_cor(0.0, MaternParams(rho=0.7, nu=2.3))
    passed = err_half < 1e-10 and err_three_halves < 1e-10 and at_zero == 1.0
    assert record(
        8,
        passed,
        f"closed-form kernels match over 1000 pairs: max err {err_half:.2e} (nu=1/2), "
        f"{err_three_halves:.2e} (nu=3/2), at zero {at_zero}",
    )


def test_criterion_09_two_chain_convergence():
    data = harness.simulate(SCENARIOS[0], seed=0)
    est = empirical_estimates(data)
    hyper = build_hyperparams(est, mat=True, ws=1.0)
    chains = []
    for chain_id in (0, 1):
        draws, _ = bhm_run(
            data,
            hyper,
            est=est,
            M=harness.SWEEPS,
            burnin=harness.BURNIN,
            rng=RngStream(99, stream_id=chain_id),
        )
        mu = draws.grid_mu()
        sigma_diag = draws.grid_sigma_diag(monitored_indices(mu.shape[1]))
        chains.append(monitored_scalars(draws.precision, draws.sigma_s2, mu, sigma_diag))
    values = {
        name: psrf(np.stack([chains[0][name], chains[1][name]])) for name in chains[0]
    }
    worst_name, worst = max(values.items(), key=lambda kv: kv[1])
    assert record(
        9,
        worst < PSRF_LIMIT,
        f"two-chain PSRF < {PSRF_LIMIT} for all {len(values)} monitored scalars "
        f"(worst {worst:.4f} at {worst_name})",
    )


def test_criterion_10_fit_pvalue_calibration(battery):
    scores = battery[SCENARIOS[0].name]
    correct = np.concatenate([s.pmin_correct for s in scores])
    inflated = np.concatenate([s.pmin_inflated for s in scores])
    frac_correct = float(np.mean(correct < 0.05))
    frac_inflated = float(np.mean(inflated < 0.05))
    passed = frac_correct <= 0.10 and frac_inflated >= 0.90
    assert record(
        10,
        passed,
        f"fit p-values flag {frac_correct:.1%} of well-specified curves (limit 10%) "
        f"and {frac_inflated:.1%} after tripling residuals (needs >= 90%), "
        f"{correct.size} curves",
    )
