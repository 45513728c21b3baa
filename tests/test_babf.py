import dataclasses

import numpy as np
import pytest

from gpcurve.babf import (
    babf_init,
    babf_run,
    babf_step_coeffs,
    babf_step_meancov,
    babf_step_noise,
    babf_step_scale,
    build_babf_context,
)
from gpcurve.bsplines import build_basis, select_working_grid
from gpcurve.datagen import SimConfig, sim_gfd, sim_gfd_rgrid
from gpcurve.empirical import build_hyperparams, empirical_estimates
from gpcurve.stochastic import (
    RngStream,
    SpdMatrix,
    sample_gamma,
    sample_inverse_wishart,
)

DOMAIN = (0.0, np.pi / 2)


def coeff_problem(n=4, p=12, L=6, seed=2):
    data = sim_gfd(SimConfig(n=n, p=p, seed=seed))
    working = select_working_grid(data.pooled_grid, L)
    basis = build_basis(working, domain=DOMAIN)
    est = empirical_estimates(data, eval_grid=working.tau)
    hyper = build_hyperparams(est, ws=1.0)
    ctx = build_babf_context(data, hyper, basis, working.tau, data.pooled_grid)
    state = babf_init(ctx, est)
    state.sigma_eps2 = 0.3
    state.sigma_s2 = 1.7
    return data, hyper, ctx, state


def test_noise_step_matches_gamma_oracle():
    data, hyper, ctx, state = coeff_problem()
    rss = sum(
        float(np.sum((c.raw - b @ z) ** 2))
        for c, b, z in zip(data.curves, ctx.bt, state.zeta)
    )
    n_obs = sum(c.grid.size for c in data.curves)
    _, precision = babf_step_noise(state, ctx, RngStream(5))
    oracle = float(
        sample_gamma(hyper.a_eps + n_obs / 2.0, hyper.b_eps + rss / 2.0, RngStream(5))
    )
    assert precision == pytest.approx(oracle, rel=1e-12)


def test_scale_step_uses_the_transformed_trace():
    data, hyper, ctx, state = coeff_problem(L=6)
    L = 6
    trace = float(np.trace(np.linalg.solve(state.Sigma_zeta.mat, ctx.prior_base)))
    draw = babf_step_scale(state, ctx, RngStream(7))
    oracle = float(
        sample_gamma(
            hyper.a_s + L * (hyper.delta + L - 1.0) / 2.0,
            hyper.b_s + trace / 2.0,
            RngStream(7),
        )
    )
    assert draw == pytest.approx(oracle, rel=1e-12)


def test_trace_identity_for_the_scale_step():
    # tr(A_tau Sigma_Z(tau)^-1) with Sigma_Z(tau) = B Sigma_zeta B^T equals
    # tr((B^-1 A_tau B^-T) Sigma_zeta^-1): the identity that lets the scale
    # step avoid reconstructing grid-space matrices.
    data, hyper, ctx, _ = coeff_problem()
    rng = np.random.default_rng(0)
    root = rng.normal(size=(ctx.K, ctx.K))
    sigma_zeta = root @ root.T + ctx.K * np.eye(ctx.K)
    a_tau = hyper.A.evaluate(ctx.tau).mat
    sigma_grid = ctx.btau @ sigma_zeta @ ctx.btau.T
    lhs = np.trace(a_tau @ np.linalg.inv(sigma_grid))
    rhs = np.trace(ctx.prior_base @ np.linalg.inv(sigma_zeta))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_meancov_step_matches_its_oracles():
    data, hyper, ctx, state = coeff_problem()
    n, c = 4, hyper.c
    dev = state.zeta - state.mu_zeta[None, :]
    dmu = state.mu_zeta - ctx.mu0_zeta
    scale = state.sigma_s2 * ctx.prior_base + dev.T @ dev + c * np.outer(dmu, dmu)
    mu_draw, sigma_draw = babf_step_meancov(state, ctx, RngStream(11))

    replay = RngStream(11)
    sigma_oracle = sample_inverse_wishart(
        hyper.delta + n + 1.0, SpdMatrix.from_matrix((scale + scale.T) / 2.0), replay
    )
    loc = (c * ctx.mu0_zeta + state.zeta.sum(axis=0)) / (c + n)
    z = replay.generator.standard_normal(ctx.K)
    mu_oracle = loc + (sigma_oracle.chol @ z) / np.sqrt(c + n)
    np.testing.assert_allclose(sigma_draw.mat, sigma_oracle.mat, atol=1e-12)
    np.testing.assert_allclose(mu_draw, mu_oracle, atol=1e-12)


def test_coeff_step_moments():
    data, hyper, ctx, state = coeff_problem(n=2, p=10, L=5, seed=4)
    state.sigma_eps2 = 0.3
    draws = np.stack(
        [babf_step_coeffs(state, ctx, RngStream(6000 + k)) for k in range(6000)]
    )
    sig_inv = state.Sigma_zeta.inverse()
    for i in range(2):
        prec = sig_inv + ctx.btb[i] / state.sigma_eps2
        cov = np.linalg.inv(prec)
        mean = cov @ (sig_inv @ state.mu_zeta + ctx.btx[i] / state.sigma_eps2)
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        np.testing.assert_array_less(
            np.abs(draws[:, i].mean(axis=0) - mean), 5.0 * se + 1e-12
        )
        np.testing.assert_allclose(np.cov(draws[:, i].T), cov, atol=0.02)


def test_coeff_step_uses_n_times_k_normals():
    data, hyper, ctx, state = coeff_problem()
    rng = RngStream(22, stream_id=1)
    babf_step_coeffs(state, ctx, rng)
    fresh = RngStream(22, stream_id=1)
    fresh.generator.standard_normal((ctx.n, ctx.K))
    assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state


def test_coeff_step_rejects_a_non_positive_definite_precision():
    data, hyper, ctx, state = coeff_problem()
    state.sigma_eps2 = -0.01
    with pytest.raises(np.linalg.LinAlgError):
        babf_step_coeffs(state, ctx, RngStream(0))


def test_init_round_trips_through_the_basis():
    data, hyper, ctx, state = coeff_problem()
    est = empirical_estimates(data, eval_grid=ctx.tau)
    np.testing.assert_allclose(state.zeta @ ctx.btau.T, est.smoothed, atol=1e-8)
    np.testing.assert_allclose(ctx.btau @ state.mu_zeta, est.mu_hat, atol=1e-8)
    np.testing.assert_allclose(ctx.btau @ ctx.mu0_zeta, hyper.mu0, atol=1e-8)


def test_context_requires_hyper_on_working_grid():
    data = sim_gfd(SimConfig(n=3, p=12, seed=3))
    working = select_working_grid(data.pooled_grid, 5)
    basis = build_basis(working, domain=DOMAIN)
    est = empirical_estimates(data)  # pooled grid, not tau
    hyper = build_hyperparams(est)
    with pytest.raises(ValueError, match="working grid"):
        build_babf_context(data, hyper, basis, working.tau, data.pooled_grid)


def test_run_shapes_determinism_and_reconstruction():
    data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
    draws_a, res_a = babf_run(
        data, L=6, domain=DOMAIN, M=50, burnin=20, rng=RngStream(3), hyper_kwargs={"ws": 1.0}
    )
    draws_b, res_b = babf_run(
        data, L=6, domain=DOMAIN, M=50, burnin=20, rng=RngStream(3), hyper_kwargs={"ws": 1.0}
    )
    np.testing.assert_array_equal(draws_a.coef, draws_b.coef)
    assert draws_a.coef.shape == (30, 5, 6)
    assert draws_a.basis.shape == (data.pooled_grid.size, 6)
    assert res_a.method == "babf"
    assert res_a.tau.size == 6
    assert res_a.knots.size == 6 + 4
    assert len(res_a.BT) == 5

    # Every grid-space summary is the summary of the basis images of the
    # coefficient draws.
    b_eval = eval_matrix(res_a, data).T
    np.testing.assert_allclose(draws_a.basis, b_eval, atol=1e-14)
    z = draws_a.coef @ b_eval.T
    mu = draws_a.mu @ b_eval.T
    sigma = b_eval @ draws_a.Sigma @ b_eval.T
    probs = (0.025, 0.975)
    np.testing.assert_allclose(res_a.Z, z.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(res_a.mu, mu.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(res_a.Sigma, sigma.mean(axis=0), rtol=0, atol=1e-12)
    for got, want in (
        ((res_a.Z_CL, res_a.Z_UL), np.quantile(z, probs, axis=0)),
        (res_a.mu_CI, np.quantile(mu, probs, axis=0)),
        ((res_a.Sigma_CL, res_a.Sigma_UL), np.quantile(sigma, probs, axis=0)),
    ):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    for i, b in enumerate(res_a.BT):
        zt = draws_a.coef[:, i] @ b.T
        np.testing.assert_allclose(res_a.Zt[i], zt.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            res_a.Zt_CL[i], np.quantile(zt, 0.025, axis=0), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            res_a.Zt_UL[i], np.quantile(zt, 0.975, axis=0), rtol=0, atol=1e-12
        )
    np.testing.assert_allclose(
        res_a.Sigma_tau, res_a.Btau @ res_a.Sigma_zeta @ res_a.Btau.T, atol=1e-10
    )
    np.testing.assert_allclose(res_a.mu_tau, res_a.Btau @ res_a.mu_zeta, atol=1e-10)


def _draw_arrays(draws):
    """(field name, array) for every array the draws container keeps."""
    for f in dataclasses.fields(draws):
        value = getattr(draws, f.name)
        for a in value if isinstance(value, list) else [value]:
            if isinstance(a, np.ndarray):
                yield f.name, a


def test_retained_draws_do_not_grow_with_the_evaluation_grid():
    data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
    kept = {}
    for E in (10, 400):
        draws, res = babf_run(
            data,
            L=6,
            eval_grid=np.linspace(*DOMAIN, E),
            domain=DOMAIN,
            M=50,
            burnin=20,
            rng=RngStream(3),
            hyper_kwargs={"ws": 1.0},
        )
        assert res.Sigma_CL.shape == (E, E)
        kept[E] = sum(a.nbytes for _, a in _draw_arrays(draws))
    assert kept[400] - kept[10] == (400 - 10) * 6 * 8


def test_default_pooled_eval_grid_keeps_only_the_basis_on_its_axis():
    data = sim_gfd_rgrid(SimConfig(n=30, p=40, seed=2))
    E = data.pooled_grid.size
    assert E == 1200
    draws, res = babf_run(
        data, L=20, M=200, burnin=100, rng=RngStream(1), hyper_kwargs={"ws": 1.0}
    )
    assert res.Z.shape == (30, E)
    with_e_axis = {name for name, a in _draw_arrays(draws) if E in a.shape}
    assert with_e_axis == {"basis"}
    assert draws.basis.shape == (E, 20)


def eval_matrix(result, data):
    from gpcurve.bsplines import BSplineBasis, eval_basis

    basis = BSplineBasis(knots=result.knots, domain=(result.knots[0], result.knots[-1]))
    return eval_basis(basis, data.pooled_grid).T


def test_summaries_commute_with_the_basis_when_eval_is_tau():
    data = sim_gfd(SimConfig(n=4, p=20, seed=7))
    working = select_working_grid(data.pooled_grid, 6)
    _, res = babf_run(
        data,
        tau=working.tau,
        eval_grid=working.tau,
        domain=DOMAIN,
        M=40,
        burnin=10,
        rng=RngStream(1),
        hyper_kwargs={"ws": 1.0},
    )
    np.testing.assert_allclose(res.Z, res.Zeta @ res.Btau.T, atol=1e-10)
    np.testing.assert_allclose(res.mu, res.Btau @ res.mu_zeta, atol=1e-10)


def test_run_validations():
    data = sim_gfd_rgrid(SimConfig(n=4, p=10, seed=8))
    with pytest.raises(ValueError, match="M > burnin"):
        babf_run(data, L=5, M=10, burnin=10)
    with pytest.raises(ValueError, match="resid_thin"):
        babf_run(data, L=5, M=20, burnin=10, resid_thin=0)


def test_signal_recovery_on_random_grids():
    cfg = SimConfig(n=12, p=25, seed=9)
    data = sim_gfd_rgrid(cfg)
    _, res = babf_run(
        data,
        L=10,
        domain=DOMAIN,
        M=500,
        burnin=200,
        rng=RngStream(2),
        hyper_kwargs={"ws": 1.0},
    )
    rmse_fit = np.sqrt(
        np.mean([np.mean((zt - c.truth) ** 2) for zt, c in zip(res.Zt, data.curves)])
    )
    rmse_raw = np.sqrt(np.mean([np.mean((c.raw - c.truth) ** 2) for c in data.curves]))
    assert rmse_fit < 0.7 * rmse_raw
    cover = np.mean(
        [
            np.mean((c.truth >= lo) & (c.truth <= hi))
            for c, lo, hi in zip(data.curves, res.Zt_CL, res.Zt_UL)
        ]
    )
    assert cover > 0.80
