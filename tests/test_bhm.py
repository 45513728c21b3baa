import numpy as np
import pytest

from gpcurve.bhm import (
    BhmState,
    SelectionMap,
    bhm_init,
    bhm_run,
    bhm_step_cov,
    bhm_step_mean,
    bhm_step_noise,
    bhm_step_scale,
    bhm_step_signals,
    build_context,
)
from gpcurve.datagen import Curve, FunctionalDataset, SimConfig, sim_gfd
from gpcurve.empirical import HyperParams, empirical_estimates
from gpcurve.kernels import CovarianceModel
from gpcurve.stochastic import (
    RngStream,
    SpdMatrix,
    sample_gamma,
    sample_inverse_wishart,
    sample_mvn,
)

GRID = np.array([0.0, 0.4, 0.9, 1.5])


def spd_from_grid(grid, scale=1.0):
    return SpdMatrix.from_matrix(scale * np.exp(-np.abs(grid[:, None] - grid[None, :])))


def tiny_problem(common=True):
    grid = GRID
    vals = np.array(
        [
            [1.0, 0.3, -0.5, 0.8],
            [0.2, -0.1, 0.4, -0.6],
            [-0.7, 0.5, 0.1, 0.2],
        ]
    )
    if common:
        curves = [Curve(grid=grid, raw=v) for v in vals]
    else:
        keep = [np.array([0, 1, 3]), np.array([1, 2, 3]), np.array([0, 2, 3])]
        curves = [Curve(grid=grid[k], raw=v[k]) for k, v in zip(keep, vals)]
    data = FunctionalDataset(curves=curves)
    base = spd_from_grid(grid)
    hyper = HyperParams(
        grid=grid,
        mu0=np.array([0.5, 0.0, -0.2, 0.3]),
        A=CovarianceModel(kind="empirical", s2=1.0, base=base, grid=grid),
        c=1.3,
        delta=5.0,
        a_eps=2.0,
        b_eps=1.0,
        a_s=0.7,
        b_s=0.35,
    )
    ctx = build_context(data, hyper)
    state = BhmState(
        Z=np.array(
            [
                [0.9, 0.2, -0.4, 0.7],
                [0.1, 0.0, 0.3, -0.5],
                [-0.6, 0.4, 0.2, 0.1],
            ]
        ),
        mu=np.array([0.2, 0.1, 0.0, 0.1]),
        Sigma=spd_from_grid(grid, scale=0.8),
        sigma_eps2=0.25,
        sigma_s2=2.0,
    )
    return data, hyper, ctx, state


def test_signal_step_uses_n_times_p_normals_on_irregular_grids():
    data, hyper, ctx, state = tiny_problem(common=False)
    rng = RngStream(21, stream_id=1)
    bhm_step_signals(state, ctx, rng)
    fresh = RngStream(21, stream_id=1)
    fresh.generator.standard_normal((ctx.n, ctx.p))
    assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state


def test_signal_step_rejects_a_non_positive_definite_precision():
    data, hyper, ctx, state = tiny_problem(common=False)
    state.sigma_eps2 = -0.01
    with pytest.raises(np.linalg.LinAlgError):
        bhm_step_signals(state, ctx, RngStream(0))


def test_noise_step_matches_gamma_oracle():
    data, hyper, ctx, state = tiny_problem()
    rss = sum(
        float(np.sum((c.raw - state.Z[i]) ** 2)) for i, c in enumerate(data.curves)
    )
    _, precision = bhm_step_noise(state, ctx, RngStream(5))
    oracle = float(
        sample_gamma(hyper.a_eps + 12 / 2.0, hyper.b_eps + rss / 2.0, RngStream(5))
    )
    assert precision == oracle
    # Distributional sanity at the same conditional.
    draws = np.array([bhm_step_noise(state, ctx, RngStream(1000 + k))[1] for k in range(4000)])
    want = (hyper.a_eps + 6.0) / (hyper.b_eps + rss / 2.0)
    assert abs(draws.mean() - want) < 5.0 * draws.std() / np.sqrt(draws.size)


def test_mean_step_matches_gaussian_oracle():
    data, hyper, ctx, state = tiny_problem()
    n, c = 3, hyper.c
    loc = (c * hyper.mu0 + state.Z.sum(axis=0)) / (c + n)
    draw = bhm_step_mean(state, ctx, RngStream(9))
    z = RngStream(9).generator.standard_normal(4)
    np.testing.assert_array_equal(draw, loc + (state.Sigma.chol @ z) / np.sqrt(c + n))
    draws = np.stack([bhm_step_mean(state, ctx, RngStream(2000 + k)) for k in range(8000)])
    np.testing.assert_allclose(draws.mean(axis=0), loc, atol=0.03)
    np.testing.assert_allclose(np.cov(draws.T), state.Sigma.mat / (c + n), atol=0.02)


def test_cov_step_matches_inverse_wishart_oracle():
    data, hyper, ctx, state = tiny_problem()
    dev = state.Z - state.mu[None, :]
    dmu = state.mu - hyper.mu0
    scale = (
        state.sigma_s2 * ctx.A + dev.T @ dev + hyper.c * np.outer(dmu, dmu)
    )
    draw = bhm_step_cov(state, ctx, RngStream(11))
    oracle = sample_inverse_wishart(
        hyper.delta + 3 + 1.0, SpdMatrix.from_matrix(scale), RngStream(11)
    )
    np.testing.assert_array_equal(draw.mat, oracle.mat)
    mats = np.stack(
        [bhm_step_cov(state, ctx, RngStream(3000 + k)).mat for k in range(8000)]
    )
    np.testing.assert_allclose(
        mats.mean(axis=0), scale / (hyper.delta + 3 + 1.0 - 2.0), atol=0.12
    )


def test_scale_step_matches_gamma_oracle():
    data, hyper, ctx, state = tiny_problem()
    p, delta = 4, hyper.delta
    trace = float(np.trace(np.linalg.solve(state.Sigma.mat, ctx.A)))
    draw = bhm_step_scale(state, ctx, RngStream(13))
    oracle = float(
        sample_gamma(
            hyper.a_s + p * (delta + p - 1.0) / 2.0,
            hyper.b_s + trace / 2.0,
            RngStream(13),
        )
    )
    assert draw == pytest.approx(oracle, rel=1e-12)


def signal_oracle(ctx, state, mask):
    sig_inv = state.Sigma.inverse()
    prec = sig_inv + np.diag(mask) / state.sigma_eps2
    cov = np.linalg.inv(prec)
    return prec, cov


def test_signal_step_moments_common_grid():
    data, hyper, ctx, state = tiny_problem(common=True)
    assert ctx.common
    draws = np.stack(
        [bhm_step_signals(state, ctx, RngStream(4000 + k)) for k in range(6000)]
    )
    sig_inv = state.Sigma.inverse()
    for i, curve in enumerate(data.curves):
        prec, cov = signal_oracle(ctx, state, np.ones(4))
        mean = cov @ (sig_inv @ state.mu + curve.raw / state.sigma_eps2)
        np.testing.assert_allclose(draws[:, i].mean(axis=0), mean, atol=0.03)
        np.testing.assert_allclose(np.cov(draws[:, i].T), cov, atol=0.02)


def test_signal_step_moments_irregular_grids():
    data, hyper, ctx, state = tiny_problem(common=False)
    assert not ctx.common
    draws = np.stack(
        [bhm_step_signals(state, ctx, RngStream(5000 + k)) for k in range(6000)]
    )
    sig_inv = state.Sigma.inverse()
    for i in range(3):
        prec, cov = signal_oracle(ctx, state, ctx.obs_mask[i])
        mean = cov @ (sig_inv @ state.mu + ctx.x_scatter[i] / state.sigma_eps2)
        np.testing.assert_allclose(draws[:, i].mean(axis=0), mean, atol=0.03)
        np.testing.assert_allclose(np.cov(draws[:, i].T), cov, atol=0.03)
    # Unobserved points must show the widest spread: no data term there.
    unobserved_var = draws[:, 0, 2].var()
    observed_var = draws[:, 0, 1].var()
    assert unobserved_var > observed_var


def test_selection_map_and_context_validation():
    data, hyper, ctx, _ = tiny_problem(common=False)
    smap = SelectionMap.build(data)
    for idx, curve in zip(smap.indices, data.curves):
        np.testing.assert_array_equal(data.pooled_grid[idx], curve.grid)
    other = HyperParams(
        grid=GRID + 1.0,
        mu0=hyper.mu0,
        A=hyper.A,
        c=1.0,
        delta=5.0,
        a_eps=1.0,
        b_eps=1.0,
        a_s=1.0,
        b_s=1.0,
    )
    with pytest.raises(ValueError, match="different grid"):
        build_context(data, other)


def test_init_pins_observed_values():
    data = sim_gfd(SimConfig(n=5, p=12, dense=0.5, cgrid=False, seed=3))
    est = empirical_estimates(data)
    hyper_state = bhm_init(data, _hyper_for(data), est)
    smap = SelectionMap.build(data)
    for i, curve in enumerate(data.curves):
        np.testing.assert_array_equal(hyper_state.Z[i, smap.indices[i]], curve.raw)
    np.testing.assert_array_equal(hyper_state.Sigma.mat, np.eye(12))
    assert hyper_state.sigma_s2 == 3.0


def _hyper_for(data):
    from gpcurve.empirical import build_hyperparams

    return build_hyperparams(empirical_estimates(data))


def test_run_shapes_determinism_and_validation():
    data = sim_gfd(SimConfig(n=6, p=10, seed=8))
    hyper = _hyper_for(data)
    draws_a, res_a = bhm_run(data, hyper, M=60, burnin=20, rng=RngStream(4))
    draws_b, res_b = bhm_run(data, hyper, M=60, burnin=20, rng=RngStream(4))
    np.testing.assert_array_equal(draws_a.coef, draws_b.coef)
    np.testing.assert_array_equal(draws_a.Sigma, draws_b.Sigma)
    assert draws_a.coef.shape == (40, 6, 10)
    assert draws_a.mu.shape == (40, 10)
    assert len(draws_a.resid) == 6
    assert draws_a.resid[0].shape == (4, 10)
    assert res_a.method == "bhm"
    assert res_a.Z.shape == (6, 10)
    assert np.all(res_a.Z_CL <= res_a.Z_UL)
    assert np.all(res_a.rn_CI[0] <= res_a.rn) and np.all(res_a.rn <= res_a.rn_CI[1])
    assert res_a.runtime_seconds > 0.0
    assert np.all((res_a.pmin_vec >= 0.0) & (res_a.pmin_vec <= 1.0))
    np.testing.assert_allclose(res_a.Sigma, res_a.Sigma.T, atol=1e-10)

    single, _ = bhm_run(data, hyper, M=21, burnin=20, rng=RngStream(0), resid_thin=1)
    assert single.coef.shape == (1, 6, 10)
    assert single.resid[0].shape == (1, 10)
    with pytest.raises(ValueError, match="M > burnin"):
        bhm_run(data, hyper, M=10, burnin=10)
    with pytest.raises(ValueError, match="resid_thin"):
        bhm_run(data, hyper, M=30, burnin=10, resid_thin=0)


def test_summaries_equal_whole_array_reductions_bit_for_bit(monkeypatch):
    from gpcurve import results

    data = sim_gfd(SimConfig(n=5, p=11, seed=9, cgrid=False))
    hyper = _hyper_for(data)
    ndraws = 40
    # Blocks of 7 cells: 11 pooled points and 11 x 11 covariance entries
    # split into uneven blocks.
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * 7)
    draws, res = bhm_run(data, hyper, M=ndraws + 20, burnin=20, rng=RngStream(5))
    probs = (0.025, 0.975)
    for got, arr in (
        ((res.Z, res.Z_CL, res.Z_UL), draws.coef),
        ((res.mu, *res.mu_CI), draws.mu),
        ((res.Sigma, res.Sigma_CL, res.Sigma_UL), draws.Sigma),
    ):
        np.testing.assert_array_equal(got[0], arr.mean(axis=0))
        lo, hi = np.quantile(arr, probs, axis=0)
        np.testing.assert_array_equal(got[1], lo)
        np.testing.assert_array_equal(got[2], hi)
    diag = np.arange(data.pooled_grid.size)
    np.testing.assert_array_equal(draws.grid_mu(), draws.mu)
    np.testing.assert_array_equal(draws.grid_sigma_diag(), draws.Sigma[:, diag, diag])


def test_posterior_mean_beats_raw_data():
    from gpcurve.empirical import build_hyperparams

    cfg = SimConfig(n=20, p=25, seed=12)
    data = sim_gfd(cfg)
    # ws = 1 keeps the covariance scale honest on this short chain so the
    # noise variance is not absorbed into the signal law.
    hyper = build_hyperparams(empirical_estimates(data), ws=1.0)
    _, res = bhm_run(data, hyper, M=800, burnin=300, rng=RngStream(1))
    truth = np.stack([c.truth for c in data.curves])
    raw = np.stack([c.raw for c in data.curves])
    rmse_fit = np.sqrt(np.mean((res.Z - truth) ** 2))
    rmse_raw = np.sqrt(np.mean((raw - truth) ** 2))
    assert rmse_fit < 0.7 * rmse_raw
    # rn estimates the noise precision, (r / s)^2 under the generator.
    true_precision = 1.0 / cfg.noise_sd**2
    assert abs(res.rn - true_precision) < 0.3 * true_precision
