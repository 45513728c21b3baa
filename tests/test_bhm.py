import dataclasses

import numpy as np
import pytest
from scipy import linalg as sla

from gpcurve.bhm import (
    GibbsState,
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
from gpcurve.results import _extreme_rows, summarize_draws
from gpcurve.stochastic import (
    RngStream,
    SpdMatrix,
    sample_gamma,
    sample_inverse_wishart,
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
    state = GibbsState(
        coef=np.array(
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
    # n * p normals for the prior paths, then one per observation for the noise.
    data, hyper, ctx, state = tiny_problem(common=False)
    rng = RngStream(21, stream_id=1)
    bhm_step_signals(state, ctx, rng)
    fresh = RngStream(21, stream_id=1)
    fresh.generator.standard_normal((ctx.n, ctx.dim))
    fresh.generator.standard_normal(ctx.n_obs)
    assert ctx.n_obs == 9
    assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state


def test_common_grid_signal_draw_equals_the_scipy_linalg_reference():
    # On a common grid the draw is the canonical one with a precision shared
    # by every curve, factored once with raw LAPACK calls: it must reproduce
    # the scipy.linalg formulation P^-1 (b + L z) bit for bit, from the same
    # random numbers.
    data = sim_gfd(SimConfig(n=7, p=12, seed=3))
    hyper = _hyper_for(data)
    ctx = build_context(data, hyper)
    assert ctx.block_gather is None
    state = bhm_init(ctx, empirical_estimates(data))
    state.Sigma = bhm_step_cov(state, ctx, RngStream(1))
    draw = bhm_step_signals(state, ctx, RngStream(2))

    gen = RngStream(2).generator
    n, p = ctx.n, ctx.dim
    g, info = sla.lapack.dtrtri(state.Sigma.chol, lower=1)
    assert info == 0
    sig_inv = g.T @ g
    x = np.stack([curve.raw for curve in data.curves])
    b = (sig_inv @ state.mu)[None, :] + x / state.sigma_eps2
    chol = sla.cholesky(sig_inv + np.eye(p) / state.sigma_eps2, lower=True)
    z = gen.standard_normal((n, p))
    want = sla.cho_solve((chol, True), (b + z @ chol.T).T).T
    np.testing.assert_array_equal(draw, want)


def test_common_grid_signal_step_uses_exactly_n_times_p_normals():
    data, hyper, ctx, state = tiny_problem(common=True)
    assert ctx.block_gather is None
    rng = RngStream(21, stream_id=1)
    bhm_step_signals(state, ctx, rng)
    fresh = RngStream(21, stream_id=1)
    fresh.generator.standard_normal((ctx.n, ctx.dim))
    assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state


def test_signal_step_rejects_a_non_positive_definite_precision():
    data, hyper, ctx, state = tiny_problem(common=False)
    state.sigma_eps2 = -0.01
    with pytest.raises(np.linalg.LinAlgError):
        bhm_step_signals(state, ctx, RngStream(0))


def test_pathwise_signal_step_raises_on_a_non_positive_definite_block():
    # An indefinite covariance (built past SpdMatrix's checks) makes the
    # observed blocks indefinite: the step must raise, not return NaN draws.
    data, hyper, ctx, state = tiny_problem(common=False)
    state.Sigma = SpdMatrix(mat=-np.eye(4), chol=np.eye(4))
    with pytest.raises(np.linalg.LinAlgError):
        bhm_step_signals(state, ctx, RngStream(0))


def test_noise_step_matches_gamma_oracle():
    data, hyper, ctx, state = tiny_problem()
    rss = sum(
        float(np.sum((c.raw - state.coef[i]) ** 2)) for i, c in enumerate(data.curves)
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
    loc = (c * hyper.mu0 + state.coef.sum(axis=0)) / (c + n)
    draw = bhm_step_mean(state, ctx, RngStream(9))
    z = RngStream(9).generator.standard_normal(4)
    np.testing.assert_array_equal(draw, loc + (state.Sigma.chol @ z) / np.sqrt(c + n))
    draws = np.stack([bhm_step_mean(state, ctx, RngStream(2000 + k)) for k in range(8000)])
    np.testing.assert_allclose(draws.mean(axis=0), loc, atol=0.03)
    np.testing.assert_allclose(np.cov(draws.T), state.Sigma.mat / (c + n), atol=0.02)


def test_cov_step_matches_inverse_wishart_oracle():
    data, hyper, ctx, state = tiny_problem()
    dev = state.coef - state.mu[None, :]
    dmu = state.mu - hyper.mu0
    scale = (
        state.sigma_s2 * ctx.prior_base + dev.T @ dev + hyper.c * np.outer(dmu, dmu)
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
    trace = float(np.trace(np.linalg.solve(state.Sigma.mat, ctx.prior_base)))
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
    assert ctx.block_gather is None
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
    assert ctx.block_gather is not None
    draws = np.stack(
        [bhm_step_signals(state, ctx, RngStream(5000 + k)) for k in range(6000)]
    )
    sig_inv = state.Sigma.inverse()
    for i, curve in enumerate(data.curves):
        idx = np.searchsorted(data.pooled_grid, curve.grid)
        mask, x = np.zeros(ctx.dim), np.zeros(ctx.dim)
        mask[idx], x[idx] = 1.0, curve.raw
        prec, cov = signal_oracle(ctx, state, mask)
        mean = cov @ (sig_inv @ state.mu + x / state.sigma_eps2)
        np.testing.assert_allclose(draws[:, i].mean(axis=0), mean, atol=0.03)
        np.testing.assert_allclose(np.cov(draws[:, i].T), cov, atol=0.03)
    # Unobserved points must show the widest spread: no data term there.
    unobserved_var = draws[:, 0, 2].var()
    observed_var = draws[:, 0, 1].var()
    assert unobserved_var > observed_var


def test_selection_map_and_context_validation():
    data, hyper, ctx, _ = tiny_problem(common=False)
    # The padded layout holds each curve's observations in curve order.
    np.testing.assert_array_equal(
        np.tile(data.pooled_grid, ctx.n)[ctx.obs_flat],
        np.concatenate([curve.grid for curve in data.curves]),
    )
    np.testing.assert_array_equal(ctx.x_obs, np.concatenate([curve.raw for curve in data.curves]))
    np.testing.assert_array_equal(ctx.obs_valid.sum(axis=1), [c.grid.size for c in data.curves])
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
    hyper_state = bhm_init(build_context(data, _hyper_for(data)), est)
    for i, curve in enumerate(data.curves):
        idx = np.searchsorted(data.pooled_grid, curve.grid)
        np.testing.assert_array_equal(hyper_state.coef[i, idx], curve.raw)
    np.testing.assert_array_equal(hyper_state.Sigma.mat, np.eye(12))
    assert hyper_state.sigma_s2 == 3.0


def _hyper_for(data):
    from gpcurve.empirical import build_hyperparams

    return build_hyperparams(empirical_estimates(data))


def hand_loop(data, hyper, M, burnin, seed):
    """The states of sweeps ``burnin`` .. ``M - 1`` of :func:`bhm_run`'s
    chain, run step by step through the public steps: curve, mean and
    covariance draws, stacked."""
    ctx = build_context(data, hyper)
    state = bhm_init(ctx, empirical_estimates(data))
    rng = RngStream(seed)
    coef, mu, sigma = [], [], []
    for it in range(M):
        state.coef = bhm_step_signals(state, ctx, rng)
        state.Sigma = bhm_step_cov(state, ctx, rng)
        state.mu = bhm_step_mean(state, ctx, rng)
        state.sigma_eps2, _ = bhm_step_noise(state, ctx, rng)
        state.sigma_s2 = bhm_step_scale(state, ctx, rng)
        if it >= burnin:
            coef.append(state.coef)
            mu.append(state.mu)
            sigma.append(state.Sigma.mat)
    return np.stack(coef), np.stack(mu), np.stack(sigma)


def test_run_shapes_determinism_and_validation():
    data = sim_gfd(SimConfig(n=6, p=10, seed=8))
    hyper = _hyper_for(data)
    draws_a, res_a = bhm_run(data, hyper, M=60, burnin=20, rng=RngStream(4))
    draws_b, res_b = bhm_run(data, hyper, M=60, burnin=20, rng=RngStream(4))
    for name in ("mu", "Sigma_diag", "cell_sums", "extremes"):
        np.testing.assert_array_equal(getattr(draws_a, name), getattr(draws_b, name))
    # 40 draws keep no per-draw curves or covariances: the sums and order
    # statistics of the 6 x 10 curve and 55 packed covariance cells.
    assert draws_a.coef is None and draws_a.Sigma is None
    assert draws_a.cell_sums.shape == (115,)
    assert draws_a.extremes.shape == (_extreme_rows(40), 115) == (8, 115)
    assert draws_a.mu.shape == (40, 10)
    assert draws_a.Sigma_diag.shape == (40, 10)
    assert len(draws_a.resid) == 6
    assert draws_a.resid[0].shape == (4, 10)
    assert res_a.method == "bhm"
    assert res_a.Z.shape == (6, 10)
    assert np.all(res_a.Z_CL <= res_a.Z_UL)
    assert np.all(res_a.rn_CI[0] <= res_a.rn) and np.all(res_a.rn <= res_a.rn_CI[1])
    assert res_a.runtime_seconds > 0.0
    assert np.all((res_a.pmin_vec >= 0.0) & (res_a.pmin_vec <= 1.0))
    np.testing.assert_allclose(res_a.Sigma, res_a.Sigma.T, atol=1e-10)
    for got, want in (
        (res_a.Z, res_b.Z), (res_a.Z_CL, res_b.Z_CL), (res_a.Sigma_UL, res_b.Sigma_UL)
    ):
        np.testing.assert_array_equal(got, want)

    single, res = bhm_run(data, hyper, M=21, burnin=20, rng=RngStream(0), resid_thin=1)
    assert single.extremes.shape == (1, 115)
    assert single.resid[0].shape == (1, 10)
    # One draw is its own mean and both ends of its band.
    np.testing.assert_array_equal(res.Z_CL, res.Z)
    np.testing.assert_array_equal(res.Sigma_UL, res.Sigma)
    with pytest.raises(ValueError, match="M > burnin"):
        bhm_run(data, hyper, M=10, burnin=10)
    with pytest.raises(ValueError, match="resid_thin"):
        bhm_run(data, hyper, M=30, burnin=10, resid_thin=0)


@pytest.mark.parametrize("cgrid", [True, False])
def test_run_without_summaries_keeps_the_same_draws(cgrid):
    # What a run without summaries keeps, the monitored draws, equals the
    # same fields of a summarized run; it keeps nothing else.
    data = sim_gfd(SimConfig(n=6, p=10, seed=8, cgrid=cgrid))
    hyper = _hyper_for(data)
    draws_a, res_a = bhm_run(data, hyper, M=60, burnin=20, rng=RngStream(4), resid_thin=3)
    draws_b, res_b = bhm_run(
        data, hyper, M=60, burnin=20, rng=RngStream(4), resid_thin=3, summarize=False
    )
    assert res_a is not None and res_b is None
    kept = {
        f.name: getattr(draws_b, f.name)
        for f in dataclasses.fields(draws_b)
        if isinstance(getattr(draws_b, f.name), np.ndarray)
    }
    assert sorted(kept) == ["Sigma_diag", "mu", "precision", "sigma_s2"]
    assert draws_b.resid == []
    with pytest.raises(ValueError, match="keep no summaries"):
        summarize_draws(draws_b)
    for name, b in kept.items():
        np.testing.assert_array_equal(getattr(draws_a, name), b)


def assert_whole_array_reductions(got, coef, mu, sigma):
    """The summaries ``got``, keyed by their SmoothResult field names, are
    mean and np.quantile over the curve, mean and covariance draws, bit for
    bit."""
    for summary, arr in (
        ((got["Z"], got["Z_CL"], got["Z_UL"]), coef),
        ((got["mu"], *got["mu_CI"]), mu),
        ((got["Sigma"], got["Sigma_CL"], got["Sigma_UL"]), sigma),
    ):
        np.testing.assert_array_equal(summary[0], arr.mean(axis=0))
        lo, hi = np.quantile(arr, (0.025, 0.975), axis=0)
        np.testing.assert_array_equal(summary[1], lo)
        np.testing.assert_array_equal(summary[2], hi)
    dev = got["Z"] - got["Z"].mean(axis=0)
    np.testing.assert_array_equal(got["Sigma_SE"], dev.T @ dev / (got["Z"].shape[0] - 1))


def check_summaries_against_a_hand_loop(data, ndraws):
    """A bhm run's means and bands equal mean and np.quantile over the states
    of a hand loop of the public steps, bit for bit; returns those states."""
    hyper = _hyper_for(data)
    draws, res = bhm_run(data, hyper, M=ndraws + 20, burnin=20, rng=RngStream(5))
    coef, mu, sigma = hand_loop(data, hyper, ndraws + 20, 20, seed=5)
    assert_whole_array_reductions(vars(res), coef, mu, sigma)
    diag = np.arange(data.pooled_grid.size)
    np.testing.assert_array_equal(draws.grid_mu(), mu)
    np.testing.assert_array_equal(draws.grid_sigma_diag(diag), sigma[:, diag, diag])
    with pytest.raises(ValueError, match="order statistics"):
        summarize_draws(draws, np.eye(data.pooled_grid.size))
    return coef, mu, sigma


def test_common_grid_summaries_equal_whole_array_reductions_bit_for_bit():
    check_summaries_against_a_hand_loop(sim_gfd(SimConfig(n=5, p=11, seed=9)), ndraws=97)


def test_summaries_equal_whole_array_reductions_bit_for_bit(monkeypatch):
    from gpcurve import results
    from gpcurve.results import Draws

    # 97 draws: the order-statistics buffer of 16 rows merges 11 times, the
    # last just before the final draw is written.
    ndraws = 97
    assert _extreme_rows(ndraws) == 16
    data = sim_gfd(SimConfig(n=5, p=11, seed=9, cgrid=False))
    coef, mu, sigma = check_summaries_against_a_hand_loop(data, ndraws)
    probs = (0.025, 0.975)

    # The same states kept as draws, as babf keeps its coefficients.
    E, (n, p) = 12, coef.shape[1:]
    basis = np.random.default_rng(2).standard_normal((E, p))
    with_basis = Draws.allocate(n, p, [1] * n, ndraws, 0, 1, order_stats=False, basis=basis)
    for k in range(ndraws):
        with_basis.record(k, coef[k], mu[k], sigma[k], 1.0, 1.0, lambda: [np.zeros(1)] * n)

    # Summarized without the basis (babf's coefficient-space summaries) they
    # give the same bits.  Blocks of 7 cells: 11 pooled points and 66 packed
    # covariance entries split into uneven blocks.
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * 7)
    assert_whole_array_reductions(summarize_draws(with_basis), coef, mu, sigma)

    # Through the basis they give the bands of the unpacked image draws.
    # Blocks of three rows (the image of a single row is a matrix-vector
    # product, rounded differently) split the five curves unevenly.
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * 3 * E)
    got = summarize_draws(with_basis, basis)
    for summary, image, mean in (
        (
            (got["Z"], got["Z_CL"], got["Z_UL"]),
            coef @ basis.T,
            coef.mean(axis=0) @ basis.T,
        ),
        (
            (got["mu"], *got["mu_CI"]),
            (mu[:, None, :] @ basis.T)[:, 0],
            basis @ mu.mean(axis=0),
        ),
        (
            (got["Sigma"], got["Sigma_CL"], got["Sigma_UL"]),
            basis @ sigma @ basis.T,
            basis @ sigma.mean(axis=0) @ basis.T,
        ),
    ):
        np.testing.assert_array_equal(summary[0], mean)
        lo, hi = np.quantile(image, probs, axis=0)
        np.testing.assert_array_equal(summary[1], lo)
        np.testing.assert_array_equal(summary[2], hi)
    np.testing.assert_array_equal(with_basis.grid_mu(), mu @ basis.T)
    # The diagonal is a weighted sum of the packed cells, so it agrees with
    # the unpacked images to rounding.
    np.testing.assert_allclose(
        with_basis.grid_sigma_diag(np.arange(E)),
        np.sum((basis @ sigma) * basis, axis=2),
        rtol=1e-12,
        atol=0,
    )


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
