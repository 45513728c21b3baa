import dataclasses
import struct

import numpy as np
import pytest

from gpcurve.babf import (
    babf_init,
    babf_run,
    babf_step_coeffs,
    babf_step_meancov,
    babf_step_noise,
    babf_step_scale,
    babf_working_grid,
    build_babf_context,
)
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
from gpcurve.bsplines import BSplineBasis, WorkingGrid, build_basis, eval_basis, select_working_grid
from gpcurve.datagen import Curve, FunctionalDataset, SimConfig, sim_gfd, sim_gfd_rgrid
from gpcurve.diagnostics import pdm_pvalues
from gpcurve.empirical import HyperParams, build_hyperparams, empirical_estimates
from gpcurve.io import MATRIX_MAGIC, write_matrix
from gpcurve.kernels import CovarianceModel
from gpcurve.results import retained_bytes, unpack_lower
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
        for c, b, z in zip(data.curves, ctx.bt, state.coef)
    )
    n_obs = sum(c.grid.size for c in data.curves)
    _, precision = babf_step_noise(state, ctx, RngStream(5))
    oracle = float(
        sample_gamma(hyper.a_eps + n_obs / 2.0, hyper.b_eps + rss / 2.0, RngStream(5))
    )
    assert precision == pytest.approx(oracle, rel=1e-12)


def test_batched_noise_step_equals_the_per_curve_loop_on_ragged_curves():
    # Curves of 1 to 9 points: the zero-padded batched residuals must give
    # the per-curve loop's residual sum of squares and use one gamma draw.
    gen = np.random.default_rng(11)
    curves = []
    for m in (5, 1, 9, 3, 7, 2):
        grid = np.sort(gen.uniform(*DOMAIN, m))
        curves.append(Curve(grid=grid, raw=np.sin(3.0 * grid) + 0.3 * gen.standard_normal(m)))
    data = FunctionalDataset(curves=curves)
    tau = np.linspace(0.1, 1.4, 5)
    base = SpdMatrix.from_matrix(np.exp(-np.abs(tau[:, None] - tau[None, :])))
    hyper = HyperParams(
        grid=tau,
        mu0=np.zeros(5),
        A=CovarianceModel(kind="empirical", s2=1.0, base=base, grid=tau),
        c=1.0,
        delta=5.0,
        a_eps=2.0,
        b_eps=0.5,
        a_s=1.0,
        b_s=1.0,
    )
    basis = build_basis(WorkingGrid(tau=tau, source="user"), domain=DOMAIN)
    ctx = build_babf_context(data, hyper, basis, tau, tau)
    assert ctx.b_pad.shape == (6, 9, ctx.dim) and ctx.x_pad.shape == (6, 9)
    state = GibbsState(
        coef=gen.standard_normal((6, ctx.dim)),
        mu=np.zeros(ctx.dim),
        Sigma=SpdMatrix.from_matrix(np.eye(ctx.dim)),
        sigma_eps2=0.2,
        sigma_s2=1.0,
    )
    rss = 0.0
    for b, curve, zeta_i in zip(ctx.bt, data.curves, state.coef):
        r = curve.raw - b @ zeta_i
        rss += float(r @ r)
    rng, ref = RngStream(4), RngStream(4)
    variance, precision = babf_step_noise(state, ctx, rng)
    oracle = float(sample_gamma(hyper.a_eps + 27 / 2.0, hyper.b_eps + rss / 2.0, ref))
    # The gamma draw scales exactly with 1 / rate, so equal precisions to
    # 1e-12 mean equal residual sums of squares to about 1e-12.
    assert precision == pytest.approx(oracle, rel=1e-12)
    assert variance == 1.0 / precision
    assert rng.generator.bit_generator.state == ref.generator.bit_generator.state


def test_scale_step_uses_the_transformed_trace():
    data, hyper, ctx, state = coeff_problem(L=6)
    L = 6
    trace = float(np.trace(np.linalg.solve(state.Sigma.mat, ctx.prior_base)))
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
    root = rng.normal(size=(ctx.dim, ctx.dim))
    sigma_zeta = root @ root.T + ctx.dim * np.eye(ctx.dim)
    a_tau = hyper.A.evaluate(ctx.tau).mat
    sigma_grid = ctx.btau @ sigma_zeta @ ctx.btau.T
    lhs = np.trace(a_tau @ np.linalg.inv(sigma_grid))
    rhs = np.trace(ctx.prior_base @ np.linalg.inv(sigma_zeta))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_meancov_step_matches_its_oracles():
    data, hyper, ctx, state = coeff_problem()
    n, c = 4, hyper.c
    dev = state.coef - state.mu[None, :]
    dmu = state.mu - ctx.mu0
    scale = state.sigma_s2 * ctx.prior_base + dev.T @ dev + c * np.outer(dmu, dmu)
    mu_draw, sigma_draw = babf_step_meancov(state, ctx, RngStream(11))

    replay = RngStream(11)
    sigma_oracle = sample_inverse_wishart(
        hyper.delta + n + 1.0, SpdMatrix.from_matrix((scale + scale.T) / 2.0), replay
    )
    loc = (c * ctx.mu0 + state.coef.sum(axis=0)) / (c + n)
    z = replay.generator.standard_normal(ctx.dim)
    mu_oracle = loc + (sigma_oracle.chol @ z) / np.sqrt(c + n)
    np.testing.assert_allclose(sigma_draw.mat, sigma_oracle.mat, atol=1e-12)
    np.testing.assert_allclose(mu_draw, mu_oracle, atol=1e-12)


def test_coeff_step_moments():
    data, hyper, ctx, state = coeff_problem(n=2, p=10, L=5, seed=4)
    state.sigma_eps2 = 0.3
    draws = np.stack(
        [babf_step_coeffs(state, ctx, RngStream(6000 + k)) for k in range(6000)]
    )
    sig_inv = state.Sigma.inverse()
    for i in range(2):
        prec = sig_inv + ctx.btb[i] / state.sigma_eps2
        cov = np.linalg.inv(prec)
        mean = cov @ (sig_inv @ state.mu + ctx.btx[i] / state.sigma_eps2)
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
    fresh.generator.standard_normal((ctx.n, ctx.dim))
    assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state


def test_coeff_step_rejects_a_non_positive_definite_precision():
    data, hyper, ctx, state = coeff_problem()
    state.sigma_eps2 = -0.01
    with pytest.raises(np.linalg.LinAlgError):
        babf_step_coeffs(state, ctx, RngStream(0))


def test_init_round_trips_through_the_basis():
    data, hyper, ctx, state = coeff_problem()
    est = empirical_estimates(data, eval_grid=ctx.tau)
    np.testing.assert_allclose(state.coef @ ctx.btau.T, est.smoothed, atol=1e-8)
    np.testing.assert_allclose(ctx.btau @ state.mu, est.mu_hat, atol=1e-8)
    np.testing.assert_allclose(ctx.btau @ ctx.mu0, hyper.mu0, atol=1e-8)


def test_context_requires_hyper_on_working_grid():
    data = sim_gfd(SimConfig(n=3, p=12, seed=3))
    working = select_working_grid(data.pooled_grid, 5)
    basis = build_basis(working, domain=DOMAIN)
    est = empirical_estimates(data)  # pooled grid, not tau
    hyper = build_hyperparams(est)
    with pytest.raises(ValueError, match="working grid"):
        build_babf_context(data, hyper, basis, working.tau, data.pooled_grid)


def test_context_requires_a_square_collocation():
    # A basis of K = 6 functions at a working grid of L = 5 points.
    data = sim_gfd(SimConfig(n=3, p=12, seed=3))
    basis = build_basis(select_working_grid(data.pooled_grid, 6), domain=DOMAIN)
    tau = select_working_grid(data.pooled_grid, 5).tau
    hyper = build_hyperparams(empirical_estimates(data, eval_grid=tau))
    with pytest.raises(ValueError, match="K=6 .* L=5"):
        build_babf_context(data, hyper, basis, tau, data.pooled_grid)


@pytest.mark.parametrize("method", ["bhm", "babf"])
def test_runs_sweep_the_public_steps_in_the_documented_order(method):
    # signals -> Sigma | Z, mu -> mu | Z, Sigma -> noise | Z -> sigma_s2 | Sigma,
    # every step drawing from the one stream the run was given.
    sweeps = 5
    if method == "bhm":
        data = sim_gfd(SimConfig(n=6, p=10, seed=8, cgrid=False))
        est = empirical_estimates(data)
        hyper = build_hyperparams(est)
        draws, _ = bhm_run(data, hyper, est, M=sweeps, burnin=0, rng=RngStream(7))
        ctx = build_context(data, hyper)
        state, signals = bhm_init(ctx, est), bhm_step_signals
    else:
        data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
        working = select_working_grid(data.pooled_grid, 6)
        est = empirical_estimates(data, eval_grid=working.tau)
        hyper = build_hyperparams(est, ws=1.0)
        draws, _ = babf_run(
            data, hyper, est, L=6, domain=DOMAIN, M=sweeps, burnin=0, rng=RngStream(7)
        )
        basis = build_basis(working, domain=DOMAIN)
        ctx = build_babf_context(data, hyper, basis, working.tau, data.pooled_grid)
        state, signals = babf_init(ctx, est), babf_step_coeffs
    rng = RngStream(7)
    cells = []
    for k in range(sweeps):
        state.coef = signals(state, ctx, rng)
        state.Sigma = bhm_step_cov(state, ctx, rng)
        state.mu = bhm_step_mean(state, ctx, rng)
        state.sigma_eps2, precision = bhm_step_noise(state, ctx, rng)
        state.sigma_s2 = bhm_step_scale(state, ctx, rng)
        if method == "babf":
            np.testing.assert_array_equal(draws.coef[k], state.coef)
            np.testing.assert_array_equal(unpack_lower(draws.Sigma[k]), state.Sigma.mat)
        else:
            np.testing.assert_array_equal(draws.Sigma_diag[k], np.diag(state.Sigma.mat))
            rows, cols = np.tril_indices(ctx.dim)
            cells.append(np.concatenate([state.coef.ravel(), state.Sigma.mat[rows, cols]]))
        np.testing.assert_array_equal(draws.mu[k], state.mu)
        assert draws.precision[k] == precision
        assert draws.sigma_s2[k] == state.sigma_s2
    if method == "bhm":
        # Five draws fit the order-statistics buffer: each sweep's curve and
        # packed covariance cells are one row (which the summaries reorder
        # within each cell), and the sums add them in order.
        assert draws._filled == sweeps
        np.testing.assert_array_equal(
            np.sort(draws.extremes[:sweeps], axis=0), np.sort(np.stack(cells), axis=0)
        )
        sums = np.zeros(cells[0].size)
        for row in cells:
            sums += row
        np.testing.assert_array_equal(draws.cell_sums, sums)


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

    # Every grid-space summary is the summary of the basis images of the
    # coefficient draws.
    b_eval = basis_rows(res_a, data.pooled_grid)
    np.testing.assert_allclose(draws_a.basis, b_eval, atol=1e-14)
    z = draws_a.coef @ b_eval.T
    mu = draws_a.mu @ b_eval.T
    sigma = b_eval @ unpack_lower(draws_a.Sigma) @ b_eval.T
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
    assert len(res_a.Zt) == 5
    for i, curve in enumerate(data.curves):
        zt = draws_a.coef[:, i] @ basis_rows(res_a, curve.grid).T
        np.testing.assert_allclose(res_a.Zt[i], zt.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            res_a.Zt_CL[i], np.quantile(zt, 0.025, axis=0), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            res_a.Zt_UL[i], np.quantile(zt, 0.975, axis=0), rtol=0, atol=1e-12
        )


def _draw_arrays(draws):
    """(field name, array) for every array the draws container keeps; the
    per-curve residuals are views of ``resid_matrix``, counted there."""
    for f in dataclasses.fields(draws):
        if f.name == "resid":
            continue
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


@pytest.mark.parametrize("method", ["babf", "bhm"])
def test_memory_guard_estimate_is_what_the_draws_keep(method):
    # 30 draws: bhm's order-statistics buffer of 8 rows merges during the run.
    data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
    sizes = [c.grid.size for c in data.curves]
    for summarize in (True, False):
        common = dict(M=50, burnin=20, rng=RngStream(3), resid_thin=4, summarize=summarize)
        if method == "babf":
            draws, _ = babf_run(data, L=6, domain=DOMAIN, hyper_kwargs={"ws": 1.0}, **common)
        else:
            draws, _ = bhm_run(data, build_hyperparams(empirical_estimates(data)), **common)
        K = draws.mu.shape[1]
        if method == "babf":
            assert draws.Sigma.shape == (30, K * (K + 1) // 2)
        else:
            assert draws.Sigma_diag.shape == (30, K)
            if summarize:
                assert draws.extremes.shape == (8, 5 * K + K * (K + 1) // 2)
        kept = sum(a.nbytes for name, a in _draw_arrays(draws) if name != "basis")
        assert kept == retained_bytes(
            5, K, sizes, ndraws=30, n_resid=7, order_stats=method == "bhm", summarize=summarize
        )


@pytest.mark.parametrize("method", ["babf", "bhm"])
def test_residuals_are_column_views_of_one_matrix(tmp_path, method):
    data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
    common = dict(M=60, burnin=20, rng=RngStream(3), resid_thin=4)
    if method == "babf":
        draws, res = babf_run(data, L=6, domain=DOMAIN, hyper_kwargs={"ws": 1.0}, **common)
    else:
        draws, res = bhm_run(data, build_hyperparams(empirical_estimates(data)), **common)
    sizes = [c.grid.size for c in data.curves]
    matrix = draws.resid_matrix
    assert matrix.shape == (10, sum(sizes))
    ends = np.cumsum([0, *sizes])
    for r, start, stop in zip(draws.resid, ends[:-1], ends[1:]):
        assert np.shares_memory(r, matrix)
        np.testing.assert_array_equal(r, matrix[:, start:stop])
    # Written as the residual sidecar, the matrix has the bytes of separate
    # per-curve arrays side by side, and the fit p-values read its views as
    # they read separate arrays.
    separate = [np.array(r) for r in draws.resid]
    path = tmp_path / "residuals.bin"
    write_matrix(path, matrix)
    header = MATRIX_MAGIC + struct.pack("<II", *matrix.shape)
    assert path.read_bytes() == header + np.concatenate(separate, axis=1).tobytes()
    np.testing.assert_array_equal(res.pmin_vec, pdm_pvalues(separate))


@pytest.mark.parametrize("method", ["babf", "bhm"])
def test_a_chain_without_summaries_keeps_only_its_monitored_draws(method):
    data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
    common = dict(M=50, burnin=20, rng=RngStream(3), summarize=False)
    if method == "babf":
        draws, _ = babf_run(data, L=6, domain=DOMAIN, hyper_kwargs={"ws": 1.0}, **common)
        covariance = draws.Sigma
    else:
        draws, _ = bhm_run(data, build_hyperparams(empirical_estimates(data)), **common)
        covariance = draws.Sigma_diag
    monitored = [draws.precision, draws.sigma_s2, draws.mu, covariance]
    kept = sum(a.nbytes for name, a in _draw_arrays(draws) if name != "basis")
    assert kept <= sum(a.nbytes for a in monitored)
    assert draws.coef is None and draws.resid == [] and draws.extremes is None


def test_default_pooled_eval_grid_keeps_only_the_basis_on_its_axis():
    data = sim_gfd_rgrid(SimConfig(n=30, p=40, seed=2))
    E = data.pooled_grid.size
    assert E == 1200
    draws, res = babf_run(
        data, L=20, M=200, burnin=100, rng=RngStream(1), hyper_kwargs={"ws": 1.0}
    )
    assert res.Z.shape == (30, E)
    with_e_axis = {name for name, a in _draw_arrays(draws) if E in a.shape}
    # The residual matrix has a column per observation, 30 x 40 of them, as
    # many as the pooled grid has points.
    assert draws.resid_matrix.shape[1] == sum(c.grid.size for c in data.curves) == E
    assert with_e_axis - {"resid_matrix"} == {"basis"}
    assert draws.basis.shape == (E, 20)


def basis_rows(result, t):
    """The fit's basis rows at the points ``t``, rebuilt from its knots."""
    knots = result.knots
    return eval_basis(BSplineBasis(knots=knots, domain=(knots[0], knots[-1])), t)


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
    btau = basis_rows(res, res.tau)
    np.testing.assert_allclose(res.Z, res.Zeta @ btau.T, atol=1e-10)
    np.testing.assert_allclose(res.mu, btau @ res.mu_zeta, atol=1e-10)


def test_run_without_summaries_keeps_the_same_draws():
    # What a run without summaries keeps, the monitored draws, equals the
    # same fields of a summarized run; it keeps nothing else.
    data = sim_gfd_rgrid(SimConfig(n=5, p=15, seed=6))
    kwargs = dict(L=6, domain=DOMAIN, M=50, burnin=20, resid_thin=3, hyper_kwargs={"ws": 1.0})
    draws_a, res_a = babf_run(data, rng=RngStream(3), **kwargs)
    draws_b, res_b = babf_run(data, rng=RngStream(3), summarize=False, **kwargs)
    assert res_a is not None and res_b is None
    kept = dict(_draw_arrays(draws_b))
    assert sorted(kept) == ["Sigma", "basis", "mu", "precision", "sigma_s2"]
    for name, b in kept.items():
        np.testing.assert_array_equal(getattr(draws_a, name), b)


def test_run_refuses_estimates_off_the_working_grid():
    # Estimates on the pooled grid are not rebuilt with other settings: the
    # run refuses them, as bhm_run refuses estimates off its grid.
    data = sim_gfd_rgrid(SimConfig(n=4, p=10, seed=8))
    working = babf_working_grid(data.pooled_grid, 5)
    hyper = build_hyperparams(empirical_estimates(data, eval_grid=working.tau), ws=1.0)
    pooled = empirical_estimates(data)
    with pytest.raises(ValueError, match="empirical estimates must be on the working grid"):
        babf_run(data, hyper, est=pooled, L=5, domain=DOMAIN, M=20, burnin=10)


def test_run_refuses_estimates_off_the_working_grid_before_building_a_prior():
    # Without prior settings the run would build them from the estimates;
    # the refusal must name the estimates, not settings nobody passed.
    data = sim_gfd_rgrid(SimConfig(n=4, p=10, seed=8))
    pooled = empirical_estimates(data)
    with pytest.raises(ValueError, match="empirical estimates must be on the working grid"):
        babf_run(data, est=pooled, L=5, domain=DOMAIN, M=20, burnin=10)


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
