"""Working memory and bits of the posterior summaries, and the monitored
covariance diagonal."""

import tracemalloc

import numpy as np
import pytest

from gpcurve import results
from gpcurve.babf import babf_run
from gpcurve.bsplines import BSplineBasis, eval_basis
from gpcurve.datagen import SimConfig, sim_gfd_rgrid
from gpcurve.diagnostics import monitored_indices
from gpcurve.results import Draws, row_bands, summarize_draws, unpack_lower
from gpcurve.stochastic import RngStream


def random_draws(ndraws, n, K, seed=0, *, order_stats=False, basis=None):
    """Draws of n curves' K coefficients with symmetric covariance draws,
    kept (through ``basis``) or as order statistics."""
    rng = np.random.default_rng(seed)
    draws = Draws.allocate(n, K, [2] * n, ndraws, 0, 1, order_stats=order_stats, basis=basis)
    for k in range(ndraws):
        a = rng.standard_normal((K, K))
        sigma = a @ a.T
        draws.record(
            k,
            rng.standard_normal((n, K)),
            rng.standard_normal(K),
            (sigma + sigma.T) / 2.0,
            1.0,
            1.0,
            lambda: [np.zeros(2)] * n,
        )
    return draws


def summary_work_bytes(draws, basis):
    """Peak bytes of ``summarize_draws(draws, basis)`` beyond its outputs."""
    summarize_draws(draws, basis)  # fills the packing index caches
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        out = summarize_draws(draws, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - sum(v.nbytes for v in out.values())


@pytest.mark.parametrize("with_basis", [False, True])
def test_summaries_allocate_their_outputs_and_one_work_block(monkeypatch, with_basis):
    # Kept draws summarized through a basis (babf's grid summaries) or
    # without one (its coefficient-space summaries).
    ndraws, n, K, E = 200, 6, 10, 24
    # Blocks of 64 cells: 100 KiB of draws.
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * 64)
    basis = np.random.default_rng(1).standard_normal((E, K)) if with_basis else None
    draws = random_draws(ndraws, n, K, basis=basis)
    # One block; through the basis also the covariance's left images of one
    # tile's rows, two of the 24 rows of K values per draw.  Image chunks or
    # unpacked covariance draws of an eighth of a block, and Python objects,
    # fit in a quarter block.
    left = 8 * ndraws * 2 * K if with_basis else 0
    assert summary_work_bytes(draws, basis) <= results.CHUNK_BYTES * 5 // 4 + left


@pytest.mark.parametrize("ndraws", [3, 97])
@pytest.mark.parametrize("E", [1, 2, 9])
@pytest.mark.parametrize("cells", [1, 3, 8, 11, 10**6])
def test_bands_equal_np_quantile_of_the_whole_array_images_bit_for_bit(
    monkeypatch, ndraws, E, cells
):
    # Blocks of ``cells`` cells split the bands unevenly: with 8 cells the
    # rows of 9 grid cells into 8 + 1 and the 36 packed covariance cells
    # into 8 + 8 + 8 + 8 + 4, with 11 the coefficients one curve per tile
    # and the packed cells into 11 + 11 + 11 + 3, with 3 the 81 grid
    # covariance cells three at a time within a row, and one at a time
    # with 1.  97 draws leave one draw over when they are formed a few at a
    # time; the band of 3 draws reads every draw, so every image must have
    # the bits of the whole-array product.  At K = 8 a matrix-vector
    # product's elements depend on their position (E = 1).
    n, K = 5, 8
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * cells)
    rng = np.random.default_rng(E)
    basis = rng.standard_normal((E, K))
    draws = random_draws(ndraws, n, K, basis=basis)
    coef, mu, sigma = draws.coef, draws.mu, unpack_lower(draws.Sigma)
    # Each curve's basis rows at its observations: 1 to 9 points.
    bt = [rng.standard_normal((m, K)) for m in (1, 2, 9, 4, 7)]
    grid, coefficients = summarize_draws(draws, basis), summarize_draws(draws)

    def assert_band(lo, hi, images):
        want_lo, want_hi = np.quantile(images, (0.025, 0.975), axis=0)
        np.testing.assert_array_equal(lo, want_lo)
        np.testing.assert_array_equal(hi, want_hi)

    # The images as the whole-array products form them, draw by draw.
    assert_band(grid["Z_CL"], grid["Z_UL"], coef @ basis.T)
    assert_band(*grid["mu_CI"], (mu[:, None, :] @ basis.T)[:, 0])
    assert_band(grid["Sigma_CL"], grid["Sigma_UL"], basis @ sigma @ basis.T)
    assert_band(coefficients["Z_CL"], coefficients["Z_UL"], coef)
    assert_band(*coefficients["mu_CI"], mu)
    assert_band(coefficients["Sigma_CL"], coefficients["Sigma_UL"], sigma)
    for i, (lo, hi) in enumerate(row_bands(coef, bt)):
        assert_band(lo, hi, (coef[:, i : i + 1] @ bt[i].T)[:, 0])


def test_babf_run_bands_equal_np_quantile_of_its_images_bit_for_bit(monkeypatch):
    # A short run's kept draws on 13 evaluation points, in blocks of 5
    # cells: its grid bands and its bands at each curve's observations.
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * 40 * 5)
    data = sim_gfd_rgrid(SimConfig(n=6, p=11, seed=3))
    domain = (0.0, np.pi / 2)
    draws, res = babf_run(
        data, L=7, eval_grid=np.linspace(*domain, 13), domain=domain, M=60, burnin=20,
        rng=RngStream(2), hyper_kwargs={"ws": 1.0},
    )
    basis, coef = draws.basis, draws.coef
    probs = (0.025, 0.975)
    for lo, hi, images in (
        (res.Z_CL, res.Z_UL, coef @ basis.T),
        (*res.mu_CI, (draws.mu[:, None, :] @ basis.T)[:, 0]),
        (res.Sigma_CL, res.Sigma_UL, basis @ unpack_lower(draws.Sigma) @ basis.T),
        (res.Zeta_CL, res.Zeta_UL, coef),
        (res.Sigma_zeta_CL, res.Sigma_zeta_UL, unpack_lower(draws.Sigma)),
    ):
        np.testing.assert_array_equal(np.stack([lo, hi]), np.quantile(images, probs, axis=0))
    knots = res.knots
    spline = BSplineBasis(knots=knots, domain=(knots[0], knots[-1]))
    for i, curve in enumerate(data.curves):
        images = (coef[:, i : i + 1] @ eval_basis(spline, curve.grid).T)[:, 0]
        np.testing.assert_array_equal(
            np.stack([res.Zt_CL[i], res.Zt_UL[i]]), np.quantile(images, probs, axis=0)
        )


def test_order_statistic_summaries_allocate_their_outputs_and_one_work_block(monkeypatch):
    ndraws, n, K = 200, 6, 10
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * 64)
    draws = random_draws(ndraws, n, K, order_stats=True)
    # The mean's band block of 200 x 10 draws, a few rows of the 115 cells
    # and Python objects within the same bound.
    assert summary_work_bytes(draws, None) <= results.CHUNK_BYTES * 5 // 4


def test_monitored_sigma_diagonal_equals_the_full_grid_columns():
    # A babf run's B-spline basis on 40 evaluation points: the covariance
    # diagonal at the monitored points alone equals those columns of the
    # full-grid diagonal, rowsum(B Sigma o B) of the unpacked draws.
    data = sim_gfd_rgrid(SimConfig(n=6, p=15, seed=4))
    domain = (0.0, np.pi / 2)
    draws, _ = babf_run(
        data, L=8, eval_grid=np.linspace(*domain, 40), domain=domain, M=60, burnin=20,
        rng=RngStream(1), hyper_kwargs={"ws": 1.0}, summarize=False,
    )
    idx = monitored_indices(draws.basis.shape[0])
    assert idx == [10, 20, 29]
    got = draws.grid_sigma_diag(idx)
    assert got.shape == (draws.mu.shape[0], 3)
    sigma = unpack_lower(draws.Sigma)
    whole = np.sum((draws.basis @ sigma) * draws.basis, axis=2)
    np.testing.assert_allclose(got, whole[:, idx], rtol=1e-12, atol=0)

    # Draws with order statistics keep the diagonal, and the monitored
    # columns are its columns.
    ndraws, K = draws.mu.shape
    no_basis = Draws.allocate(1, K, [1], ndraws, 0, 1, order_stats=True, summarize=False)
    for k in range(ndraws):
        no_basis.record(k, None, draws.mu[k], sigma[k], 1.0, 1.0, None)
    np.testing.assert_array_equal(no_basis.grid_sigma_diag([1, 5]), sigma[:, [1, 5], [1, 5]])


def test_monitored_sigma_diagonal_unpacks_no_draw():
    ndraws, n, K, E = 2000, 2, 20, 40
    draws = random_draws(ndraws, n, K, basis=np.random.default_rng(1).random((E, K)))
    idx = monitored_indices(E)
    tracemalloc.start()
    try:
        out = draws.grid_sigma_diag(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The output plus the 3 x K(K+1)/2 weights and their temporaries; one
    # unpacked draw block would be ndraws * K * K * 8 = 6.4 MB.
    assert peak <= out.nbytes + 4 * 8 * len(idx) * K * (K + 1) // 2 + 4096
