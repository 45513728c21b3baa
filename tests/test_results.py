"""Working memory of the posterior summaries and the monitored covariance
diagonal."""

import tracemalloc

import numpy as np
import pytest

from gpcurve import results
from gpcurve.babf import babf_run
from gpcurve.datagen import SimConfig, sim_gfd_rgrid
from gpcurve.diagnostics import monitored_indices
from gpcurve.results import Draws, summarize_draws, unpack_lower
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
    # One band work block, plus a few unpacked covariance draws and Python
    # objects within a quarter block.
    assert summary_work_bytes(draws, basis) <= results.CHUNK_BYTES * 5 // 4


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
