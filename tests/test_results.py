"""Working memory of the posterior summaries."""

import tracemalloc

import numpy as np
import pytest

from gpcurve import results
from gpcurve.results import Draws, summarize_draws


def random_draws(ndraws, n, K, seed=0):
    """Draws of n curves' K coefficients with symmetric covariance draws."""
    rng = np.random.default_rng(seed)
    draws = Draws.allocate(n, K, [2] * n, ndraws, 0, 1)
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


@pytest.mark.parametrize("with_basis", [False, True])
def test_summaries_allocate_their_outputs_and_one_work_block(monkeypatch, with_basis):
    ndraws, n, K, E = 200, 6, 10, 24
    # Blocks of 64 cells: 100 KiB of draws.
    monkeypatch.setattr(results, "CHUNK_BYTES", 8 * ndraws * 64)
    draws = random_draws(ndraws, n, K)
    basis = np.random.default_rng(1).standard_normal((E, K)) if with_basis else None
    summarize_draws(draws, basis)  # fills the packing index caches
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        out = summarize_draws(draws, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(v.nbytes for v in out.values())
    # One band work block, plus a few unpacked covariance draws and Python
    # objects within a quarter block.
    assert peak - outputs <= results.CHUNK_BYTES * 5 // 4
