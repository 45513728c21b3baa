"""Property tests of what Draws.record keeps: the packed covariance draws,
which unpack_lower restores bit for bit (ridged covariance draws included),
and the order statistics and running sums, from which the bands and means
are np.quantile's and mean's."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.results import (  # noqa: E402
    Draws,
    _extreme_counts,
    _extreme_rows,
    summarize_draws,
    unpack_lower,
)
from gpcurve.stochastic import SpdMatrix  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# Every double: signed zeros, subnormals, values near +-1e308, inf and NaN.
doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def recorded(mats, order_stats):
    """Draws holding the symmetric (ndraws, K, K) ``mats`` as covariance
    draws: their diagonals with order statistics, else packed."""
    ndraws, K, _ = mats.shape
    draws = Draws.allocate(1, K, [1], M=ndraws, burnin=0, resid_thin=1, order_stats=order_stats)
    for it, mat in enumerate(mats):
        draws.record(it, np.zeros((1, K)), np.zeros(K), mat, 1.0, 1.0, lambda: [np.zeros(1)])
    return draws


@st.composite
def symmetric_stacks(draw):
    """(ndraws, K, K) symmetric matrices and their lower triangles, row by row."""
    K = draw(st.integers(min_value=1, max_value=6))
    ndraws = draw(st.integers(min_value=1, max_value=4))
    size = ndraws * K * (K + 1) // 2
    lower = np.array(draw(st.lists(doubles, min_size=size, max_size=size))).reshape(ndraws, -1)
    rows, cols = np.tril_indices(K)
    mats = np.empty((ndraws, K, K))
    mats[:, rows, cols] = lower
    mats[:, cols, rows] = lower
    return mats, lower


@SETTINGS
@given(symmetric_stacks())
def test_recorded_draws_unpack_bit_for_bit(case):
    mats, lower = case
    K = mats.shape[1]
    draws = recorded(mats, order_stats=False)
    np.testing.assert_array_equal(bits(draws.Sigma), bits(lower))
    np.testing.assert_array_equal(bits(unpack_lower(draws.Sigma)), bits(mats))
    for k in range(mats.shape[0]):
        np.testing.assert_array_equal(bits(unpack_lower(draws.Sigma[k])), bits(mats[k]))
    # The diagonal comes out bit for bit, from the packed draws or, with
    # order statistics, from the diagonal the draws keep.
    diag = np.arange(K)
    for kept in (draws, recorded(mats, order_stats=True)):
        np.testing.assert_array_equal(bits(kept.grid_sigma_diag(diag)), bits(mats[:, diag, diag]))


@SETTINGS
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_ridged_covariance_draws_round_trip(K, seed, ridged):
    a = np.random.default_rng(seed).standard_normal((K, 1 if ridged else K))
    mat = a @ a.T
    if ridged:
        # Rank one, pushed just below zero: the factorization needs a ridge.
        mat -= 1e-8 * np.mean(np.diag(mat)) * np.eye(K)
    sigma = SpdMatrix.from_matrix((mat + mat.T) / 2.0)
    assert (sigma.jitter > 0.0) == ridged
    draws = recorded(np.stack([sigma.mat, sigma.mat]), order_stats=False)
    np.testing.assert_array_equal(bits(unpack_lower(draws.Sigma)), bits([sigma.mat] * 2))


def _ends_near_a_merge(N):
    """Whether N draws end with the order-statistics buffer full, one draw
    after a merge or one draw short of one."""
    rows, keep = _extreme_rows(N), sum(_extreme_counts(N))
    return rows == N or (N - rows) % keep in (0, 1, keep - 1)


# Ties, signed zeros, subnormals and magnitudes up to 1e300, all finite.
cell_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True),
)


@st.composite
def cell_draws(draw):
    """(N, 3) values of three cells over N draws, N from 1 to 300."""
    N = draw(
        st.one_of(
            st.integers(min_value=1, max_value=300),
            st.sampled_from([N for N in range(1, 301) if _ends_near_a_merge(N)]),
        )
    )
    values = draw(st.lists(cell_values, min_size=3 * N, max_size=3 * N))
    return np.array(values).reshape(N, 3)


@SETTINGS
@given(cell_draws())
# A sum of negative zeros starts from +0.0, as numpy's mean does.
@example(np.full((1, 3), -0.0))
@example(np.full((97, 3), -0.0))
def test_order_statistics_give_the_bands_and_means_of_every_draw(values):
    # Two curves' coefficient at one point and the 1 x 1 covariance: three
    # cells, kept as order statistics and sums.
    N = values.shape[0]
    draws = Draws.allocate(2, 1, [1, 1], M=N, burnin=0, resid_thin=N + 1, order_stats=True)
    for k, (a, b, c) in enumerate(values):
        draws.record(k, np.array([[a], [b]]), np.zeros(1), np.array([[c]]), 1.0, 1.0, None)
    assert draws.extremes.shape[0] == _extreme_rows(N) <= N
    with np.errstate(over="ignore", invalid="ignore"):
        out = summarize_draws(draws)
    got = {
        "mean": [out["Z"][0, 0], out["Z"][1, 0], out["Sigma"][0, 0]],
        "lo": [out["Z_CL"][0, 0], out["Z_CL"][1, 0], out["Sigma_CL"][0, 0]],
        "hi": [out["Z_UL"][0, 0], out["Z_UL"][1, 0], out["Sigma_UL"][0, 0]],
    }
    np.testing.assert_array_equal(bits(got["mean"]), bits(values.mean(axis=0)))
    assert np.array_equal(got["lo"], np.quantile(values, 0.025, axis=0))
    assert np.array_equal(got["hi"], np.quantile(values, 0.975, axis=0))


@pytest.mark.parametrize("order", ["random", "ascending", "descending"])
@pytest.mark.parametrize("N", [300, 8000])
def test_order_statistics_of_many_draws_in_any_order(order, N):
    # 8000 draws are the paper's: a buffer of 804 rows merged 18 times.
    values = np.random.default_rng(N).standard_normal((N, 3))
    values[::7, 1] = 0.5  # ties
    if order != "random":
        values = np.sort(values, axis=0)[:: 1 if order == "ascending" else -1]
    draws = Draws.allocate(2, 1, [1, 1], M=N, burnin=0, resid_thin=N + 1, order_stats=True)
    for k, (a, b, c) in enumerate(values):
        draws.record(k, np.array([[a], [b]]), np.zeros(1), np.array([[c]]), 1.0, 1.0, None)
    out = summarize_draws(draws)
    for key, q in (("CL", 0.025), ("UL", 0.975)):
        got = [out[f"Z_{key}"][0, 0], out[f"Z_{key}"][1, 0], out[f"Sigma_{key}"][0, 0]]
        assert np.array_equal(got, np.quantile(values, q, axis=0))


def test_unpack_rejects_a_length_that_is_no_triangle():
    with pytest.raises(ValueError, match="not a packed lower triangle"):
        unpack_lower(np.zeros(4))
