"""Property tests of the packed covariance draws: what Draws.record packs,
unpack_lower restores bit for bit, ridged covariance draws included."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve.results import Draws, unpack_lower  # noqa: E402
from gpcurve.stochastic import SpdMatrix  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# Every double: signed zeros, subnormals, values near +-1e308, inf and NaN.
doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def recorded(mats):
    """Draws holding the symmetric (ndraws, K, K) ``mats`` as covariance draws."""
    ndraws, K, _ = mats.shape
    draws = Draws.allocate(1, K, [1], M=ndraws, burnin=0, resid_thin=1)
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
    draws = recorded(mats)
    np.testing.assert_array_equal(bits(draws.Sigma), bits(lower))
    np.testing.assert_array_equal(bits(unpack_lower(draws.Sigma)), bits(mats))
    for k in range(mats.shape[0]):
        np.testing.assert_array_equal(bits(unpack_lower(draws.Sigma[k])), bits(mats[k]))
    diag = np.arange(mats.shape[1])
    np.testing.assert_array_equal(bits(draws.grid_sigma_diag(diag)), bits(mats[:, diag, diag]))


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
    draws = recorded(np.stack([sigma.mat, sigma.mat]))
    np.testing.assert_array_equal(bits(unpack_lower(draws.Sigma)), bits([sigma.mat] * 2))


def test_unpack_rejects_a_length_that_is_no_triangle():
    with pytest.raises(ValueError, match="not a packed lower triangle"):
        unpack_lower(np.zeros(4))
