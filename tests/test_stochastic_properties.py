"""Property tests of the SPD kernels the samplers call on every sweep.

The kernels call LAPACK directly; these check them against scipy.linalg,
which they must match bit for bit, and against each other.
"""

import warnings

import numpy as np
import pytest
from scipy import linalg as sla

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve import stochastic  # noqa: E402
from gpcurve.stochastic import (  # noqa: E402
    FactorizationError,
    RngStream,
    SpdMatrix,
    cho_solve_lower,
    cholesky_with_jitter,
    sample_inverse_wishart,
    sample_mvn_canonical,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

dims = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_spd(p, seed, cond=1.0):
    """SPD p x p matrix; smaller ``cond`` weakens the diagonal it adds."""
    a = np.random.default_rng(seed).standard_normal((p, p))
    return a @ a.T + cond * p * np.eye(p)


def factor_logdet(spd):
    """log det of ``spd.mat`` from its Cholesky factor's diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(spd.chol))))


def scipy_cholesky_with_jitter(mat):
    """The ridge schedule as written on scipy.linalg.cholesky: the reference."""
    mat = np.asarray(mat, dtype=float)
    scale = float(np.mean(np.diag(mat)))
    if not scale > 0.0:
        scale = 1.0
    eye = np.eye(mat.shape[0])
    for ridge in [0.0] + [10.0**e * scale for e in range(-10, -3)]:
        attempt = mat + ridge * eye if ridge else mat
        try:
            return sla.cholesky(attempt, lower=True), ridge
        except sla.LinAlgError:
            pass
    return None, None


@SETTINGS
@given(p=dims, seed=seeds, cond=st.sampled_from([1e-6, 1e-2, 1.0]), nrhs=st.integers(0, 3))
def test_spd_solve_inverse_logdet_agree_and_match_scipy_bit_for_bit(p, seed, cond, nrhs):
    mat = random_spd(p, seed, cond)
    spd = SpdMatrix.from_matrix(mat)
    np.testing.assert_array_equal(spd.chol, sla.cholesky(spd.mat, lower=True))
    gen = np.random.default_rng(seed + 1)
    b = gen.standard_normal(p) if nrhs == 0 else gen.standard_normal((p, nrhs))

    x = cho_solve_lower(spd.chol, b)
    np.testing.assert_array_equal(x, sla.cho_solve((spd.chol, True), b))
    g, info = sla.lapack.dtrtri(spd.chol, lower=1)
    assert info == 0
    np.testing.assert_array_equal(spd.inverse(), g.T @ g)

    # The three agree with each other and with the matrix itself.
    scale = np.linalg.cond(spd.mat)
    np.testing.assert_allclose(spd.mat @ x, b, atol=1e-12 * scale * max(1.0, np.abs(b).max()))
    np.testing.assert_allclose(
        spd.inverse() @ b, x, atol=1e-12 * scale * max(1.0, np.abs(x).max())
    )
    sign, logdet = np.linalg.slogdet(spd.mat)
    assert sign == 1.0
    assert factor_logdet(spd) == pytest.approx(logdet, rel=1e-10, abs=1e-10)
    inv_spd = SpdMatrix.from_matrix(spd.inverse())
    assert factor_logdet(inv_spd) == pytest.approx(-logdet, rel=1e-8, abs=1e-8)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(p=st.integers(1, 4), seed=seeds, delta=st.floats(8.0, 20.0))
def test_inverse_wishart_mean_is_scale_over_delta_minus_two_at_any_dimension(p, seed, delta):
    # delta > 8 keeps the draws' fourth moments finite, so the sample
    # standard error below is a fair yardstick.
    scale = SpdMatrix.from_matrix(random_spd(p, seed))
    rng = RngStream(seed)
    draws = np.stack([sample_inverse_wishart(delta, scale, rng).mat for _ in range(4000)])
    want = scale.mat / (delta - 2.0)
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - want) <= 6.0 * se + 1e-12)


@SETTINGS
@given(p=st.integers(1, 6), seed=seeds, delta=st.floats(2.5, 40.0))
def test_inverse_wishart_draw_is_its_factor_squared_bit_for_bit(p, seed, delta):
    scale = SpdMatrix.from_matrix(random_spd(p, seed))
    calls = []
    original = stochastic.cholesky_with_jitter

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "cholesky_with_jitter", counted)
        draw = sample_inverse_wishart(delta, scale, RngStream(seed))
    assert calls == []
    assert draw.jitter == 0.0
    assert np.all(np.triu(draw.chol, k=1) == 0.0)
    assert np.all(np.diag(draw.chol) > 0.0)
    np.testing.assert_array_equal(draw.mat.view(np.int64), draw.mat.T.copy().view(np.int64))
    np.testing.assert_array_equal(
        draw.mat.view(np.int64), (draw.chol @ draw.chol.T).view(np.int64)
    )
    np.testing.assert_allclose(
        draw.chol, sla.cholesky(draw.mat, lower=True), rtol=1e-8, atol=1e-12 * draw.chol.max()
    )


@SETTINGS
@given(
    p=dims,
    seed=seeds,
    rank=st.integers(0, 12),
    shift=st.sampled_from([0.0, -1e-9, -1e-3, 1.0]),
)
def test_cholesky_with_jitter_matches_the_scipy_schedule(p, seed, rank, shift):
    # Low-rank Gram matrices plus no shift or a small negative one fail the
    # plain factorization and need a ridge; a larger negative shift can fail
    # the whole schedule.
    a = np.random.default_rng(seed).standard_normal((p, min(rank, p)))
    mat = a @ a.T + shift * np.eye(p)
    want, want_ridge = scipy_cholesky_with_jitter(mat)
    if want is None:
        with pytest.raises(FactorizationError, match="not positive definite"):
            cholesky_with_jitter(mat)
        return
    chol, ridge = cholesky_with_jitter(mat)
    assert ridge == want_ridge
    np.testing.assert_array_equal(chol, want)
    assert chol.flags.f_contiguous == want.flags.f_contiguous


def test_cholesky_with_jitter_matches_scipy_on_a_matrix_that_needs_a_ridge():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    want, want_ridge = scipy_cholesky_with_jitter(mat)
    chol, ridge = cholesky_with_jitter(mat)
    assert ridge == want_ridge > 0.0
    np.testing.assert_array_equal(chol, want)


@SETTINGS
@given(
    p=dims,
    seed=seeds,
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.integers(0, 10_000),
)
def test_non_finite_input_raises_value_error(p, seed, bad, where):
    mat = random_spd(p, seed)
    i, j = divmod(where % (p * p), p)
    broken = mat.copy()
    broken[i, j] = broken[j, i] = bad
    message = "must not contain infs or NaNs"
    with pytest.raises(ValueError, match=message):
        cholesky_with_jitter(broken)
    with pytest.raises(ValueError, match=message), warnings.catch_warnings():
        warnings.simplefilter("error")
        SpdMatrix.from_matrix(broken)
    rhs = np.ones(p)
    rhs[where % p] = bad
    with pytest.raises(ValueError, match=message):
        cho_solve_lower(SpdMatrix.from_matrix(mat).chol, rhs)


@SETTINGS
@given(p=dims, n=st.integers(1, 6), seed=seeds, cond=st.sampled_from([1e-2, 1.0]))
def test_canonical_draw_with_a_shared_precision_equals_the_broadcast_stack(p, n, seed, cond):
    # One (p, p) precision, factored once, gives the draws of the batched
    # path handed the same precision once per row.
    prec = random_spd(p, seed, cond)
    gen = np.random.default_rng(seed + 1)
    b = gen.standard_normal((n, p))
    z = gen.standard_normal((n, p))
    shared = sample_mvn_canonical(prec, b, z)
    stacked = sample_mvn_canonical(np.broadcast_to(prec, (n, p, p)).copy(), b, z)
    np.testing.assert_allclose(shared, stacked, rtol=1e-10)
