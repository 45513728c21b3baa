import numpy as np
import pytest
from scipy import linalg as sla
from scipy import stats

from gpcurve.stochastic import (
    FactorizationError,
    RngStream,
    SpdMatrix,
    cholesky_with_jitter,
    pseudo_inverse,
    sample_gamma,
    sample_inverse_wishart,
    sample_mvn,
    sample_mvn_canonical,
)


def test_rng_stream_replays_bit_identical():
    a = RngStream(123, stream_id=4).generator.standard_normal(100)
    b = RngStream(123, stream_id=4).generator.standard_normal(100)
    assert np.array_equal(a, b)


def test_rng_stream_ids_differ():
    a = RngStream(123, stream_id=0).generator.standard_normal(100)
    b = RngStream(123, stream_id=1).generator.standard_normal(100)
    assert not np.array_equal(a, b)


def test_substream_independent_of_parent_state():
    # Children are keyed, so the parent's draw count must not matter.
    fresh = RngStream(7)
    spent = RngStream(7)
    spent.generator.standard_normal(1000)
    a = fresh.substream(3, 1).generator.standard_normal(50)
    b = spent.substream(3, 1).generator.standard_normal(50)
    assert np.array_equal(a, b)
    c = fresh.substream(3, 2).generator.standard_normal(50)
    assert not np.array_equal(a, c)


def test_mvn_scales_exactly_with_covariance():
    # chol(4 S) = 2 chol(S) bit-exactly, so with a replayed stream the
    # centered draws double exactly.
    cov = np.array([[2.0, 0.7, 0.1], [0.7, 1.5, 0.3], [0.1, 0.3, 1.0]])
    zero = np.zeros(3)
    d1 = sample_mvn(zero, cov, RngStream(5), size=20)
    d2 = sample_mvn(zero, 4.0 * cov, RngStream(5), size=20)
    assert np.array_equal(2.0 * d1, d2)


def test_mvn_mean_and_covariance():
    mean = np.array([1.0, -2.0])
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    draws = sample_mvn(mean, cov, RngStream(11), size=200_000)
    assert draws.shape == (200_000, 2)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)


def test_mvn_rejects_mismatched_mean():
    with pytest.raises(ValueError, match="dimension mismatch"):
        sample_mvn(np.zeros(3), np.eye(2), RngStream(0))


def spd_stack(n, p, seed):
    a = np.random.default_rng(seed).standard_normal((n, p, p))
    return a @ np.transpose(a, (0, 2, 1)) + p * np.eye(p)


def test_canonical_draw_matches_the_per_row_closed_form():
    # With z fixed the draw is deterministic: mean prec^-1 b plus L^-T z.
    n, p = 6, 9
    prec = spd_stack(n, p, seed=1)
    gen = np.random.default_rng(2)
    b = gen.standard_normal((n, p))
    z = gen.standard_normal((n, p))
    draw = sample_mvn_canonical(prec, b, z)
    for i in range(n):
        chol = np.linalg.cholesky(prec[i])
        want = np.linalg.solve(prec[i], b[i]) + sla.solve_triangular(
            chol, z[i], trans="T", lower=True
        )
        np.testing.assert_allclose(draw[i], want, rtol=1e-10)


def test_canonical_draw_rejects_a_non_positive_definite_precision():
    prec = spd_stack(4, 5, seed=4)
    prec[2, 3, 3] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        sample_mvn_canonical(prec, np.zeros((4, 5)), np.zeros((4, 5)))


def test_inverse_wishart_mean_is_dimension_free():
    # Mean must be scale / (delta - 2) at every dimension; a sampler in
    # the raw degrees-of-freedom convention would give scale / (delta - p - 1).
    rng = RngStream(21)
    for p, scale_diag in [(1, [2.0]), (2, [1.0, 2.0]), (3, [1.0, 2.0, 3.0])]:
        scale = SpdMatrix.from_matrix(np.diag(scale_diag))
        draws = np.mean(
            [sample_inverse_wishart(5.0, scale, rng).mat for _ in range(20_000)],
            axis=0,
        )
        np.testing.assert_allclose(draws, np.diag(scale_diag) / 3.0, atol=0.06)


def test_inverse_wishart_scalar_case_matches_inverse_gamma():
    # p = 1, delta = 6, scale 4: the draw is 4 / chisq(6), mean 1, and the
    # tail probability P(X > x) equals P(chisq(6) < 4 / x).
    rng = RngStream(9)
    draws = np.array(
        [sample_inverse_wishart(6.0, SpdMatrix.from_matrix([[4.0]]), rng).mat[0, 0]
         for _ in range(40_000)]
    )
    assert abs(draws.mean() - 1.0) < 0.02
    x = 2.0
    expected_tail = stats.chi2(6).cdf(4.0 / x)
    assert abs(np.mean(draws > x) - expected_tail) < 0.01


def test_inverse_wishart_posterior_update_arithmetic():
    # Adding n rank contributions moves the shape to delta + n and the
    # scale to psi + S; the draw mean must track (psi + S) / (delta + n - 2).
    rng = RngStream(33)
    psi = np.array([[2.0, 0.5], [0.5, 1.0]])
    s = np.array([[3.0, -0.2], [-0.2, 2.0]])
    delta, n = 5.0, 10
    post = SpdMatrix.from_matrix(psi + s)
    mean = np.mean(
        [sample_inverse_wishart(delta + n, post, rng).mat for _ in range(20_000)], axis=0
    )
    np.testing.assert_allclose(mean, (psi + s) / (delta + n - 2.0), atol=0.01)


def test_gamma_shape_rate_convention():
    draws = sample_gamma(3.0, 2.0, RngStream(2), size=100_000)
    assert abs(draws.mean() - 1.5) < 0.02
    ks = stats.kstest(draws, "gamma", args=(3.0, 0.0, 0.5))
    assert ks.pvalue > 1e-3


def test_gamma_rejects_bad_parameters():
    with pytest.raises(ValueError, match="shape"):
        sample_gamma(0.0, 1.0, RngStream(0))
    with pytest.raises(ValueError, match="rate"):
        sample_gamma(1.0, -1.0, RngStream(0))


def test_inverse_wishart_requires_delta_above_two():
    with pytest.raises(ValueError, match="delta"):
        sample_inverse_wishart(2.0, SpdMatrix.from_matrix(np.eye(2)), RngStream(0))


def test_cholesky_with_jitter_clean_matrix_gets_no_ridge():
    mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    chol, ridge = cholesky_with_jitter(mat)
    assert ridge == 0.0
    np.testing.assert_allclose(chol @ chol.T, mat, atol=1e-14)


def test_cholesky_with_jitter_rescues_singular_psd():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    chol, ridge = cholesky_with_jitter(mat)
    assert 0.0 < ridge <= 1e-4
    np.testing.assert_allclose(chol @ chol.T, mat + ridge * np.eye(2), atol=1e-12)


def test_factorization_error_names_the_matrix():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError, match="prior covariance"):
        cholesky_with_jitter(indefinite, name="prior covariance")
    assert issubclass(FactorizationError, np.linalg.LinAlgError)


def test_singular_covariance_draws_stay_on_the_ridge_scale():
    # [[1,1],[1,1]] forces a ridge of at most 1e-4, so the two coordinates
    # can differ only by ~sqrt(2e-4) per draw.
    spd = SpdMatrix.from_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    draws = sample_mvn(np.zeros(2), spd, RngStream(8), size=2_000)
    assert np.max(np.abs(draws[:, 0] - draws[:, 1])) < 0.1
    assert np.corrcoef(draws.T)[0, 1] > 0.999


def test_spd_matrix_solve_inverse_logdet():
    mat = np.array([[3.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, 1.5]])
    spd = SpdMatrix.from_matrix(mat)
    b = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(spd.solve(b), np.linalg.solve(mat, b), atol=1e-12)
    np.testing.assert_allclose(spd.inverse(), np.linalg.inv(mat), atol=1e-12)
    np.testing.assert_allclose(spd.logdet(), np.linalg.slogdet(mat)[1], atol=1e-12)


def test_spd_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        SpdMatrix.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        SpdMatrix.from_matrix(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_pseudo_inverse_examples():
    np.testing.assert_allclose(
        pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
    )
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    np.testing.assert_allclose(pseudo_inverse(mat), np.linalg.inv(mat), atol=1e-8)
    wide = rng.normal(size=(2, 5))
    pinv = pseudo_inverse(wide)
    np.testing.assert_allclose(wide @ pinv @ wide, wide, atol=1e-12)
