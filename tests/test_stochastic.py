import warnings

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import stats

from harness import MomentChecker, iw_entry_moments

from gpcurve import stochastic
from gpcurve.stochastic import (
    FactorizationError,
    RngStream,
    SpdMatrix,
    cho_solve_lower,
    cholesky_with_jitter,
    pseudo_inverse,
    sample_gamma,
    sample_inverse_wishart,
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


def spd_stack(n, p, seed):
    a = np.random.default_rng(seed).standard_normal((n, p, p))
    return a @ np.transpose(a, (0, 2, 1)) + p * np.eye(p)


@pytest.mark.parametrize("shared", [False, True], ids=["stack", "shared"])
def test_canonical_draw_matches_the_per_row_closed_form(shared):
    # With z fixed the draw is deterministic: mean P_i^-1 b plus L_i^-T z.
    # A 2-d precision is shared by every row.
    n, p = 6, 9
    prec = spd_stack(1 if shared else n, p, seed=1)
    if shared:
        prec = prec[0]
    gen = np.random.default_rng(2)
    b = gen.standard_normal((n, p))
    z = gen.standard_normal((n, p))
    draw = sample_mvn_canonical(prec, b, z)
    for i in range(n):
        prec_i = prec if shared else prec[i]
        chol = np.linalg.cholesky(prec_i)
        want = np.linalg.solve(prec_i, b[i]) + sla.solve_triangular(
            chol, z[i], trans="T", lower=True
        )
        np.testing.assert_allclose(draw[i], want, rtol=1e-10)


@pytest.mark.parametrize("shared", [False, True], ids=["stack", "shared"])
def test_canonical_draw_rejects_a_non_positive_definite_precision(shared):
    prec = spd_stack(4, 5, seed=4)
    prec[2, 3, 3] = -1.0
    if shared:
        prec = prec[2]
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


SCALE3 = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.4], [-0.3, 0.4, 1.0]])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_inverse_wishart_draw_carries_its_exact_cholesky_factor():
    scale = SpdMatrix.from_matrix(SCALE3)
    rng = RngStream(4)
    for _ in range(200):
        draw = sample_inverse_wishart(6.0, scale, rng)
        assert np.all(np.triu(draw.chol, k=1) == 0.0)
        assert np.all(np.diag(draw.chol) > 0.0)
        # Bit for bit: the draws container keeps the lower triangle only.
        np.testing.assert_array_equal(bits(draw.mat), bits(draw.mat.T))
        np.testing.assert_array_equal(bits(draw.mat), bits(draw.chol @ draw.chol.T))
        assert draw.jitter == 0.0
        # The lower factor with a positive diagonal is unique.
        np.testing.assert_allclose(draw.chol, np.linalg.cholesky(draw.mat), rtol=1e-10, atol=1e-14)


def test_inverse_wishart_draw_factors_nothing(monkeypatch):
    calls = []
    original = stochastic.cholesky_with_jitter

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(stochastic, "cholesky_with_jitter", counted)
    scale = SpdMatrix.from_matrix(SCALE3)
    assert len(calls) == 1
    draw = sample_inverse_wishart(6.0, scale, RngStream(0))
    draw.inverse()
    assert len(calls) == 1
    # A raw scale is factored once, and only the scale.
    sample_inverse_wishart(6.0, SCALE3, RngStream(0))
    assert len(calls) == 2


def test_inverse_wishart_entry_variances_match_the_closed_form():
    # Every entry's mean and variance at p = 3.  Means alone would pass with
    # the chi-square degrees of freedom on the Bartlett diagonal in the
    # reverse order; the variances would not.
    delta, ndraws = 12.0, 40_000
    scale = SpdMatrix.from_matrix(SCALE3)
    rng = RngStream(17)
    draws = np.stack([sample_inverse_wishart(delta, scale, rng).mat for _ in range(ndraws)])
    chk = MomentChecker()
    for i, j in zip(*np.tril_indices(3)):
        mean, var = iw_entry_moments(SCALE3, delta, i, j)
        chk.mean(f"Sigma[{i},{j}]", draws[:, i, j], mean, limit=4.0)
        chk.var(f"Sigma[{i},{j}]", draws[:, i, j], var, limit=4.0)
    assert chk.ok(), chk.failures


def test_spd_inverse_is_cached_read_only_and_exactly_symmetric():
    draw = sample_inverse_wishart(6.0, SpdMatrix.from_matrix(SCALE3), RngStream(3))
    inv = draw.inverse()
    assert draw.inverse() is inv
    assert not inv.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        inv[0, 0] = 1.0
    np.testing.assert_array_equal(inv, inv.T)
    np.testing.assert_allclose(inv @ draw.mat, np.eye(3), atol=1e-12)


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


def test_jitter_max_sets_the_last_ridge_tried(monkeypatch):
    # Eigenvalue -3e-5: the default schedule rescues it at 1e-4 * mean(diag);
    # capped at 1e-5 the schedule runs out and the error quotes the cap.
    from gpcurve import stochastic

    mat = np.array([[1.0, 1.0], [1.0, 1.0]]) - 3e-5 * np.eye(2)
    _, ridge = cholesky_with_jitter(mat)
    assert ridge == 10.0**-4 * (1.0 - 3e-5)
    monkeypatch.setattr(stochastic, "JITTER_MAX", 1e-5)
    with pytest.raises(FactorizationError, match=r"ridge 1e-05"):
        cholesky_with_jitter(mat)


def test_factorization_error_names_the_matrix():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError, match="prior covariance"):
        cholesky_with_jitter(indefinite, name="prior covariance")
    assert issubclass(FactorizationError, np.linalg.LinAlgError)


def test_singular_covariance_draws_stay_on_the_ridge_scale():
    # [[1,1],[1,1]] forces a ridge of at most 1e-4, so the two coordinates
    # can differ only by ~sqrt(2e-4) per draw.
    spd = SpdMatrix.from_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    draws = RngStream(8).generator.standard_normal((2_000, 2)) @ spd.chol.T
    assert np.max(np.abs(draws[:, 0] - draws[:, 1])) < 0.1
    assert np.corrcoef(draws.T)[0, 1] > 0.999


def test_spd_matrix_solve_inverse_logdet():
    mat = np.array([[3.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, 1.5]])
    spd = SpdMatrix.from_matrix(mat)
    b = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(cho_solve_lower(spd.chol, b), np.linalg.solve(mat, b), atol=1e-12)
    np.testing.assert_allclose(spd.inverse(), np.linalg.inv(mat), atol=1e-12)
    logdet = 2.0 * np.sum(np.log(np.diag(spd.chol)))
    np.testing.assert_allclose(logdet, np.linalg.slogdet(mat)[1], atol=1e-12)


def test_spd_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        SpdMatrix.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        SpdMatrix.from_matrix(np.array([[1.0, 0.5], [0.1, 1.0]]))
    # A non-finite entry is rejected before the symmetry check can warn.
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="infs or NaNs"), warnings.catch_warnings():
            warnings.simplefilter("error")
            SpdMatrix.from_matrix(np.array([[1.0, bad], [bad, 1.0]]))


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
