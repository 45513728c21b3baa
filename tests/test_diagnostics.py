import numpy as np
import pytest
from scipy import stats

from gpcurve.diagnostics import (
    accuracy,
    coverage,
    interpret_pmin,
    monitored_indices,
    monitored_scalars,
    pdm_pvalues,
    psrf,
)


def test_psrf_hand_computed_value():
    chains = np.array(
        [
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.0, 4.0, 6.0, 8.0, 10.0, 1.0, 3.0, 5.0, 7.0, 9.0],
        ]
    )
    within = np.mean([np.var(c, ddof=1) for c in chains])
    between_over_l = np.var([c.mean() for c in chains], ddof=1)
    want = np.sqrt((9.0 / 10.0 * within + between_over_l) / within)
    assert psrf(chains) == pytest.approx(want, rel=1e-12)


def test_psrf_identical_chains_is_below_one():
    # With zero between-chain variance the estimator is sqrt((L-1)/L).
    chain = np.sin(np.arange(50.0))
    value = psrf(np.stack([chain, chain]))
    assert value == pytest.approx(np.sqrt(49.0 / 50.0), rel=1e-12)


def test_psrf_mixed_chains_near_one_disjoint_chains_large():
    rng = np.random.default_rng(0)
    mixed = rng.normal(size=(4, 2000))
    assert abs(psrf(mixed) - 1.0) < 0.02
    disjoint = np.stack([rng.normal(size=500), 10.0 + rng.normal(size=500)])
    assert psrf(disjoint) > 3.0


def test_psrf_constant_chains_warn():
    with pytest.warns(UserWarning, match="constant"):
        assert psrf(np.ones((2, 20))) == 1.0


def test_psrf_validation():
    with pytest.raises(ValueError, match="2-d"):
        psrf(np.ones(10))
    with pytest.raises(ValueError, match="at least 2 chains"):
        psrf(np.ones((1, 20)))
    with pytest.raises(ValueError, match="at least 10"):
        psrf(np.ones((2, 5)))


def test_interpret_pmin_bands():
    assert interpret_pmin(0.3) == "no evidence of model inadequacy"
    assert interpret_pmin(0.1) == "some evidence of model inadequacy"
    assert interpret_pmin(0.01) == "strong evidence of model inadequacy"


def test_pdm_arithmetic_single_draw():
    # One retained draw: p = 1 * sf(sum r^2, df = points).
    resid = [np.array([[1.0, 2.0, 0.5]])]
    got = pdm_pvalues(resid)
    want = stats.chi2.sf(1.0 + 4.0 + 0.25, df=3)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_pdm_bonferroni_and_cap():
    resid = [np.array([[0.1, 0.1], [3.0, 4.0]])]
    pvals = stats.chi2.sf([0.02, 25.0], df=2)
    want = min(1.0, 2.0 * pvals.min())
    assert pdm_pvalues(resid)[0] == pytest.approx(want, rel=1e-12)
    # Tiny discrepancies push every p-value to 1 after the cap.
    calm = [np.full((5, 4), 1e-3)]
    assert pdm_pvalues(calm)[0] == 1.0


def test_pdm_pvalues_equal_the_scipy_stats_chi2_reference_bit_for_bit():
    from scipy.stats import chi2

    def reference(resid):
        out = []
        for r in resid:
            pvals = chi2.sf(np.sum(r * r, axis=1), df=r.shape[1])
            out.append(min(1.0, r.shape[0] * float(np.min(pvals))))
        return np.array(out)

    rng = np.random.default_rng(11)
    # Single-draw curves expose each p-value uncapped and unscaled.
    resid = [
        rng.uniform(0.0, 3.0) * rng.standard_normal((1, int(rng.integers(1, 60))))
        for _ in range(400)
    ]
    resid += [
        rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 30))))
        for _ in range(50)
    ]
    resid += [
        np.zeros((1, 5)),  # x = 0: p = 1
        np.zeros((1, 1)),  # x = 0 at df = 1
        np.array([[0.3]]),  # df = 1
        np.array([[2.5], [1e-8]]),  # df = 1 over two draws
        np.full((1, 1), 60.0),  # df = 1, p about 1e-783: underflows to 0
        np.full((3, 40), 1e3),  # discrepancy 4e7: underflows to 0
        np.array([[37.7]]),  # df = 1, p about 5e-311: a subnormal double
    ]
    got = pdm_pvalues(resid)
    want = reference(resid)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert got[-7] == got[-6] == 1.0
    assert got[-3] == got[-2] == 0.0
    assert 0.0 < got[-1] < 2.2e-308


def test_pdm_flags_inflated_residuals():
    rng = np.random.default_rng(1)
    good = [rng.normal(size=(100, 30)) for _ in range(8)]
    bad = [3.0 * r for r in good]
    p_good = pdm_pvalues(good)
    p_bad = pdm_pvalues(bad)
    assert np.mean(p_good < 0.05) <= 0.125
    assert np.all(p_bad < 1e-6)


def test_pdm_validation():
    with pytest.raises(ValueError, match="sampler"):
        pdm_pvalues([])
    with pytest.raises(ValueError, match="resid_thin"):
        pdm_pvalues([np.empty((0, 4))])


def test_accuracy_and_coverage():
    est = np.array([1.0, 2.0, 3.0])
    truth = np.array([1.0, 1.0, 5.0])
    got = accuracy(est, truth)
    assert got["mse"] == pytest.approx(5.0 / 3.0)
    assert got["rmse"] == pytest.approx(np.sqrt(5.0 / 3.0))
    assert coverage(np.zeros(3), np.full(3, 2.0), truth) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="shape"):
        accuracy(est, truth[:2])
    with pytest.raises(ValueError, match="inverted"):
        coverage(np.ones(3), np.zeros(3), truth)


def test_monitored_scalars_layout():
    rng = np.random.default_rng(2)
    ndraws, p = 30, 9
    out = monitored_scalars(
        rng.gamma(2.0, size=ndraws),
        rng.gamma(2.0, size=ndraws),
        rng.normal(size=(ndraws, p)),
        rng.normal(size=(ndraws, 3)),
    )
    # Quantile indices on 9 points: rounds of 0.25/0.5/0.75 * 8.
    assert set(out) == {
        "noise_precision",
        "sigma_s2",
        "mu[2]",
        "mu[4]",
        "mu[6]",
        "Sigma[2,2]",
        "Sigma[4,4]",
        "Sigma[6,6]",
    }
    assert all(v.shape == (ndraws,) for v in out.values())
    # The covariance diagonal comes at the monitored points, in their order.
    diag = monitored_scalars(
        np.ones(5), np.ones(5), np.zeros((5, p)), np.arange(15.0).reshape(5, 3)
    )
    np.testing.assert_array_equal(diag["Sigma[4,4]"], np.arange(5.0) * 3 + 1.0)


def test_monitored_indices_and_a_diagonal_of_the_wrong_width():
    assert monitored_indices(9) == [2, 4, 6]
    assert monitored_indices(3) == [0, 1, 2]
    assert monitored_indices(2) == [0, 1]
    ndraws, p = 5, 9
    full = np.arange(ndraws * p, dtype=float).reshape(ndraws, p)
    mu = np.zeros((ndraws, p))
    with pytest.raises(ValueError, match="9 columns"):
        monitored_scalars(np.ones(ndraws), np.ones(ndraws), mu, full)
