import numpy as np
import pytest

from gpcurve.datagen import (
    Curve,
    FunctionalDataset,
    SimConfig,
    sim_gfd,
    sim_gfd_rgrid,
    true_mean_function,
)


def datasets_equal(a, b):
    return all(
        np.array_equal(x.grid, y.grid)
        and np.array_equal(x.raw, y.raw)
        and np.array_equal(x.truth, y.truth)
        for x, y in zip(a.curves, b.curves)
    )


def test_mean_functions():
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(true_mean_function(True)(t), 3.0 * np.sin(4.0 * t))
    np.testing.assert_allclose(
        true_mean_function(False)(t), 3.0 * (t + 0.5) * np.sin(4.0 * t ** (2.0 / 3.0))
    )


def test_simulation_is_deterministic():
    cfg = SimConfig(n=6, p=20, seed=5)
    assert datasets_equal(sim_gfd(cfg), sim_gfd(cfg))
    assert datasets_equal(sim_gfd_rgrid(cfg), sim_gfd_rgrid(cfg))


def test_curves_do_not_depend_on_sample_size():
    # Per-curve substreams: growing n must not change earlier curves.
    small = sim_gfd(SimConfig(n=4, p=15, seed=9))
    large = sim_gfd(SimConfig(n=8, p=15, seed=9))
    for a, b in zip(small.curves, large.curves):
        assert np.array_equal(a.raw, b.raw)


def test_common_grid_layout():
    cfg = SimConfig(n=5, p=25, au=0.0, bu=np.pi / 2, cgrid=True, seed=1)
    data = sim_gfd(cfg)
    assert data.common_grid()
    np.testing.assert_allclose(data.pooled_grid, np.linspace(0.0, np.pi / 2, 25))
    assert data.true_mean.shape == (25,)
    assert data.true_cov.dim == 25


def test_subset_grids_keep_the_right_count():
    cfg = SimConfig(n=12, p=30, dense=0.6, cgrid=False, seed=2)
    data = sim_gfd(cfg)
    pgrid = np.linspace(cfg.au, cfg.bu, cfg.p)
    keep = round(cfg.dense * cfg.p)
    for curve in data.curves:
        assert curve.grid.size == keep
        assert np.all(np.isin(curve.grid, pgrid))
    assert not data.common_grid()
    assert np.all(np.isin(data.pooled_grid, pgrid))


def test_noise_scale_matches_s_over_r():
    cfg = SimConfig(n=200, p=40, s=np.sqrt(5.0), r=2.0, seed=3)
    data = sim_gfd(cfg)
    resid = np.concatenate([c.raw - c.truth for c in data.curves])
    assert abs(resid.std() - cfg.noise_sd) < 0.03 * cfg.noise_sd
    assert cfg.noise_sd == pytest.approx(np.sqrt(5.0) / 2.0)


def test_infinite_signal_to_noise_gives_clean_curves():
    data = sim_gfd(SimConfig(n=3, p=10, r=1e12, seed=4))
    for curve in data.curves:
        np.testing.assert_allclose(curve.raw, curve.truth, atol=1e-9)


def test_true_covariance_diagonals():
    stat = sim_gfd(SimConfig(n=2, p=15, s=2.0, stat=True, seed=6))
    np.testing.assert_allclose(np.diag(stat.true_cov.mat), 4.0, atol=1e-6)
    nonstat = sim_gfd(SimConfig(n=2, p=15, s=2.0, stat=False, seed=6))
    t = nonstat.pooled_grid
    np.testing.assert_allclose(np.diag(nonstat.true_cov.mat), 4.0 * (t + 0.5) ** 2, atol=1e-6)
    np.testing.assert_allclose(nonstat.true_mean, true_mean_function(False)(t))


def test_random_grids_are_per_curve():
    cfg = SimConfig(n=6, p=12, seed=7)
    data = sim_gfd_rgrid(cfg)
    assert data.true_cov is None
    assert data.pooled_grid.size == 6 * 12
    for a, b in zip(data.curves[:-1], data.curves[1:]):
        assert not np.array_equal(a.grid, b.grid)
        assert np.all((a.grid >= cfg.au) & (a.grid <= cfg.bu))
        assert np.all(np.diff(a.grid) > 0)


def test_signal_marginal_scale():
    # With many curves the pointwise deviation of truth from the mean
    # function has standard deviation s.
    cfg = SimConfig(n=400, p=5, s=2.0, seed=8)
    data = sim_gfd(cfg)
    dev = np.stack([c.truth for c in data.curves]) - data.true_mean
    np.testing.assert_allclose(dev.std(axis=0), 2.0, rtol=0.15)


def test_config_validation():
    with pytest.raises(ValueError, match="au < bu"):
        SimConfig(au=1.0, bu=0.0)
    with pytest.raises(ValueError, match="dense"):
        SimConfig(dense=0.0)
    with pytest.raises(ValueError, match="nonnegative domain"):
        SimConfig(stat=False, au=-1.0, bu=1.0)
    with pytest.raises(ValueError, match="at least 2"):
        sim_gfd(SimConfig(p=3, dense=0.34, cgrid=False))


def test_curve_and_dataset_validation():
    grid = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="match the curve grid"):
        Curve(grid=grid, raw=np.zeros(3))
    with pytest.raises(ValueError, match="match the curve grid"):
        Curve(grid=grid, raw=np.zeros(2), truth=np.zeros(3))
    with pytest.raises(ValueError, match="at least one curve"):
        FunctionalDataset(curves=[])
    with pytest.raises(ValueError, match="sorted union"):
        FunctionalDataset(
            curves=[Curve(grid=grid, raw=np.zeros(2))], pooled_grid=np.array([0.0, 2.0])
        )
    good = Curve(grid=grid, raw=np.zeros(2), truth=np.zeros(2))
    with pytest.raises(ValueError, match=r"curve 1 has a non-finite raw value \(nan\) at position 1"):
        FunctionalDataset(curves=[good, Curve(grid=grid, raw=np.array([0.0, np.nan]))])
    with pytest.raises(ValueError, match=r"curve 0 has a non-finite truth value \(inf\) at position 0"):
        FunctionalDataset(curves=[Curve(grid=grid, raw=np.zeros(2), truth=np.array([np.inf, 0.0]))])
