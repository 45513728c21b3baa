import numpy as np
import pytest

from gpcurve.datagen import SimConfig, sim_gfd_rgrid
from gpcurve.protocol import run_regression_protocol


@pytest.fixture(scope="module")
def rgrid_data():
    cfg = SimConfig(n=30, p=15, r=4.0, seed=11)
    return sim_gfd_rgrid(cfg)


def _noisy_smooths(data, sd=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return [c.truth + sd * rng.standard_normal(c.grid.size) for c in data.curves]


def test_protocol_structure_and_determinism(rgrid_data):
    data = rgrid_data
    smoothed = _noisy_smooths(data)
    kwargs = dict(n_train=20, replicates=5, lamb=0.1, seed=3, grid_len=25)
    rep1 = run_regression_protocol(data, smoothed, **kwargs)
    rep2 = run_regression_protocol(data, smoothed, **kwargs)
    assert rep1.n_train == 20
    assert rep1.n_test == data.n_curves - 20
    assert rep1.replicates == 5
    keys = {(m, i, s) for m in ("scalar", "functional") for i in ("sampler", "css") for s in ("fitted", "predicted")}
    assert set(rep1.cells) == keys
    for key in keys:
        c1, c2 = rep1.cells[key], rep2.cells[key]
        assert c1.mean == c2.mean and c1.std == c2.std
        assert np.isfinite(c1.mean) and c1.mean > 0.0
        assert np.isfinite(c1.std)
    rep3 = run_regression_protocol(data, smoothed, n_train=20, replicates=5, lamb=0.1, seed=4, grid_len=25)
    assert rep3.cell("scalar", "css", "predicted").mean != rep1.cell("scalar", "css", "predicted").mean


def test_protocol_near_truth_smooths_beat_raw_css(rgrid_data):
    # Handing the protocol the truth (plus a whisker of error) must beat
    # spline smooths of noisy raw data in every cell.
    data = rgrid_data
    rep = run_regression_protocol(
        data, _noisy_smooths(data, sd=0.01), n_train=20, replicates=10, grid_len=25, seed=0
    )
    for model in ("scalar", "functional"):
        for split in ("fitted", "predicted"):
            assert rep.cell(model, "sampler", split).mean < rep.cell(model, "css", split).mean


def test_protocol_table_text(rgrid_data):
    data = rgrid_data
    rep = run_regression_protocol(data, _noisy_smooths(data), n_train=25, replicates=2, grid_len=25)
    text = rep.table_text()
    lines = text.splitlines()
    assert "25 train / 5 test" in lines[0]
    assert "sampler scalar" in lines[1] and "css functional" in lines[1]
    assert lines[2].startswith("fitted") and lines[3].startswith("predicted")
    cell = rep.cell("scalar", "sampler", "fitted")
    assert f"{cell.mean:.3f} ({cell.std:.3f})" in lines[2]


def test_protocol_validation(rgrid_data):
    data = rgrid_data
    smoothed = _noisy_smooths(data)
    with pytest.raises(ValueError, match="smoothed curves"):
        run_regression_protocol(data, smoothed[:-1])
    with pytest.raises(ValueError, match="n_train"):
        run_regression_protocol(data, smoothed, n_train=data.n_curves)
    bad = list(smoothed)
    bad[2] = bad[2][:-1]
    with pytest.raises(ValueError, match="observation grid"):
        run_regression_protocol(data, bad, n_train=10)
    stripped = data.curves[0].__class__(
        grid=data.curves[0].grid, raw=data.curves[0].raw, truth=None
    )
    broken = data.__class__(curves=[stripped] + list(data.curves[1:]), pooled_grid=data.pooled_grid)
    with pytest.raises(ValueError, match="truth"):
        run_regression_protocol(broken, smoothed, n_train=10)


def test_protocol_builds_one_design_per_input_and_model(rgrid_data, monkeypatch):
    # Every design builds one curvature penalty; replicates only select rows.
    from gpcurve import fregress

    calls = []
    penalty = fregress.curvature_penalty

    def counted(basis):
        calls.append(basis)
        return penalty(basis)

    monkeypatch.setattr(fregress, "curvature_penalty", counted)
    run_regression_protocol(rgrid_data, _noisy_smooths(rgrid_data), n_train=20, replicates=5, grid_len=25)
    assert len(calls) == 4
