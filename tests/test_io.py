import json
import os
import stat

import numpy as np
import pytest

from gpcurve.bhm import bhm_run
from gpcurve.datagen import SimConfig, sim_gfd
from gpcurve.empirical import build_hyperparams, empirical_estimates
from gpcurve.io import (
    RunConfig,
    UnsupportedFeatureError,
    load_dataset,
    load_results,
    load_sidecar_matrix,
    read_matrix,
    save_dataset,
    save_results,
    write_matrix,
)
from gpcurve.stochastic import RngStream


def test_matrix_round_trip_and_errors(tmp_path):
    path = tmp_path / "m.bin"
    mat = np.random.default_rng(0).normal(size=(7, 3))
    write_matrix(path, mat)
    np.testing.assert_array_equal(read_matrix(path), mat)

    with pytest.raises(ValueError, match="2-d"):
        write_matrix(path, np.ones(4))

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
    with pytest.raises(ValueError, match="not a matrix sidecar"):
        read_matrix(bad)

    cut = tmp_path / "cut.bin"
    cut.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_matrix(cut)


@pytest.fixture(scope="module")
def small_data():
    return sim_gfd(SimConfig(n=4, p=10, seed=7))


def test_dataset_round_trip_bit_exact(tmp_path, small_data):
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, np.pi / 2), sim_config={"n": 4, "stat": True})
    back, meta = load_dataset(path)
    assert back.n_curves == small_data.n_curves
    for a, b in zip(back.curves, small_data.curves):
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.raw, b.raw)
        np.testing.assert_array_equal(a.truth, b.truth)
    np.testing.assert_array_equal(back.true_mean, small_data.true_mean)
    np.testing.assert_array_equal(back.true_cov.mat, small_data.true_cov.mat)
    np.testing.assert_array_equal(back.pooled_grid, small_data.pooled_grid)
    assert meta["domain"] == [0.0, np.pi / 2]
    assert meta["sim_config"] == {"n": 4, "stat": True}


def test_dataset_without_truth(tmp_path, small_data):
    stripped = small_data.curves[0].__class__(
        grid=small_data.curves[0].grid, raw=small_data.curves[0].raw
    )
    data = small_data.__class__(curves=[stripped])
    path = tmp_path / "d.json"
    save_dataset(path, data, domain=(0.0, 1.6))
    back, meta = load_dataset(path)
    assert back.curves[0].truth is None
    assert back.true_mean is None and back.true_cov is None
    assert "sim_config" not in meta


def test_dataset_load_errors(tmp_path, small_data):
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, 1.6))

    payload = json.loads(path.read_text())
    payload["version"] = "2.0"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="major version"):
        load_dataset(path)

    payload["version"] = "1.3"  # same major: minor bumps stay readable
    path.write_text(json.dumps(payload))
    load_dataset(path)

    payload["format"] = "something-else"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="has format"):
        load_dataset(path)

    payload["format"] = "gpcurve-dataset"
    payload["curves"] = []
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="no curves"):
        load_dataset(path)

    payload["curves"] = [{"t": [0.0, 1.0]}]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="missing"):
        load_dataset(path)

    del payload["curves"]
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_dataset(path)


def test_dataset_requires_domain(tmp_path, small_data):
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, 1.6))
    payload = json.loads(path.read_text())
    del payload["meta"]["domain"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="domain"):
        load_dataset(path)


def test_atomic_write_leaves_no_temp_files(tmp_path, small_data):
    save_dataset(tmp_path / "d.json", small_data, domain=(0.0, 1.6))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


def test_run_config_validate():
    RunConfig().validate()
    RunConfig(smethod="bhm").validate()
    with pytest.raises(ValueError, match="unknown smethod"):
        RunConfig(smethod="nope").validate()
    with pytest.raises(UnsupportedFeatureError, match="out of scope"):
        RunConfig(smethod="bgp").validate()
    with pytest.raises(UnsupportedFeatureError, match="out of scope"):
        RunConfig(smethod="bfpca").validate()
    with pytest.raises(UnsupportedFeatureError, match="pace"):
        RunConfig(pace=1).validate()
    with pytest.raises(ValueError, match="M > Burnin"):
        RunConfig(M=100, Burnin=100).validate()
    with pytest.raises(ValueError, match="chains"):
        RunConfig(chains=0).validate()
    with pytest.raises(ValueError, match="resid_thin"):
        RunConfig(resid_thin=0).validate()
    with pytest.raises(ValueError, match="lamb_min"):
        RunConfig(lamb_min=0.99, lamb_max=0.9).validate()
    with pytest.raises(ValueError, match="lamb_step"):
        RunConfig(lamb_step=0.0).validate()
    RunConfig(M=20, Burnin=10, resid_thin=10).validate()
    with pytest.raises(ValueError, match="--M 15 with --Burnin 10 keeps 5 draws.*--resid-thin 10"):
        RunConfig(M=15, Burnin=10).validate()


def test_run_config_dict_round_trip():
    cfg = RunConfig(smethod="bhm", M=500, Burnin=100, nu=2.5, trange=[0.0, 1.0])
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_dict({"M": 10, "bogus": 1})


def test_lambda_candidates():
    np.testing.assert_allclose(
        RunConfig().lambda_candidates(), np.round(np.arange(0.90, 0.995, 0.01), 12)
    )
    np.testing.assert_allclose(
        RunConfig(lamb_min=0.5, lamb_max=0.5).lambda_candidates(), [0.5]
    )


@pytest.fixture(scope="module")
def bhm_result(small_data):
    est = empirical_estimates(small_data)
    hyper = build_hyperparams(est, ws=1.0)
    draws, result = bhm_run(
        small_data, hyper, est=est, M=30, burnin=10, rng=RngStream(5), resid_thin=5
    )
    return draws, result


def test_results_round_trip_with_sidecar(tmp_path, bhm_result):
    draws, result = bhm_result
    cfg = RunConfig(smethod="bhm", M=30, Burnin=10)
    path = tmp_path / "res.json"
    sidecar = {
        "monitored_chain0.bin": {
            "matrix": np.column_stack([draws.precision, draws.sigma_s2]),
            "names": ["noise_precision", "sigma_s2"],
        }
    }
    save_results(path, result, cfg, sidecar=sidecar)

    payload = load_results(path)
    assert payload["method"] == "bhm"
    np.testing.assert_array_equal(payload["grid"], result.grid)
    assert RunConfig.from_dict(payload["config"]) == cfg
    est = payload["estimates"]
    np.testing.assert_allclose(np.asarray(est["Z"]), result.Z)
    np.testing.assert_allclose(np.asarray(est["mu"]), result.mu)
    assert est["rn"] == result.rn
    assert est["rn_CI"] == list(result.rn_CI)

    mat = load_sidecar_matrix(payload, "monitored_chain0.bin")
    np.testing.assert_array_equal(mat[:, 0], draws.precision)
    assert payload["draws"]["files"]["monitored_chain0.bin"]["names"] == [
        "noise_precision",
        "sigma_s2",
    ]
    with pytest.raises(ValueError, match="no entry"):
        load_sidecar_matrix(payload, "missing.bin")


def test_results_without_sidecar(tmp_path, bhm_result):
    _, result = bhm_result
    path = tmp_path / "res.json"
    save_results(path, result, RunConfig(smethod="bhm", M=30, Burnin=10))
    payload = load_results(path)
    assert payload["draws"] is None
    with pytest.raises(ValueError, match="no draws sidecar"):
        load_sidecar_matrix(payload, "anything.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.json"]


def test_written_files_honour_the_umask(tmp_path, small_data, bhm_result):
    draws, result = bhm_result
    sidecar = {"monitored_chain0.bin": {"matrix": np.column_stack([draws.precision])}}
    previous = os.umask(0o022)
    try:
        save_dataset(tmp_path / "d.json", small_data, domain=(0.0, 1.6))
        save_results(tmp_path / "res.json", result, RunConfig(smethod="bhm"), sidecar=sidecar)
        assert os.umask(0o022) == 0o022  # writing left the umask as it was
    finally:
        os.umask(previous)
    for path in (
        tmp_path / "d.json",
        tmp_path / "res.json",
        tmp_path / "res.draws" / "monitored_chain0.bin",
    ):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
