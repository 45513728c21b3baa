import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from gpcurve.bhm import bhm_run
from gpcurve.datagen import SimConfig, sim_gfd
from gpcurve.empirical import build_hyperparams, empirical_estimates
from gpcurve import io
from gpcurve.io import (
    ESTIMATE_KEYS,
    MATRIX_MAGIC,
    RunConfig,
    UnsupportedFeatureError,
    curve_fits,
    dataset_sha256,
    load_dataset,
    load_results,
    load_sidecar_matrix,
    read_matrix,
    save_dataset,
    save_results,
    write_matrix,
)
from gpcurve.results import SmoothResult
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


def test_dataset_refuses_a_stored_covariance_that_is_not_spd(tmp_path, small_data):
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, 1.6))
    payload = json.loads(path.read_text())
    cov = np.asarray(payload["meta"]["true_cov"])
    back, _ = load_dataset(path)
    np.testing.assert_allclose(back.true_cov.chol @ back.true_cov.chol.T, cov, atol=1e-12)

    bad = {
        "not symmetric": cov + np.triu(np.full(cov.shape, 0.1), k=1),
        "infs or NaNs": np.where(np.eye(cov.shape[0]) > 0, np.nan, cov),
        "not positive definite": -np.eye(cov.shape[0]),
    }
    for message, mat in bad.items():
        payload["meta"]["true_cov"] = mat.tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises((ValueError, np.linalg.LinAlgError), match=message):
            load_dataset(path)


def test_dataset_requires_domain(tmp_path, small_data):
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, 1.6))
    payload = json.loads(path.read_text())
    del payload["meta"]["domain"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="domain"):
        load_dataset(path)


def test_writers_stream_the_bytes_of_dumps_and_tobytes(tmp_path, small_data):
    payload = {
        "a": [1.5, 0.1, 2e-300, float("nan"), -0.0],
        "b": {"\u00e9": None, "c": [[1, 2], []]},
    }
    io._atomic_write_json(tmp_path / "p.json", payload)
    assert (tmp_path / "p.json").read_bytes() == (json.dumps(payload, indent=1) + "\n").encode()
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, 1.6))
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"

    rng = np.random.default_rng(0)
    for mat in (
        rng.normal(size=(7, 3)),
        rng.normal(size=(3, 7)).T,
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.empty((0, 4)),
    ):
        write_matrix(tmp_path / "m.bin", mat)
        want = np.ascontiguousarray(mat, dtype="<f8")
        header = MATRIX_MAGIC + struct.pack("<II", *want.shape)
        assert (tmp_path / "m.bin").read_bytes() == header + want.tobytes()


def test_writing_a_matrix_makes_no_copy_of_it(tmp_path):
    mat = np.random.default_rng(0).normal(size=(512, 1024))
    assert mat.nbytes == 4 << 20
    write_matrix(tmp_path / "warm.bin", mat)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        write_matrix(tmp_path / "m.bin", mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_results_round_trip_with_sidecar(tmp_path, small_data, bhm_result):
    draws, result = bhm_result
    cfg = RunConfig(smethod="bhm", M=30, Burnin=10)
    path = tmp_path / "res.json"
    sidecar = {
        "monitored_chain0.bin": {
            "matrix": np.column_stack([draws.precision, draws.sigma_s2]),
            "names": ["noise_precision", "sigma_s2"],
        }
    }
    save_results(path, result, cfg, small_data, sidecar=sidecar)

    payload = load_results(path)
    assert payload["method"] == "bhm"
    np.testing.assert_array_equal(payload["grid"], result.grid)
    assert RunConfig(**payload["config"]) == cfg
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


def test_results_without_sidecar(tmp_path, small_data, bhm_result):
    _, result = bhm_result
    path = tmp_path / "res.json"
    save_results(path, result, RunConfig(smethod="bhm", M=30, Burnin=10), small_data)
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
        save_results(
            tmp_path / "res.json", result, RunConfig(smethod="bhm"), small_data, sidecar=sidecar
        )
        assert os.umask(0o022) == 0o022  # writing left the umask as it was
    finally:
        os.umask(previous)
    for path in (
        tmp_path / "d.json",
        tmp_path / "res.json",
        tmp_path / "res.draws" / "monitored_chain0.bin",
    ):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


def test_atomic_write_errors_name_the_target_not_the_temporary_file(tmp_path, small_data):
    target = tmp_path / "nodir" / "d.json"
    with pytest.raises(FileNotFoundError) as info:
        save_dataset(target, small_data, domain=(0.0, 1.6))
    assert str(target) in str(info.value) and ".tmp" not in str(info.value)
    assert not target.parent.exists()


def test_a_bad_curve_grid_is_named_by_curve_and_file(tmp_path, small_data):
    path = tmp_path / "d.json"
    save_dataset(path, small_data, domain=(0.0, 1.6))
    payload = json.loads(path.read_text())
    payload["curves"][2]["t"][1] = payload["curves"][2]["t"][0]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"curve 2 in {path}: curve grid has duplicate points"):
        load_dataset(path)


def test_estimate_keys_are_the_v1_layout():
    scalars = ["rn", "rn_CI", "rs", "rs_CI", "rho", "nu", "pmin_vec"]
    assert [key for _, key in ESTIMATE_KEYS["bhm"]] == [
        "Z", "Z_CL", "Z_UL", "Sigma", "Sigma_CL", "Sigma_UL", "Sigma_SE", "mu", "mu_CI",
        *scalars,
    ]
    assert [key for _, key in ESTIMATE_KEYS["babf"]] == [
        "Zt", "Zt_CL", "Zt_UL", "Z_cgrid", "Z_cgrid_CL", "Z_cgrid_UL", "Sigma_cgrid",
        "Sigma_cgrid_CL", "Sigma_cgrid_UL", "Sigma_SE", "mu_cgrid", "mu_cgrid_CI", "Zeta",
        "Zeta_CL", "Zeta_UL", "Sigma_zeta", "Sigma_zeta_CL", "Sigma_zeta_UL", "Sigma_zeta_SE",
        "mu_zeta", "mu_zeta_CI", "knots", "tau", *scalars,
    ]
    for pairs in ESTIMATE_KEYS.values():
        assert {field for field, _ in pairs} <= set(SmoothResult.__dataclass_fields__)


def test_results_record_the_dataset_and_curve_fits_refuse_another(tmp_path, small_data, bhm_result):
    _, result = bhm_result
    path = tmp_path / "res.json"
    save_results(path, result, RunConfig(smethod="bhm", M=30, Burnin=10), small_data)
    payload = load_results(path)
    assert payload["version"] == "1.2"
    assert payload["dataset_sha256"] == dataset_sha256(small_data)
    assert list(payload["estimates"]) == [key for _, key in ESTIMATE_KEYS["bhm"]]

    fits = curve_fits(payload, small_data, "d.json")
    for i, (curve, (fit, lo, hi)) in enumerate(zip(small_data.curves, fits)):
        cols = np.searchsorted(result.grid, curve.grid)
        np.testing.assert_array_equal(fit, result.Z[i, cols])
        np.testing.assert_array_equal(lo, result.Z_CL[i, cols])
        np.testing.assert_array_equal(hi, result.Z_UL[i, cols])

    other = sim_gfd(SimConfig(n=4, p=10, seed=8))
    with pytest.raises(ValueError, match=f"{path} was fitted to another dataset than other.json"):
        curve_fits(payload, other, "other.json")


def _v10(payload: dict) -> dict:
    """A loaded results payload as a format 1.0 file gives it: no fingerprint."""
    return {k: v for k, v in payload.items() if k != "dataset_sha256"}


def test_curve_fits_check_each_curve_of_a_v10_file(tmp_path, small_data, bhm_result):
    _, result = bhm_result
    path = tmp_path / "res.json"
    save_results(path, result, RunConfig(smethod="bhm", M=30, Burnin=10), small_data)
    payload = _v10(load_results(path))
    assert len(curve_fits(payload, small_data, "d.json")) == 4

    fewer = small_data.__class__(curves=small_data.curves[:3])
    with pytest.raises(ValueError, match=f"{path} holds fits of 4 curves, d.json has 3"):
        curve_fits(payload, fewer, "d.json")
    moved = [c.__class__(grid=c.grid + 1e-3, raw=c.raw) for c in small_data.curves]
    outside = f"curve 0 of d.json has grid points outside the grid of {path}"
    with pytest.raises(ValueError, match=outside):
        curve_fits(payload, small_data.__class__(curves=moved), "d.json")

    babf = {
        "method": "babf",
        "_path": path,
        "estimates": {
            key: [np.zeros(c.grid.size) for c in small_data.curves]
            for key in ("Zt", "Zt_CL", "Zt_UL")
        },
    }
    assert len(curve_fits(babf, small_data, "d.json")) == 4
    babf["estimates"]["Zt_UL"][3] = np.zeros(small_data.curves[3].grid.size + 1)
    with pytest.raises(ValueError, match=f"curve 3: {path} holds a fit of"):
        curve_fits(babf, small_data, "d.json")
