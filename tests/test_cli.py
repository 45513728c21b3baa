import json

import numpy as np
import pytest

from gpcurve import cli


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.json"
    rc = run("simulate", "--out", str(path), "--n", "8", "--p", "12", "--seed", "3")
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def bhm_results(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("cli") / "bhm.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(path),
        "--smethod", "bhm", "--M", "80", "--Burnin", "20", "--ws", "1.0",
        "--chains", "2", "--resid-thin", "4",
    )
    assert rc == 0
    return path


def test_simulate_same_seed_byte_identical(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert run("simulate", "--out", str(a), "--n", "5", "--p", "9", "--seed", "4") == 0
    assert run("simulate", "--out", str(b), "--n", "5", "--p", "9", "--seed", "4") == 0
    assert run("simulate", "--out", str(c), "--n", "5", "--p", "9", "--seed", "5") == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_prints_summary(tmp_path, capsys):
    out = tmp_path / "d.json"
    run("simulate", "--out", str(out), "--n", "5", "--p", "9", "--rgrid", "1")
    text = capsys.readouterr().out
    assert "5 curves" in text and "random grids" in text


def test_smooth_writes_results_and_sidecar(bhm_results, capsys):
    payload = json.loads(bhm_results.read_text())
    assert payload["method"] == "bhm"
    assert payload["config"]["chains"] == 2
    files = payload["draws"]["files"]
    assert set(files) == {
        "monitored_chain0.bin",
        "monitored_chain1.bin",
        "residuals_chain0.bin",
    }
    draws_dir = bhm_results.with_name(bhm_results.stem + ".draws")
    assert sorted(p.name for p in draws_dir.iterdir()) == sorted(files)


def test_smooth_no_draws(tmp_path, dataset, capsys):
    out = tmp_path / "nodraws.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out),
        "--smethod", "bhm", "--M", "60", "--Burnin", "20", "--no-draws",
    )
    assert rc == 0
    assert "noise precision" in capsys.readouterr().out
    assert json.loads(out.read_text())["draws"] is None
    assert not out.with_name(out.stem + ".draws").exists()

    capsys.readouterr()
    assert run("diagnose", str(out)) == 0
    text = capsys.readouterr().out
    assert "PSRF skipped" in text
    assert "fit p-values over 8 curves" in text


def test_smooth_babf_and_regress(tmp_path, dataset, capsys):
    out = tmp_path / "babf.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out),
        "--smethod", "babf", "--M", "60", "--Burnin", "20", "--m", "6",
        "--eval-grid-len", "15", "--ws", "1.0",
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "babf"
    assert len(payload["estimates"]["Zt"]) == 8
    assert len(payload["estimates"]["Zt_CL"]) == 8
    assert len(payload["grid"]) == 15

    capsys.readouterr()
    assert run("diagnose", str(out), "--data", str(dataset)) == 0
    text = capsys.readouterr().out
    assert "signal accuracy" in text
    assert "pointwise 95% band coverage of the true signals" in text
    assert "mean accuracy" in text

    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = run(
        "regress", "--data", str(dataset), "--results", str(out),
        "--n-train", "5", "--replicates", "3", "--grid-len", "20",
        "--out", str(report),
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "MSE vs true responses, 3 replicates" in text
    saved = json.loads(report.read_text())
    assert saved["format"] == "gpcurve-regression-report"
    assert saved["n_test"] == 3
    assert set(saved["cells"]) == {
        f"{m}/{i}/{s}"
        for m in ("scalar", "functional")
        for i in ("sampler", "css")
        for s in ("fitted", "predicted")
    }
    cell = saved["cells"]["scalar/sampler/predicted"]
    assert np.isfinite(cell["mean"]) and np.isfinite(cell["std"])


def test_diagnose_psrf_table_and_csv(tmp_path, dataset, bhm_results, capsys):
    prefix = str(tmp_path / "diag")
    rc = run("diagnose", str(bhm_results), "--data", str(dataset), "--csv-prefix", prefix)
    assert rc == 0
    text = capsys.readouterr().out
    assert "PSRF over 2 chains" in text
    assert "noise_precision" in text
    assert "signal accuracy" in text
    assert "band coverage" in text
    assert "mean accuracy" in text

    psrf_rows = (tmp_path / "diag_psrf.csv").read_text().strip().splitlines()
    assert psrf_rows[0] == "scalar,psrf"
    assert len(psrf_rows) == 9  # noise, scale, three mean and three cov scalars
    curve_rows = (tmp_path / "diag_curves.csv").read_text().strip().splitlines()
    assert curve_rows[0] == "curve,rmse_raw,rmse_fit,coverage"
    assert len(curve_rows) == 9


def test_diagnose_rejects_mixed_methods(tmp_path, dataset, bhm_results, capsys):
    babf_out = tmp_path / "babf.json"
    run(
        "smooth", "--data", str(dataset), "--out", str(babf_out),
        "--smethod", "babf", "--M", "40", "--Burnin", "10", "--m", "6", "--no-draws",
    )
    capsys.readouterr()
    rc = run("diagnose", str(bhm_results), str(babf_out))
    assert rc == cli.EXIT_INVALID
    assert "mix methods" in capsys.readouterr().err


def test_exit_codes(tmp_path, dataset, capsys):
    out = str(tmp_path / "x.json")
    data = str(dataset)
    assert run("smooth", "--data", data, "--out", out, "--smethod", "bgp") == 4
    assert run("smooth", "--data", data, "--out", out, "--smethod", "bfpca") == 4
    assert run("smooth", "--data", data, "--out", out, "--pace", "1") == 4
    assert run("smooth", "--data", data, "--out", out, "--M", "10", "--Burnin", "10") == 2
    assert run("smooth", "--data", str(tmp_path / "absent.json"), "--out", out) == 2
    assert run("diagnose", str(tmp_path / "absent.json")) == 2
    assert run("smooth", "--data", data, "--out", out, "--tau", "0.1,oops") == 2
    err = capsys.readouterr().err
    assert "out of scope" in err and "comma-separated" in err


def test_too_short_run_exits_2_before_writing(tmp_path, dataset, capsys):
    out = tmp_path / "short.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out), "--smethod", "bhm",
        "--M", "15", "--Burnin", "10",
    )
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "--M 15" in err and "--Burnin 10" in err and "--resid-thin 10" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["x", "truth"])
def test_non_finite_curve_value_exits_2_naming_the_curve(tmp_path, dataset, capsys, key):
    payload = json.loads(dataset.read_text())
    payload["curves"][7][key][3] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = run("smooth", "--data", str(bad), "--out", str(tmp_path / "fit.json"))
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "curve 7" in err and "position 3" in err and "non-finite" in err


def test_numeric_failure_exit_code(tmp_path, dataset, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("factorization failed")

    monkeypatch.setattr(cli, "bhm_run", boom)
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(tmp_path / "x.json"),
        "--smethod", "bhm", "--M", "40", "--Burnin", "10",
    )
    assert rc == cli.EXIT_NUMERIC
    assert "numerical error" in capsys.readouterr().err


def test_babf_smooth_passes_lambda_flags_to_the_estimates(tmp_path, dataset, monkeypatch):
    calls = []
    estimates = cli.empirical_estimates

    def spy(data, candidates=None, eval_grid=None):
        calls.append((candidates, eval_grid))
        return estimates(data, candidates=candidates, eval_grid=eval_grid)

    monkeypatch.setattr(cli, "empirical_estimates", spy)
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(tmp_path / "babf.json"),
        "--smethod", "babf", "--M", "30", "--Burnin", "10", "--m", "6",
        "--eval-grid-len", "15", "--ws", "1.0", "--no-draws",
        "--lamb-min", "0.95", "--lamb-max", "0.95",
    )
    assert rc == 0
    assert len(calls) == 1
    candidates, eval_grid = calls[0]
    np.testing.assert_array_equal(candidates, [0.95])
    assert eval_grid.size == 6
