import json

import numpy as np
import pytest

from gpcurve import cli, io, results
from gpcurve.bsplines import BSplineBasis, eval_basis
from gpcurve.diagnostics import pdm_pvalues


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


def test_residual_sidecar_gives_the_runs_fit_pvalues(bhm_results):
    # The sidecar is the residual matrix the run kept, each curve's points
    # side by side: split by curve, it gives the run's p-values bit for bit.
    payload = io.load_results(bhm_results)
    matrix = io.load_sidecar_matrix(payload, "residuals_chain0.bin")
    points = payload["draws"]["files"]["residuals_chain0.bin"]["curve_points"]
    # 60 kept sweeps, every fourth.
    assert matrix.shape == (15, sum(points))
    per_curve = np.hsplit(matrix, np.cumsum(points)[:-1])
    np.testing.assert_array_equal(pdm_pvalues(per_curve), io.estimate(payload, "pmin_vec"))


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


def test_diagnose_csv_names_only_the_tables_it_writes(tmp_path, dataset, capsys):
    fit = tmp_path / "one.json"
    run(
        "smooth", "--data", str(dataset), "--out", str(fit),
        "--smethod", "bhm", "--M", "40", "--Burnin", "10", "--resid-thin", "4",
    )
    prefix = tmp_path / "diag"
    capsys.readouterr()
    assert run("diagnose", str(fit), "--csv-prefix", str(prefix)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.startswith("wrote ")]
    assert lines[-1].startswith("no CSV table written")
    assert list(tmp_path.glob("diag*")) == []

    assert run("diagnose", str(fit), "--data", str(dataset), "--csv-prefix", str(prefix)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"wrote {prefix}_curves.csv"
    assert not [line for line in lines[:-1] if "CSV" in line or line.startswith("wrote ")]
    assert list(tmp_path.glob("diag*")) == [tmp_path / "diag_curves.csv"]


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


@pytest.mark.parametrize(
    "where, key",
    [(None, "estimates"), (None, "method"), ("estimates", "pmin_vec"), ("estimates", "Z")],
)
@pytest.mark.parametrize("command", ["diagnose", "regress"])
def test_results_missing_a_key_exit_2_naming_the_file_and_key(
    tmp_path, dataset, bhm_results, capsys, command, where, key
):
    payload = json.loads(bhm_results.read_text())
    del (payload if where is None else payload[where])[key]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    argv = {
        "diagnose": ("diagnose", str(broken)),
        "regress": ("regress", "--data", str(dataset), "--results", str(broken)),
    }[command]
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert str(broken) in err and repr(key) in err, err


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
    assert "out of scope" in err and "comma-separated" in err and "--tau" in err
    assert run("smooth", "--data", data, "--out", out, "--eval-grid", "0.1,oops") == 2
    assert "--eval-grid: expected comma-separated numbers" in capsys.readouterr().err


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


def test_several_chains_without_draws_exit_2_before_any_chain_runs(
    tmp_path, dataset, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("no chain may run")

    monkeypatch.setattr(cli, "bhm_run", never)
    out = tmp_path / "chains.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out), "--smethod", "bhm",
        "--M", "40", "--Burnin", "10", "--chains", "3", "--no-draws",
    )
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "--chains 3" in err and "--no-draws" in err
    assert not out.exists()
    assert not out.with_name(out.stem + ".draws").exists()


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


def test_babf_default_evaluation_grid_is_capped_above_100_pooled_points(
    tmp_path, monkeypatch, capsys
):
    data = tmp_path / "rdata.json"
    rc = run(
        "simulate", "--out", str(data), "--n", "6", "--p", "20", "--cgrid", "0",
        "--rgrid", "1", "--seed", "2",
    )
    assert rc == 0
    dataset, meta = io.load_dataset(data)
    pooled = dataset.pooled_grid
    assert pooled.size == 120 and cli.EVAL_GRID_CAP == 100

    def fit(name):
        out = tmp_path / name
        capsys.readouterr()
        rc = run(
            "smooth", "--data", str(data), "--out", str(out), "--smethod", "babf",
            "--m", "6", "--M", "30", "--Burnin", "10", "--ws", "1.0", "--no-draws",
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        payload.pop("runtime_seconds")
        return payload, capsys.readouterr().out

    capped, text = fit("capped.json")
    np.testing.assert_array_equal(capped["grid"], np.linspace(*meta["domain"], 100))
    assert len(capped["estimates"]["Sigma_cgrid"]) == 100
    assert "evaluated on 100 equally spaced points" in text and "has 120 points" in text

    # A pooled grid at the cap stays the default grid, with the bytes of a
    # run without any cap; one point more is capped.
    monkeypatch.setattr(cli, "EVAL_GRID_CAP", 120)
    at_cap, text = fit("at_cap.json")
    assert at_cap["grid"] == pooled.tolist() and "equally spaced" not in text
    monkeypatch.setattr(cli, "EVAL_GRID_CAP", 10**9)
    assert fit("uncapped.json")[0] == at_cap
    monkeypatch.setattr(cli, "EVAL_GRID_CAP", 119)
    over, text = fit("over.json")
    np.testing.assert_array_equal(over["grid"], np.linspace(*meta["domain"], 119))
    assert "evaluated on 119 equally spaced points" in text


@pytest.mark.parametrize(
    "extra, names",
    [
        (("--eval-grid", "5,6"), ("--eval-grid spans [5.0, 6.0]", "the domain of", "1.5707963267948966]")),
        (("--eval-grid", "0.1,0.9", "--trange", "0.2", "1.0"), ("--eval-grid", "--trange [0.2, 1.0]")),
        (("--eval-grid", "1,1"), ("--eval-grid has duplicate points at indices 0 and 1 (value 1.0)",)),
    ],
)
def test_babf_eval_grid_outside_the_domain_exits_2_before_the_estimates(
    tmp_path, dataset, monkeypatch, capsys, extra, names
):
    # eval_basis would clamp such points to the domain's ends, so the
    # results would be labelled with points they were not evaluated at.
    def never(*args, **kwargs):
        raise AssertionError("empirical estimates built for an invalid evaluation grid")

    monkeypatch.setattr(cli, "empirical_estimates", never)
    out = tmp_path / "fit.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out), "--smethod", "babf",
        "--m", "6", "--M", "30", "--Burnin", "10", *extra,
    )
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    for name in names:
        assert name in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--smethod", "bhm", "--eval-grid", "5,6"), "--eval-grid applies to babf only"),
        (("--smethod", "bhm", "--eval-grid-len", "7"), "--eval-grid-len applies to babf only"),
        (("--eval-grid-len", "0"), "--eval-grid-len 0: need at least 1 point"),
        (("--eval-grid-len", "-3"), "--eval-grid-len -3: need at least 1 point"),
        (
            ("--eval-grid", "0.1,0.5", "--eval-grid-len", "4"),
            "--eval-grid and --eval-grid-len both set the evaluation grid",
        ),
    ],
    ids=["bhm-eval-grid", "bhm-eval-grid-len", "len-0", "len-negative", "both-flags"],
)
def test_evaluation_grid_flags_that_cannot_apply_exit_2_before_the_dataset_is_read(
    tmp_path, dataset, monkeypatch, capsys, extra, message
):
    # bhm reports on the pooled grid only, and babf's grid comes from one
    # flag with at least one point: none of these may run a sampler.
    def never(*args, **kwargs):
        raise AssertionError("dataset read for evaluation-grid flags that cannot apply")

    monkeypatch.setattr(cli, "load_dataset", never)
    out = tmp_path / "fit.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out), "--M", "30", "--Burnin", "10",
        *extra,
    )
    assert rc == cli.EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_retained_draws_beyond_physical_memory_exit_2_before_allocating(tmp_path, dataset, capsys):
    # 10**12 retained sweeps of 8 curves on 12 points would need about
    # 1.8 PiB: the guard must refuse before any draws array is requested.
    if results.physical_memory_bytes() is None:
        pytest.skip("the OS does not report physical memory")
    out = tmp_path / "huge.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out), "--smethod", "bhm",
        "--M", str(10**12), "--Burnin", "0",
    )
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "--M 1000000000000" in err and "--Burnin 0" in err and "GiB" in err
    assert not out.exists()
    assert not out.with_name(out.stem + ".draws").exists()


METHOD_ARGS = {
    "bhm": ("--smethod", "bhm"),
    "babf": ("--smethod", "babf", "--m", "6", "--eval-grid-len", "15"),
}


@pytest.mark.parametrize("method", sorted(METHOD_ARGS))
def test_retained_draws_beyond_memory_exit_2_before_the_estimates(
    tmp_path, dataset, monkeypatch, capsys, method
):
    # The guard needs only the dataset's sizes and the flags, so it must
    # refuse before the empirical estimates are built.
    def never(*args, **kwargs):
        raise AssertionError("empirical estimates built for a run that cannot fit")

    monkeypatch.setattr(results, "physical_memory_bytes", lambda: 1 << 20)
    monkeypatch.setattr(cli, "empirical_estimates", never)
    out = tmp_path / "fit.json"
    rc = run(
        "smooth", "--data", str(dataset), "--out", str(out), *METHOD_ARGS[method],
        "--M", "10000", "--Burnin", "2000",
    )
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "keeping 8000 draws (--M 10000 minus --Burnin 2000) needs" in err, err
    assert "GiB of memory; lower --M or raise --Burnin" in err, err
    assert not out.exists()


@pytest.mark.parametrize("method", sorted(METHOD_ARGS))
def test_two_chain_smooth_writes_what_summarizing_every_chain_wrote(
    tmp_path, dataset, monkeypatch, method
):
    args = (
        "smooth", "--data", str(dataset), *METHOD_ARGS[method], "--M", "60",
        "--Burnin", "20", "--ws", "1.0", "--chains", "2", "--resid-thin", "4",
    )
    name = f"{method}_run"
    original = getattr(cli, name)
    asked = []

    def spy(*a, **kw):
        asked.append(kw["summarize"])
        return original(*a, **kw)

    monkeypatch.setattr(cli, name, spy)
    fast = tmp_path / "fast.json"
    assert run(*args, "--out", str(fast)) == 0
    assert asked == [True, False]

    def every_chain(*a, **kw):
        return original(*a, **dict(kw, summarize=True))

    monkeypatch.setattr(cli, name, every_chain)
    full = tmp_path / "full.json"
    assert run(*args, "--out", str(full)) == 0

    got, want = json.loads(fast.read_text()), json.loads(full.read_text())
    for payload in (got, want):
        payload.pop("runtime_seconds")
        payload.pop("draws")  # names the .draws directory
    assert got == want
    got_dir, want_dir = (p.with_name(p.stem + ".draws") for p in (fast, full))
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in got_dir.iterdir()) == names
    for fname in names:
        assert (got_dir / fname).read_bytes() == (want_dir / fname).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "smooth", "diagnose", "regress"])
def test_missing_output_directory_exits_2_before_any_work(
    tmp_path, dataset, bhm_results, monkeypatch, capsys, command
):
    def never(*args, **kwargs):
        raise AssertionError("no input may be read")

    monkeypatch.setattr(cli, "load_dataset", never)
    monkeypatch.setattr(cli, "load_results", never)
    missing = tmp_path / "nodir" / "a"
    data, fit = str(dataset), str(bhm_results)
    flag, argv = {
        "simulate": ("--out", ("simulate", "--out", str(missing / "d.json"))),
        "smooth": (
            "--out",
            ("smooth", "--data", data, "--out", str(missing / "fit.json"), "--smethod", "bhm",
             "--M", "30", "--Burnin", "10", "--no-draws"),
        ),
        "diagnose": ("--csv-prefix", ("diagnose", fit, "--csv-prefix", str(missing / "x"))),
        "regress": (
            "--out",
            ("regress", "--data", data, "--results", fit, "--out", str(missing / "r.json")),
        ),
    }[command]
    assert run(*argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert flag in err and str(missing) in err and ".tmp" not in err, err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--replicates", "1"), "--replicates 1"),
        (("--grid-len", "19"), "--grid-len 19"),
        (("--n-train", "0"), "--n-train 0"),
        # The dataset has 8 curves: training on all of them leaves none to test.
        (("--n-train", "8"), "--n-train 8"),
    ],
)
def test_regress_flags_below_their_minimum_exit_2_naming_the_flag(
    tmp_path, dataset, bhm_results, capsys, flags, named
):
    report = tmp_path / "report.json"
    argv = ("regress", "--data", str(dataset), "--results", str(bhm_results), "--n-train", "5")
    assert run(*argv, "--replicates", "2", "--grid-len", "20", *flags, "--out", str(report)) == 2
    assert named in capsys.readouterr().err
    assert not report.exists()


def test_results_of_another_dataset_exit_2_naming_both_files(
    tmp_path, dataset, bhm_results, capsys
):
    other = tmp_path / "other.json"
    assert run("simulate", "--out", str(other), "--n", "8", "--p", "12", "--seed", "4") == 0
    other_fit = tmp_path / "other_fit.json"
    assert run(
        "smooth", "--data", str(other), "--out", str(other_fit), "--smethod", "bhm",
        "--M", "40", "--Burnin", "10", "--ws", "1.0", "--no-draws",
    ) == 0
    capsys.readouterr()
    for argv, files in [
        (("diagnose", str(bhm_results), "--data", str(other)), (bhm_results, other)),
        (("regress", "--data", str(other), "--results", str(bhm_results), "--n-train", "5",
          "--replicates", "2", "--grid-len", "20"), (bhm_results, other)),
        (("diagnose", str(bhm_results), str(other_fit)), (bhm_results, other_fit)),
    ]:
        assert run(*argv) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert all(str(f) in err for f in files), err


def test_diagnose_and_regress_read_a_v10_results_file_as_before(
    tmp_path, dataset, bhm_results, capsys
):
    payload = json.loads(bhm_results.read_text())
    assert payload["version"] == "1.2" and "dataset_sha256" in payload
    del payload["dataset_sha256"]
    payload["version"] = "1.0"
    payload["draws"] = None
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    flags = ("--n-train", "5", "--replicates", "2", "--grid-len", "20")
    outputs = []
    for fit in (bhm_results, old):
        capsys.readouterr()
        assert run("diagnose", str(fit), "--data", str(dataset)) == 0
        assert run("regress", "--data", str(dataset), "--results", str(fit), *flags) == 0
        outputs.append(capsys.readouterr().out.split("fit p-values", 1)[1])
    assert outputs[0] == outputs[1]


def test_a_v11_babf_results_file_with_its_basis_keys_reads_as_before(tmp_path, dataset, capsys):
    # Format 1.1 babf results also kept each curve's basis rows BT, the
    # collocation matrix Btau, Sigma_tau and mu_tau; all four follow from
    # the knots, tau and the dataset, and no reader needs them.
    new = tmp_path / "babf.json"
    assert run(
        "smooth", "--data", str(dataset), "--out", str(new), "--smethod", "babf",
        "--M", "40", "--Burnin", "10", "--m", "6", "--eval-grid-len", "15", "--ws", "1.0",
    ) == 0
    payload = json.loads(new.read_text())
    est = payload["estimates"]
    assert payload["version"] == "1.2" and "knots" in est and "tau" in est
    assert not {"BT", "Btau", "Sigma_tau", "mu_tau"} & set(est)

    knots = np.asarray(est["knots"])
    basis = BSplineBasis(knots=knots, domain=(knots[0], knots[-1]))
    btau = eval_basis(basis, np.asarray(est["tau"]))
    data, _ = io.load_dataset(dataset)
    est["Sigma_tau"] = (btau @ np.asarray(est["Sigma_zeta"]) @ btau.T).tolist()
    est["mu_tau"] = (btau @ np.asarray(est["mu_zeta"])).tolist()
    est["Btau"] = btau.tolist()
    est["BT"] = [eval_basis(basis, c.grid).tolist() for c in data.curves]
    payload["version"] = "1.1"
    old = tmp_path / "old.json"  # beside new, so its draws entry still resolves
    old.write_text(json.dumps(payload))

    loaded = [io.load_results(path) for path in (new, old)]
    np.testing.assert_array_equal(io.estimate(loaded[1], "mu"), io.estimate(loaded[0], "mu"))
    fits = [io.curve_fits(p, data, str(dataset)) for p in loaded]
    for got, want in zip(fits[1], fits[0]):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    flags = ("--n-train", "5", "--replicates", "2", "--grid-len", "20")
    outputs = []
    for fit in (new, old):
        capsys.readouterr()
        assert run("diagnose", str(fit), "--data", str(dataset)) == 0
        assert run("regress", "--data", str(dataset), "--results", str(fit), *flags) == 0
        outputs.append(capsys.readouterr().out)
    assert "signal accuracy" in outputs[0] and "MSE vs true responses" in outputs[0]
    assert outputs[1] == outputs[0]
