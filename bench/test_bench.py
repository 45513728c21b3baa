"""Tests of the benchmark's own statistics, output checks and tracing.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
from mcmc import ess, psrf

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    noise = gen.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.5, 0.9, 0.97])
def test_ess_of_ar1_chain_matches_closed_form(phi):
    n = 40000
    expected = n * (1.0 - phi) / (1.0 + phi)
    values = [ess(ar1(phi, n, seed)) for seed in range(4)]
    assert abs(np.mean(values) / expected - 1.0) < 0.15


def test_ess_of_iid_draws_is_near_n():
    n = 20000
    values = [ess(np.random.default_rng(seed).standard_normal(n)) for seed in range(4)]
    assert abs(np.mean(values) / n - 1.0) < 0.1


def test_ess_rejects_constant_chain():
    with pytest.raises(ValueError):
        ess(np.ones(100))


def test_psrf_is_one_for_same_law_and_large_for_shifted_chains():
    gen = np.random.default_rng(0)
    same = gen.standard_normal((2, 5000))
    assert abs(psrf(same) - 1.0) < 0.01
    shifted = same + np.array([[0.0], [1.0]])
    assert psrf(shifted) > 1.1


def test_tracer_self_time_subtracts_children():
    tracer = layers.Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("b", 5.0, 6.0, 0), ("c", 2.0, 3.0, 1)]
    totals = tracer.totals()
    assert totals["a"] == {"calls": 1, "total": 10.0, "self": 6.0}
    assert totals["b"] == {"calls": 2, "total": 4.0, "self": 3.0}
    assert totals["c"]["self"] == 1.0


def test_workloads_use_the_named_battery_scenarios():
    from tests.harness import GRID_LEN, N_CURVES, SCENARIOS, WORKING_GRID_LEN

    assert (run.N_CURVES, run.GRID_LEN) == (N_CURVES, GRID_LEN)
    by_name = {s.name: s for s in SCENARIOS}
    for wl in run.WORKLOADS.values():
        scenario = by_name[wl.scenario]
        flags = dict(zip(wl.smooth[::2], wl.smooth[1::2]))
        assert flags["--smethod"] == scenario.sampler
        assert float(flags["--ws"]) == scenario.ws
        assert (wl.flag("--mat"), wl.flag("--stat")) == (scenario.mat, scenario.stat)
        grids = {(1, 0): "common", (0, 0): "uncommon", (0, 1): "random"}
        assert grids[wl.flag("--cgrid"), wl.flag("--rgrid")] == scenario.grids
        if scenario.sampler == "babf":
            assert wl.flag("--m") == WORKING_GRID_LEN


def test_benchmark_json_names_what_the_benchmark_prints(tmp_path, monkeypatch):
    """A short traced pipeline reports exactly the per-layer metrics listed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert set(spec["end_to_end"][0]) == {"name", "unit", "better", "bound"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    import gpcurve.bhm

    original = gpcurve.bhm.bhm_step_signals
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    monkeypatch.setattr(run, "SWEEPS", 300)
    monkeypatch.setattr(run, "BURNIN", 100)
    tally, metrics = run.run_traced(run.WORKLOADS["subsets-bhm"], 3, tmp_path, tmp_path / "spans.csv")
    assert gpcurve.bhm.bhm_step_signals is original
    assert tally.attempted == 5
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert metrics["bhm.signals_ms"]["value"] > 0.0
    assert metrics["empirical.estimates_calls"]["value"] == 2
    assert metrics["babf.coeffs_ms"]["value"] == 0.0
    header, *rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert header == "id,name,start_s,end_s,parent"
    assert sum(",bhm.signals," in row for row in rows) == 2 * 300


@pytest.fixture(scope="module", params=["bhm", "babf"])
def fitted(request, tmp_path_factory):
    """A short real fit: dataset, results file and the spec it was made from."""
    from gpcurve import cli

    work = tmp_path_factory.mktemp(request.param)
    data, fit = work / "data.json", work / "fit.json"
    rgrid = request.param == "babf"
    sim = ["--cgrid", "0", "--rgrid", "1"] if rgrid else ["--cgrid", "1"]
    extra = ["--eval-grid-len", "40"] if rgrid else []
    spec = checks.SimSpec(30, 40, 5.0**0.5, 2.0, not rgrid, rgrid)
    assert cli.main(["simulate", "--out", str(data), "--s", repr(spec.s), "--r", "2", *sim, "--seed", "4"]) == 0
    assert cli.main([
        "smooth", "--data", str(data), "--out", str(fit), "--smethod", request.param,
        "--M", "1500", "--Burnin", "500", "--chains", "2", "--seed", "4", *extra,
    ]) == 0
    return data, fit, spec


def _corrupt(fit: Path, dest: Path, data: Path, how: str) -> Path:
    shutil.copytree(fit.with_name("fit.draws"), dest / "fit.draws", dirs_exist_ok=True)
    results = json.loads(fit.read_text())
    est = results["estimates"]
    raw = [c["x"] for c in json.loads(data.read_text())["curves"]]
    signal, lower, upper = ("Z", "Z_CL", "Z_UL") if results["method"] == "bhm" else ("Zt", "Zt_CL", "Zt_UL")
    if how == "raw signals":
        est[signal] = raw
    elif how == "collapsed bands":
        est[lower] = est[upper] = est[signal]
    elif how == "doubled precision":
        est["rn"] *= 2.0
    out = dest / "fit.json"
    out.write_text(json.dumps(results))
    return out


def test_checks_pass_a_real_fit(fitted):
    data, fit, spec = fitted
    assert checks.check_dataset(data, spec) == []
    problems, summary = checks.check_results(fit, data, spec, chains=2)
    assert problems == []
    assert summary.chains == 2 and summary.ess_min > 0.0


@pytest.mark.parametrize(
    "how, message",
    [
        ("raw signals", "signal rmse"),
        ("collapsed bands", "band coverage"),
        ("doubled precision", "noise precision"),
    ],
)
def test_checks_reject_a_corrupted_results_file(fitted, tmp_path, how, message):
    data, fit, spec = fitted
    corrupted = _corrupt(fit, tmp_path, data, how)
    problems, _ = checks.check_results(corrupted, data, spec, chains=2)
    assert any(message in p for p in problems), problems


def test_diagnose_check_catches_a_misprinted_psrf(fitted, capsys):
    from gpcurve import cli

    data, fit, spec = fitted
    _, summary = checks.check_results(fit, data, spec, chains=2)
    assert cli.main(["diagnose", str(fit), "--data", str(data)]) == 0
    printed = capsys.readouterr().out
    assert checks.check_diagnose(printed, summary) == []
    summary.psrf["sigma_s2"] += 0.01
    assert any("sigma_s2" in p for p in checks.check_diagnose(printed, summary))
