"""Output checks that read the program's files without the program's code.

Datasets, results, sidecars and regression reports are parsed here with
``json`` and ``struct`` alone, and every statistic the checks rest on is
recomputed from the stored truth.  Each check returns a list of failure
messages; an empty list means the output passed.

Tolerances are wide on purpose: a correct sampler that uses its random
numbers differently must still pass, while the corruptions exercised in
``test_bench.py`` (signals replaced by the raw data, bands collapsed to
the posterior mean, noise precision doubled) must not.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mcmc import ess, psrf

MATRIX_MAGIC = b"GPCVMAT1"

# Fitted-signal RMSE must be below this share of the raw-data RMSE.
RMSE_RATIO_MAX = 0.7
# Pointwise 95% band coverage of the true signals, averaged over curves.
COVERAGE_RANGE = (0.80, 0.995)
# Posterior mean noise precision relative to the simulated (s / r)^-2.
PRECISION_RATIO_RANGE = (0.75, 1.35)
PSRF_LIMIT = 1.1
# diagnose prints four decimals.
PRINTED_TOL = 6e-4


@dataclass(frozen=True)
class SimSpec:
    """What ``simulate`` was asked for, so the truth is known without defaults."""

    n: int
    p: int
    s: float
    r: float
    cgrid: bool
    rgrid: bool


@dataclass
class FitSummary:
    """Statistics of one results file, recomputed by the benchmark."""

    rmse_fit: float
    rmse_raw: float
    coverage: float
    precision: float
    psrf: dict[str, float] = field(default_factory=dict)
    ess_min: float = math.nan
    draws_per_chain: int = 0
    chains: int = 0


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:8] != MATRIX_MAGIC:
        raise ValueError(f"{path} is not a matrix sidecar")
    rows, cols = struct.unpack("<II", raw[8:16])
    if len(raw) != 16 + 8 * rows * cols:
        raise ValueError(f"{path} has the wrong size for {rows}x{cols}")
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, cols)


def _curves(dataset: dict) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    return [
        (np.asarray(c["t"], float), np.asarray(c["x"], float), np.asarray(c["truth"], float))
        for c in dataset["curves"]
    ]


def check_dataset(path, spec: SimSpec) -> list[str]:
    """The simulated dataset has the requested shape and noise level."""
    dataset = json.loads(Path(path).read_text())
    fails = []
    if dataset.get("format") != "gpcurve-dataset":
        return [f"dataset format is {dataset.get('format')!r}"]
    curves = _curves(dataset)
    if len(curves) != spec.n:
        fails.append(f"dataset has {len(curves)} curves, asked for {spec.n}")
    pooled = np.unique(np.concatenate([t for t, _, _ in curves]))
    for i, (t, x, z) in enumerate(curves):
        if not (t.shape == x.shape == z.shape) or t.size < 4:
            fails.append(f"curve {i} has mismatched or too few points")
        elif not (np.all(np.isfinite(x)) and np.all(np.isfinite(z)) and np.all(np.diff(t) > 0)):
            fails.append(f"curve {i} has non-finite values or an unsorted grid")
        if spec.cgrid and not np.array_equal(t, curves[0][0]):
            fails.append(f"curve {i} is off the common grid")
    if fails:
        return fails
    if not spec.rgrid and pooled.size != spec.p:
        fails.append(f"pooled grid has {pooled.size} points, asked for {spec.p}")
    if spec.rgrid and any(t.size != spec.p for t, _, _ in curves):
        fails.append(f"random-grid curves do not all have {spec.p} points")
    noise = np.concatenate([x - z for _, x, z in curves])
    noise_sd = float(np.std(noise))
    if not 0.8 < noise_sd / (spec.s / spec.r) < 1.25:
        fails.append(f"noise sd {noise_sd:.4f} is far from s/r = {spec.s / spec.r:.4f}")
    return fails


def _fitted_on_curve_grids(results: dict, curves) -> list[tuple[np.ndarray, ...]]:
    est = results["estimates"]
    out = []
    if results["method"] == "bhm":
        grid = np.asarray(results["grid"], float)
        Z, lo, hi = (np.asarray(est[k], float) for k in ("Z", "Z_CL", "Z_UL"))
        for i, (t, _, _) in enumerate(curves):
            idx = np.searchsorted(grid, t)
            out.append((Z[i, idx], lo[i, idx], hi[i, idx]))
    else:
        for i in range(len(curves)):
            out.append(tuple(np.asarray(est[k][i], float) for k in ("Zt", "Zt_CL", "Zt_UL")))
    return out


def _monitored_chains(results_path: Path, results: dict) -> tuple[list[str], list[np.ndarray]]:
    draws = results.get("draws")
    if not draws:
        return [], []
    base = results_path.parent / draws["dir"]
    names, chains = [], []
    for fname in sorted(draws["files"]):
        if fname.startswith("monitored_chain"):
            names = list(draws["files"][fname]["names"])
            chains.append(read_matrix(base / fname))
    return names, chains


def check_results(results_path, data_path, spec: SimSpec, chains: int) -> tuple[list[str], FitSummary | None]:
    """Accuracy, band coverage, noise precision, p-values and mixing of a fit."""
    results_path = Path(results_path)
    results = json.loads(results_path.read_text())
    curves = _curves(json.loads(Path(data_path).read_text()))
    if results.get("format") != "gpcurve-results":
        return [f"results format is {results.get('format')!r}"], None
    fitted = _fitted_on_curve_grids(results, curves)
    rmse_fit, rmse_raw, cover = [], [], []
    for (t, x, z), (fit, lo, hi) in zip(curves, fitted):
        rmse_fit.append(float(np.sqrt(np.mean((fit - z) ** 2))))
        rmse_raw.append(float(np.sqrt(np.mean((x - z) ** 2))))
        cover.append(float(np.mean((lo <= z) & (z <= hi))))
    summary = FitSummary(
        rmse_fit=float(np.mean(rmse_fit)),
        rmse_raw=float(np.mean(rmse_raw)),
        coverage=float(np.mean(cover)),
        precision=float(results["estimates"]["rn"]),
    )
    fails = []
    if not np.all(np.isfinite(np.concatenate([np.concatenate(f) for f in fitted]))):
        fails.append("fitted signals or bands are not finite")
    if not summary.rmse_fit < RMSE_RATIO_MAX * summary.rmse_raw:
        fails.append(
            f"signal rmse {summary.rmse_fit:.4f} is not below "
            f"{RMSE_RATIO_MAX} x raw rmse {summary.rmse_raw:.4f}"
        )
    if not COVERAGE_RANGE[0] <= summary.coverage <= COVERAGE_RANGE[1]:
        fails.append(f"band coverage {summary.coverage:.4f} is outside {COVERAGE_RANGE}")
    target = (spec.s / spec.r) ** -2
    ratio = summary.precision / target
    if not PRECISION_RATIO_RANGE[0] <= ratio <= PRECISION_RATIO_RANGE[1]:
        fails.append(f"noise precision {summary.precision:.4f} is far from {target:.4f}")
    pmin = np.asarray(results["estimates"].get("pmin_vec") or [np.nan], float)
    if pmin.size != len(curves) or not np.all((pmin >= 0.0) & (pmin <= 1.0)):
        fails.append("pmin_vec is missing or has entries outside [0, 1]")

    names, mats = _monitored_chains(results_path, results)
    if len(mats) != chains:
        fails.append(f"found {len(mats)} monitored chains, expected {chains}")
        return fails, summary
    summary.chains = chains
    summary.draws_per_chain = int(mats[0].shape[0])
    totals = np.sum([[ess(m[:, j]) for j in range(m.shape[1])] for m in mats], axis=0)
    summary.ess_min = float(np.min(totals))
    if chains >= 2:
        length = min(m.shape[0] for m in mats)
        for j, name in enumerate(names):
            summary.psrf[name] = psrf(np.stack([m[:length, j] for m in mats]))
        worst = max(summary.psrf, key=summary.psrf.get)
        if not summary.psrf[worst] < PSRF_LIMIT:
            fails.append(f"PSRF of {worst} is {summary.psrf[worst]:.4f}, not below {PSRF_LIMIT}")
    return fails, summary


_FLOAT = r"([-+0-9.eEinfa]+)"


def check_diagnose(stdout: str, summary: FitSummary) -> list[str]:
    """diagnose's printed PSRF, RMSE and coverage agree with the benchmark's."""
    fails = []
    match = re.search(rf"signal accuracy: rmse {_FLOAT} fitted vs {_FLOAT} raw", stdout)
    if match is None:
        fails.append("diagnose printed no signal accuracy line")
    else:
        printed = (float(match.group(1)), float(match.group(2)))
        if max(abs(printed[0] - summary.rmse_fit), abs(printed[1] - summary.rmse_raw)) > PRINTED_TOL:
            fails.append(f"diagnose rmse {printed} differs from {summary.rmse_fit:.4f}, {summary.rmse_raw:.4f}")
    match = re.search(rf"band coverage of the true signals: {_FLOAT}", stdout)
    if match is None:
        fails.append("diagnose printed no band coverage line")
    elif abs(float(match.group(1)) - summary.coverage) > PRINTED_TOL:
        fails.append(f"diagnose coverage {match.group(1)} differs from {summary.coverage:.4f}")
    for name, value in summary.psrf.items():
        match = re.search(rf"^  {re.escape(name)}\s+{_FLOAT}", stdout, re.MULTILINE)
        if match is None:
            fails.append(f"diagnose printed no PSRF for {name}")
        elif abs(float(match.group(1)) - value) > PRINTED_TOL:
            fails.append(f"diagnose PSRF of {name} is {match.group(1)}, benchmark has {value:.4f}")
    return fails


def check_regress(report_path, replicates: int) -> list[str]:
    """Every cell is finite, and the functional model gains from sampler input."""
    report = json.loads(Path(report_path).read_text())
    cells = report.get("cells", {})
    fails = []
    if report.get("replicates") != replicates or len(cells) != 8:
        return [f"report has {len(cells)} cells over {report.get('replicates')} replicates"]
    for key, cell in cells.items():
        if not (math.isfinite(cell["mean"]) and math.isfinite(cell["std"])):
            fails.append(f"regression cell {key} is not finite")
    for split in ("fitted", "predicted"):
        sampler = cells[f"functional/sampler/{split}"]["mean"]
        css = cells[f"functional/css/{split}"]["mean"]
        if not sampler < css:
            fails.append(
                f"functional {split} MSE {sampler:.4f} from sampler input is not "
                f"below {css:.4f} from spline input"
            )
    return fails
