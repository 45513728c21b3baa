"""Reference outputs of the CLI pipeline at small sizes, and the command that
writes them.

Each of the three bench workloads (common-bhm, subsets-bhm, random-babf) runs
in-process with that workload's `simulate` and `smooth` flags, at n=8 curves,
p=12 points and ``--M 200 --Burnin 100``, then `diagnose` (with ``--data``
and ``--csv-prefix``) and `regress` with two replicates.  :func:`collect`
gathers every number the pipeline writes, keyed by workload and source: the
dataset, each results estimate, each sidecar matrix, the diagnose CSV
tables, the regression report's cells, and diagnose's standard output
without the lines that name the files it wrote.

``tests/test_reference_outputs.py`` compares a fresh run with the committed
file.  Regenerate it from the root of a checkout with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference_outputs.py

and record every regeneration, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from gpcurve import cli
from gpcurve.io import load_results, load_sidecar_matrix

REFERENCE = Path(__file__).with_name("data") / "reference_outputs.npz"

N_CURVES, GRID_LEN, SWEEPS, BURNIN, SEED = 8, 12, 200, 100, 11

# The `simulate` and `smooth` flags of each workload of bench/run.py.
WORKLOADS = {
    "common-bhm": (
        ("--cgrid", "1", "--stat", "0"),
        ("--smethod", "bhm", "--mat", "0", "--ws", "0.01", "--chains", "1"),
    ),
    "subsets-bhm": (
        ("--cgrid", "0", "--stat", "1"),
        ("--smethod", "bhm", "--mat", "1", "--ws", "0.1", "--chains", "2"),
    ),
    "random-babf": (
        ("--cgrid", "0", "--rgrid", "1", "--stat", "1"),
        ("--smethod", "babf", "--mat", "1", "--ws", "1.0", "--m", "20",
         "--eval-grid-len", "40", "--chains", "2"),
    ),
}


def platform_key() -> str:
    """What decides the bits of a run: the machine, the numpy and scipy
    builds, the BLAS build and the CPU features numpy found."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return json.dumps(
        {
            "machine": platform.machine(),
            "system": platform.system(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration") or blas.get("name"),
            "simd": config.get("SIMD Extensions", {}).get("found"),
        },
        sort_keys=True,
    )


def _flat(value) -> np.ndarray:
    """Every number of a nested list, in order; None reads as NaN."""
    if isinstance(value, (list, tuple)):
        parts = [_flat(v) for v in value]
        return np.concatenate(parts) if parts else np.empty(0)
    return np.array([np.nan if value is None else value], dtype=float)


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"gpcurve {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _csv_columns(path: Path, prefix: str, into: dict) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    for j, name in enumerate(rows[0][1:], start=1):
        into[f"{prefix}/{rows[0][0]}:{name}"] = np.array([float(r[j]) for r in rows[1:]])


def collect(workdir: Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Run every workload in ``workdir``; return the numbers by name and
    diagnose's standard output by workload."""
    numbers: dict[str, np.ndarray] = {}
    texts: dict[str, str] = {}
    for name, (sim_flags, smooth_flags) in WORKLOADS.items():
        data, fit = workdir / f"{name}.json", workdir / f"{name}-fit.json"
        report, prefix = workdir / f"{name}-report.json", workdir / name
        _run("simulate", "--out", str(data), "--n", str(N_CURVES), "--p", str(GRID_LEN),
             *sim_flags, "--seed", str(SEED))
        _run("smooth", "--data", str(data), "--out", str(fit), *smooth_flags,
             "--M", str(SWEEPS), "--Burnin", str(BURNIN), "--seed", str(SEED))
        stdout = _run("diagnose", str(fit), "--data", str(data), "--csv-prefix", str(prefix))
        # Lines that name the files written hold the paths of this run.
        texts[name] = "".join(
            line for line in stdout.splitlines(keepends=True) if not line.startswith("wrote ")
        )
        _run("regress", "--data", str(data), "--results", str(fit), "--replicates", "2",
             "--n-train", "5", "--seed", str(SEED), "--out", str(report))

        dataset = json.loads(data.read_text())
        for i, curve in enumerate(dataset["curves"]):
            for key, value in sorted(curve.items()):
                numbers[f"{name}/dataset/curve{i}/{key}"] = _flat(value)
        for key in ("true_mean", "true_cov"):
            numbers[f"{name}/dataset/{key}"] = _flat(dataset["meta"].get(key))
        payload = load_results(fit)
        for key in sorted(payload["estimates"]):
            numbers[f"{name}/estimate/{key}"] = _flat(payload["estimates"][key])
        for fname in sorted(payload["draws"]["files"]):
            numbers[f"{name}/sidecar/{fname}"] = load_sidecar_matrix(payload, fname).ravel()
        for table in sorted(workdir.glob(f"{name}_*.csv")):
            _csv_columns(table, f"{name}/{table.stem[len(name) + 1:]}", numbers)
        for key, cell in sorted(json.loads(report.read_text())["cells"].items()):
            for field, value in sorted(cell.items()):
                numbers[f"{name}/report/{key}/{field}"] = _flat(value)
    return numbers, texts


def drift(numbers: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> dict[str, float]:
    """Each array's largest deviation from the reference, relative to the
    reference's largest magnitude (at least 1); NaNs must sit where the
    reference has them, and shapes must agree, else the drift is inf."""
    out = {}
    for key, want in ref.items():
        got = numbers.get(key)
        if got is None or got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
            out[key] = np.inf
            continue
        finite = ~np.isnan(want)
        if not finite.any():
            out[key] = 0.0
            continue
        scale = max(1.0, float(np.max(np.abs(want[finite]))))
        out[key] = float(np.max(np.abs(got[finite] - want[finite]))) / scale
    return out


def write(path: Path, workdir: Path) -> None:
    numbers, texts = collect(workdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        **{f"num:{k}": v for k, v in numbers.items()},
        **{f"text:{k}": np.array(v) for k, v in texts.items()},
        platform=np.array(platform_key()),
    )


def load(path: Path = REFERENCE) -> tuple[dict[str, np.ndarray], dict[str, str], str]:
    with np.load(path, allow_pickle=False) as ref:
        numbers = {k[4:]: ref[k] for k in ref.files if k.startswith("num:")}
        texts = {k[5:]: str(ref[k]) for k in ref.files if k.startswith("text:")}
        return numbers, texts, str(ref["platform"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write(REFERENCE, Path(tmp))
    numbers, texts, _ = load()
    print(f"wrote {REFERENCE}: {len(numbers)} arrays, "
          f"{sum(v.size for v in numbers.values())} numbers", file=sys.stderr)
