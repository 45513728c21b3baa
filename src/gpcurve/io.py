"""Versioned file formats and the run configuration.

Datasets and results are JSON; bulky MCMC draws go to an optional binary
sidecar directory next to the results file.  All writes are atomic
(write to a temp name in the same directory, then rename).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gpcurve.datagen import Curve, FunctionalDataset
from gpcurve.gridutil import default_lambda_grid
from gpcurve.results import SmoothResult
from gpcurve.stochastic import SpdMatrix

__all__ = [
    "RunConfig",
    "UnsupportedFeatureError",
    "load_dataset",
    "load_results",
    "read_matrix",
    "save_dataset",
    "save_results",
    "write_matrix",
]

DATASET_FORMAT = "gpcurve-dataset"
RESULTS_FORMAT = "gpcurve-results"
FORMAT_VERSION = "1.0"

MATRIX_MAGIC = b"GPCVMAT1"  # 8 bytes; header is magic + uint32 rows + uint32 cols


class UnsupportedFeatureError(RuntimeError):
    """A requested option names functionality outside this package's scope."""


@dataclass
class RunConfig:
    """Smoothing run options; names and defaults match the CLI surface."""

    smethod: str = "babf"
    cgrid: int = 1
    mat: int = 1
    M: int = 10000
    Burnin: int = 2000
    w: float = 1.0
    ws: float = 0.1
    c: float = 1.0
    delta: float = 5.0
    nu: float | None = None
    rho: float | None = None
    pace: int = 0
    m: int = 20
    tau: list | None = None
    eval_grid: list | None = None
    trange: list | None = None
    lamb_min: float = 0.90
    lamb_max: float = 0.99
    lamb_step: float = 0.01
    resid_thin: int = 10
    chains: int = 1
    seed: int = 0

    KNOWN_METHODS = ("babf", "bhm", "bgp", "bfpca")

    def validate(self) -> None:
        if self.smethod not in self.KNOWN_METHODS:
            raise ValueError(
                f"unknown smethod {self.smethod!r}; expected one of {self.KNOWN_METHODS}"
            )
        if self.smethod in ("bgp", "bfpca"):
            raise UnsupportedFeatureError(
                f"smethod={self.smethod!r} is not implemented; out of scope"
            )
        if self.pace:
            raise UnsupportedFeatureError(
                "pace=1 (external principal-components pre-estimates) is not "
                "implemented; out of scope"
            )
        if self.M <= self.Burnin or self.Burnin < 0:
            raise ValueError(f"need M > Burnin >= 0, got M={self.M}, Burnin={self.Burnin}")
        if self.chains < 1:
            raise ValueError(f"chains must be at least 1, got {self.chains}")
        if self.resid_thin < 1:
            raise ValueError(f"resid_thin must be at least 1, got {self.resid_thin}")
        kept = self.M - self.Burnin
        if kept < self.resid_thin:
            raise ValueError(
                f"--M {self.M} with --Burnin {self.Burnin} keeps {kept} draws, fewer "
                f"than --resid-thin {self.resid_thin}: no residual draws would be kept "
                "for the fit p-values"
            )
        if not 0.0 < self.lamb_min <= self.lamb_max < 1.0:
            raise ValueError("need 0 < lamb_min <= lamb_max < 1")
        if self.lamb_step <= 0.0:
            raise ValueError("lamb_step must be positive")

    def lambda_candidates(self) -> np.ndarray:
        return default_lambda_grid(self.lamb_min, self.lamb_max, self.lamb_step)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            # mkstemp creates 0600; give the file the mode a plain open would.
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path: Path, payload: dict) -> None:
    _atomic_write_bytes(Path(path), (json.dumps(payload, indent=1) + "\n").encode())


def write_matrix(path, mat: np.ndarray) -> None:
    """Write a 2-d float64 matrix: 16-byte header, row-major little-endian."""
    mat = np.ascontiguousarray(np.asarray(mat, dtype="<f8"))
    if mat.ndim != 2:
        raise ValueError("write_matrix expects a 2-d array")
    header = MATRIX_MAGIC + struct.pack("<II", mat.shape[0], mat.shape[1])
    _atomic_write_bytes(Path(path), header + mat.tobytes())


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MATRIX_MAGIC:
        raise ValueError(f"{path} is not a matrix sidecar file")
    rows, cols = struct.unpack("<II", raw[8:16])
    expected = 16 + rows * cols * 8
    if len(raw) != expected:
        raise ValueError(
            f"{path} is truncated: header promises {rows}x{cols} "
            f"({expected} bytes), file has {len(raw)}"
        )
    return np.frombuffer(raw[16:], dtype="<f8").reshape(rows, cols).copy()


def _check_format(payload: dict, expected: str, path) -> None:
    fmt = payload.get("format")
    if fmt != expected:
        raise ValueError(f"{path} has format {fmt!r}, expected {expected!r}")
    version = str(payload.get("version", ""))
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise ValueError(
            f"{path} has major version {version!r}, this build reads {FORMAT_VERSION}"
        )


def save_dataset(path, data: FunctionalDataset, domain, sim_config: dict | None = None) -> None:
    """Write a dataset file; values survive a round trip bit-exactly."""
    curves = []
    for c in data.curves:
        entry = {"t": c.grid.tolist(), "x": c.raw.tolist()}
        if c.truth is not None:
            entry["truth"] = c.truth.tolist()
        curves.append(entry)
    meta: dict = {"domain": [float(domain[0]), float(domain[1])]}
    if sim_config is not None:
        meta["sim_config"] = sim_config
    if data.true_mean is not None:
        meta["true_mean"] = data.true_mean.tolist()
    if data.true_cov is not None:
        meta["true_cov"] = data.true_cov.mat.tolist()
    payload = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "curves": curves,
        "meta": meta,
    }
    _atomic_write_json(Path(path), payload)


def load_dataset(path) -> tuple[FunctionalDataset, dict]:
    """Read a dataset file back into a validated dataset plus its meta dict."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    _check_format(payload, DATASET_FORMAT, path)
    if not payload.get("curves"):
        raise ValueError(f"{path} contains no curves")
    curves = []
    for i, entry in enumerate(payload["curves"]):
        if "t" not in entry or "x" not in entry:
            raise ValueError(f"curve {i} in {path} is missing 't' or 'x'")
        curves.append(
            Curve(
                grid=np.asarray(entry["t"], dtype=float),
                raw=np.asarray(entry["x"], dtype=float),
                truth=None
                if "truth" not in entry
                else np.asarray(entry["truth"], dtype=float),
            )
        )
    meta = payload.get("meta", {})
    if "domain" not in meta or len(meta["domain"]) != 2:
        raise ValueError(f"{path} meta must carry a two-element 'domain'")
    true_mean = meta.get("true_mean")
    true_cov = meta.get("true_cov")
    data = FunctionalDataset(
        curves=curves,
        true_mean=None if true_mean is None else np.asarray(true_mean, dtype=float),
        true_cov=None
        if true_cov is None
        else SpdMatrix.from_matrix(np.asarray(true_cov, dtype=float), name="stored covariance"),
    )
    return data, meta


def _listify(value):
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _result_estimates(result: SmoothResult) -> dict:
    """Method-appropriate estimate names (grid-space names carry the
    evaluation-grid suffix for the basis-approximated sampler)."""
    if result.method == "bhm":
        mapping = {
            "Z": result.Z,
            "Z_CL": result.Z_CL,
            "Z_UL": result.Z_UL,
            "Sigma": result.Sigma,
            "Sigma_CL": result.Sigma_CL,
            "Sigma_UL": result.Sigma_UL,
            "Sigma_SE": result.Sigma_SE,
            "mu": result.mu,
            "mu_CI": result.mu_CI,
        }
    else:
        mapping = {
            "Zt": result.Zt,
            "Zt_CL": result.Zt_CL,
            "Zt_UL": result.Zt_UL,
            "Z_cgrid": result.Z,
            "Z_cgrid_CL": result.Z_CL,
            "Z_cgrid_UL": result.Z_UL,
            "Sigma_cgrid": result.Sigma,
            "Sigma_cgrid_CL": result.Sigma_CL,
            "Sigma_cgrid_UL": result.Sigma_UL,
            "Sigma_SE": result.Sigma_SE,
            "mu_cgrid": result.mu,
            "mu_cgrid_CI": result.mu_CI,
            "Zeta": result.Zeta,
            "Zeta_CL": result.Zeta_CL,
            "Zeta_UL": result.Zeta_UL,
            "Sigma_zeta": result.Sigma_zeta,
            "Sigma_zeta_CL": result.Sigma_zeta_CL,
            "Sigma_zeta_UL": result.Sigma_zeta_UL,
            "Sigma_zeta_SE": result.Sigma_zeta_SE,
            "mu_zeta": result.mu_zeta,
            "mu_zeta_CI": result.mu_zeta_CI,
            "Sigma_tau": result.Sigma_tau,
            "mu_tau": result.mu_tau,
            "Btau": result.Btau,
            "BT": result.BT,
            "knots": result.knots,
            "tau": result.tau,
        }
    mapping.update(
        {
            "rn": result.rn,
            "rn_CI": result.rn_CI,
            "rs": result.rs,
            "rs_CI": result.rs_CI,
            "rho": result.rho,
            "nu": result.nu,
            "pmin_vec": result.pmin_vec,
        }
    )
    return {k: _listify(v) for k, v in mapping.items()}


def save_results(
    path,
    result: SmoothResult,
    config: RunConfig,
    sidecar: dict | None = None,
) -> None:
    """Write a results file; ``sidecar`` (chain draw matrices) is optional.

    ``sidecar`` maps relative file names to 2-d arrays; they land in a
    ``<stem>.draws`` directory next to the results file, described under
    the results' ``draws`` key.
    """
    path = Path(path)
    payload = {
        "format": RESULTS_FORMAT,
        "version": FORMAT_VERSION,
        "method": result.method,
        "config": config.to_dict(),
        "runtime_seconds": result.runtime_seconds,
        "grid": result.grid.tolist(),
        "estimates": _result_estimates(result),
        "draws": None,
    }
    if sidecar:
        draws_dir = path.with_name(path.stem + ".draws")
        draws_dir.mkdir(parents=True, exist_ok=True)
        entries = {}
        for name, spec in sidecar.items():
            write_matrix(draws_dir / name, spec["matrix"])
            entries[name] = {k: _listify(v) for k, v in spec.items() if k != "matrix"}
        payload["draws"] = {"dir": draws_dir.name, "files": entries}
    _atomic_write_json(path, payload)


# The estimates that `diagnose` and `regress` read, per method.
_READ_ESTIMATES = {
    "bhm": ("Z", "Z_CL", "Z_UL", "pmin_vec"),
    "babf": ("Zt", "Zt_CL", "Zt_UL", "pmin_vec"),
}


def load_results(path) -> dict:
    """Read a results file; returns the payload with the grid as an array.

    Raises ``ValueError`` naming the file and the key when the method, the
    grid, the estimates or one of the estimates the CLI reads is missing.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a results file: expected a JSON object")
    _check_format(payload, RESULTS_FORMAT, path)
    for key in ("method", "grid", "estimates"):
        if payload.get(key) is None:
            raise ValueError(f"{path} has no {key!r}")
    method = payload["method"]
    if method not in _READ_ESTIMATES:
        raise ValueError(
            f"{path} has method {method!r}, expected one of {sorted(_READ_ESTIMATES)}"
        )
    est = payload["estimates"]
    if not isinstance(est, dict):
        raise ValueError(f"{path} has no 'estimates' object")
    for key in _READ_ESTIMATES[method]:
        if est.get(key) is None:
            raise ValueError(f"{path} has no estimate {key!r} ({method} results)")
    payload["grid"] = np.asarray(payload["grid"], dtype=float)
    payload["_path"] = path
    return payload


def load_sidecar_matrix(results_payload: dict, name: str) -> np.ndarray:
    """Read one sidecar matrix referenced by a loaded results payload."""
    draws = results_payload.get("draws")
    if not draws:
        raise ValueError("results file has no draws sidecar")
    if name not in draws["files"]:
        raise ValueError(f"sidecar has no entry {name!r}; has {sorted(draws['files'])}")
    base = results_payload["_path"].parent / draws["dir"]
    return read_matrix(base / name)
