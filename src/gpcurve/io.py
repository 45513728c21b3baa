"""Versioned file formats and the run configuration.

Datasets and results are JSON; bulky MCMC draws go to an optional binary
sidecar directory next to the results file.  All writes are atomic
(write to a temp name in the same directory, then rename).

A results file names its estimates by method (``ESTIMATE_KEYS``) and
records the fingerprint of the dataset it was fitted to
(``dataset_sha256``, format 1.1).  From format 1.2 babf results keep no
basis rows: they follow from ``knots``, ``tau`` and that dataset.  Readers
compare the major version only, so files of format 1.0 and 1.1 still load.
``curve_fits`` is the one reader of the curve fits, and refuses a results
file fitted to another dataset.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gpcurve.datagen import Curve, FunctionalDataset
from gpcurve.gridutil import default_lambda_grid, grid_positions
from gpcurve.results import SmoothResult
from gpcurve.stochastic import SpdMatrix

__all__ = [
    "ESTIMATE_KEYS",
    "RunConfig",
    "UnsupportedFeatureError",
    "check_same_dataset",
    "curve_fits",
    "dataset_sha256",
    "estimate",
    "load_dataset",
    "load_results",
    "load_sidecar_matrix",
    "read_matrix",
    "save_dataset",
    "save_results",
    "write_matrix",
]

DATASET_FORMAT = "gpcurve-dataset"
RESULTS_FORMAT = "gpcurve-results"
FORMAT_VERSION = "1.0"
RESULTS_VERSION = "1.2"

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


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: Path, write, *, text: bool = False) -> None:
    """Write a file through ``write(handle)``, a text handle with ``text``,
    into a temporary file in the same directory, then rename it."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            mode = dict(mode="w", encoding="utf-8", newline="") if text else dict(mode="wb")
            with os.fdopen(fd, **mode) as handle:
                write(handle)
                # mkstemp creates 0600; give the file the mode a plain open would.
                os.fchmod(handle.fileno(), 0o666 & ~_umask())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        # Name the file asked for, not the temporary one.
        raise OSError(err.errno, err.strerror, str(path)) from err


def _atomic_write_json(path: Path, payload: dict) -> None:
    """``json.dumps(payload, indent=1)`` and a newline, streamed to the file
    without building the string."""

    def write(handle):
        json.dump(payload, handle, indent=1)
        handle.write("\n")

    _atomic_write(path, write, text=True)


def write_matrix(path, mat: np.ndarray) -> None:
    """Write a 2-d float64 matrix: 16-byte header, row-major little-endian.

    The header and then the matrix's own buffer are written, so a
    C-contiguous little-endian float64 matrix is not copied.
    """
    mat = np.ascontiguousarray(np.asarray(mat, dtype="<f8"))
    if mat.ndim != 2:
        raise ValueError("write_matrix expects a 2-d array")
    header = MATRIX_MAGIC + struct.pack("<II", mat.shape[0], mat.shape[1])

    def write(handle):
        handle.write(header)
        handle.write(mat)

    _atomic_write(path, write)


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
        try:
            curves.append(
                Curve(
                    grid=np.asarray(entry["t"], dtype=float),
                    raw=np.asarray(entry["x"], dtype=float),
                    truth=None
                    if "truth" not in entry
                    else np.asarray(entry["truth"], dtype=float),
                )
            )
        except ValueError as err:
            raise ValueError(f"curve {i} in {path}: {err}") from err
    meta = payload.get("meta", {})
    if "domain" not in meta or len(meta["domain"]) != 2:
        raise ValueError(f"{path} meta must carry a two-element 'domain'")
    true_mean = meta.get("true_mean")
    true_cov = meta.get("true_cov")
    data = FunctionalDataset(
        curves=curves,
        true_mean=None if true_mean is None else np.asarray(true_mean, dtype=float),
        # numpy's factor refuses what LAPACK's would, without importing
        # scipy.linalg; nothing reads the factor's bits.
        true_cov=None
        if true_cov is None
        else SpdMatrix.from_matrix(
            np.asarray(true_cov, dtype=float), name="stored covariance", factor=np.linalg.cholesky
        ),
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


def _named(*entries) -> tuple[tuple[str, str], ...]:
    """(field, key) pairs; a bare name is both."""
    return tuple((e, e) if isinstance(e, str) else e for e in entries)


_SCALARS = ("rn", "rn_CI", "rs", "rs_CI", "rho", "nu", "pmin_vec")

# The estimates of a results file: (SmoothResult field, file key) per
# method, in write order.  The first three are each curve's fit and its 95%
# band, on the results grid for bhm and on the curve's own grid for babf.
# babf's grid-space keys carry the `_cgrid` suffix of its evaluation grid.
ESTIMATE_KEYS = {
    "bhm": _named(
        "Z", "Z_CL", "Z_UL", "Sigma", "Sigma_CL", "Sigma_UL", "Sigma_SE", "mu", "mu_CI",
        *_SCALARS,
    ),
    "babf": _named(
        "Zt", "Zt_CL", "Zt_UL",
        ("Z", "Z_cgrid"), ("Z_CL", "Z_cgrid_CL"), ("Z_UL", "Z_cgrid_UL"),
        ("Sigma", "Sigma_cgrid"), ("Sigma_CL", "Sigma_cgrid_CL"), ("Sigma_UL", "Sigma_cgrid_UL"),
        "Sigma_SE", ("mu", "mu_cgrid"), ("mu_CI", "mu_cgrid_CI"),
        "Zeta", "Zeta_CL", "Zeta_UL",
        "Sigma_zeta", "Sigma_zeta_CL", "Sigma_zeta_UL", "Sigma_zeta_SE", "mu_zeta", "mu_zeta_CI",
        "knots", "tau",
        *_SCALARS,
    ),
}


def _key(method: str, field: str) -> str:
    return dict(ESTIMATE_KEYS[method])[field]


def _fit_keys(method: str) -> list[str]:
    return [key for _, key in ESTIMATE_KEYS[method][:3]]


def dataset_sha256(data: FunctionalDataset) -> str:
    """Fingerprint of a dataset as loaded: for each curve its point count
    (uint64), then its grid, then its raw values (float64), all little-endian."""
    digest = hashlib.sha256()
    for curve in data.curves:
        digest.update(struct.pack("<Q", curve.grid.size))
        digest.update(np.ascontiguousarray(curve.grid, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(curve.raw, dtype="<f8").tobytes())
    return digest.hexdigest()


def save_results(
    path,
    result: SmoothResult,
    config: RunConfig,
    data: FunctionalDataset,
    sidecar: dict | None = None,
) -> None:
    """Write the results of fitting ``data``; ``sidecar`` (chain draw
    matrices) is optional.

    ``sidecar`` maps relative file names to 2-d arrays; they land in a
    ``<stem>.draws`` directory next to the results file, described under
    the results' ``draws`` key.
    """
    path = Path(path)
    payload = {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "method": result.method,
        "dataset_sha256": dataset_sha256(data),
        "config": config.to_dict(),
        "runtime_seconds": result.runtime_seconds,
        "grid": result.grid.tolist(),
        "estimates": {
            key: _listify(getattr(result, field)) for field, key in ESTIMATE_KEYS[result.method]
        },
        "draws": None,
    }
    if sidecar:
        draws_dir = path.with_name(path.stem + ".draws")
        draws_dir.mkdir(exist_ok=True)
        entries = {}
        for name, spec in sidecar.items():
            write_matrix(draws_dir / name, spec["matrix"])
            entries[name] = {k: _listify(v) for k, v in spec.items() if k != "matrix"}
        payload["draws"] = {"dir": draws_dir.name, "files": entries}
    _atomic_write_json(path, payload)


def load_results(path) -> dict:
    """Read a results file; returns the payload with the grid as an array.

    Raises ``ValueError`` naming the file and the key when the method, the
    grid, the estimates, the curve fits or the fit p-values are missing.
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
    if method not in ESTIMATE_KEYS:
        raise ValueError(
            f"{path} has method {method!r}, expected one of {sorted(ESTIMATE_KEYS)}"
        )
    est = payload["estimates"]
    if not isinstance(est, dict):
        raise ValueError(f"{path} has no 'estimates' object")
    for key in (*_fit_keys(method), _key(method, "pmin_vec")):
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


def estimate(payload: dict, field: str) -> np.ndarray | None:
    """The estimate of SmoothResult ``field`` in a loaded results file, under
    whichever key its method writes it; None when the file has none."""
    value = payload["estimates"].get(_key(payload["method"], field))
    return None if value is None else np.asarray(value, dtype=float)


def curve_fits(
    payload: dict, data: FunctionalDataset, data_path
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each curve's (fit, lower, upper) on the curve's own grid, from a
    loaded results file and the dataset at ``data_path``.

    Raises ``ValueError`` naming both files when the results were fitted to
    another dataset: by the recorded fingerprint (format 1.1), and by the
    curve count and each curve's grid, naming the curve.
    """
    path = payload["_path"]
    recorded = payload.get("dataset_sha256")
    if recorded is not None and recorded != dataset_sha256(data):
        raise ValueError(
            f"{path} was fitted to another dataset than {data_path} (dataset_sha256 differs)"
        )
    rows = [payload["estimates"][key] for key in _fit_keys(payload["method"])]
    if len(rows[0]) != data.n_curves:
        raise ValueError(
            f"{path} holds fits of {len(rows[0])} curves, {data_path} has {data.n_curves}"
        )
    fits = []
    if payload["method"] == "babf":
        for i, curve in enumerate(data.curves):
            fit = tuple(np.asarray(r[i], dtype=float) for r in rows)
            if any(f.shape != curve.grid.shape for f in fit):
                raise ValueError(
                    f"curve {i}: {path} holds a fit of {fit[0].size} points, "
                    f"{data_path} has {curve.grid.size}"
                )
            fits.append(fit)
        return fits
    grid = payload["grid"]
    mats = [np.asarray(r, dtype=float) for r in rows]
    if any(m.shape != (data.n_curves, grid.size) for m in mats):
        raise ValueError(f"{path} holds curve fits that do not match its grid")
    for i, curve in enumerate(data.curves):
        idx = grid_positions(grid, curve.grid, f"curve {i} of {data_path}", f"the grid of {path}")
        fits.append(tuple(m[i, idx] for m in mats))
    return fits


def check_same_dataset(payloads) -> None:
    """Refuse loaded results files whose recorded datasets differ, naming
    two of them."""
    recorded = [(p["dataset_sha256"], p["_path"]) for p in payloads if p.get("dataset_sha256")]
    for sha, path in recorded[1:]:
        if sha != recorded[0][0]:
            raise ValueError(
                f"{recorded[0][1]} and {path} were fitted to different datasets; "
                "diagnose one dataset at a time"
            )
