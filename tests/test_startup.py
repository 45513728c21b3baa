"""Start-up budget of the CLI: each command imports only what it runs.

`diagnose` factors nothing and evaluates no special function, so it loads
no scipy module at all.  The spline kernels are the package's own, so no
command loads scipy.interpolate or the scipy.optimize it pulls in, and the
package reaches LAPACK through scipy's compiled module alone
(`stochastic._lapack`), so no command loads scipy.linalg or the
scipy.sparse it pulls in.  The checks run in fresh interpreters, since this
test process has long imported everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpcurve
from gpcurve import cli

# What no command loads.
HEAVY = ("scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
PACKAGE_DIR = Path(gpcurve.__file__).resolve().parent

# Runs `cli.main` on the given arguments (none: import only) and prints, on
# its last line, the exit code, which of HEAVY were imported, and every
# scipy module imported.
PROBE = f"""
import json, sys
from gpcurve import cli
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({{
    "rc": rc,
    "loaded": [m for m in {HEAVY!r} if m in sys.modules],
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}}))
"""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(PACKAGE_DIR.parent)
    return dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _probe(cwd: Path, *argv: str) -> dict:
    report = json.loads(_run(["-c", PROBE, *argv], cwd).stdout.splitlines()[-1])
    assert report["rc"] == cli.EXIT_OK
    return report


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("startup")


def test_importing_the_cli_loads_no_heavy_scipy_subpackage(workdir):
    assert _probe(workdir)["loaded"] == []


def test_simulate_and_diagnose_load_no_heavy_scipy_subpackage(workdir):
    sim = _probe(workdir, "simulate", "--out", "data.json", "--n", "6", "--p", "10", "--seed", "2")
    assert sim["loaded"] == []
    # The fit comes from `python -m gpcurve.cli`, the entry point that runs
    # the module as __main__, whose deferred callees must resolve as well.
    _run(
        [
            "-m", "gpcurve.cli", "smooth", "--data", "data.json", "--out", "fit.json",
            "--smethod", "bhm", "--M", "40", "--Burnin", "10", "--chains", "2",
            "--resid-thin", "2", "--seed", "2",
        ],
        workdir,
    )
    diag = _probe(workdir, "diagnose", "fit.json", "--data", "data.json")
    assert diag["loaded"] == []


@pytest.fixture(scope="module")
def random_grid_data(workdir):
    _run(
        [
            "-m", "gpcurve.cli", "simulate", "--out", "rdata.json", "--n", "6", "--p", "10",
            "--cgrid", "0", "--rgrid", "1", "--seed", "3",
        ],
        workdir,
    )
    return "rdata.json"


@pytest.mark.parametrize("smethod", ["bhm", "babf"])
def test_smooth_loads_no_interpolation_or_optimization(workdir, random_grid_data, smethod):
    # Nor scipy.linalg or scipy.sparse: the splines are evaluated on the
    # package's own kernels and the factorizations call LAPACK directly.
    fit = f"fit_{smethod}.json"
    report = _probe(
        workdir, "smooth", "--data", random_grid_data, "--out", fit, "--smethod", smethod,
        "--m", "6", "--M", "40", "--Burnin", "10", "--resid-thin", "2", "--seed", "3",
    )
    assert report["loaded"] == []
    assert "scipy.linalg._flapack" in report["scipy"]
    # regress smooths the inputs with splines and fits penalized B-spline
    # regressions, on the same kernels.
    report = _probe(
        workdir, "regress", "--data", random_grid_data, "--results", fit,
        "--replicates", "2", "--n-train", "4",
    )
    assert report["loaded"] == []


@pytest.mark.parametrize("smethod", ["bhm", "babf"])
def test_diagnose_loads_no_scipy_module(workdir, random_grid_data, smethod):
    fit = f"diag_{smethod}.json"
    _run(
        [
            "-m", "gpcurve.cli", "smooth", "--data", random_grid_data, "--out", fit,
            "--smethod", smethod, "--m", "6", "--M", "40", "--Burnin", "10", "--chains", "2",
            "--resid-thin", "2", "--seed", "3",
        ],
        workdir,
    )
    assert _probe(workdir, "diagnose", fit, "--data", random_grid_data)["scipy"] == []


def test_smooth_runs_under_cprofile(workdir):
    # cProfile executes the module as __main__ without registering it in
    # sys.modules, so the deferred callees must resolve through the running
    # module's own namespace.
    _run(["-m", "gpcurve.cli", "simulate", "--out", "prof_data.json", "--n", "6", "--p", "10"], workdir)
    _run(
        [
            "-m", "cProfile", "-o", "prof.out", "-m", "gpcurve.cli", "smooth",
            "--data", "prof_data.json", "--out", "prof_fit.json", "--smethod", "bhm",
            "--M", "30", "--Burnin", "10",
        ],
        workdir,
    )
    assert (workdir / "prof_fit.json").exists()


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _importers(*packages: str) -> list[str]:
    """The package's modules that import any of ``packages`` or their submodules."""
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert sources
    return [
        path.name
        for path in sources
        if any(m == p or m.startswith(p + ".") for m in _imported_modules(path) for p in packages)
    ]


def test_no_module_imports_scipy_stats():
    assert _importers("scipy.stats") == []


def test_no_module_imports_scipy_linalg_or_scipy_sparse():
    # LAPACK comes from scipy's compiled module, loaded by itself.
    assert _importers("scipy.linalg", "scipy.sparse") == []


# Loads the package's LAPACK routines in a fresh interpreter, with
# scipy.linalg imported before them ("before"), after them ("after"), or
# after a lookup of scipy's compiled module that finds nothing ("miss").
# Prints whether scipy.linalg and scipy.sparse stayed unloaded, the routines
# that are not the objects scipy.linalg hands out, whether
# scipy.linalg.cholesky gives the package's factor, and what css_fit raises
# on a NaN value.
LOADER_PROBE = """
import json, sys
import numpy as np
order = sys.argv[1]
if order == "before":
    import scipy.linalg
from gpcurve import css, stochastic
if order == "miss":
    stochastic._flapack_spec = lambda: None
routines = stochastic._lapack()
alone = not {"scipy.linalg", "scipy.sparse"} & set(sys.modules)
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs
names = stochastic._LAPACK_ROUTINES
others = [n for n in names if get_lapack_funcs((n,), dtype=float)[0] is not getattr(routines, n)]
a = np.random.default_rng(0).standard_normal((6, 6))
a = a @ a.T + 6.0 * np.eye(6)
same = bool(np.array_equal(scipy.linalg.cholesky(a, lower=True), stochastic.cho_factor_lower(a)))
grid = np.linspace(0.0, 1.0, 8)
values = np.sin(grid)
values[3] = np.nan
try:
    css.css_fit(grid, values, 0.9)
    raised = None
except Exception as err:
    raised = type(err).__name__
print(json.dumps({"alone": alone, "others": others, "same": same, "raised": raised}))
"""


@pytest.mark.parametrize("order", ["before", "after", "miss"])
def test_lapack_routines_are_scipys_however_they_are_loaded(workdir, order):
    out = _run(["-c", LOADER_PROBE, order], workdir).stdout.splitlines()[-1]
    report = json.loads(out)
    # Loaded first and found, the routines come without scipy.linalg; a miss
    # falls back to importing it.
    assert report["alone"] is (order == "after")
    assert report["others"] == []
    assert report["same"] is True
    assert report["raised"] == "ValueError"


@pytest.mark.parametrize("name", sorted(cli._DEFERRED))
def test_deferred_callee_is_the_function_in_its_home_module(name):
    home = importlib.import_module(cli._DEFERRED[name])
    assert getattr(cli, name) is getattr(home, name)


def test_unknown_cli_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_callee"):
        cli.no_such_callee  # noqa: B018
