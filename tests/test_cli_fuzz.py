"""Fuzz test of the CLI: generated flag combinations for all four commands,
on small, degenerate and crossed inputs, run in-process.

Whatever the flags, a command returns a documented exit code (0, 2, 3 or 4)
without an escaping exception, and any JSON it writes is strict JSON (no
NaN).  A results file paired with a dataset it was not fitted to, an
output directory that does not exist and a `regress` flag below its
minimum each exit 2.
"""

import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gpcurve import cli  # noqa: E402
from gpcurve.fregress import DEFAULT_X_NBASIS  # noqa: E402

EXIT_CODES = (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_NUMERIC, cli.EXIT_UNSUPPORTED)

# Base datasets (simulate flags) and the fits made of them (dataset, smooth flags).
DATASETS = {
    "s.json": ("--cgrid", "0", "--seed", "1"),
    "s2.json": ("--cgrid", "0", "--seed", "2"),
    "r.json": ("--cgrid", "0", "--rgrid", "1", "--seed", "3"),
    "c.json": ("--cgrid", "1", "--seed", "4"),
    "c2.json": ("--cgrid", "1", "--seed", "5"),
}
FITS = {
    "fit_s.json": ("s.json", ("--smethod", "bhm", "--chains", "2")),
    "fit_r.json": ("r.json", ("--smethod", "bhm")),
    "fit_c.json": ("c.json", ("--smethod", "bhm")),
    "bfit_c.json": ("c.json", ("--smethod", "babf", "--m", "6", "--chains", "2")),
}
GENERATED = "gen.json"  # a generated (often degenerate) dataset, fitted by nothing


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    for name, flags in DATASETS.items():
        argv = ["simulate", "--out", str(root / name), "--n", "8", "--p", "12", *flags]
        assert cli.main(argv) == cli.EXIT_OK
    for name, (data, flags) in FITS.items():
        argv = ["smooth", "--data", str(root / data), "--out", str(root / name), *flags]
        assert cli.main([*argv, "--M", "60", "--Burnin", "20", "--seed", "1"]) == cli.EXIT_OK
    return root


def _flag(flag: str, *values) -> st.SearchStrategy:
    """``flag`` followed by one of ``values``; a repeated value is drawn more often."""
    return st.sampled_from(values).map(lambda v: [flag, str(v)])


def _opt(flag: str, *values) -> st.SearchStrategy:
    """Either nothing or ``flag`` followed by one of ``values``."""
    return st.one_of(st.just([]), _flag(flag, *values))


def _join(*parts) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# Valid values are drawn more often than invalid ones, so that most runs
# get past the flag checks.
OUT_DIRS = ("{tmp}",) * 5 + ("{tmp}/nodir",)
DATA = tuple("{base}/" + name for name in DATASETS) + ("{tmp}/" + GENERATED,) * 2
RESULTS = tuple("{base}/" + name for name in FITS)
FLOATS = (-0.5, 0.0, 0.1, 1.0, 1.0)

simulate = _join(
    st.just(["simulate"]),
    st.sampled_from(OUT_DIRS).map(lambda d: ["--out", f"{d}/sim.json"]),
    _flag("--n", *range(1, 13)),
    _flag("--p", *range(1, 13)),
    _opt("--cgrid", 0, 1),
    _opt("--rgrid", 0, 1),
    _opt("--stat", 0, 1),
    _opt("--dense", 0.0, 0.05, 0.3, 1.0, 1.5),
    _opt("--r", -1.0, 0.5, 2.0),
    _opt("--seed", 0, 1, 2),
)
smooth = _join(
    st.just(["smooth"]),
    _flag("--data", *DATA),
    st.sampled_from(OUT_DIRS).map(lambda d: ["--out", f"{d}/fit.json"]),
    _flag("--smethod", "bhm", "bhm", "babf", "babf", "bgp", "nope"),
    _flag("--M", 1, 30, 40, 60, 60, 60),
    _flag("--Burnin", 0, 10, 10, 20, 20, 50),
    _opt("--chains", 0, 1, 1, 2, 2, 3),
    _opt("--resid-thin", 0, 1, 4, 4, 4, 10),
    _opt("--m", 1, 2, 4, 6, 12),
    _opt("--eval-grid-len", 1, 2, 8, 12),
    _opt("--mat", 0, 1),
    _opt("--ws", *FLOATS),
    _opt("--lamb-min", 0.5, 0.9, 0.99),
    st.sampled_from([[], [], [], ["--no-draws"]]),
)
# Flags that a small valid dataset passes, so the generated ones reach the samplers.
smooth_generated = _join(
    st.just(["smooth", "--data", "{tmp}/" + GENERATED, "--out", "{tmp}/fit.json"]),
    _flag("--smethod", "bhm", "babf"),
    st.just(["--m", "4", "--M", "30", "--Burnin", "10", "--resid-thin", "2"]),
    _flag("--chains", 1, 2),
)
diagnose = _join(
    st.just(["diagnose"]),
    st.lists(st.sampled_from(RESULTS), min_size=1, max_size=2),
    _opt("--data", *DATA),
    _opt("--csv-prefix", *(f"{d}/diag" for d in OUT_DIRS)),
)
regress = _join(
    st.just(["regress"]),
    _flag("--data", *DATA),
    _flag("--results", *RESULTS),
    _flag("--n-train", 0, 2, 5, 5, 8),
    _flag("--replicates", 1, 2, 2, 2, 3),
    _flag("--grid-len", 1, 19, 20, 20, 20, 24),
    _opt("--lamb", *FLOATS),
    _opt("--out", *(f"{d}/report.json" for d in OUT_DIRS)),
)

# 1-3 curves of 1-5 points: sorted grids or ones with duplicate or unsorted
# points, finite values or one NaN, with or without a truth.
POINTS = (0.0, 0.2, 0.5, 0.9, 1.5)


def _values(k: int) -> st.SearchStrategy:
    return st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)


def _mostly(common: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """``common`` four times in five, ``rare`` otherwise."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda c: common if c else rare)


def _curve(k: int) -> st.SearchStrategy:
    nan_at = st.integers(0, k - 1)
    with_nan = st.tuples(_values(k), nan_at).map(
        lambda v: v[0][: v[1]] + [float("nan")] + v[0][v[1] + 1 :]
    )
    return st.fixed_dictionaries(
        {
            "t": _mostly(
                st.lists(st.sampled_from(POINTS), min_size=k, max_size=k, unique=True).map(sorted),
                st.lists(st.sampled_from(POINTS), min_size=k, max_size=k),
            ),
            "x": _mostly(_values(k), with_nan),
        },
        optional={"truth": _values(k)},
    )


# Smoothing needs 4 points per curve and 2 curves, so most datasets have them.
curve = st.sampled_from([1, 2, 3, 4, 4, 5, 5, 5]).flatmap(_curve)
generated = st.sampled_from([1, 2, 3, 3]).flatmap(
    lambda n: st.lists(curve, min_size=n, max_size=n)
).map(
    lambda curves: {
        "format": "gpcurve-dataset",
        "version": "1.0",
        "curves": curves,
        "meta": {"domain": [0.0, 1.6]},
    }
)


def _reject(token):
    raise ValueError(f"{token} is not JSON")


def _expect_invalid(argv: list[str]) -> bool:
    """Whether the command must exit 2: a missing output directory, a
    `regress` flag below its minimum, or results fitted to other data."""
    if any("/nodir/" in a for a in argv):
        return True
    if argv[0] == "regress":
        if int(argv[argv.index("--replicates") + 1]) < 2:
            return True
        if int(argv[argv.index("--grid-len") + 1]) < DEFAULT_X_NBASIS:
            return True
    if argv[0] not in ("diagnose", "regress"):
        return False
    names = [Path(a).name for a in argv[1:]]
    sources = {FITS[n][0] for n in names if n in FITS}
    data = names[names.index("--data") + 1] if "--data" in names else None
    return len(sources) > 1 or (data is not None and {data} != sources)


PAIR = ("--n-train", "5", "--replicates", "2", "--grid-len", "20")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=st.one_of(simulate, smooth, smooth_generated, diagnose, regress), dataset=generated)
@example(argv=["regress", "--data", "{base}/s.json", "--results", "{base}/fit_r.json", *PAIR],
         dataset=None)
@example(argv=["diagnose", "{base}/fit_r.json", "--data", "{base}/s.json"], dataset=None)
@example(argv=["diagnose", "{base}/fit_s.json", "--data", "{base}/r.json"], dataset=None)
@example(argv=["diagnose", "{base}/fit_s.json", "--data", "{base}/s2.json"], dataset=None)
@example(argv=["diagnose", "{base}/fit_c.json", "--data", "{base}/c2.json"], dataset=None)
@example(argv=["diagnose", "{base}/bfit_c.json", "--data", "{base}/c2.json"], dataset=None)
@example(argv=["regress", "--data", "{base}/c2.json", "--results", "{base}/bfit_c.json", *PAIR],
         dataset=None)
@example(argv=["diagnose", "{base}/fit_s.json", "{base}/fit_c.json"], dataset=None)
@example(
    argv=["smooth", "--data", "{base}/s.json", "--out", "{tmp}/nodir/a/fit.json",
          "--smethod", "bhm", "--M", "30", "--Burnin", "10"],
    dataset=None,
)
@example(
    argv=["regress", "--data", "{base}/s.json", "--results", "{base}/fit_s.json",
          "--n-train", "5", "--replicates", "1", "--grid-len", "20", "--out", "{tmp}/report.json"],
    dataset=None,
)
def test_every_command_exits_with_a_documented_code(base, argv, dataset):
    with tempfile.TemporaryDirectory() as tmp:
        if dataset is not None:
            (Path(tmp) / GENERATED).write_text(json.dumps(dataset))
        rc = cli.main([a.format(base=base, tmp=tmp) for a in argv])
        assert rc in EXIT_CODES
        if _expect_invalid(argv):
            assert rc == cli.EXIT_INVALID
        assert not (Path(tmp) / "nodir").exists()
        for path in Path(tmp).glob("*.json"):
            if path.name != GENERATED:
                json.loads(path.read_text(), parse_constant=_reject)
