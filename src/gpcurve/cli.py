"""Command line interface.

Subcommands:
  simulate   draw a synthetic functional dataset and write it to JSON
  smooth     run a posterior sampler on a dataset and write results
  diagnose   convergence and fit diagnostics for one or more results files
  regress    downstream regression comparison of sampler vs spline smoothing

Exit codes: 0 success, 2 invalid input, 3 numerical failure,
4 option names functionality that is out of scope.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib
import json
import os
import sys

import numpy as np

from gpcurve.datagen import SimConfig, sim_gfd, sim_gfd_rgrid, true_mean_function
from gpcurve.diagnostics import (
    accuracy,
    coverage,
    interpret_pmin,
    monitored_indices,
    monitored_scalars,
    psrf,
)
from gpcurve.gridutil import check_grid
from gpcurve.io import (
    RunConfig,
    UnsupportedFeatureError,
    check_same_dataset,
    curve_fits,
    estimate,
    load_dataset,
    load_results,
    load_sidecar_matrix,
    save_dataset,
    save_results,
)
from gpcurve.io import read_matrix  # noqa: F401  (wrapped by bench/layers.py)
from gpcurve.results import check_retained
from gpcurve.stochastic import FactorizationError, RngStream

# The most points of babf's default evaluation grid: with neither evaluation
# grid flag, a larger pooled grid gives way to this many equally spaced points.
EVAL_GRID_CAP = 100

# Names whose modules pull in the samplers, the spline smoother and the
# regression protocol, mapped to those modules.  They are imported on first
# attribute access (PEP 562), so `simulate` and `diagnose` start without them.
# Commands look every callee up by name at the call (`_cli.<name>`), which
# keeps them patchable by name like the eagerly imported callees.
_DEFERRED = {
    "BabfContext": "gpcurve.babf",
    "BhmContext": "gpcurve.bhm",
    "babf_run": "gpcurve.babf",
    "babf_working_grid": "gpcurve.babf",
    "bhm_run": "gpcurve.bhm",
    "build_hyperparams": "gpcurve.empirical",
    "empirical_estimates": "gpcurve.empirical",
    "run_regression_protocol": "gpcurve.protocol",
    "DEFAULT_X_NBASIS": "gpcurve.fregress",
}


def __getattr__(name: str):
    home = _DEFERRED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


class _Callees:
    """This module's attributes, read from the running module's own
    namespace, then through its ``__getattr__``.  ``sys.modules[__name__]``
    is not that module when a runner such as ``python -m cProfile -m
    gpcurve.cli`` executes it as ``__main__`` without registering it."""

    def __getattr__(self, name: str):
        namespace = globals()
        return namespace[name] if name in namespace else __getattr__(name)


_cli = _Callees()


EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_UNSUPPORTED = 4

PSRF_LIMIT = 1.1


def _parse_floats(flag: str, text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise ValueError(f"{flag}: expected comma-separated numbers, got {text!r}") from err


def _require_out_dir(flag: str, path: str) -> None:
    """Refuse, before any work, an output path whose directory is missing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"{flag} {path}: directory {parent} does not exist")


def cmd_simulate(args) -> int:
    _require_out_dir("--out", args.out)
    cfg = SimConfig(
        n=args.n,
        p=args.p,
        au=args.au,
        bu=args.bu,
        s=args.s,
        r=args.r,
        nu=args.nu,
        rho=args.rho,
        dense=args.dense,
        cgrid=bool(args.cgrid),
        stat=bool(args.stat),
        seed=args.seed,
    )
    data = sim_gfd_rgrid(cfg) if args.rgrid else sim_gfd(cfg)
    sim_config = dict(dataclasses.asdict(cfg), rgrid=int(bool(args.rgrid)))
    save_dataset(args.out, data, domain=(cfg.au, cfg.bu), sim_config=sim_config)
    kind = "random grids" if args.rgrid else ("common grid" if cfg.cgrid else "grid subsets")
    print(
        f"wrote {args.out}: {data.n_curves} curves, pooled grid size "
        f"{data.pooled_grid.size} ({kind}, seed {cfg.seed})"
    )
    return EXIT_OK


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        smethod=args.smethod,
        mat=args.mat,
        M=args.M,
        Burnin=args.Burnin,
        w=args.w,
        ws=args.ws,
        c=args.c,
        delta=args.delta,
        nu=args.nu,
        rho=args.rho,
        pace=args.pace,
        m=args.m,
        tau=None if args.tau is None else _parse_floats("--tau", args.tau),
        eval_grid=None if args.eval_grid is None else _parse_floats("--eval-grid", args.eval_grid),
        trange=None if args.trange is None else list(args.trange),
        lamb_min=args.lamb_min,
        lamb_max=args.lamb_max,
        lamb_step=args.lamb_step,
        resid_thin=args.resid_thin,
        chains=args.chains,
        seed=args.seed,
    )


def _eval_grid_flags(args, cfg: RunConfig) -> np.ndarray | None:
    """Refuse evaluation-grid flags that cannot apply, before any input is
    read; the ``--eval-grid`` points when given, else ``None``."""
    flags = {"--eval-grid": args.eval_grid, "--eval-grid-len": args.eval_grid_len}
    given = [flag for flag, value in flags.items() if value is not None]
    if given and cfg.smethod == "bhm":
        raise ValueError(f"{given[0]} applies to babf only: bhm reports on the pooled grid")
    if len(given) > 1:
        raise ValueError("--eval-grid and --eval-grid-len both set the evaluation grid; pass one")
    if args.eval_grid_len is not None and args.eval_grid_len < 1:
        raise ValueError(f"--eval-grid-len {args.eval_grid_len}: need at least 1 point")
    return None if cfg.eval_grid is None else check_grid(cfg.eval_grid, "--eval-grid")


def cmd_smooth(args) -> int:
    _require_out_dir("--out", args.out)
    if args.no_draws and args.chains > 1:
        # Chains after the first contribute only their monitored draws.
        raise ValueError(
            f"--chains {args.chains} with --no-draws would discard every chain after "
            "the first; drop --no-draws or pass --chains 1"
        )
    cfg = _config_from_args(args)
    eval_grid = _eval_grid_flags(args, cfg)
    data, meta = load_dataset(args.data)
    cfg.cgrid = int(data.common_grid())
    cfg.validate()
    domain = tuple(cfg.trange) if cfg.trange else tuple(meta["domain"])
    candidates = cfg.lambda_candidates()

    # Empirical estimates and prior settings depend on the data and the
    # config only, so every chain shares one set.  bhm builds them on the
    # pooled grid, babf on its working grid.
    grid_note = None
    if cfg.smethod == "bhm":
        design, run, est_grid, run_kwargs = _cli.BhmContext, _cli.bhm_run, None, {}
    else:
        tau = None if cfg.tau is None else np.asarray(cfg.tau, dtype=float)
        est_grid = _cli.babf_working_grid(data.pooled_grid, cfg.m, tau).tau
        if eval_grid is not None:
            # Points outside the domain would be clamped to its ends and
            # labelled with values they were not evaluated at.
            if eval_grid[0] < domain[0] or eval_grid[-1] > domain[1]:
                source = "--trange" if cfg.trange else f"the domain of {args.data}"
                raise ValueError(
                    f"--eval-grid spans [{float(eval_grid[0])!r}, {float(eval_grid[-1])!r}], "
                    f"outside {source} [{float(domain[0])!r}, {float(domain[1])!r}]"
                )
        elif args.eval_grid_len is not None:
            eval_grid = np.linspace(domain[0], domain[1], args.eval_grid_len)
        elif data.pooled_grid.size > EVAL_GRID_CAP:
            # Every E x E summary grows with the square of the evaluation
            # grid, so a large pooled grid is not the default one.
            eval_grid = np.linspace(domain[0], domain[1], EVAL_GRID_CAP)
            grid_note = (
                f"  evaluated on {EVAL_GRID_CAP} equally spaced points over "
                f"[{domain[0]:g}, {domain[1]:g}]: the pooled grid has "
                f"{data.pooled_grid.size} points, more than {EVAL_GRID_CAP}; "
                "--eval-grid or --eval-grid-len sets the grid"
            )
        design, run = _cli.BabfContext, _cli.babf_run
        run_kwargs = dict(L=cfg.m, tau=tau, eval_grid=eval_grid, domain=domain)
    # Chain 0 keeps the most: what its design keeps of the sampled dimension
    # (the pooled grid for bhm, the working grid for babf).  Refuse what
    # cannot fit before the estimates are built.
    dim = data.pooled_grid.size if est_grid is None else est_grid.size
    sizes = [c.grid.size for c in data.curves]
    check_retained(
        data.n_curves, dim, sizes, cfg.M, cfg.Burnin, cfg.resid_thin,
        order_stats=design.keeps_order_stats,
    )
    est = _cli.empirical_estimates(data, candidates=candidates, eval_grid=est_grid)
    hyper = _cli.build_hyperparams(
        est,
        mat=bool(cfg.mat),
        w=cfg.w,
        ws=cfg.ws,
        delta=cfg.delta,
        c=cfg.c,
        nu=cfg.nu,
        rho=cfg.rho,
        candidates=candidates,
    )

    primary = None
    sidecar: dict = {}
    for chain in range(cfg.chains):
        draws, result = run(
            data,
            hyper,
            est=est,
            M=cfg.M,
            burnin=cfg.Burnin,
            rng=RngStream(cfg.seed, stream_id=chain),
            resid_thin=cfg.resid_thin,
            # Only chain 0's summaries are written; later chains add draws.
            summarize=chain == 0,
            **run_kwargs,
        )
        if not args.no_draws:
            mu = draws.grid_mu()
            sigma_diag = draws.grid_sigma_diag(monitored_indices(mu.shape[1]))
            monitored = monitored_scalars(draws.precision, draws.sigma_s2, mu, sigma_diag)
            sidecar[f"monitored_chain{chain}.bin"] = {
                "matrix": np.column_stack(list(monitored.values())),
                "names": list(monitored),
            }
            if chain == 0:
                sidecar[f"residuals_chain{chain}.bin"] = {
                    "matrix": draws.resid_matrix,
                    "curve_points": [r.shape[1] for r in draws.resid],
                }
        if chain == 0:
            primary = result
        # Drop this chain's draws before the next chain allocates its own.
        del draws, result

    save_results(args.out, primary, cfg, data, sidecar or None)
    pmin = float(np.min(primary.pmin_vec))
    print(
        f"wrote {args.out}: {cfg.smethod} on {data.n_curves} curves, "
        f"{cfg.chains} chain(s) of {cfg.M} sweeps in {primary.runtime_seconds:.1f}s"
    )
    print(
        f"  noise precision {primary.rn:.4f} "
        f"(95% CI {primary.rn_CI[0]:.4f}..{primary.rn_CI[1]:.4f}), "
        f"smallest fit p-value {pmin:.4f} ({interpret_pmin(pmin)})"
    )
    if grid_note:
        print(grid_note)
    return EXIT_OK


def _collect_monitored(payloads) -> tuple[list[str], list[np.ndarray]]:
    names: list[str] | None = None
    series: list[np.ndarray] = []
    for payload in payloads:
        files = (payload.get("draws") or {}).get("files", {})
        for fname, entry in files.items():
            if not fname.startswith("monitored_chain"):
                continue
            if names is None:
                names = list(entry["names"])
            elif list(entry["names"]) != names:
                raise ValueError(
                    "results files monitor different scalars; rerun with one config"
                )
            series.append(load_sidecar_matrix(payload, fname))
    return names or [], series


def cmd_diagnose(args) -> int:
    if args.csv_prefix:
        _require_out_dir("--csv-prefix", args.csv_prefix)
    payloads = [load_results(p) for p in args.results]
    methods = {p["method"] for p in payloads}
    if len(methods) > 1:
        raise ValueError(f"results mix methods {sorted(methods)}; diagnose one at a time")
    check_same_dataset(payloads)

    rows_psrf: list[tuple[str, float]] = []
    names, series = _collect_monitored(payloads)
    if len(series) >= 2:
        length = min(s.shape[0] for s in series)
        print(f"PSRF over {len(series)} chains ({length} retained draws each):")
        for j, name in enumerate(names):
            stacked = np.stack([s[:length, j] for s in series])
            value = psrf(stacked)
            rows_psrf.append((name, value))
            flag = "" if value < PSRF_LIMIT else f"  <-- above {PSRF_LIMIT}"
            print(f"  {name:<16s} {value:8.4f}{flag}")
        worst = max(v for _, v in rows_psrf)
        verdict = "converged" if worst < PSRF_LIMIT else "NOT converged"
        print(f"  worst {worst:.4f}: {verdict} at threshold {PSRF_LIMIT}")
    else:
        print(
            "PSRF skipped: needs at least two monitored chains "
            "(run smooth with --chains 2 or pass several results files)"
        )

    first = payloads[0]
    pmin_vec = estimate(first, "pmin_vec")
    labels = [interpret_pmin(p) for p in pmin_vec]
    print(f"fit p-values over {pmin_vec.size} curves (smallest {pmin_vec.min():.4f}):")
    for band in (interpret_pmin(1.0), interpret_pmin(0.1), interpret_pmin(0.0)):
        count = sum(1 for lab in labels if lab == band)
        print(f"  {band:<38s} {count}")

    rows_curves: list[dict] = []
    if args.data is not None:
        data, meta = load_dataset(args.data)
        if any(c.truth is None for c in data.curves):
            raise ValueError("dataset carries no true signals; cannot score accuracy")
        for i, (curve, (fit, lo, hi)) in enumerate(
            zip(data.curves, curve_fits(first, data, args.data))
        ):
            rows_curves.append(
                {
                    "curve": i,
                    "rmse_raw": accuracy(curve.raw, curve.truth)["rmse"],
                    "rmse_fit": accuracy(fit, curve.truth)["rmse"],
                    "coverage": coverage(lo, hi, curve.truth),
                }
            )
        mean_raw = float(np.mean([r["rmse_raw"] for r in rows_curves]))
        mean_fit = float(np.mean([r["rmse_fit"] for r in rows_curves]))
        mean_cov = float(np.mean([r["coverage"] for r in rows_curves]))
        print(f"signal accuracy: rmse {mean_fit:.4f} fitted vs {mean_raw:.4f} raw")
        print(f"pointwise 95% band coverage of the true signals: {mean_cov:.4f}")
        sim = meta.get("sim_config")
        mu, mu_ci = estimate(first, "mu"), estimate(first, "mu_CI")
        if sim is not None and mu is not None and mu_ci is not None:
            mu_true = true_mean_function(bool(sim["stat"]))(first["grid"])
            print(
                f"mean accuracy: rmse {accuracy(mu, mu_true)['rmse']:.4f}, "
                f"95% CI coverage {coverage(mu_ci[0], mu_ci[1], mu_true):.4f}"
            )

    if args.csv_prefix:
        if rows_psrf:
            with open(f"{args.csv_prefix}_psrf.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["scalar", "psrf"])
                writer.writerows(rows_psrf)
        if rows_curves:
            with open(f"{args.csv_prefix}_curves.csv", "w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(rows_curves[0]))
                writer.writeheader()
                writer.writerows(rows_curves)
        print(f"wrote CSV files with prefix {args.csv_prefix}")
    return EXIT_OK


def cmd_regress(args) -> int:
    if args.n_train < 1:
        raise ValueError(f"--n-train {args.n_train}: need at least 1 training curve")
    if args.replicates < 2:
        raise ValueError(f"--replicates {args.replicates}: need at least 2 (the MSE std)")
    if args.grid_len < _cli.DEFAULT_X_NBASIS:
        raise ValueError(
            f"--grid-len {args.grid_len}: need at least {_cli.DEFAULT_X_NBASIS}, "
            "the size of the covariate basis"
        )
    if args.out:
        _require_out_dir("--out", args.out)
    data, meta = load_dataset(args.data)
    payload = load_results(args.results)
    if args.n_train >= data.n_curves:
        raise ValueError(
            f"--n-train {args.n_train}: need fewer than the {data.n_curves} curves of "
            f"{args.data}, so that some are left to test on"
        )
    smoothed = [fit for fit, _, _ in curve_fits(payload, data, args.data)]
    report = _cli.run_regression_protocol(
        data,
        smoothed,
        n_train=args.n_train,
        replicates=args.replicates,
        lamb=args.lamb,
        seed=args.seed,
        grid_len=args.grid_len,
        domain=tuple(meta["domain"]),
    )
    print(report.table_text())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=1)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcurve",
        description="Gibbs samplers for smoothing noisy functional data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset")
    sim.add_argument("--out", required=True, help="output dataset JSON path")
    sim.add_argument("--n", type=int, default=30, help="number of curves")
    sim.add_argument("--p", type=int, default=40, help="pooled grid size")
    sim.add_argument("--au", type=float, default=0.0, help="domain lower end")
    sim.add_argument("--bu", type=float, default=float(np.pi / 2), help="domain upper end")
    sim.add_argument("--s", type=float, default=float(np.sqrt(5.0)), help="signal scale")
    sim.add_argument("--r", type=float, default=2.0, help="signal-to-noise ratio")
    sim.add_argument("--nu", type=float, default=3.5, help="correlation smoothness")
    sim.add_argument("--rho", type=float, default=0.5, help="correlation range")
    sim.add_argument("--dense", type=float, default=0.6, help="kept fraction per curve")
    sim.add_argument("--cgrid", type=int, default=1, choices=(0, 1), help="common grid flag")
    sim.add_argument("--stat", type=int, default=1, choices=(0, 1), help="stationary flag")
    sim.add_argument(
        "--rgrid", type=int, default=0, choices=(0, 1), help="uniform random grids per curve"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    smo = sub.add_parser("smooth", help="run a sampler on a dataset")
    smo.add_argument("--data", required=True, help="input dataset JSON path")
    smo.add_argument("--out", required=True, help="output results JSON path")
    smo.add_argument("--smethod", default="babf", help="sampler: babf or bhm")
    smo.add_argument("--mat", type=int, default=1, choices=(0, 1), help="parametric prior covariance")
    smo.add_argument("--M", type=int, default=10000, help="total sweeps")
    smo.add_argument("--Burnin", type=int, default=2000, help="discarded sweeps")
    smo.add_argument("--w", type=float, default=1.0, help="noise prior weight")
    smo.add_argument("--ws", type=float, default=0.1, help="covariance scale prior weight")
    smo.add_argument("--c", type=float, default=1.0, help="prior mean confidence")
    smo.add_argument("--delta", type=float, default=5.0, help="covariance prior shape")
    smo.add_argument("--nu", type=float, default=None, help="fix correlation smoothness")
    smo.add_argument("--rho", type=float, default=None, help="fix correlation range")
    smo.add_argument("--pace", type=int, default=0, choices=(0, 1), help="external pre-estimates")
    smo.add_argument("--m", type=int, default=20, help="basis working grid size")
    smo.add_argument("--tau", default=None, help="explicit working grid, comma separated")
    smo.add_argument(
        "--eval-grid",
        default=None,
        help=(
            "evaluation grid, comma separated (babf; default the pooled grid, "
            f"or {EVAL_GRID_CAP} equally spaced points when it has more)"
        ),
    )
    smo.add_argument("--eval-grid-len", type=int, default=None, help="equally spaced evaluation grid size")
    smo.add_argument("--trange", type=float, nargs=2, default=None, help="domain override: low high")
    smo.add_argument("--lamb-min", type=float, default=0.90)
    smo.add_argument("--lamb-max", type=float, default=0.99)
    smo.add_argument("--lamb-step", type=float, default=0.01)
    smo.add_argument("--resid-thin", type=int, default=10, help="residual retention stride")
    smo.add_argument("--chains", type=int, default=1, help="independent chains, run sequentially")
    smo.add_argument("--seed", type=int, default=0)
    smo.add_argument("--no-draws", action="store_true", help="skip the draws sidecar (one chain only)")
    smo.set_defaults(func=cmd_smooth)

    dia = sub.add_parser("diagnose", help="convergence and misfit diagnostics")
    dia.add_argument("results", nargs="+", help="results JSON path(s)")
    dia.add_argument("--data", default=None, help="dataset JSON for accuracy scoring")
    dia.add_argument("--csv-prefix", default=None, help="write CSV tables with this prefix")
    dia.set_defaults(func=cmd_diagnose)

    reg = sub.add_parser("regress", help="regression comparison: sampler vs spline input")
    reg.add_argument("--data", required=True, help="dataset JSON path (needs true signals)")
    reg.add_argument("--results", required=True, help="results JSON path")
    reg.add_argument("--n-train", type=int, default=20)
    reg.add_argument("--replicates", type=int, default=100)
    reg.add_argument("--lamb", type=float, default=0.1, help="regression penalty weight")
    reg.add_argument("--seed", type=int, default=0)
    reg.add_argument("--grid-len", type=int, default=40)
    reg.add_argument("--out", default=None, help="optional report JSON path")
    reg.set_defaults(func=cmd_regress)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFeatureError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (FactorizationError, np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
