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
import json
import sys

import numpy as np

from gpcurve.babf import babf_run, babf_working_grid
from gpcurve.bhm import bhm_run
from gpcurve.datagen import SimConfig, sim_gfd, sim_gfd_rgrid, true_mean_function
from gpcurve.diagnostics import (
    accuracy,
    coverage,
    interpret_pmin,
    monitored_scalars,
    psrf,
)
from gpcurve.empirical import build_hyperparams, empirical_estimates
from gpcurve.io import (
    RunConfig,
    UnsupportedFeatureError,
    load_dataset,
    load_results,
    read_matrix,
    save_dataset,
    save_results,
)
from gpcurve.protocol import run_regression_protocol
from gpcurve.stochastic import FactorizationError, RngStream

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_UNSUPPORTED = 4

PSRF_LIMIT = 1.1


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from err


def cmd_simulate(args) -> int:
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
        tau=None if args.tau is None else _parse_floats(args.tau),
        eval_grid=None if args.eval_grid is None else _parse_floats(args.eval_grid),
        trange=None if args.trange is None else list(args.trange),
        lamb_min=args.lamb_min,
        lamb_max=args.lamb_max,
        lamb_step=args.lamb_step,
        resid_thin=args.resid_thin,
        chains=args.chains,
        seed=args.seed,
    )


def _monitored_matrix(monitored: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    names = list(monitored)
    return names, np.column_stack([monitored[k] for k in names])


def cmd_smooth(args) -> int:
    data, meta = load_dataset(args.data)
    cfg = _config_from_args(args)
    cfg.cgrid = int(data.common_grid())
    cfg.validate()
    domain = tuple(cfg.trange) if cfg.trange else tuple(meta["domain"])
    candidates = cfg.lambda_candidates()

    # Empirical estimates and prior settings depend on the data and the
    # config only, so every chain shares one set.  bhm builds them on the
    # pooled grid, babf on its working grid.
    if cfg.smethod == "bhm":
        run, est_grid, run_kwargs = bhm_run, None, {}
    else:
        tau = None if cfg.tau is None else np.asarray(cfg.tau, dtype=float)
        est_grid = babf_working_grid(data.pooled_grid, cfg.m, tau).tau
        eval_grid = None
        if cfg.eval_grid is not None:
            eval_grid = np.asarray(cfg.eval_grid, dtype=float)
        elif args.eval_grid_len is not None:
            eval_grid = np.linspace(domain[0], domain[1], args.eval_grid_len)
        run = babf_run
        run_kwargs = dict(L=cfg.m, tau=tau, eval_grid=eval_grid, domain=domain)
    est = empirical_estimates(data, candidates=candidates, eval_grid=est_grid)
    hyper = build_hyperparams(
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
            **run_kwargs,
        )
        if not args.no_draws:
            names, mat = _monitored_matrix(
                monitored_scalars(
                    draws.precision, draws.sigma_s2, draws.grid_mu(), draws.grid_sigma_diag()
                )
            )
            sidecar[f"monitored_chain{chain}.bin"] = {"matrix": mat, "names": names}
            if chain == 0:
                resid = np.concatenate(draws.resid, axis=1)
                sidecar[f"residuals_chain{chain}.bin"] = {
                    "matrix": resid,
                    "curve_points": [r.shape[1] for r in draws.resid],
                }
        if chain == 0:
            primary = result
        # Drop this chain's draws before the next chain allocates its own.
        del draws, result

    save_results(args.out, primary, cfg, sidecar or None)
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
    return EXIT_OK


def _collect_monitored(payloads) -> tuple[list[str], list[np.ndarray]]:
    names: list[str] | None = None
    series: list[np.ndarray] = []
    for payload in payloads:
        draws = payload.get("draws")
        if not draws:
            continue
        base = payload["_path"].parent / draws["dir"]
        for fname, entry in draws["files"].items():
            if not fname.startswith("monitored_chain"):
                continue
            mat = read_matrix(base / fname)
            if names is None:
                names = list(entry["names"])
            elif list(entry["names"]) != names:
                raise ValueError(
                    "results files monitor different scalars; rerun with one config"
                )
            series.append(mat)
    return names or [], series


def cmd_diagnose(args) -> int:
    payloads = [load_results(p) for p in args.results]
    methods = {p["method"] for p in payloads}
    if len(methods) > 1:
        raise ValueError(f"results mix methods {sorted(methods)}; diagnose one at a time")

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
    pmin_vec = np.asarray(first["estimates"]["pmin_vec"], dtype=float)
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
        grid = first["grid"]
        est = first["estimates"]
        for i, curve in enumerate(data.curves):
            if first["method"] == "bhm":
                idx = np.searchsorted(grid, curve.grid)
                fit = np.asarray(est["Z"][i], dtype=float)[idx]
                lo = np.asarray(est["Z_CL"][i], dtype=float)[idx]
                hi = np.asarray(est["Z_UL"][i], dtype=float)[idx]
            else:
                fit = np.asarray(est["Zt"][i], dtype=float)
                lo = np.asarray(est["Zt_CL"][i], dtype=float)
                hi = np.asarray(est["Zt_UL"][i], dtype=float)
            row = {
                "curve": i,
                "rmse_raw": accuracy(curve.raw, curve.truth)["rmse"],
                "rmse_fit": accuracy(fit, curve.truth)["rmse"],
            }
            if lo is not None:
                row["coverage"] = coverage(lo, hi, curve.truth)
            rows_curves.append(row)
        mean_raw = float(np.mean([r["rmse_raw"] for r in rows_curves]))
        mean_fit = float(np.mean([r["rmse_fit"] for r in rows_curves]))
        print(f"signal accuracy: rmse {mean_fit:.4f} fitted vs {mean_raw:.4f} raw")
        if rows_curves and "coverage" in rows_curves[0]:
            mean_cov = float(np.mean([r["coverage"] for r in rows_curves]))
            print(f"pointwise 95% band coverage of the true signals: {mean_cov:.4f}")
        sim = meta.get("sim_config")
        mu_key = "mu" if "mu" in est else "mu_cgrid"
        if sim is not None and mu_key in est:
            mu_true = true_mean_function(bool(sim["stat"]))(grid)
            mu_ci = np.asarray(est[f"{mu_key}_CI"], dtype=float)
            print(
                f"mean accuracy: rmse {accuracy(np.asarray(est[mu_key]), mu_true)['rmse']:.4f}, "
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
    data, meta = load_dataset(args.data)
    payload = load_results(args.results)
    est = payload["estimates"]
    if payload["method"] == "babf":
        smoothed = [np.asarray(z, dtype=float) for z in est["Zt"]]
    else:
        grid = payload["grid"]
        Z = np.asarray(est["Z"], dtype=float)
        smoothed = [Z[i, np.searchsorted(grid, c.grid)] for i, c in enumerate(data.curves)]
    report = run_regression_protocol(
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
        cells = {
            f"{model}/{inp}/{split}": dataclasses.asdict(report.cell(model, inp, split))
            for model in ("scalar", "functional")
            for inp in ("sampler", "css")
            for split in ("fitted", "predicted")
        }
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "format": "gpcurve-regression-report",
                    "version": "1.0",
                    "n_train": report.n_train,
                    "n_test": report.n_test,
                    "replicates": report.replicates,
                    "lamb": report.lamb,
                    "cells": cells,
                },
                handle,
                indent=1,
            )
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
    smo.add_argument("--eval-grid", default=None, help="evaluation grid, comma separated")
    smo.add_argument("--eval-grid-len", type=int, default=None, help="equally spaced evaluation grid size")
    smo.add_argument("--trange", type=float, nargs=2, default=None, help="domain override: low high")
    smo.add_argument("--lamb-min", type=float, default=0.90)
    smo.add_argument("--lamb-max", type=float, default=0.99)
    smo.add_argument("--lamb-step", type=float, default=0.01)
    smo.add_argument("--resid-thin", type=int, default=10, help="residual retention stride")
    smo.add_argument("--chains", type=int, default=1, help="independent chains, run sequentially")
    smo.add_argument("--seed", type=int, default=0)
    smo.add_argument("--no-draws", action="store_true", help="skip the draws sidecar")
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
