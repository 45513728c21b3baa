"""Shared machinery for the acceptance battery.

Six simulation scenarios (stationary and nonstationary signals; common,
uncommon, and per-curve random grids) are smoothed at the full sweep
budget and scored against the stored truth.  The battery runs once per
pytest session and takes on the order of twenty minutes.

Set GPCURVE_ACCEPTANCE_FAST=1 to shrink the battery (2 replicates, short
chains) while editing these tests.  The committed defaults are the full
budget, and the acceptance thresholds are calibrated to them only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from gpcurve.babf import babf_run
from gpcurve.bhm import bhm_run
from gpcurve.datagen import SimConfig, sim_gfd, sim_gfd_rgrid, true_mean_function
from gpcurve.diagnostics import pdm_pvalues
from gpcurve.empirical import build_hyperparams, empirical_estimates
from gpcurve.stochastic import RngStream

FAST = os.environ.get("GPCURVE_ACCEPTANCE_FAST", "") not in ("", "0")
REPLICATES = 2 if FAST else 20
SWEEPS = 1000 if FAST else 10000
BURNIN = 200 if FAST else 2000
PROTOCOL_REPLICATES = 10 if FAST else 100

DOMAIN = (0.0, float(np.pi / 2))
N_CURVES = 30
GRID_LEN = 40
WORKING_GRID_LEN = 20

CRITERION_LINES: list[tuple[int, str]] = []


def record(index: int, passed: bool, detail: str) -> bool:
    """Log one acceptance-criterion verdict; returns ``passed``."""
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {index:2d}: {detail}"
    CRITERION_LINES.append((index, line))
    print(line)
    return passed


@dataclass(frozen=True)
class Scenario:
    name: str
    sampler: str  # "bhm" | "babf"
    stat: bool
    grids: str  # "common" | "uncommon" | "random"
    mat: bool
    ws: float


SCENARIOS = (
    Scenario("bhm common stationary", "bhm", True, "common", True, 1.0),
    Scenario("bhm uncommon stationary", "bhm", True, "uncommon", True, 0.1),
    Scenario("babf random stationary", "babf", True, "random", True, 1.0),
    Scenario("bhm common nonstationary", "bhm", False, "common", False, 0.01),
    Scenario("bhm uncommon nonstationary", "bhm", False, "uncommon", False, 0.01),
    Scenario("babf random nonstationary", "babf", False, "random", False, 0.05),
)
STATIONARY = SCENARIOS[:3]


@dataclass
class ReplicateScore:
    """Truth-referenced summaries of one smoothing run."""

    rmse_raw: float
    rmse_fit: float
    signal_coverage: float
    mu_coverage: float
    cov_rmse_fit: float | None = None
    cov_rmse_sample: float | None = None
    pmin_correct: np.ndarray | None = None
    pmin_inflated: np.ndarray | None = None


def simulate(scenario: Scenario, seed: int):
    cfg = SimConfig(
        n=N_CURVES,
        p=GRID_LEN,
        stat=scenario.stat,
        cgrid=scenario.grids == "common",
        seed=seed,
    )
    return sim_gfd_rgrid(cfg) if scenario.grids == "random" else sim_gfd(cfg)


def smooth(scenario: Scenario, data, seed: int):
    rng = RngStream(seed)
    if scenario.sampler == "bhm":
        est = empirical_estimates(data)
        hyper = build_hyperparams(est, mat=scenario.mat, ws=scenario.ws)
        return bhm_run(data, hyper, est=est, M=SWEEPS, burnin=BURNIN, rng=rng)
    return babf_run(
        data,
        L=WORKING_GRID_LEN,
        eval_grid=np.linspace(DOMAIN[0], DOMAIN[1], GRID_LEN),
        domain=DOMAIN,
        M=SWEEPS,
        burnin=BURNIN,
        rng=rng,
        hyper_kwargs=dict(mat=scenario.mat, ws=scenario.ws),
    )


def score_replicate(scenario: Scenario, data, draws, result, want_pdm=False) -> ReplicateScore:
    sq_raw, sq_fit, covered, total = 0.0, 0.0, 0, 0
    for i, curve in enumerate(data.curves):
        if scenario.sampler == "bhm":
            idx = np.searchsorted(result.grid, curve.grid)
            fit, lo, hi = result.Z[i, idx], result.Z_CL[i, idx], result.Z_UL[i, idx]
        else:
            fit, lo, hi = result.Zt[i], result.Zt_CL[i], result.Zt_UL[i]
        sq_raw += float(np.sum((curve.raw - curve.truth) ** 2))
        sq_fit += float(np.sum((fit - curve.truth) ** 2))
        covered += int(np.sum((lo <= curve.truth) & (curve.truth <= hi)))
        total += curve.grid.size

    mu_true = true_mean_function(scenario.stat)(result.grid)
    mu_cov = float(np.mean((result.mu_CI[0] <= mu_true) & (mu_true <= result.mu_CI[1])))

    score = ReplicateScore(
        rmse_raw=float(np.sqrt(sq_raw / total)),
        rmse_fit=float(np.sqrt(sq_fit / total)),
        signal_coverage=covered / total,
        mu_coverage=mu_cov,
    )
    if scenario.grids == "common":
        raw = np.vstack([c.raw for c in data.curves])
        truth = data.true_cov.mat
        score.cov_rmse_fit = float(np.sqrt(np.mean((result.Sigma - truth) ** 2)))
        score.cov_rmse_sample = float(
            np.sqrt(np.mean((np.cov(raw, rowvar=False, ddof=1) - truth) ** 2))
        )
    if want_pdm:
        score.pmin_correct = np.asarray(result.pmin_vec, dtype=float)
        inflated = [3.0 * r for r in draws.resid]
        score.pmin_inflated = pdm_pvalues(inflated)
    return score


SCENARIO_SECONDS: dict[str, float] = {}


def run_battery() -> dict[str, list[ReplicateScore]]:
    out: dict[str, list[ReplicateScore]] = {}
    for scenario in SCENARIOS:
        want_pdm = scenario is SCENARIOS[0]
        scores = []
        started = time.perf_counter()
        for rep in range(REPLICATES):
            data = simulate(scenario, seed=rep)
            draws, result = smooth(scenario, data, seed=10_000 + rep)
            scores.append(score_replicate(scenario, data, draws, result, want_pdm))
        SCENARIO_SECONDS[scenario.name] = time.perf_counter() - started
        out[scenario.name] = scores
    return out


def batch_means_se(chain: np.ndarray, nbatch: int = 20) -> np.ndarray:
    """Standard error of the chain mean from non-overlapping batch means."""
    chain = np.asarray(chain, dtype=float)
    size = (chain.shape[0] // nbatch) * nbatch
    batches = chain[:size].reshape(nbatch, size // nbatch, *chain.shape[1:])
    return batches.mean(axis=1).std(axis=0, ddof=1) / np.sqrt(nbatch)


def iw_entry_moments(scale: np.ndarray, dpost: float, i: int, j: int):
    """Mean and variance of one inverse-Wishart entry in the grid-size-free
    parameterization (dpost plays the role of delta after conditioning)."""
    mean = scale[i, j] / (dpost - 2.0)
    var = (dpost * scale[i, j] ** 2 + (dpost - 2.0) * scale[i, i] * scale[j, j]) / (
        (dpost - 1.0) * (dpost - 2.0) ** 2 * (dpost - 4.0)
    )
    return mean, var


class MomentChecker:
    """Monte Carlo moment checks with empirical standard errors.

    Every comparison is |estimate - analytic| expressed in standard-error
    units; the largest ratio is kept so a failed run reports how far off
    the worst moment was.
    """

    def __init__(self):
        self.worst = 0.0
        self.failures: list[str] = []

    def _note(self, label: str, err: float, se: float, limit: float) -> None:
        z = err / se
        self.worst = max(self.worst, z)
        if z >= limit:
            self.failures.append(f"{label}: {z:.2f} se")

    def mean(self, label: str, draws: np.ndarray, target: float, limit: float = 3.0) -> None:
        draws = np.asarray(draws, dtype=float)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        self._note(f"{label} mean", abs(draws.mean() - target), se, limit)

    def var(self, label: str, draws: np.ndarray, target: float, limit: float = 3.0) -> None:
        draws = np.asarray(draws, dtype=float)
        centered = draws - draws.mean()
        s2 = draws.var(ddof=1)
        se = np.sqrt(max(np.mean(centered**4) - s2**2, 1e-300) / draws.size)
        self._note(f"{label} var", abs(s2 - target), se, limit)

    def cov(self, label: str, x: np.ndarray, y: np.ndarray, target: float, limit: float = 3.0) -> None:
        dx = x - x.mean()
        dy = y - y.mean()
        c = float(dx @ dy) / (x.size - 1)
        se = np.sqrt(max(np.mean((dx * dy) ** 2) - c**2, 1e-300) / x.size)
        self._note(f"{label} cov", abs(c - target), se, limit)

    def ok(self) -> bool:
        return not self.failures
