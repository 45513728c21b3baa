"""Regression comparison harness: sampler-smoothed curves vs spline smooths.

Random-grid curves are brought onto a common grid three ways (the known
truth, near-interpolation spline smooths of the raw data, and the
sampler's smoothed curves), synthetic responses are generated from the
truth, and both regression models are fit on repeated random train/test
splits.  Reported mean squared errors are always against the noiseless
true responses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from gpcurve.css import css_eval, css_fit, near_interp_weight
from gpcurve.datagen import FunctionalDataset
from gpcurve.fregress import (
    concurrent_design,
    fit_concurrent,
    fit_scalar_on_function,
    predict,
    scalar_design,
    trapezoid_weights,
)
from gpcurve.stochastic import RngStream

__all__ = ["ProtocolReport", "run_regression_protocol"]

MODELS = ("scalar", "functional")
INPUTS = ("sampler", "css")
SPLITS = ("fitted", "predicted")


@dataclass
class ProtocolCell:
    mean: float
    std: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} ({self.std:.3f})"


@dataclass
class ProtocolReport:
    """MSE summary across replicates, keyed (model, input, split)."""

    cells: dict
    n_train: int
    n_test: int
    replicates: int
    lamb: float

    def cell(self, model: str, inp: str, split: str) -> ProtocolCell:
        return self.cells[(model, inp, split)]

    def to_dict(self) -> dict:
        """The report as ``regress --out`` writes it; cells keyed model/input/split."""
        return {
            "format": "gpcurve-regression-report",
            "version": "1.0",
            "n_train": self.n_train,
            "n_test": self.n_test,
            "replicates": self.replicates,
            "lamb": self.lamb,
            "cells": {"/".join(key): asdict(cell) for key, cell in self.cells.items()},
        }

    def table_text(self) -> str:
        lines = [
            f"MSE vs true responses, {self.replicates} replicates, "
            f"{self.n_train} train / {self.n_test} test, lambda={self.lamb}",
            f"{'':12s} {'sampler scalar':>18s} {'sampler functional':>20s} "
            f"{'css scalar':>16s} {'css functional':>16s}",
        ]
        for split in SPLITS:
            row = [f"{split:12s}"]
            for inp in INPUTS:
                for model in MODELS:
                    row.append(f"{str(self.cell(model, inp, split)):>16s}")
            lines.append(" ".join(row))
        return "\n".join(lines)


def _to_common_grid(curve_grid, values, grid) -> np.ndarray:
    fit = css_fit(curve_grid, values, near_interp_weight(curve_grid))
    return css_eval(fit, grid)


def run_regression_protocol(
    data: FunctionalDataset,
    smoothed: list[np.ndarray],
    n_train: int = 20,
    replicates: int = 100,
    lamb: float = 0.1,
    seed: int = 0,
    grid_len: int = 40,
    domain: tuple[float, float] | None = None,
) -> ProtocolReport:
    """Compare regressions on sampler-smoothed vs spline-smoothed curves.

    ``smoothed`` holds the sampler's posterior-mean curve values on each
    curve's own observation grid.  Every replicate draws a fresh train/test
    split and fresh unit-variance response noise.
    """
    n = data.n_curves
    if len(smoothed) != n:
        raise ValueError(f"expected {n} smoothed curves, got {len(smoothed)}")
    if not 0 < n_train < n:
        raise ValueError(f"need 0 < n_train < {n}, got {n_train}")
    for i, (curve, z) in enumerate(zip(data.curves, smoothed)):
        if curve.truth is None:
            raise ValueError(f"curve {i} has no stored truth; the protocol needs it")
        if np.asarray(z).shape != curve.grid.shape:
            raise ValueError(f"smoothed curve {i} does not match its observation grid")

    if domain is None:
        domain = (float(data.pooled_grid[0]), float(data.pooled_grid[-1]))
    grid = np.linspace(domain[0], domain[1], grid_len)

    x_true = np.vstack([_to_common_grid(c.grid, c.truth, grid) for c in data.curves])
    x_css = np.vstack([_to_common_grid(c.grid, c.raw, grid) for c in data.curves])
    x_smooth = np.vstack(
        [_to_common_grid(c.grid, z, grid) for c, z in zip(data.curves, smoothed)]
    )

    beta_true = grid**2
    weights = trapezoid_weights(grid)
    scalar_true = x_true @ (weights * beta_true)
    func_true = x_true * beta_true[None, :]

    # A curve's design rows do not depend on the other curves, so each input
    # and model gets one design and every replicate selects its rows.
    models = {
        inp: (
            ("scalar", fit_scalar_on_function, scalar_design(grid, x, domain=domain), scalar_true),
            ("functional", fit_concurrent, concurrent_design(grid, x, domain=domain), func_true),
        )
        for inp, x in (("sampler", x_smooth), ("css", x_css))
    }

    root = RngStream(seed)
    acc = {key: [] for key in _all_keys()}
    for rep in range(replicates):
        gen = root.substream(rep).generator
        train = np.sort(gen.choice(n, size=n_train, replace=False))
        test = np.setdiff1d(np.arange(n), train)
        ys = {
            "scalar": scalar_true + gen.standard_normal(n),
            "functional": func_true + gen.standard_normal(func_true.shape),
        }
        for inp in INPUTS:
            for model, fit_model, design, truth in models[inp]:
                fit = fit_model(design.take(train), ys[model][train], lamb=lamb)
                pred = predict(fit, design.take(test))
                acc[(model, inp, "fitted")].append(float(np.mean((fit.fitted - truth[train]) ** 2)))
                acc[(model, inp, "predicted")].append(float(np.mean((pred - truth[test]) ** 2)))

    cells = {
        key: ProtocolCell(mean=float(np.mean(vals)), std=float(np.std(vals, ddof=1)))
        for key, vals in acc.items()
    }
    return ProtocolReport(
        cells=cells,
        n_train=n_train,
        n_test=n - n_train,
        replicates=replicates,
        lamb=lamb,
    )


def _all_keys():
    return [(m, i, s) for m in MODELS for i in INPUTS for s in SPLITS]
