"""Per-layer tracing of an in-process CLI run.

Timing wrappers are installed on the module attributes that the program
looks its callees up by, so no program file changes.  Each wrapped call
records a span (name, start, end, parent span); spans stay in memory and
are written out once the run ends.  Self times, per-call costs and counts
are derived from the spans afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name).  A function that several modules import
# by name is wrapped in each of them under one span name.
WRAPPED = (
    ("gpcurve.cli", "sim_gfd", "datagen.simulate"),
    ("gpcurve.cli", "sim_gfd_rgrid", "datagen.simulate"),
    ("gpcurve.cli", "bhm_run", "bhm.run"),
    ("gpcurve.cli", "babf_run", "babf.run"),
    ("gpcurve.cli", "empirical_estimates", "empirical.estimates"),
    ("gpcurve.babf", "empirical_estimates", "empirical.estimates"),
    ("gpcurve.cli", "build_hyperparams", "empirical.hyperparams"),
    ("gpcurve.babf", "build_hyperparams", "empirical.hyperparams"),
    ("gpcurve.empirical", "css_gcv", "css.css_gcv"),
    ("gpcurve.empirical", "fit_matern", "kernels.fit_matern"),
    ("gpcurve.bhm", "bhm_step_signals", "bhm.signals"),
    ("gpcurve.bhm", "bhm_step_noise", "bhm.noise"),
    ("gpcurve.bhm", "bhm_step_mean", "bhm.mean"),
    ("gpcurve.bhm", "bhm_step_cov", "bhm.cov"),
    ("gpcurve.bhm", "bhm_step_scale", "bhm.scale"),
    ("gpcurve.bhm", "_summarize", "bhm.summarize"),
    ("gpcurve.babf", "build_babf_context", "babf.context"),
    ("gpcurve.babf", "babf_step_coeffs", "babf.coeffs"),
    ("gpcurve.babf", "babf_step_meancov", "babf.meancov"),
    ("gpcurve.babf", "babf_step_noise", "babf.noise"),
    ("gpcurve.babf", "babf_step_scale", "babf.scale"),
    ("gpcurve.babf", "_summarize", "babf.summarize"),
    ("gpcurve.bhm", "sample_inverse_wishart", "stochastic.inverse_wishart"),
    ("gpcurve.babf", "sample_inverse_wishart", "stochastic.inverse_wishart"),
    ("gpcurve.stochastic", "cholesky_with_jitter", "stochastic.cholesky"),
    ("gpcurve.bhm", "pdm_pvalues", "diagnostics.pdm_pvalues"),
    ("gpcurve.babf", "pdm_pvalues", "diagnostics.pdm_pvalues"),
    ("gpcurve.cli", "monitored_scalars", "diagnostics.monitored_scalars"),
    ("gpcurve.cli", "psrf", "diagnostics.psrf"),
    ("gpcurve.cli", "save_results", "io.save_results"),
    ("gpcurve.cli", "load_dataset", "io.load_dataset"),
    ("gpcurve.cli", "load_results", "io.load_results"),
    ("gpcurve.cli", "read_matrix", "io.read_matrix"),
    ("gpcurve.cli", "run_regression_protocol", "protocol.run"),
    ("gpcurve.protocol", "fit_scalar_on_function", "fregress.scalar_fit"),
    ("gpcurve.protocol", "fit_concurrent", "fregress.concurrent_fit"),
    ("gpcurve.protocol", "predict", "fregress.predict"),
)

MB = float(1 << 20)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """Records spans around wrapped calls; ``restore`` undoes the wrapping."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.ridged = 0
        self.retained_bytes: dict[str, int] = {}

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, result)
            return result

        return traced

    def span(self, name: str):
        return _Span(self, name)

    def _observe(self, name: str, result) -> None:
        if name == "stochastic.cholesky" and result[1] > 0.0:
            self.ridged += 1
        elif name in ("bhm.run", "babf.run"):
            draws = result[0]
            self.retained_bytes[name] = sum(
                _nbytes(getattr(draws, f.name)) for f in dataclasses.fields(draws)
            )

    def write(self, path: Path) -> None:
        """Spans as CSV: id, name, start and end in seconds, parent id (-1 at the root)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("id,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
        return out


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans.append((self.name, 0.0, 0.0, parent))
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer.spans[self.index][3]
        tracer.spans[self.index] = (self.name, self.start, end, parent)
        return False


def layer_metrics(tracer: Tracer, sweeps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pipeline.

    ``sweeps`` is the number of Gibbs sweeps over all chains.  A layer that
    does not run on a workload reports 0 calls and 0 ms.
    """
    totals = tracer.totals()

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def total_ms(name):
        return 1e3 * totals[name]["total"] if name in totals else 0.0

    def per_call_ms(name):
        return total_ms(name) / calls(name) if calls(name) else 0.0

    def loop_other_ms(run):
        return 1e3 * totals[run]["self"] / sweeps if run in totals else 0.0

    out: dict[str, tuple[float, str]] = {}
    for step in ("signals", "noise", "mean", "cov", "scale", "summarize"):
        out[f"bhm.{step}_ms"] = (per_call_ms(f"bhm.{step}"), "ms/call")
    out["bhm.loop_other_ms"] = (loop_other_ms("bhm.run"), "ms/sweep")
    out["bhm.retained_mb"] = (tracer.retained_bytes.get("bhm.run", 0) / MB, "MB")
    for step in ("coeffs", "meancov", "noise", "scale", "context", "summarize"):
        out[f"babf.{step}_ms"] = (per_call_ms(f"babf.{step}"), "ms/call")
    out["babf.loop_other_ms"] = (loop_other_ms("babf.run"), "ms/sweep")
    out["babf.retained_mb"] = (tracer.retained_bytes.get("babf.run", 0) / MB, "MB")
    out["stochastic.inverse_wishart_ms"] = (per_call_ms("stochastic.inverse_wishart"), "ms/call")
    out["stochastic.factorizations"] = (calls("stochastic.cholesky"), "count")
    out["stochastic.ridged_factorizations"] = (tracer.ridged, "count")
    out["css.css_gcv_ms"] = (total_ms("css.css_gcv"), "ms")
    out["css.css_gcv_calls"] = (calls("css.css_gcv"), "count")
    out["empirical.estimates_ms"] = (total_ms("empirical.estimates"), "ms")
    out["empirical.estimates_calls"] = (calls("empirical.estimates"), "count")
    out["empirical.hyperparams_ms"] = (total_ms("empirical.hyperparams"), "ms")
    out["kernels.fit_matern_ms"] = (total_ms("kernels.fit_matern"), "ms")
    for name in ("pdm_pvalues", "monitored_scalars", "psrf"):
        out[f"diagnostics.{name}_ms"] = (total_ms(f"diagnostics.{name}"), "ms")
    for name in ("save_results", "load_dataset", "load_results", "read_matrix"):
        out[f"io.{name}_ms"] = (total_ms(f"io.{name}"), "ms")
    out["protocol.run_ms"] = (total_ms("protocol.run"), "ms")
    for name in ("scalar_fit", "concurrent_fit", "predict"):
        out[f"fregress.{name}_ms"] = (per_call_ms(f"fregress.{name}"), "ms/call")
    out["datagen.simulate_ms"] = (total_ms("datagen.simulate"), "ms")
    return out
