"""Benchmark of the gpcurve CLI pipeline: simulate -> smooth -> diagnose -> regress.

Run from the root of a source checkout:

    python3 bench/run.py --workload subsets-bhm --seed 1 --seconds 45 --trace 0

With ``--trace 0`` every subcommand runs as its own child process with
single-threaded BLAS and one child at a time, and the end-to-end metrics are
medians over the run.  With ``--trace 1`` the pipeline runs once in this
process with timing wrappers installed (see ``layers.py``) and the per-layer
metrics are reported.  Every output is checked by ``checks.py``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

N_CURVES, GRID_LEN, S, R = 30, 40, 5.0**0.5, 2.0
SWEEPS, BURNIN = 10000, 2000
REGRESS_REPLICATES = 100
COMMAND_REPEATS = 3
IMPORT_PROBES = 3


@dataclass(frozen=True)
class Workload:
    scenario: str  # the tests/harness.py scenario that --mat and --ws come from
    simulate: tuple[str, ...]
    smooth: tuple[str, ...]

    def flag(self, name: str) -> int:
        """Integer value of a simulate or smooth flag of this workload."""
        args = dict(zip(self.simulate[::2], self.simulate[1::2]))
        args.update(zip(self.smooth[::2], self.smooth[1::2]))
        return int(args.get(name, 0))

    @property
    def chains(self) -> int:
        return self.flag("--chains")


WORKLOADS = {
    "subsets-bhm": Workload(
        "bhm uncommon stationary",
        ("--cgrid", "0", "--stat", "1"),
        ("--smethod", "bhm", "--mat", "1", "--ws", "0.1", "--chains", "2"),
    ),
    "common-bhm": Workload(
        "bhm common nonstationary",
        ("--cgrid", "1", "--stat", "0"),
        ("--smethod", "bhm", "--mat", "0", "--ws", "0.01", "--chains", "1"),
    ),
    "random-babf": Workload(
        "babf random stationary",
        ("--cgrid", "0", "--rgrid", "1", "--stat", "1"),
        ("--smethod", "babf", "--mat", "1", "--ws", "1.0", "--m", "20",
         "--eval-grid-len", "40", "--chains", "2"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "smooth_s": "s",
    "smooth_peak_rss_mb": "MB",
    "diagnose_s": "s",
    "regress_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def simulate_args(wl: Workload, out: Path, seed: int) -> list[str]:
    return [
        "simulate", "--out", str(out), "--n", str(N_CURVES), "--p", str(GRID_LEN),
        "--s", repr(S), "--r", repr(R), *wl.simulate, "--seed", str(seed),
    ]


def smooth_args(wl: Workload, data: Path, out: Path, seed: int) -> list[str]:
    return [
        "smooth", "--data", str(data), "--out", str(out), *wl.smooth,
        "--M", str(SWEEPS), "--Burnin", str(BURNIN), "--seed", str(seed),
    ]


def diagnose_args(fit: Path, data: Path) -> list[str]:
    return ["diagnose", str(fit), "--data", str(data)]


def regress_args(data: Path, fit: Path, out: Path) -> list[str]:
    return ["regress", "--data", str(data), "--results", str(fit), "--out", str(out)]


def sim_spec(wl: Workload) -> checks.SimSpec:
    return checks.SimSpec(N_CURVES, GRID_LEN, S, R, bool(wl.flag("--cgrid")), bool(wl.flag("--rgrid")))


def _tree_rss_bytes(pid: int, page: int) -> int:
    """Resident bytes of ``pid`` and all its descendants, read from /proc."""
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/statm") as handle:
                total += int(handle.read().split()[1]) * page
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except (OSError, ValueError, IndexError):
            continue
    return total


class TreeRssSampler(threading.Thread):
    """Polls the summed RSS of a process tree, so worker processes count too."""

    def __init__(self, pid: int, interval: float = 0.05):
        super().__init__(daemon=True)
        self.pid, self.interval = pid, interval
        self.peak = 0
        self._done = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def run(self) -> None:
        while not self._done.wait(self.interval):
            self.peak = max(self.peak, _tree_rss_bytes(self.pid, self._page))

    def stop(self) -> None:
        self._done.set()
        self.join()


@dataclass
class ChildRun:
    returncode: int
    seconds: float
    peak_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, sample_rss: bool = False) -> ChildRun:
    """Run one child to its end and return its wall time and peak memory.

    Peak memory is the larger of the kernel's high-water mark for the
    child (which covers descendants it waited for) and the polled sum over
    its live process tree.
    """
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=cwd)
        sampler = TreeRssSampler(proc.pid) if sample_rss else None
        if sampler:
            sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if sampler:
                sampler.stop()
        seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    peak = max(usage.ru_maxrss * 1024, sampler.peak if sampler else 0) / layers.MB
    return ChildRun(proc.returncode, seconds, peak, out_path.read_text(), err_path.read_text())


def run_cli(args: list[str], cwd: Path, sample_rss: bool = False) -> ChildRun:
    return run_child([sys.executable, "-m", "gpcurve.cli", *args], cwd, sample_rss)


@dataclass
class Tally:
    """Operations attempted and failed; ``correct`` turns false on a failed output check."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    samples: dict[str, list[float]] = field(default_factory=dict)

    def record(self, label: str, returncode: int, stderr: str, check) -> bool:
        """Count one operation; ``check`` runs only after a zero exit."""
        self.attempted += 1
        if returncode != 0:
            self.failed += 1
            log(f"FAILED {label}: exit {returncode}: {stderr.strip()[-500:]}")
            return False
        try:
            problems = check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            problems = [f"output could not be read: {err!r}"]
        if problems:
            self.failed += 1
            self.correct = False
            log(f"FAILED {label}: " + "; ".join(problems))
            return False
        return True

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def run_timed(wl: Workload, seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    """Run whole rounds until the time is up; the first round always runs.

    A round simulates a fresh dataset, smooths it, then repeats diagnose,
    regress and the same simulate in turn, so each short command is timed
    several times and spread over the round.
    """
    tally = Tally()
    spec = sim_spec(wl)
    deadline = time.perf_counter() + seconds
    rounds, round_seconds = 0, 0.0
    while rounds == 0 or time.perf_counter() + round_seconds <= deadline:
        started = time.perf_counter()
        data_seed = seed * 1000 + rounds
        data, again = work / f"data{rounds}.json", work / "again.json"
        fit, report = work / f"fit{rounds}.json", work / f"report{rounds}.json"
        child = run_cli(simulate_args(wl, data, data_seed), work)
        if tally.record("simulate", child.returncode, child.stderr, lambda: checks.check_dataset(data, spec)):
            tally.add("setup_s", child.seconds)

        child = run_cli(smooth_args(wl, data, fit, data_seed), work, sample_rss=True)
        holder: dict = {}

        def check_fit():
            problems, holder["summary"] = checks.check_results(fit, data, spec, wl.chains)
            return problems

        if tally.record("smooth", child.returncode, child.stderr, check_fit):
            tally.add("smooth_s", child.seconds)
            tally.add("smooth_peak_rss_mb", child.peak_mb)
        summary = holder.get("summary")

        for _ in range(COMMAND_REPEATS):
            child = run_cli(diagnose_args(fit, data), work)
            out = child.stdout
            if tally.record(
                "diagnose", child.returncode, child.stderr,
                lambda: checks.check_diagnose(out, summary) if summary else ["no fit summary"],
            ):
                tally.add("diagnose_s", child.seconds)
            child = run_cli(regress_args(data, fit, report), work)
            if tally.record(
                "regress", child.returncode, child.stderr,
                lambda: checks.check_regress(report, REGRESS_REPLICATES),
            ):
                tally.add("regress_s", child.seconds)
            child = run_cli(simulate_args(wl, again, data_seed), work)
            if tally.record(
                "simulate", child.returncode, child.stderr,
                lambda: [] if again.read_bytes() == data.read_bytes() else ["same seed, other dataset"],
            ):
                tally.add("setup_s", child.seconds)
        rounds += 1
        round_seconds = time.perf_counter() - started
        log(f"round {rounds} took {round_seconds:.1f}s")

    missing = [name for name in END_TO_END_UNITS if not tally.samples.get(name)]
    if missing:
        raise RuntimeError(f"no successful measurement of {missing}")
    metrics = {
        name: {"value": statistics.median(tally.samples[name]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    return tally, metrics


def _call_main(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / layers.MB


def run_traced(wl: Workload, seed: int, work: Path, spans_path: Path) -> tuple[Tally, dict]:
    """One pipeline in this process with wrappers installed, plus the
    untraced smooth it is compared against."""
    tally = Tally()
    spec = sim_spec(wl)
    probes = [run_child([sys.executable, "-c", "import gpcurve.cli"], work) for _ in range(IMPORT_PROBES)]
    if any(p.returncode for p in probes):
        raise RuntimeError(f"import gpcurve.cli failed: {probes[0].stderr.strip()[-500:]}")
    import_s = statistics.median(p.seconds for p in probes)

    sys.path.insert(0, str(SRC))
    from gpcurve import cli

    data, fit, plain = work / "data.json", work / "fit.json", work / "plain.json"
    report = work / "report.json"
    summary = None
    tracer = layers.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.simulate"):
            code, _, err = _call_main(cli.main, simulate_args(wl, data, seed * 1000))
        tally.record("simulate", code, err, lambda: checks.check_dataset(data, spec))

        untraced = run_cli(smooth_args(wl, data, plain, seed * 1000), work)
        holder: dict = {}

        def check_plain():
            problems, holder["summary"] = checks.check_results(plain, data, spec, wl.chains)
            return problems

        tally.record("smooth", untraced.returncode, untraced.stderr, check_plain)

        with tracer.span("cli.smooth") as smooth_span:
            code, _, err = _call_main(cli.main, smooth_args(wl, data, fit, seed * 1000))

        def check_traced():
            problems, _ = checks.check_results(fit, data, spec, wl.chains)
            same = json.loads(fit.read_text())["estimates"] == json.loads(plain.read_text())["estimates"]
            return problems + ([] if same else ["traced and untraced smooth disagree"])

        tally.record("smooth", code, err, check_traced)
        summary = holder.get("summary")
        with tracer.span("cli.diagnose"):
            code, out, err = _call_main(cli.main, diagnose_args(fit, data))
        tally.record(
            "diagnose", code, err,
            lambda: checks.check_diagnose(out, summary) if summary else ["no fit summary"],
        )
        with tracer.span("cli.regress"):
            code, _, err = _call_main(cli.main, regress_args(data, fit, report))
        tally.record("regress", code, err, lambda: checks.check_regress(report, REGRESS_REPLICATES))
    finally:
        tracer.restore()
    tracer.write(spans_path)
    if summary is None or untraced.returncode != 0:
        raise RuntimeError("the untraced smooth failed; no per-layer figures")

    traced_smooth = tracer.spans[smooth_span.index]
    values = layers.layer_metrics(tracer, SWEEPS * wl.chains)
    draws = summary.draws_per_chain * summary.chains
    values.update({
        "sampler.ess_min": (summary.ess_min, "draws"),
        "sampler.ess_per_draw": (summary.ess_min / draws, "ratio"),
        "sampler.ess_per_s": (summary.ess_min / untraced.seconds, "1/s"),
        "io.results_mb": (fit.stat().st_size / layers.MB, "MB"),
        "io.sidecar_mb": (_dir_mb(work / "fit.draws"), "MB"),
        "cli.import_ms": (1e3 * import_s, "ms"),
        "trace.smooth_overhead_s": (
            traced_smooth[2] - traced_smooth[1] + import_s - untraced.seconds, "s",
        ),
    })
    metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpcurve" / "cli.py").is_file():
        log(f"error: no gpcurve sources under {SRC}; run from the root of a checkout")
        return 2
    wl = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.csv"
            tally, metrics = run_traced(wl, args.seed, work, spans)
        else:
            tally, metrics = run_timed(wl, args.seed, args.seconds, work)
    except RuntimeError as err:
        log(f"error: {err}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
