"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics of the first traced pass and the tracing overhead, and
writes the recorded spans under ``.perfbench_out/``.  The last line of
standard output is the result object; the lines before it are the run
stamp, the load and paper-ratio reports, and any failed output check.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"
PINS_PATH = BENCH_DIR / "pins.json"

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "makespan_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_call": "events/call",
    "sim.self_s": "s",
    "sim.calendar_peak": "count",
    "cpu.executes": "count",
    "cpu.wakes": "count",
    "cpu.self_s": "s",
    "cpu.vector_switches": "count",
    "node.submits": "count",
    "node.self_s": "s",
    "node.pool_acquire_s": "s",
    "sched.priority_calls": "count",
    "sched.queue_ops": "count",
    "sched.queue_peak": "count",
    "sched.self_s": "s",
    "cluster.picks": "count",
    "cluster.pick_s": "s",
    "cluster.client_self_s": "s",
    "cluster.useful_attempt_ratio": "ratio",
    "failures.draws": "count",
    "failures.draw_s": "s",
    "workload.build_s": "s",
    "workload.requests": "count",
    "metrics.folds": "count",
    "metrics.fold_s": "s",
    "metrics.summary_s": "s",
    "engine.cells": "count",
    "engine.compute_s": "s",
    "engine.overhead_ms_per_cell": "ms",
    "engine.spawn_s": "s",
    "engine.join_s": "s",
    "engine.cache_store_s": "s",
    "engine.cache_load_s": "s",
    "engine.poll_sleep_s": "s",
    "engine.claims": "count",
    "engine.steals": "count",
    "engine.duplicates": "count",
    "engine.useful_compute_ratio": "ratio",
    "cell_us_per_call_p50": "us",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources, naming the code when no git
    metadata is present."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_stamp() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _import_probe() -> None:
    """Import the package in a fresh interpreter, as a CLI invocation does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments.parallel, repro.experiments.queue"],
        env=env,
        check=True,
        timeout=120,
    )


def set_up(cls, seed: int, size: str, tmp: Path):
    """Build the workload SETUP_REPEATS times (import probe, inputs, temp
    dirs); keep the last one.  Returns ``(workload, median seconds)``."""
    times = []
    workload = None
    for attempt in range(SETUP_REPEATS):
        if workload is not None:
            shutil.rmtree(workload.tmp, ignore_errors=True)
        start = time.perf_counter()
        _import_probe()
        work_dir = tmp / f"setup-{attempt}"
        work_dir.mkdir(parents=True)
        workload = cls(seed, size, work_dir)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """Passes of one workload, with every output checked."""

    def __init__(self, workload, pins: dict) -> None:
        self.workload = workload
        self.pins = pins.get(workload.pin_group, {})
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def check(self, outcome) -> None:
        self.attempted += len(self.workload.cells)
        errors = self.workload.check(outcome, self.pins)
        self.failed += min(len(errors), len(self.workload.cells))
        for error in errors:
            print(f"check failed: {error}", file=sys.stderr)

    def one_pass(self):
        try:
            outcome = self.workload.run_pass()
        except Exception:  # noqa: BLE001 - a raising pass is a failed operation
            traceback.print_exc()
            self.attempted += len(self.workload.cells)
            self.failed += len(self.workload.cells)
            return None
        return outcome

    def report(self, outcome) -> None:
        """Print the workload's report on the run's first pass."""
        if self.reported:
            return
        self.reported = True
        for line in self.workload.reports(outcome):
            print(line)


def _another_fits(started: float, durations: list, seconds: float) -> bool:
    """Whether one more pass of the median length ends within ``seconds``."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def measure(run: Run, seconds: float, stamp: dict) -> dict:
    """Untraced passes while another one fits in ``seconds`` (at least one).

    A probed workload's pass times are scaled to reference seconds by a
    speed probe running alongside (hostspeed.py); the stamp records the
    host seconds and the slowdown they were scaled by."""
    from hostspeed import HostClock, SpeedProbe

    workload = run.workload
    probe = SpeedProbe() if workload.probed else HostClock()
    walls, host_walls, factors, durations, calls = [], [], [], [], 0
    started = time.perf_counter()
    workload.clock = probe.clock
    try:
        with probe:
            while True:
                began, start = time.perf_counter(), probe.clock()
                outcome = run.one_pass()
                end = probe.clock()
                if outcome is None:
                    break
                run.check(outcome)
                run.report(outcome)
                factor = probe.factor(start, end)
                factors.append(factor)
                host_walls.append(outcome.wall_s)
                walls.append(outcome.wall_s / factor)
                calls += workload.calls
                del outcome
                durations.append(time.perf_counter() - began)
                if not _another_fits(started, durations, seconds):
                    break
    finally:
        workload.clock = time.perf_counter
    if not walls:
        return {}
    stamp["host_makespan_s"] = statistics.median(host_walls)
    stamp["host_slowdown"] = statistics.median(factors)
    stamp["passes"] = len(walls)
    return {
        "calls_per_s": calls / sum(walls),
        "makespan_s": statistics.median(walls),
    }


def traced_pass(run: Run, tmp: Path, index: int):
    """One pass under full instrumentation; returns ``(outcome, merged)``."""
    from tracing import Instrumentation, Tracer, load_dumps, merge_snapshots

    workload = run.workload
    dump_dir = tmp / f"spans-{index}"
    dump_dir.mkdir()
    tracer = Tracer()
    cell_ids = {cell.config: i for i, cell in enumerate(workload.cells)}
    instrumentation = Instrumentation(tracer, cell_ids, dump_dir)
    instrumentation.install()
    try:
        tracer.enter("bench.pass")
        try:
            outcome = run.one_pass()
            if outcome is not None:
                run.check(outcome)
        finally:
            tracer.exit()
    finally:
        instrumentation.uninstall()
    merged = merge_snapshots([tracer.snapshot(), *load_dumps(dump_dir)])
    return outcome, merged


def measure_traced(run: Run, seconds: float, tmp: Path, out_dir: Path) -> dict:
    """Alternate untraced and traced passes while another pair fits in
    ``seconds`` (at least one pair); per-layer metrics come from the first
    traced pass."""
    from tracing import layer_metrics

    plain, traced = [], []
    layers = None
    started = time.perf_counter()
    index = 0
    while True:
        outcome = run.one_pass()
        if outcome is None:
            break
        run.check(outcome)
        run.report(outcome)
        plain.append(outcome.wall_s)
        del outcome
        outcome, merged = traced_pass(run, tmp, index)
        index += 1
        if outcome is None:
            break
        traced.append(outcome.wall_s)
        if layers is None:
            workload = run.workload
            ok_calls = sum(o.summary.n_calls - o.summary.gave_up for o in outcome.outputs)
            layers = layer_metrics(
                merged,
                calls=workload.calls,
                ok_calls=ok_calls,
                cells=len(workload.cells),
                makespan_s=outcome.wall_s,
                jobs=outcome.jobs,
            )
            layers["cell_us_per_call_p50"] = _cell_us_per_call(merged, workload)
            write_spans(out_dir, merged)
        del outcome
        pairs = [a + b for a, b in zip(plain, traced)]
        if not _another_fits(started, pairs, seconds):
            break
    if layers is None:
        return {}
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return layers


def _cell_us_per_call(merged: dict, workload) -> float:
    """Median over computed cells of traced host µs per simulated call."""
    from tracing import span_durations

    cells = workload.cells
    values = [
        seconds / cells[i].calls * 1e6 for i, seconds in span_durations(merged, "engine.cell")
    ]
    return statistics.median(values) if values else 0.0


def write_spans(out_dir: Path, merged: dict) -> None:
    """Every recorded span (all processes) as one .npz, plus the per-name
    aggregates as JSON."""
    import numpy as np

    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for n, proc in enumerate(merged["processes"]):
        spans = proc["spans"]
        arrays[f"p{n}_pid"] = np.array([proc["pid"]])
        arrays[f"p{n}_names"] = np.array(proc["names"])
        for field, dtype in (
            ("name", "i4"), ("start", "f8"), ("end", "f8"), ("parent", "i8"),
            ("cell", "i4"), ("call", "i8"), ("index", "i8"),
        ):
            arrays[f"p{n}_{field}"] = np.frombuffer(spans[field], dtype=dtype)
    np.savez(out_dir / "spans.npz", **arrays)
    aggregates = {
        name: {"count": n, "total_s": total, "self_s": own}
        for name, (n, total, own) in sorted(merged["agg"].items())
    }
    (out_dir / "aggregates.json").write_text(json.dumps(aggregates, indent=1))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small: reduced inputs for the self-test",
    )
    parser.add_argument("--pins", type=Path, default=PINS_PATH, help="pinned digests (JSON)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    pins = json.loads(args.pins.read_text())

    stamp = run_stamp()
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        workload, setup_s = set_up(cls, args.seed, args.size, tmp)
        workload.prepare()
        run = Run(workload, pins)
        if args.trace:
            out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}"
            metrics = measure_traced(run, args.seconds, tmp, out_dir)
            units = PER_LAYER_UNITS
        else:
            metrics = measure(run, args.seconds, stamp)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        metrics["error_rate"] = run.failed / run.attempted if run.attempted else 1.0
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = {"stamp": stamp, "workload": args.workload, "seed": args.seed, "metrics": metrics}
        (out_dir / "layers.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    print(result_line(run.failed == 0, run.attempted, run.failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
