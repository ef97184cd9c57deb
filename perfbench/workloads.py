"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Each workload is a closed batch of experiment cells with one caller.  Its
constructor is the set-up (input generation and temp dirs); ``run_pass``
runs the batch once and times only the batch itself; ``check`` verifies
every cell's output.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.platform import FaaSPlatform
from repro.cluster.spec import ClusterSpec
from repro.experiments import parallel
from repro.experiments.config import ExperimentConfig
from repro.experiments.paper_data import TABLE3
from repro.failures.spec import FailureSpec
from repro.workload.functions import sebs_catalog
from repro.workload.replay import TraceRow, _fnv1a, write_trace_csv

#: The seed whose outputs are pinned in pins.json.
DEFAULT_SEED = 1

PAPER_STRATEGIES = ("baseline", "FIFO", "SEPT", "EECT", "RECT", "FC")
SWEEP_STRATEGIES = ("baseline", "FIFO", "SEPT", "FC")


@dataclasses.dataclass
class Cell:
    """One experiment of a workload and the call count its inputs imply."""

    key: str
    config: ExperimentConfig
    calls: int


@dataclasses.dataclass
class CellOutput:
    """What the checks and reports need from one cell's result; the result
    itself (and its records) is dropped as soon as this is taken."""

    summary: object
    digest: str
    node_stats: list

    @classmethod
    def of(cls, result) -> "CellOutput":
        # Exact summary on retained runs, the streaming one otherwise.
        summary = result.summary() if result.retained else result.streaming_summary()
        return cls(summary, summary_digest(summary), result.node_stats)


@dataclasses.dataclass
class PassOutcome:
    """One timed pass: its wall time and every cell's output."""

    wall_s: float
    outputs: List[CellOutput]
    jobs: int = 1
    #: EngineStats of the pass (engine workloads only).
    stats: Optional[parallel.EngineStats] = None


def summary_digest(summary) -> str:
    """SHA-256 of a serialized summary."""
    blob = json.dumps(dataclasses.asdict(summary), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Workload:
    """Shared checking logic; subclasses build ``cells`` and run passes."""

    name = "?"
    #: Which group of pins.json this workload's cells are pinned in.
    pin_group = "?"
    #: Whether the run scales this workload's pass times to the reference
    #: speed (hostspeed.py); true where one process does all the work.
    probed = True

    def __init__(self, seed: int, size: str, tmp: Path) -> None:
        self.seed = seed
        self.size = size
        self.tmp = tmp
        self.cells: List[Cell] = []
        #: First digest seen per cell key, for the determinism check.
        self.seen: Dict[str, str] = {}
        #: What passes are timed with; the run swaps in the probe's clock,
        #: which stands still during reference slices.
        self.clock = time.perf_counter

    @property
    def calls(self) -> int:
        return sum(cell.calls for cell in self.cells)

    def prepare(self) -> None:
        """Untimed warm-up after set-up."""

    def run_pass(self) -> PassOutcome:
        raise NotImplementedError

    def reports(self, outcome: PassOutcome) -> List[str]:
        """Lines about a pass's outputs, printed once per run."""
        return []

    def extra_check(self, cell: Cell, output: CellOutput) -> List[str]:
        return []

    def check(self, outcome: PassOutcome, pins: Dict[str, str]) -> List[str]:
        """One message per failed cell (empty when every cell is right)."""
        errors = []
        for cell, output in zip(self.cells, outcome.outputs):
            problems = []
            if output.summary.n_calls != cell.calls:
                problems.append(f"{output.summary.n_calls} calls, inputs imply {cell.calls}")
            first = self.seen.setdefault(cell.key, output.digest)
            if output.digest != first:
                problems.append("output differs from an earlier pass of this run")
            if self.seed == DEFAULT_SEED:
                pinned = pins.get(cell.key)
                if pinned is None:
                    problems.append("no pinned digest")
                elif output.digest != pinned:
                    problems.append(f"digest {output.digest[:12]} != pinned {pinned[:12]}")
            problems.extend(self.extra_check(cell, output))
            if problems:
                errors.append(f"{self.name} {cell.key}: " + "; ".join(problems))
        return errors

    def _inline(self, cells: List[Cell]) -> PassOutcome:
        """Run ``cells`` one after another in this process.  Only the runs
        are timed; each result is reduced to its output between runs, so a
        pass never holds more than one cell's records."""
        # Resolved at call time, so the traced run sees its wrapper.
        run = parallel.run_experiment
        wall = 0.0
        outputs = []
        clock = self.clock
        for cell in cells:
            start = clock()
            result = run(cell.config)
            wall += clock() - start
            outputs.append(CellOutput.of(result))
            del result
        return PassOutcome(wall, outputs)


def _uniform_calls(cores: int, intensity: int) -> int:
    return int(round(1.1 * cores * intensity))


class PaperGrid(Workload):
    """The paper's single-node protocol, inline, no cache, records kept."""

    name = "paper-grid"
    pin_group = "paper-grid"

    def __init__(self, seed: int, size: str, tmp: Path) -> None:
        super().__init__(seed, size, tmp)
        cores = (5, 10, 20) if size == "full" else (5,)
        intensities = (30, 60, 90) if size == "full" else (30,)
        for c in cores:
            for v in intensities:
                for policy in PAPER_STRATEGIES:
                    self.cells.append(
                        Cell(
                            key=f"c{c}-v{v}-{policy}",
                            config=ExperimentConfig(cores=c, intensity=v, policy=policy, seed=seed),
                            calls=_uniform_calls(c, v),
                        )
                    )

    def prepare(self) -> None:
        """Warm up: the smallest cell of each strategy, untimed, so the
        first timed cells do not pay for first-use code paths and heap
        growth."""
        self._inline([cell for cell in self.cells if cell.key.startswith("c5-v30-")])

    def run_pass(self) -> PassOutcome:
        return self._inline(self.cells)

    def reports(self, outcome: PassOutcome) -> List[str]:
        """Simulated baseline/FC ratios of mean response time and mean
        stretch at the loaded cells, beside the paper's Table III."""
        by_key = {cell.key: output for cell, output in zip(self.cells, outcome.outputs)}
        lines = []
        for cell in self.cells:
            c, v = cell.config.cores, cell.config.intensity
            if cell.config.policy != "FC" or v < 60:
                continue
            base = by_key[f"c{c}-v{v}-baseline"].summary
            fc = by_key[cell.key].summary
            sim_r = base.mean_response_time / fc.mean_response_time
            sim_s = base.mean_stretch / fc.mean_stretch
            paper_base, paper_fc = TABLE3[(c, v, "baseline")], TABLE3[(c, v, "FC")]
            ref_r, ref_s = paper_base[0] / paper_fc[0], paper_base[3] / paper_fc[3]
            lines.append(
                f"paper-ratio c={c} v={v}: mean response baseline/FC "
                f"sim {sim_r:.2f} paper {ref_r:.2f} (err {sim_r / ref_r - 1:+.0%}); "
                f"mean stretch sim {sim_s:.2f} paper {ref_s:.2f} (err {sim_s / ref_s - 1:+.0%})"
            )
        return lines


# ----------------------------------------------------------------------
# fleet-replay
# ----------------------------------------------------------------------
FLEET_NODES = 4
FLEET_CORES = 4
#: Calls per second per node.  Under the default node model a 4-core FC
#: node saturates near 8 calls/s on this mix (per-call docker and system
#: work, not the functions, fill its cores), so this is about 75% of what
#: the fleet sustains without a growing backlog.
FLEET_RATE = 6
FLEET_MINUTES = 8
#: Catalog functions of the trace, most popular first (Zipf by rank, as
#: in the Azure trace most calls go to short functions).  Each maps to a
#: trace ``app/func`` name that hashes onto it, and keeps its own
#: containers and estimator state.
FLEET_MIX = (
    "graph-bfs", "dynamic-html", "thumbnailer", "uploader", "graph-pagerank",
    "image-recognition", "sleep", "graph-mst", "compression",
    "video-processing", "thumbnailer", "uploader",
)
ZIPF_EXPONENT = 1.1
MINUTE_S = 60.0
FLEET_FAILURES = FailureSpec(
    node_crash_rate=0.0005,
    node_recovery_s=10.0,
    container_kill_rate=0.004,
    straggler_prob=0.01,
    straggler_factor=3.0,
    timeout_s=30.0,
    max_attempts=3,
    backoff_base_s=0.5,
)
#: What a fleet without a growing backlog delivers: p99 under the client
#: timeout, and retries a small minority of attempts.
FLEET_MAX_P99_S = FLEET_FAILURES.timeout_s
FLEET_MAX_RETRY_SHARE = 0.05


def _fleet_functions() -> List[tuple]:
    """``(app, func)`` trace names, one per FLEET_MIX entry, chosen as the
    first names whose stable hash maps onto that catalog function."""
    names = [spec.name for spec in sebs_catalog()]
    chosen: List[tuple] = []
    for target in FLEET_MIX:
        k = 0
        while True:
            pair = (f"app{k % 5}", f"fn{k}")
            if pair not in chosen and names[_fnv1a("/".join(pair)) % len(names)] == target:
                chosen.append(pair)
                break
            k += 1
    return chosen


def fleet_trace(seed: int, minutes: int):
    """Per-minute rows with fixed Zipf popularity; the seed draws how each
    minute's calls split over the functions.  Returns ``(rows, calls)``."""
    rng = np.random.default_rng([seed, 1109])
    weights = np.arange(1, len(FLEET_MIX) + 1, dtype=float) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    per_minute = FLEET_RATE * FLEET_NODES * int(MINUTE_S)
    functions = _fleet_functions()
    rows = []
    for minute in range(minutes):
        counts = rng.multinomial(per_minute, weights)
        rows.extend(
            TraceRow(app, func, minute, int(count))
            for (app, func), count in zip(functions, counts)
            if count
        )
    return rows, per_minute * minutes


class FleetReplay(Workload):
    """A Zipf-mixed minute trace streamed through a faulty 4-node FC fleet."""

    name = "fleet-replay"
    pin_group = "fleet-replay"

    def __init__(self, seed: int, size: str, tmp: Path) -> None:
        super().__init__(seed, size, tmp)
        minutes = FLEET_MINUTES if size == "full" else 1
        self.window_s = minutes * MINUTE_S
        self.cells.append(self._cell(f"fleet-{size}", minutes))

    def _cell(self, key: str, minutes: int) -> Cell:
        rows, calls = fleet_trace(self.seed, minutes)
        path = write_trace_csv(self.tmp / f"{key}.csv", rows)
        config = ExperimentConfig(
            cores=FLEET_CORES,
            intensity=1,
            policy="FC",
            seed=self.seed,
            scenario="replay",
            scenario_params={"path": str(path), "minute_s": MINUTE_S},
            cluster=ClusterSpec(
                nodes=FLEET_NODES, balancer="power-of-d", balancer_params=(("d", 2),)
            ),
            failures=FLEET_FAILURES,
            retain_records=False,
        )
        return Cell(key=key, config=config, calls=calls)

    def prepare(self) -> None:
        """Warm up on a one-minute trace, untimed."""
        self._inline([self._cell("fleet-warmup", 1)])

    def run_pass(self) -> PassOutcome:
        return self._inline(self.cells)

    def extra_check(self, cell: Cell, output: CellOutput) -> List[str]:
        problems = []
        summary = output.summary
        p99 = summary.response_percentile(99)
        if not p99 <= FLEET_MAX_P99_S:
            problems.append(f"p99 response {p99:.1f}s: the fleet backlogs")
        attempts = summary.n_calls + summary.retries
        if summary.retries > FLEET_MAX_RETRY_SHARE * attempts:
            problems.append(f"{summary.retries} of {attempts} attempts are retries")
        return problems

    def reports(self, outcome: PassOutcome) -> List[str]:
        """The measured load level."""
        output = outcome.outputs[0]
        summary = output.summary
        # Node utilization spans the run and its drain grace; rescale it
        # to the trace window.
        horizon = summary.max_completion_time + FaaSPlatform.DRAIN_GRACE_S
        cpu = [stats["cpu_utilization"] * horizon / self.window_s for stats in output.node_stats]
        return [
            f"fleet load: {FLEET_RATE} calls/s/node for {self.window_s:.0f}s; "
            f"CPU busy over the trace window {min(cpu):.2f}-{max(cpu):.2f}; "
            f"p99 response {summary.response_percentile(99):.2f}s; "
            f"retries {summary.retries} of {summary.n_calls + summary.retries} attempts"
        ]


# ----------------------------------------------------------------------
# sweep-queue
# ----------------------------------------------------------------------
SWEEP_SEEDS = 16
SWEEP_JOBS = 2


def sweep_cells(seed: int, size: str) -> List[Cell]:
    seeds = SWEEP_SEEDS if size == "full" else 2
    cells = []
    for k in range(seeds):
        cell_seed = seed * 100 + k
        for policy in SWEEP_STRATEGIES:
            cells.append(
                Cell(
                    key=f"{policy}-s{cell_seed}",
                    config=ExperimentConfig(cores=5, intensity=30, policy=policy, seed=cell_seed),
                    calls=_uniform_calls(5, 30),
                )
            )
    return cells


class SweepQueue(Workload):
    """Small cells through the queue executor and its result cache."""

    name = "sweep-queue"
    pin_group = "sweep"
    #: Process start-up, claim files and polling in 2 processes dominate a
    #: pass.  A probe in the submitting process tracked none of it (scaling
    #: tripled the spread), so the pass is timed in host seconds.
    probed = False

    def __init__(self, seed: int, size: str, tmp: Path) -> None:
        super().__init__(seed, size, tmp)
        self.cells = sweep_cells(seed, size)
        self._passes = 0

    def run_pass(self) -> PassOutcome:
        # Every pass gets a fresh cache, made and removed untimed.
        self._passes += 1
        cache_dir = self.tmp / f"cache-{self._passes}"
        cache_dir.mkdir()
        stats = parallel.EngineStats()
        configs = [cell.config for cell in self.cells]
        try:
            start = self.clock()
            results = parallel.run_configs(
                configs, jobs=SWEEP_JOBS, cache_dir=cache_dir, executor="queue", stats=stats
            )
            wall = self.clock() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        outputs = [CellOutput.of(result) for result in results]
        return PassOutcome(wall, outputs, jobs=SWEEP_JOBS, stats=stats)

    def check(self, outcome: PassOutcome, pins: Dict[str, str]) -> List[str]:
        errors = super().check(outcome, pins)
        stats = outcome.stats
        # A cold pass starts from an empty cache, so it finishes every
        # cell; the queue executor reports the cells its helper workers
        # computed as cache hits of the submitting process.
        if stats is not None and stats.computed + stats.cached != len(self.cells):
            errors.append(
                f"{self.name}: engine computed {stats.computed} and served "
                f"{stats.cached} from cache for {len(self.cells)} cells"
            )
        return errors


WORKLOADS = {cls.name: cls for cls in (PaperGrid, FleetReplay, SweepQueue)}
