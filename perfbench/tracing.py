"""Layer-boundary tracing for the benchmark's traced run.

Nothing here touches ``src/``: :class:`Instrumentation` wraps the entry
points of each ``repro`` layer from the outside (class methods and
module-level names), records one span per call into a :class:`Tracer`,
and restores every original on :meth:`Instrumentation.uninstall`.

A span has a name, a start, an end, a parent span, a cell id (the
ordinal of the experiment cell it ran in) and a call id (the simulated
request's ``rid`` where the boundary belongs to one call, else -1).
Spans are kept in memory in compact arrays and written when the
benchmark ends; self time (a span's duration minus the time covered by
its child spans) is folded into per-name aggregates as each span closes.

Worker processes forked by the sweep executors inherit the installed
wrappers; each one starts a fresh tracer and dumps it to a file that the
parent merges (:func:`load_dumps`).
"""

from __future__ import annotations

import multiprocessing.process
import os
import pickle
import time
import uuid
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Instrumentation",
    "Tracer",
    "layer_metrics",
    "load_dumps",
    "merge_snapshots",
    "span_durations",
]

_clock = time.perf_counter


class Tracer:
    """Span recorder with an explicit stack (one thread per process)."""

    def __init__(self) -> None:
        self.names: Dict[str, int] = {}
        self.name_list: List[str] = []
        # Closed spans, one column per field.
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("q")
        self.s_cell = array("i")
        self.s_call = array("q")
        #: Open order of each closed span (what ``s_parent`` refers to).
        self.s_index = array("q")
        self._opened = 0
        # Open spans: [name_id, start, child_time, span_index, call].
        self.stack: List[list] = []
        # name -> [count, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        self.peaks: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.cell = -1
        #: cell ordinal -> number of times its runner was entered here.
        self.computes: Dict[int, int] = {}

    def _name_id(self, name: str) -> int:
        idx = self.names.get(name)
        if idx is None:
            idx = self.names[name] = len(self.name_list)
            self.name_list.append(name)
        return idx

    def enter(self, name: str, call: int = -1) -> None:
        index = self._opened
        self._opened += 1
        self.stack.append([self._name_id(name), _clock(), 0.0, index, call])

    def exit(self, rename: Optional[str] = None) -> None:
        end = _clock()
        name_id, start, child, index, call = self.stack.pop()
        if rename is not None:
            name_id = self._name_id(rename)
        duration = end - start
        stack = self.stack
        parent = -1
        if stack:
            top = stack[-1]
            top[2] += duration
            parent = top[3]
        name = self.name_list[name_id]
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        self.s_name.append(name_id)
        self.s_start.append(start)
        self.s_end.append(end)
        self.s_parent.append(parent)
        self.s_cell.append(self.cell)
        self.s_call.append(call)
        self.s_index.append(index)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, -1):
            self.peaks[name] = value

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> Dict[str, Any]:
        """A picklable copy of everything recorded (for worker dumps)."""
        return {
            "pid": os.getpid(),
            "names": list(self.name_list),
            "spans": {
                "name": self.s_name.tobytes(),
                "start": self.s_start.tobytes(),
                "end": self.s_end.tobytes(),
                "parent": self.s_parent.tobytes(),
                "cell": self.s_cell.tobytes(),
                "call": self.s_call.tobytes(),
                "index": self.s_index.tobytes(),
            },
            "agg": {k: list(v) for k, v in self.agg.items()},
            "peaks": dict(self.peaks),
            "counters": dict(self.counters),
            "computes": dict(self.computes),
        }


def merge_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum aggregates/counters, max peaks, and keep every span list."""
    agg: Dict[str, List[float]] = {}
    peaks: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    computes: Dict[int, int] = {}
    for snap in snaps:
        for name, (n, total, own) in snap["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += n
            entry[1] += total
            entry[2] += own
        for name, value in snap["peaks"].items():
            peaks[name] = max(peaks.get(name, value), value)
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for cell, value in snap["computes"].items():
            computes[cell] = computes.get(cell, 0) + value
    return {
        "agg": agg,
        "peaks": peaks,
        "counters": counters,
        "computes": computes,
        "processes": [{"pid": s["pid"], "names": s["names"], "spans": s["spans"]} for s in snaps],
    }


def load_dumps(directory: Path) -> List[Dict[str, Any]]:
    """Span dumps written by forked workers (files this benchmark wrote)."""
    snaps = []
    for path in sorted(directory.glob("*.pkl")):
        with open(path, "rb") as handle:
            snaps.append(pickle.load(handle))
    return snaps


class _TimedGen:
    """Stands in for a simulation process's generator, timing each resume.

    :class:`repro.sim.process.Process` drives a generator only through
    ``send`` and ``throw``, so this object is accepted in its place.
    """

    __slots__ = ("_gen", "_name", "_tracer")

    def __init__(self, gen, name: str, tracer: Tracer) -> None:
        self._gen = gen
        self._name = name
        self._tracer = tracer

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()


#: Generator processes are attributed to a layer by the module that
#: defines their function.
_PROCESS_LAYERS = (
    ("repro.node.", "node.proc"),
    ("repro.cluster.", "cluster.proc"),
    ("repro.failures.", "failures.proc"),
)


def _process_span_name(gen) -> str:
    frame = getattr(gen, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    for prefix, name in _PROCESS_LAYERS:
        if module.startswith(prefix):
            return name
    return "sim.proc"


class Instrumentation:
    """Installs span wrappers on every layer's entry points.

    ``cell_ids`` maps each experiment config of the pass to its ordinal,
    so spans recorded in any process carry the same cell id.  ``dump_dir``
    receives one file per forked worker.
    """

    def __init__(self, tracer: Tracer, cell_ids: Dict[Any, int], dump_dir: Path) -> None:
        self.tracer = tracer
        self.cell_ids = cell_ids
        self.dump_dir = Path(dump_dir)
        self._saved: List[tuple] = []

    # -- patching helpers ------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def _span(self, owner: Any, attr: str, name: str, call_of: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        tracer = self.tracer
        if call_of is None:

            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit()

        else:

            def wrapper(*args, **kwargs):
                tracer.enter(name, call_of(args))
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit()

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # -- the layers ------------------------------------------------------
    def install(self) -> None:
        self._kernel()
        self._cpu()
        self._node()
        self._scheduling()
        self._cluster()
        self._failures()
        self._workload()
        self._metrics()
        self._engine()

    def _kernel(self) -> None:
        from repro.sim.core import Environment

        tracer = self.tracer
        step = Environment.step
        process = Environment.process

        def traced_step(env):
            tracer.peak("sim.calendar", len(env._queue))
            tracer.enter("sim.step")
            try:
                step(env)
            finally:
                tracer.exit()

        def traced_process(env, generator):
            return process(env, _TimedGen(generator, _process_span_name(generator), tracer))

        self._patch(Environment, "step", traced_step)
        self._patch(Environment, "process", traced_process)
        self._span(Environment, "run", "sim.run")

    def _cpu(self) -> None:
        from repro.sim.cpu import SharedCPU

        self._span(SharedCPU, "execute", "cpu.execute")
        self._span(SharedCPU, "cancel", "cpu.cancel")
        self._span(SharedCPU, "_on_wake", "cpu.wake")
        self._span(SharedCPU, "_to_vector", "cpu.switch")
        self._span(SharedCPU, "_to_scalar", "cpu.switch")

    def _node(self) -> None:
        from repro.node.baseline import BaselineInvoker
        from repro.node.invoker import Invoker
        from repro.node.pool import ContainerPool

        def rid(args):
            return args[1].rid

        for cls in (Invoker, BaselineInvoker):
            self._span(cls, "submit", "node.submit", rid)
            self._span(cls, "warm_up", "node.warmup")
            self._span(cls, "crash", "node.crash")
        self._span(ContainerPool, "acquire", "node.pool_acquire")
        self._span(ContainerPool, "release", "node.pool_release")

    def _scheduling(self) -> None:
        import repro.scheduling.registry  # noqa: F401 - registers every policy
        from repro.scheduling.policies import SchedulingPolicy
        from repro.scheduling.queue import StablePriorityQueue

        def rid(args):
            return args[1].rid

        policies = [SchedulingPolicy]
        for cls in policies:
            policies.extend(cls.__subclasses__())
        for cls in dict.fromkeys(policies):
            if "on_received" in vars(cls):
                self._span(cls, "on_received", "sched.priority", rid)
            for attr in ("on_completed", "record_warmup"):
                if attr in vars(cls):
                    self._span(cls, attr, "sched.update")

        tracer = self.tracer
        push = StablePriorityQueue.push

        def traced_push(queue, priority, item):
            tracer.enter("sched.queue_op")
            try:
                push(queue, priority, item)
            finally:
                tracer.exit()
            tracer.peak("sched.queue", len(queue._heap))

        self._patch(StablePriorityQueue, "push", traced_push)
        self._span(StablePriorityQueue, "pop", "sched.queue_op")

    def _cluster(self) -> None:
        from repro.cluster import controller

        def rid(args):
            return args[1].rid

        balancers = [controller.LoadBalancer]
        for cls in balancers:
            balancers.extend(cls.__subclasses__())
        for cls in dict.fromkeys(balancers):
            if "pick" in vars(cls):
                self._span(cls, "pick", "cluster.pick", rid)

    def _failures(self) -> None:
        from repro.failures.rng import FailureRng

        self._span(FailureRng, "attempt_fault", "failures.draw")
        self._span(FailureRng, "node_stream", "failures.draw")

    def _workload(self) -> None:
        from repro.experiments import runner
        from repro.workload.generator import RequestStream

        tracer = self.tracer
        for attr in ("build_scenario", "build_scenario_stream"):
            original = getattr(runner, attr)

            def build(*args, _original=original, **kwargs):
                tracer.enter("workload.build")
                try:
                    built = _original(*args, **kwargs)
                finally:
                    tracer.exit()
                if hasattr(built, "__len__"):
                    tracer.count("workload.requests", len(built))
                return built

            self._patch(runner, attr, build)

        arrivals = RequestStream.arrivals

        def traced_arrivals(stream):
            tracer.enter("workload.build")
            try:
                iterator = iter(arrivals(stream))
            finally:
                tracer.exit()
            while True:
                tracer.enter("workload.build")
                try:
                    request = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.count("workload.requests")
                yield request

        self._patch(RequestStream, "arrivals", traced_arrivals)

    def _metrics(self) -> None:
        from repro.experiments import runner
        from repro.metrics.records import CallRecord
        from repro.metrics.streaming import SummaryAccumulator

        tracer = self.tracer
        self._span(SummaryAccumulator, "add", "metrics.fold")
        self._span(SummaryAccumulator, "summary", "metrics.summary")
        self._span(runner, "summarize", "metrics.summary")
        from_node_info = CallRecord.from_node_info.__func__

        def traced_from_node_info(cls, *args, **kwargs):
            tracer.enter("metrics.record")
            try:
                return from_node_info(cls, *args, **kwargs)
            finally:
                tracer.exit()

        self._patch(CallRecord, "from_node_info", classmethod(traced_from_node_info))

    def _engine(self) -> None:
        from repro.experiments import parallel, queue, runner

        tracer = self.tracer
        cell_ids = self.cell_ids
        run_experiment = runner.run_experiment

        def traced_run_experiment(config):
            cell = cell_ids.get(config, -1)
            tracer.cell = cell
            tracer.computes[cell] = tracer.computes.get(cell, 0) + 1
            tracer.enter("engine.cell")
            try:
                return run_experiment(config)
            finally:
                tracer.exit()
                tracer.cell = -1

        # Every engine path resolves the runner through one of these names
        # (the queue executor also compares against its own binding).
        for module in (runner, parallel, queue):
            self._patch(module, "run_experiment", traced_run_experiment)

        self._span(parallel.ResultCache, "store", "engine.cache_store")
        self._span(parallel.ResultCache, "load", "engine.cache_load")
        self._span(multiprocessing.process.BaseProcess, "start", "engine.spawn")
        self._span(multiprocessing.process.BaseProcess, "join", "engine.join")

        drain_one = parallel._ProcessEngine._drain_one

        def traced_drain_one(engine, finished):
            tracer.enter("engine.drain")
            got = False
            try:
                got = drain_one(engine, finished)
                return got
            finally:
                # An empty poll is the engine waiting on its workers.
                tracer.exit(rename=None if got else "engine.poll")

        self._patch(parallel._ProcessEngine, "_drain_one", traced_drain_one)

        real_time = queue.time

        class _TimedSleep:
            """The queue module's ``time``, with ``sleep`` recorded as polling."""

            def __getattr__(self, attr):
                return getattr(real_time, attr)

            @staticmethod
            def sleep(seconds):
                tracer.enter("engine.poll")
                try:
                    real_time.sleep(seconds)
                finally:
                    tracer.exit()

        self._patch(queue, "time", _TimedSleep())

        for attr, counter in (("try_claim", "engine.claims"), ("steal_lease", "engine.steals")):
            original = getattr(queue, attr)

            def counted(*args, _original=original, _counter=counter, **kwargs):
                won = _original(*args, **kwargs)
                if won:
                    tracer.count(_counter)
                return won

            self._patch(queue, attr, counted)

        # Forked workers: start clean, then leave their spans for the parent.
        dump_dir = self.dump_dir

        def in_worker(original):
            def worker_main(*args, **kwargs):
                tracer.reset()
                try:
                    return original(*args, **kwargs)
                finally:
                    path = dump_dir / f"{os.getpid()}-{uuid.uuid4().hex[:8]}.pkl"
                    with open(path, "wb") as handle:
                        pickle.dump(tracer.snapshot(), handle)

            return worker_main

        self._patch(parallel, "_cell_main", in_worker(parallel._cell_main))
        self._patch(queue, "_helper_main", in_worker(queue._helper_main))


def span_durations(merged: Dict[str, Any], name: str) -> List[tuple]:
    """``(cell, seconds)`` of every span called ``name``, in each
    process's close order (processes in merge order)."""
    found = []
    for proc in merged["processes"]:
        if name not in proc["names"]:
            continue
        wanted = proc["names"].index(name)
        spans = proc["spans"]
        names = array("i", spans["name"])
        starts = array("d", spans["start"])
        ends = array("d", spans["end"])
        cells = array("i", spans["cell"])
        found.extend(
            (cells[i], ends[i] - starts[i]) for i in range(len(names)) if names[i] == wanted
        )
    return found


def _agg(merged: Dict[str, Any], name: str, field: int) -> float:
    entry = merged["agg"].get(name)
    return entry[field] if entry is not None else 0


def layer_metrics(
    merged: Dict[str, Any],
    *,
    calls: int,
    ok_calls: int,
    cells: int,
    makespan_s: float,
    jobs: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""

    def count(name: str) -> int:
        return int(_agg(merged, name, 0))

    def total(*names: str) -> float:
        return sum(_agg(merged, name, 1) for name in names)

    def own(*names: str) -> float:
        return sum(_agg(merged, name, 2) for name in names)

    counters = merged["counters"]
    peaks = merged["peaks"]
    computes = merged["computes"]
    events = count("sim.step")
    submits = count("node.submit")
    compute_calls = sum(computes.values())
    compute_s = total("engine.cell")
    return {
        "sim.events": events,
        "sim.events_per_call": events / calls if calls else 0.0,
        "sim.self_s": own("sim.step", "sim.run", "sim.proc"),
        "sim.calendar_peak": peaks.get("sim.calendar", 0),
        "cpu.executes": count("cpu.execute"),
        "cpu.wakes": count("cpu.wake"),
        "cpu.self_s": own("cpu.execute", "cpu.cancel", "cpu.wake", "cpu.switch"),
        "cpu.vector_switches": count("cpu.switch"),
        "node.submits": submits,
        "node.self_s": own(
            "node.submit", "node.warmup", "node.crash", "node.pool_acquire",
            "node.pool_release", "node.proc",
        ),
        "node.pool_acquire_s": total("node.pool_acquire"),
        "sched.priority_calls": count("sched.priority"),
        "sched.queue_ops": count("sched.queue_op"),
        "sched.queue_peak": peaks.get("sched.queue", 0),
        "sched.self_s": own("sched.priority", "sched.update", "sched.queue_op"),
        "cluster.picks": count("cluster.pick"),
        "cluster.pick_s": total("cluster.pick"),
        "cluster.client_self_s": own("cluster.proc"),
        "cluster.useful_attempt_ratio": ok_calls / submits if submits else 1.0,
        "failures.draws": count("failures.draw"),
        "failures.draw_s": total("failures.draw"),
        "workload.build_s": total("workload.build"),
        "workload.requests": counters.get("workload.requests", 0),
        "metrics.folds": count("metrics.fold"),
        "metrics.fold_s": total("metrics.fold", "metrics.record"),
        "metrics.summary_s": total("metrics.summary"),
        "engine.cells": cells,
        "engine.compute_s": compute_s,
        "engine.overhead_ms_per_cell": (makespan_s * jobs - compute_s) / cells * 1e3,
        "engine.spawn_s": total("engine.spawn"),
        "engine.join_s": total("engine.join"),
        "engine.cache_store_s": total("engine.cache_store"),
        "engine.cache_load_s": total("engine.cache_load"),
        "engine.poll_sleep_s": total("engine.poll"),
        "engine.claims": counters.get("engine.claims", 0),
        "engine.steals": counters.get("engine.steals", 0),
        "engine.duplicates": sum(n - 1 for n in computes.values() if n > 1),
        "engine.useful_compute_ratio": (
            len(computes) / compute_calls if compute_calls else 1.0
        ),
    }
