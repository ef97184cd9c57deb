"""Host-speed reference: scale timings to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, as other tenants come and go.  Two runs of
the same code minutes apart then differ by more than any bound a
benchmark can set.  The drift shows up just as much in any fixed piece of
Python work, so the benchmark times one alongside the program and reports
the program's time in units of it.

The fixed work is :func:`reference`, a small discrete-event simulation
written here (not imported from ``src/``), so that a change to the
simulator never changes its yardstick.  It is shaped like the simulator's
hot path: a heap calendar, event objects with callback lists, generator
processes, a core pool with a priority queue, per-function warm state and
per-call records.  On the 2-core reference host it tracks the simulator's
drift far better than a tight arithmetic loop does.

:class:`SpeedProbe` runs a slice of it every :data:`PERIOD_S` seconds of
wall time, from a ``SIGALRM`` handler in the timing thread, so the slices
interleave with the measured work.  :meth:`SpeedProbe.clock` is a clock
that stands still while a slice runs, and :meth:`SpeedProbe.factor` is the
host's slowdown over a span of it: the slices' mean time there over
:data:`SLICE_REFERENCE_S`.  Host seconds divided by the slowdown are
*reference seconds*; on a host whose slices take
:data:`SLICE_REFERENCE_S` the two agree.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from typing import List, Optional

__all__ = [
    "HostClock",
    "PERIOD_S",
    "SLICE_CALLS",
    "SLICE_REFERENCE_S",
    "SpeedProbe",
    "reference",
    "timed_slice",
]

_perf = time.perf_counter

#: Calls simulated by one reference slice.
SLICE_CALLS = 400
#: Calls simulated untimed before each slice, to warm the caches.
WARM_CALLS = 100
#: Wall time of one slice that defines the reference speed: reference
#: seconds equal host seconds on a host whose slices take this long.  On
#: the reference host (2-core x86-64 VM, Python 3.11) the slice median
#: ranged from 4.8 to 7.0 ms within one hour; this rounds its fast end.
SLICE_REFERENCE_S = 0.005
#: Wall seconds between the starts of two slices.
PERIOD_S = 0.1


class _Event:
    __slots__ = ("env", "callbacks", "value")

    def __init__(self, env: "_Env") -> None:
        self.env = env
        self.callbacks: Optional[list] = []
        self.value = None

    def succeed(self, value=None) -> "_Event":
        self.value = value
        self.env.push(0.0, self)
        return self


class _Process(_Event):
    __slots__ = ("gen",)

    def __init__(self, env: "_Env", gen) -> None:
        super().__init__(env)
        self.gen = gen
        start = _Event(env)
        start.callbacks.append(self._resume)
        start.succeed()

    def _resume(self, event: _Event) -> None:
        try:
            target = self.gen.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        target.callbacks.append(self._resume)


class _Env:
    def __init__(self) -> None:
        self.now = 0.0
        self.calendar: list = []
        self.seq = 0

    def push(self, delay: float, event: _Event) -> None:
        self.seq += 1
        heapq.heappush(self.calendar, (self.now + delay, self.seq, event))

    def timeout(self, delay: float) -> _Event:
        event = _Event(self)
        self.push(delay, event)
        return event

    def run(self) -> None:
        calendar = self.calendar
        while calendar:
            self.now, _, event = heapq.heappop(calendar)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)


class _Cores:
    def __init__(self, env: _Env, n: int) -> None:
        self.env = env
        self.free = n
        self.waiting: list = []

    def acquire(self, priority: float) -> _Event:
        event = _Event(self.env)
        if self.free:
            self.free -= 1
            event.succeed()
        else:
            heapq.heappush(self.waiting, (priority, id(event), event))
        return event

    def release(self) -> None:
        if self.waiting:
            heapq.heappop(self.waiting)[2].succeed()
        else:
            self.free += 1


class _Record:
    __slots__ = ("fn", "arrival", "start", "end")

    def __init__(self, fn: int, arrival: float, start: float, end: float) -> None:
        self.fn = fn
        self.arrival = arrival
        self.start = start
        self.end = end


def _call(env, cores, warm, fn, work, records):
    arrival = env.now
    yield cores.acquire(work)
    start = env.now
    if not warm.get(fn):
        yield env.timeout(0.5)
        warm[fn] = True
    yield env.timeout(work)
    cores.release()
    records.append(_Record(fn, arrival, start, env.now))


def _source(env, cores, warm, rng, calls, records):
    for _ in range(calls):
        yield env.timeout(rng.expovariate(20.0))
        _Process(env, _call(env, cores, warm, rng.randrange(12), rng.lognormvariate(-2.0, 1.0), records))


def reference(calls: int = SLICE_CALLS, seed: int = 7) -> float:
    """Simulate ``calls`` calls on an 8-core node, shortest job first;
    returns their mean stretch (the same on every host)."""
    env = _Env()
    records: List[_Record] = []
    cores = _Cores(env, 8)
    _Process(env, _source(env, cores, {}, random.Random(seed), calls, records))
    env.run()
    return statistics.fmean((r.end - r.arrival) / max(r.end - r.start, 1e-9) for r in records)


def timed_slice() -> float:
    """Run one reference slice; returns the seconds of its timed part."""
    # No collection inside a slice: its cost grows with the heap of the
    # interrupted work, not with host speed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        # Untimed lead-in: the interrupted work has just evicted the
        # reference's code and data from the caches, by an amount that
        # depends on the work.  Only the warm part is timed.
        reference(WARM_CALLS)
        start = _perf()
        reference()
        return _perf() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Reference slices interleaved with the measured work (see module doc).

    Use as a context manager around the timed part of a run.  Only the
    process that enters it is probed; forked children inherit no timer.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: ``(clock() at the slice, slice seconds)`` for every slice run.
        self.slices: List[tuple] = []
        self._stolen = 0.0
        self._previous = None
        self._busy = False

    def clock(self) -> float:
        """Wall seconds, less the time spent in reference slices."""
        return _perf() - self._stolen

    def _slice(self, signum, frame) -> None:
        if self._busy:  # the host stalled a slice past the next tick
            return
        self._busy = True
        entered = _perf()
        seconds = timed_slice()
        self.slices.append((entered - self._stolen, seconds))
        # The whole handler, bookkeeping included, is off the work clock.
        self._stolen += _perf() - entered
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._slice(None, None)  # so that every span has a slice to go by
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Host slowdown against the reference host over the clock span
        ``[start, end)``: the mean slice time there over
        :data:`SLICE_REFERENCE_S`.  Spans with no slice of their own use
        every slice so far."""
        inside = [s for at, s in self.slices if start <= at < end] or [s for _, s in self.slices]
        return statistics.fmean(inside) / SLICE_REFERENCE_S


class HostClock:
    """The probe's interface without a probe: host seconds, unscaled."""

    clock = staticmethod(_perf)

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def factor(self, start: float, end: float) -> float:
        return 1.0
