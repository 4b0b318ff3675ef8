"""Outside-in span tracing of the simulator's layers, for the traced run.

:class:`Tracer` installs timing wrappers on public callables of each layer
(and on module-level names where their callers look them up), records one
span per call -- name, start, end, parent span, run id -- in flat in-memory
arrays, and counts what each layer did.  It reads the counters the program
already keeps (``processed_count``, ``alloc_passes``, ``stat_*``) from the
instances it sees constructed.  :meth:`Tracer.restore` puts every patched
attribute back and :meth:`Tracer.restored` proves it.

A layer's self time is its spans' time minus the time of their child spans.
:meth:`Tracer.span_problems` checks that every span closed inside its
parent, which is what makes the self times meaningful.  Tracing is never on while the end-to-end metrics are measured.
"""

from __future__ import annotations

import types
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from perfbench.clock import now
from repro.core.admission import AdmissionDecision, AdmissionPolicy
from repro.core.scheduler import SchedulerBase
from repro.exp import dist, worker
from repro.gpu import device as gpu_device
from repro.gpu.context import SimContext
from repro.gpu.device import GpuDevice
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import TraceRecorder
from repro.sim.trace_columnar import ColumnarTrace
from repro.speedup.composite import CompositeWorkload
from repro.workloads.arrivals.base import ArrivalProcess
from repro.workloads.synth import scenarios as synth_scenarios

_MISSING = object()


def _classes_defining(base: type, name: str) -> List[type]:
    """``base`` and its subclasses that define ``name`` themselves."""
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if isinstance(vars(cls).get(name), types.FunctionType):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


class _TimedStream:
    """An arrival stream whose every draw is a span."""

    def __init__(self, inner: Iterator[float], draw: Callable) -> None:
        self._inner = inner
        self._draw = draw

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self) -> float:
        return self._draw(self._inner)


class Tracer:
    """Spans and counters of one traced run.

    Use as ``tracer.install()`` ... ``tracer.restore()``; every call into
    ``repro.exp.worker.run_point`` starts a new run id.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.run_id = -1
        self.origin = now()
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._engines: List[SimulationEngine] = []
        self._devices: List[GpuDevice] = []
        self._contexts: List[SimContext] = []
        # distinct (composite value, sms) arguments of time_at
        self._arguments: set = set()
        self._composite_ids: Dict[int, int] = {}
        self._composite_values: Dict[CompositeWorkload, int] = {}
        self._pinned: List[CompositeWorkload] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(now())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = now()
        self._stack.pop()

    def timed(self, name: str, fn: Callable, new_run: bool = False) -> Callable:
        """``fn`` wrapped so that each call records a span named ``name``."""
        nid = self._name_index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if new_run:
                tracer.run_id += 1
            index = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: object, attr: str, name: str) -> None:
        self._patch(owner, attr, self.timed(name, vars(owner)[attr]))

    def _wrap_defining(self, base: type, attr: str, name: str) -> None:
        for cls in _classes_defining(base, attr):
            self._wrap(cls, attr, name)

    def _capture(self, cls: type, sink: List) -> None:
        original = vars(cls)["__init__"]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            sink.append(obj)

        self._patch(cls, "__init__", __init__)

    def install(self) -> None:
        """Wrap every traced callable (see the README's layer table)."""
        # speedup: the cost model
        self._wrap(CompositeWorkload, "speedup", "speedup.speedup")
        self._patch(
            CompositeWorkload, "time_at", self._counting_time_at(
                self.timed("speedup.time_at", vars(CompositeWorkload)["time_at"])
            )
        )
        # gpu: device, allocator (looked up by the device), contexts
        self._wrap(gpu_device, "compute_allocation", "gpu.compute_allocation")
        self._wrap(GpuDevice, "submit", "gpu.submit")
        self._wrap(GpuDevice, "abort", "gpu.abort")
        self._wrap(GpuDevice, "abort_many", "gpu.abort")
        self._wrap(SimContext, "dispatch_ready", "gpu.dispatch_ready")
        self._capture(GpuDevice, self._devices)
        self._capture(SimContext, self._contexts)
        # sim.engine: the event loop, and the callbacks it fires
        self._wrap(SimulationEngine, "step", "sim.engine.step")
        self._patch(
            SimulationEngine,
            "schedule_at",
            self._timing_callbacks(vars(SimulationEngine)["schedule_at"]),
        )
        self._capture(SimulationEngine, self._engines)
        # core: placement, admission, shedding
        self._wrap_defining(SchedulerBase, "select_context", "core.select_context")
        self._wrap(SchedulerBase, "abort_job", "core.abort_job")
        for cls in _classes_defining(AdmissionPolicy, "decide"):
            self._patch(cls, "decide", self._counting_decide(vars(cls)["decide"]))
        # workloads: arrival draws and taskset construction
        for cls in _classes_defining(ArrivalProcess, "stream"):
            self._patch(cls, "stream", self._timing_stream(vars(cls)["stream"]))
        self._wrap(worker, "identical_periodic_tasks", "workloads.taskset")
        self._wrap(synth_scenarios, "taskset_for_point", "workloads.taskset")
        # sim.metrics: every public collector method
        for attr, value in sorted(vars(MetricsCollector).items()):
            if not attr.startswith("_") and isinstance(value, types.FunctionType):
                self._wrap(MetricsCollector, attr, "sim.metrics." + attr)
        # sim.trace: recording and shipping
        self._wrap(TraceRecorder, "record", "sim.trace.record")
        self._wrap(ColumnarTrace, "record", "sim.trace.record")
        self._wrap(dist, "save_point_trace", "sim.trace.save")
        # exp: one run id per evaluated point
        self._patch(worker, "run_point", self._harvesting(vars(worker)["run_point"]))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def restored(self, patched: Sequence[Tuple[object, str, object]]) -> bool:
        """Whether each ``(owner, attr, original)`` is back as it was."""
        return all(
            vars(owner).get(attr, _MISSING) is original
            for owner, attr, original in patched
        )

    def patched(self) -> List[Tuple[object, str, object]]:
        """The ``(owner, attr, original)`` triples currently installed."""
        return list(self._patches)

    # ------------------------------------------------------------------
    # Specialised wrappers
    # ------------------------------------------------------------------
    def _counting_time_at(self, timed: Callable) -> Callable:
        """Count distinct ``(composite, sms)`` arguments, by value."""
        arguments = self._arguments
        ids = self._composite_ids
        values = self._composite_values
        pinned = self._pinned

        def time_at(composite, sms):
            # repro: lint-ok[D003] every keyed composite is pinned in self._pinned
            key = ids.get(id(composite))
            if key is None:
                key = values.setdefault(composite, len(values))
                # repro: lint-ok[D003] pinned on the next line, so the id is never recycled
                ids[id(composite)] = key
                pinned.append(composite)
            arguments.add((key, sms))
            return timed(composite, sms)

        return time_at

    def _timing_callbacks(self, schedule_at: Callable) -> Callable:
        """Schedule every event with its action wrapped in a span."""
        timed = self.timed

        def wrapped(engine, when, action, tag=""):
            return schedule_at(
                engine, when, timed("sim.engine.callback", action), tag
            )

        return wrapped

    def _counting_decide(self, decide: Callable) -> Callable:
        timed = self.timed("core.decide", decide)
        counts = self.counts

        def wrapped(policy, job, previous, inflight):
            decision = timed(policy, job, previous, inflight)
            if decision is AdmissionDecision.ADMIT:
                counts["core.admits"] += 1
            return decision

        return wrapped

    def _timing_stream(self, stream: Callable) -> Callable:
        draw = self.timed("workloads.arrivals.next", next)

        def wrapped(process, task, seed):
            return _TimedStream(stream(process, task, seed), draw)

        return wrapped

    def _harvesting(self, run_point: Callable) -> Callable:
        """``run_point`` in a new run id; read the run's counters after it."""
        timed = self.timed("exp.run_point", run_point, new_run=True)

        def wrapped(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                self._harvest()

        return wrapped

    def _harvest(self) -> None:
        counts = self.counts
        for engine in self._engines:
            counts["sim.engine.events"] += engine.processed_count
            counts["sim.engine.scheduled"] += engine.scheduled_count
            counts["sim.engine.compactions"] += engine.compaction_count
        for device in self._devices:
            counts["gpu.alloc_passes"] += device.alloc_passes
            counts["gpu.alloc_skips"] += device.alloc_skips
        for context in self._contexts:
            counts["gpu.free_builds"] += context.stat_free_builds
            counts["gpu.acct_queries"] += context.stat_acct_queries
        self._engines.clear()
        self._devices.clear()
        self._contexts.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def span_table(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, inclusive seconds, self seconds)``."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(start)
        )
        own = duration - children
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        inclusive = np.bincount(name_id, weights=duration, minlength=size)
        exclusive = np.bincount(name_id, weights=own, minlength=size)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(exclusive[i]))
            for i, name in enumerate(self.names)
        }

    def span_problems(self) -> List[str]:
        """What is wrong with the recorded spans' structure (empty: nothing).

        Every span must be closed, no span may still be open, and each
        child must lie inside its parent.
        """
        problems: List[str] = []
        if self._stack != [-1]:
            problems.append(f"{len(self._stack) - 1} spans still open")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        unclosed = int(np.count_nonzero(end < start))
        if unclosed:
            problems.append(f"{unclosed} spans end before they start")
        child = np.flatnonzero(parent >= 0)
        outside = int(np.count_nonzero(
            (start[child] < start[parent[child]])
            | (end[child] > end[parent[child]])
        ))
        if outside:
            problems.append(f"{outside} spans lie outside their parent span")
        return problems

    def distinct_arguments(self) -> int:
        return len(self._arguments)

    def save(self, path) -> None:
        """Write every span (times relative to the tracer's creation)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - self.origin,
            end=np.frombuffer(self.end, dtype=np.float64) - self.origin,
        )
