"""The benchmark's workloads: inputs made from a seed, and one timed unit each.

Every workload enters the simulator only through its public entry points,
:func:`repro.exp.worker.run_point` and :func:`repro.exp.runner.run_grid`.
The benchmark seed becomes the :class:`~repro.exp.grid.GridPoint` seed; the
program sees nothing but the generated points.  Why each workload is here
is recorded in ``README.md``.

A *unit* is one call through an entry point (one point, or one sweep).
A timed run repeats the unit and reports medians.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Tuple, Union

from perfbench.clock import now
from perfbench.hostspeed import HostSpeed
from repro.exp import worker
from repro.exp.backend import InMemoryBackend
from repro.exp.dist import load_point_trace, trace_key
from repro.exp.grid import GridPoint, GridSpec
from repro.exp.runner import run_grid
from repro.exp.worker import PointResult
from repro.sim.metrics import metrics_from_trace

#: The seed a run uses unless told otherwise (the held-out seed, 101, is
#: in README.md).
DEFAULT_SEED = 0
#: Seeds whose statistics ``references.json`` keeps (``make_references.py``).
REFERENCE_SEEDS = tuple(range(16))

#: Synthesis replication of the ``fleet_traced`` taskset.  It is fixed so
#: that every benchmark seed schedules the same fleet (seeds vary its work
#: jitter): across synthesis seeds the fleet's FPS spans 3.5x and its DMR
#: 5.8x, which no run length averages out.
FLEET_SYNTH_SEED = 0

#: Statistics of one simulated point that must repeat exactly.
STAT_FIELDS = (
    "released",
    "completed",
    "rejected",
    "total_fps",
    "dmr",
    "goodput",
    "rejection_rate",
    "p99_response",
    "p999_response",
    "mean_queue_depth",
    "max_queue_depth",
    "utilization",
    "mean_pressure",
)

def past_pivot_points(seed: int) -> Tuple[GridPoint, ...]:
    """Scenario 1, ``sgprs_1.5``, 28 ResNet18 tasks: past the 23-task pivot."""
    return (
        GridPoint(
            scenario="scenario1",
            num_contexts=2,
            variant="sgprs_1.5",
            num_tasks=28,
            seed=seed,
            base_seed=seed,
            duration=2.0,
            warmup=0.5,
            work_jitter_cv=0.05,
        ),
    )


def fleet_points(seed: int) -> Tuple[GridPoint, ...]:
    """``mixed_fleet`` at total utilization 3.2, 16 tasks, traced."""
    return (
        GridPoint(
            scenario="mixed_fleet",
            num_contexts=2,
            variant="sgprs_1.5",
            num_tasks=16,
            seed=seed,
            base_seed=FLEET_SYNTH_SEED,
            duration=0.75,
            warmup=0.1875,
            work_jitter_cv=0.05,
            workload="mixed_fleet",
            total_utilization=3.2,
        ),
    )


def mmpp_points(seed: int) -> Tuple[GridPoint, ...]:
    """Scenario 2 under bursty MMPP arrivals, gated by the skip policy.

    The gate drops a release at the source while the task's previous job
    is in flight, and a dropped frame counts as a deadline miss, so DMR is
    the dropped share.  A bounded queue (``queue:depth=2``) makes DMR a
    rare coincidence of bursts instead: across seeds its quartile spread
    was 0.5-0.9 of its median at 3-6 s horizons.  Two-period sojourns
    (eight is the default) average bursts out within the horizon.
    """
    return (
        GridPoint(
            scenario="scenario2",
            num_contexts=3,
            variant="sgprs_1.5",
            num_tasks=20,
            seed=seed,
            base_seed=seed,
            duration=2.5,
            warmup=0.625,
            work_jitter_cv=0.1,
            arrival="mmpp:burst=4,calm=0.5,sojourn_periods=2",
            admission="skip",
        ),
    )


def sweep_spec(seed: int) -> GridSpec:
    """The Fig. 3 grid: four variants x 14/23/28 tasks (below, at, past the pivot)."""
    return GridSpec(
        scenario="scenario1",
        num_contexts=2,
        variants=("naive", "sgprs_1", "sgprs_1.5", "sgprs_2"),
        task_counts=(14, 23, 28),
        seeds=(seed,),
        duration=0.75,
        warmup=0.1875,
        work_jitter_cv=0.05,
    )


#: What a unit evaluates: a grid (through ``run_grid``) or single points
#: (each through ``run_point``).
Inputs = Union[GridSpec, Tuple[GridPoint, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], Inputs]
    #: Ship each point's trace to a store, read it back and replay it.
    traced: bool = False


def points_of(inputs: Inputs) -> Tuple[GridPoint, ...]:
    if isinstance(inputs, GridSpec):
        return tuple(inputs.points())
    return inputs


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig3_past_pivot",
            "Fig. 3 point past the pivot; the cost model dominates and its "
            "arguments repeat",
            past_pivot_points,
        ),
        Workload(
            "fleet_traced",
            "heterogeneous synth fleet with trace write, read-back and "
            "replay; fewer repeated cost-model arguments",
            fleet_points,
            traced=True,
        ),
        Workload(
            "mmpp_open",
            "open system: bursty arrivals and per-release admission "
            "decisions exercise the arrival and admission paths",
            mmpp_points,
        ),
        Workload(
            "fig3_sweep",
            "the Fig. 3 grid through the process pool; the only workload "
            "using exp/ and the naive scheduler",
            sweep_spec,
        ),
    )
}


def pool_workers() -> int:
    """Processes the sweep uses: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class Unit:
    """What one call through the entry point produced."""

    results: List[PointResult]
    wall_s: float
    #: Host seconds of the trace read-back and replay (traced workloads).
    load_s: float = 0.0
    replay_s: float = 0.0
    trace_bytes: int = 0
    failures: List[str] = field(default_factory=list)
    #: The calibration loop's times while the unit's points ran
    #: (``hostspeed.py``).
    loop_samples: List[float] = field(default_factory=list)

    @property
    def released(self) -> int:
        return sum(result.released for result in self.results)


def point_stats(result: PointResult) -> Dict[str, object]:
    return {name: getattr(result, name) for name in STAT_FIELDS}


def stats_digest(results: List[PointResult]) -> str:
    """SHA-256 over every point's label and exact statistics."""
    blob = json.dumps(
        [{"label": r.point.label, **point_stats(r)} for r in results],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def sampled_run_point(point: GridPoint) -> PointResult:
    """``run_point`` with the host speed sampled where the point runs.

    A sweep's points run in the pool's workers, so the samples are taken
    there and ride back to the parent on the result, as the attribute
    ``host_loop_samples`` (the result's fields are untouched).
    """
    with HostSpeed() as speed:
        result = worker.run_point(point)
    object.__setattr__(result, "host_loop_samples", speed.samples)
    return result


def run_unit(
    workload: Workload,
    inputs: Inputs,
    workers: int,
    span: Callable[[str], ContextManager] = nullcontext,
) -> Unit:
    """Evaluate ``inputs`` once through the workload's entry point.

    A grid runs through ``run_grid`` with ``workers`` processes (0 runs it
    in this process).  ``run_point`` is looked up on its module at call
    time, so the traced run sees its wrapper.  ``span(name)`` brackets the
    trace read-back and replay.  The host speed is sampled while the
    points run.
    """
    started = now()
    if isinstance(inputs, GridSpec):
        grid = run_grid(inputs, workers=workers, point_fn=sampled_run_point)
        results = list(grid.results)
        return Unit(
            results=results,
            wall_s=now() - started,
            loop_samples=[s for r in results for s in r.host_loop_samples],
        )
    with HostSpeed() as speed:
        unit = _run_points(workload, inputs, span)
    unit.wall_s = now() - started
    unit.loop_samples = speed.samples
    return unit


def _run_points(workload: Workload, inputs: Tuple[GridPoint, ...], span) -> Unit:
    """Each point through ``run_point``; a traced workload's trace is
    shipped to a store, read back and replayed."""
    if not workload.traced:
        return Unit(results=[worker.run_point(point) for point in inputs], wall_s=0.0)
    unit = Unit(results=[], wall_s=0.0)
    for point in inputs:
        store = InMemoryBackend()
        result = worker.run_point(point, trace_store=store)
        unit.results.append(result)
        unit.trace_bytes += len(store.read(trace_key(point)).data)
        mark = now()
        with span("sim.trace.load"):
            trace = load_point_trace(store, point)
        unit.load_s += now() - mark
        mark = now()
        with span("sim.trace.replay"):
            replayed = metrics_from_trace(trace, point.warmup, point.duration)
        unit.replay_s += now() - mark
        for name, value in replayed.items():
            if value != getattr(result, name):
                unit.failures.append(
                    f"{point.label}: replayed {name}={value!r} != "
                    f"live {getattr(result, name)!r}"
                )
    return unit
