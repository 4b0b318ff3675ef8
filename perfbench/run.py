"""Benchmark the SGPRS simulator end to end on one workload.

    python3 perfbench/run.py --workload fig3_past_pivot --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the workload's unit (one call through ``run_point`` or
``run_grid``) repeats for ``--seconds`` and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced unit and two traced units run,
and the per-layer metrics are printed.  Either way the simulated outputs
are checked, a full record goes to ``perfbench/out/``, and the last line of
standard output is one JSON object.  The exit code is 1 when any check
failed.  ``--workload all`` runs every workload in turn (one process each)
and prints every metric.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

#: Cold set-ups timed per run; the median is ``setup_s``.
SETUP_PROBES = 9
#: Fewest timed unit repeats in a run (the repeats must agree exactly).
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 170

#: name -> (unit, better); the order they are printed in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "pass_share": ("fraction", "higher"),
    "sim_fps": ("frames/s", "higher"),
    "sim_dmr": ("fraction", "lower"),
    "sim_goodput": ("frames/s", "higher"),
    "sim_p99_response_ms": ("ms", "lower"),
}

PER_LAYER = {
    "speedup.time_at_calls": ("count", "lower"),
    "speedup.distinct_args": ("count", "lower"),
    "speedup.repeat_share": ("fraction", "higher"),
    "speedup.self_s": ("s", "lower"),
    "gpu.alloc_passes": ("count", "lower"),
    "gpu.alloc_skips": ("count", "higher"),
    "gpu.alloc_skip_share": ("fraction", "higher"),
    "gpu.allocation_calls": ("count", "lower"),
    "gpu.allocation_self_s": ("s", "lower"),
    "gpu.dispatch_calls": ("count", "lower"),
    "gpu.dispatch_self_s": ("s", "lower"),
    "gpu.submit_calls": ("count", "lower"),
    "gpu.aborts": ("count", "lower"),
    "gpu.free_builds": ("count", "lower"),
    "gpu.acct_queries": ("count", "lower"),
    "sim.engine.events": ("count", "lower"),
    "sim.engine.scheduled": ("count", "lower"),
    "sim.engine.compactions": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.us_per_event": ("us", "lower"),
    "core.placements": ("count", "lower"),
    "core.placement_self_s": ("s", "lower"),
    "core.admission_decisions": ("count", "lower"),
    "core.admit_share": ("fraction", "higher"),
    "core.aborts": ("count", "lower"),
    "workloads.arrivals.draws": ("count", "lower"),
    "workloads.arrivals.self_s": ("s", "lower"),
    "sim.metrics.calls": ("count", "lower"),
    "sim.metrics.self_s": ("s", "lower"),
    "sim.trace.records": ("count", "lower"),
    "sim.trace.record_self_s": ("s", "lower"),
    "sim.trace.bytes": ("B", "lower"),
    "sim.trace.bytes_per_record": ("B/record", "lower"),
    "sim.trace.serialise_s": ("s", "lower"),
    "sim.trace.load_s": ("s", "lower"),
    "sim.trace.replay_s": ("s", "lower"),
    "workloads.taskset_s": ("s", "lower"),
    "repro.import_s": ("s", "lower"),
    "exp.points": ("count", "lower"),
    "exp.point_busy_s": ("s", "lower"),
    "exp.tail_point_s": ("s", "lower"),
    "exp.parallel_efficiency": ("fraction", "higher"),
    "exp.failed_points": ("count", "lower"),
    "trace_overhead_share": ("fraction", "lower"),
}

#: Per-layer counts that must repeat exactly across two traced runs.
EXACT_COUNTS = tuple(
    name
    for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "B") and not name.startswith("exp.")
)

#: Self-time metrics -> the span names whose self time they sum.
SELF_TIMES = {
    "speedup.self_s": ("speedup.time_at", "speedup.speedup"),
    "gpu.allocation_self_s": ("gpu.compute_allocation",),
    "gpu.dispatch_self_s": ("gpu.dispatch_ready",),
    "sim.engine.self_s": ("sim.engine.step",),
    "core.placement_self_s": ("core.select_context",),
    "workloads.arrivals.self_s": ("workloads.arrivals.next",),
    "sim.trace.record_self_s": ("sim.trace.record",),
}


def _check_checkout() -> None:
    """Refuse to run without the simulator's sources next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def fingerprint(workers: int) -> Dict[str, object]:
    """The machine and interpreter a result was measured on."""
    import numpy

    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": workers,
        "numpy": numpy.__version__,
    }


def git_commit() -> str:
    """HEAD's commit id, read from ``.git`` (``"unknown"`` outside a clone)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the simulator's sources; identifies code without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def reference_for(workload: str, seed: int) -> Optional[str]:
    """The kept statistics digest of ``seed``, if it is a reference seed."""
    return json.loads(REFERENCES.read_text())[workload].get(str(seed))


def check_points(unit, points, reference: Optional[str]) -> List[Tuple[int, str]]:
    """``(point index, problem)`` for every point that fails its check."""
    from perfbench.workloads import point_stats, stats_digest

    if len(unit.results) != len(points):
        return [(i, "point missing from the result") for i in range(len(points))]
    problems: List[Tuple[int, str]] = []
    for index, (point, result) in enumerate(zip(points, unit.results)):
        stats = point_stats(result)
        if result.point != point:
            problems.append((index, f"result for {result.point.label}"))
        elif not (
            0 < stats["completed"] <= stats["released"]
            and stats["rejected"] <= stats["released"]
            and 0.0 <= stats["dmr"] <= 1.0
            and stats["total_fps"] > 0.0
            and stats["p99_response"] is not None
        ):
            problems.append((index, f"implausible statistics {stats}"))
    if reference is not None and stats_digest(unit.results) != reference:
        problems += [
            (index, f"{result.point.label}: statistics differ from the "
                    f"reference run {point_stats(result)}")
            for index, result in enumerate(unit.results)
        ]
    return problems


def sim_metrics(unit) -> Dict[str, float]:
    """The simulated results, as means over the unit's points."""
    results = unit.results
    return {
        "sim_fps": statistics.fmean(r.total_fps for r in results),
        "sim_dmr": statistics.fmean(r.dmr for r in results),
        "sim_goodput": statistics.fmean(r.goodput for r in results),
        "sim_p99_response_ms": 1000.0
        * statistics.fmean(r.p99_response or 0.0 for r in results),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> Dict[str, float]:
    """One cold set-up in a fresh interpreter (``setup_probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def median_setup(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Each set-up figure's median over the probes."""
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }


def peak_rss_mb(pool_size: int, child_kib: int) -> float:
    """This process's peak RSS plus ``pool_size`` times a child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + pool_size * child_kib) / 1024.0


class Tally:
    """Points attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, attempted: int, problems: List[Tuple[int, str]]) -> None:
        self.attempted += attempted
        self.failed += len({index for index, _ in problems})
        self.problems.extend(problem for _, problem in problems)

    def fail(self, problem: str) -> None:
        """A failure of the run as a whole (one more failed attempt)."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def timed_run(workload, seed: int, seconds: float, workers: int, tally: Tally):
    """Repeat the unit for ``seconds``; return ``(metrics, record)``.

    The first unit warms the process and is not timed (a sweep's parent
    stays cold regardless: its workers fork afresh for every unit).  The
    set-up probes run between the timed units, spread over the measuring
    time.  Host times are reported at the reference host speed
    (``hostspeed.py``), sampled while each unit and each probe runs; the
    record keeps the raw times too.
    """
    from perfbench.clock import now
    from perfbench.hostspeed import loop_s, scale
    from perfbench.workloads import point_stats, points_of, run_unit
    from repro.exp.grid import GridSpec

    inputs = workload.inputs(seed)
    points = points_of(inputs)
    reference = reference_for(workload.name, seed)
    pool = workers if isinstance(inputs, GridSpec) else 0
    units = []
    probes: List[Dict[str, float]] = []
    expected = None
    child_kib = 0
    started = now()
    while True:
        # each unit's peak memory is its own, not the last one's garbage
        gc.collect()
        try:
            unit = run_unit(workload, inputs, workers=pool)
        except Exception:  # a failed unit is reported, not fatal
            tally.fail(traceback.format_exc())
            break
        problems = check_points(unit, points, reference)
        problems += [(0, failure) for failure in unit.failures]
        stats = [point_stats(r) for r in unit.results]
        if expected is None:
            expected = stats
        elif stats != expected:
            problems.append((0, "statistics differ between repeats"))
        tally.add(len(points), problems)
        units.append(unit)
        if len(units) == 2:
            # the pool workers' peak, read before any probe (also a child)
            child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        elapsed = now() - started
        if len(units) > 1:
            due = math.ceil(SETUP_PROBES * elapsed / seconds)
            while len(probes) < min(due, SETUP_PROBES):
                probes.append(probe_setup(workload.name, seed))
        # stop before a unit that would overrun the measuring time
        if len(units) > MIN_REPEATS and now() - started + unit.wall_s > seconds:
            break
    timed = units[1:]
    if not timed:
        return {}, {}
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(workload.name, seed))
    setup = median_setup(probes)
    run_s = [unit.wall_s for unit in timed]
    scaled_s = [scale(unit.wall_s, unit.loop_samples) for unit in timed]
    metrics = {
        "setup_s": setup["scaled_setup_s"],
        "wall_s": setup["scaled_setup_s"] + statistics.median(scaled_s),
        "jobs_per_s": statistics.median(
            u.released / s for u, s in zip(timed, scaled_s)
        ),
        "peak_rss_mb": peak_rss_mb(pool, child_kib),
        "pass_share": 1.0 - tally.failed / tally.attempted,
        **sim_metrics(timed[0]),
    }
    record = {
        "repeats": len(timed),
        "warmup_s": units[0].wall_s,
        "run_s": run_s,
        "loop_s": [loop_s(unit.loop_samples) for unit in timed],
        "scaled_run_s": scaled_s,
        "raw": {
            "setup_s": setup["setup_s"],
            "wall_s": setup["setup_s"] + statistics.median(run_s),
            "jobs_per_s": statistics.median(u.released / u.wall_s for u in timed),
        },
        "setup": setup,
        "setup_probes": probes,
        "failed_share": tally.failed / tally.attempted,
        "points": [
            {"label": r.point.label, **point_stats(r)} for r in timed[0].results
        ],
    }
    return metrics, record


def traced_run(workload, seed: int, workers: int, tally: Tally):
    """One untraced and two traced units; return ``(metrics, record)``."""
    from perfbench.setup_probe import set_up
    from perfbench.tracer import Tracer
    from perfbench.workloads import point_stats, points_of, run_unit
    from repro.exp.grid import GridSpec

    inputs = workload.inputs(seed)
    points = points_of(inputs)
    sweep = isinstance(inputs, GridSpec)
    pool = workers if sweep else 0
    if not sweep:
        set_up(points)
    untraced = run_unit(workload, inputs, workers=pool)
    untraced_problems = check_points(
        untraced, points, reference_for(workload.name, seed)
    )
    tally.add(len(points), untraced_problems)
    expected = [point_stats(r) for r in untraced.results]
    busy = sum(r.elapsed for r in untraced.results)
    if sweep:
        # the pool ran the points in its workers; set them up here so
        # that both traced runs start from the same state
        set_up(points)

    OUT.mkdir(exist_ok=True)
    layers: List[Dict[str, float]] = []
    for trial in range(2):
        tracer = Tracer()
        try:
            tracer.install()
            installed = tracer.patched()
            unit = run_unit(workload, inputs, workers=0, span=tracer.span)
        finally:
            tracer.restore()
        # one file per workload and trial: span files run to tens of MB
        tracer.save(OUT / f"spans-{workload.name}-trial{trial}.npz")
        problems = check_points(unit, points, None)
        problems += [(0, failure) for failure in unit.failures]
        if [point_stats(r) for r in unit.results] != expected:
            problems.append((0, "traced statistics differ from untraced"))
        if not tracer.restored(installed):
            problems.append((0, "a wrapped attribute was not restored"))
        problems += [(0, problem) for problem in tracer.span_problems()]
        table = tracer.span_table()
        layer = layer_metrics(tracer, table, unit)
        # the named layers all run inside run_point
        named = sum(layer[name] for name in (*SELF_TIMES, "sim.metrics.self_s"))
        inside = table["exp.run_point"][1]
        if named > inside:
            problems.append(
                (0, f"layer self times {named} exceed run_point's {inside}")
            )
        tally.add(len(points), problems)
        layers.append(layer)
    unsteady = [
        f"{name} {layers[0][name]} vs {layers[1][name]}"
        for name in EXACT_COUNTS
        if layers[0][name] != layers[1][name]
    ]
    if unsteady:
        tally.fail("counts differ between traced runs: " + ", ".join(unsteady))

    setup = median_setup([probe_setup(workload.name, seed) for _ in range(5)])
    first, second = layers
    metrics = {
        name: (first[name] if name in EXACT_COUNTS
               else (first[name] + second[name]) / 2.0)
        for name in first
    }
    events = metrics["sim.engine.events"]
    elapsed = [r.elapsed for r in untraced.results]
    metrics.update({
        "sim.engine.us_per_event": 1e6 * busy / events if events else 0.0,
        "workloads.taskset_s": setup["taskset_s"],
        "repro.import_s": setup["import_s"],
        "exp.points": len(points),
        "exp.point_busy_s": busy,
        "exp.tail_point_s": max(elapsed),
        "exp.parallel_efficiency": busy / (max(pool, 1) * untraced.wall_s),
        "exp.failed_points": len({index for index, _ in untraced_problems}),
        "trace_overhead_share": metrics.pop("traced_busy_s") / busy - 1.0,
    })
    record = {"untraced_run_s": untraced.wall_s, "setup": setup}
    return {name: metrics[name] for name in PER_LAYER}, record


def layer_metrics(tracer, table, unit) -> Dict[str, float]:
    """Per-layer metrics of one traced unit."""

    def calls(*names: str) -> int:
        return sum(table[n][0] for n in names if n in table)

    def self_s(*names: str) -> float:
        return sum(table[n][2] for n in names if n in table)

    counts = tracer.counts
    metric_names = [n for n in table if n.startswith("sim.metrics.")]
    time_at = calls("speedup.time_at")
    passes, skips = counts["gpu.alloc_passes"], counts["gpu.alloc_skips"]
    decisions = calls("core.decide")
    records = calls("sim.trace.record")
    metrics: Dict[str, float] = {
        "speedup.time_at_calls": time_at,
        "speedup.distinct_args": tracer.distinct_arguments(),
        "speedup.repeat_share": (
            1.0 - tracer.distinct_arguments() / time_at if time_at else 0.0
        ),
        "gpu.alloc_passes": passes,
        "gpu.alloc_skips": skips,
        "gpu.alloc_skip_share": skips / (passes + skips) if passes + skips else 0.0,
        "gpu.allocation_calls": calls("gpu.compute_allocation"),
        "gpu.dispatch_calls": calls("gpu.dispatch_ready"),
        "gpu.submit_calls": calls("gpu.submit"),
        "gpu.aborts": calls("gpu.abort"),
        "gpu.free_builds": counts["gpu.free_builds"],
        "gpu.acct_queries": counts["gpu.acct_queries"],
        "sim.engine.events": counts["sim.engine.events"],
        "sim.engine.scheduled": counts["sim.engine.scheduled"],
        "sim.engine.compactions": counts["sim.engine.compactions"],
        "core.placements": calls("core.select_context"),
        "core.admission_decisions": decisions,
        "core.admit_share": counts["core.admits"] / decisions if decisions else 0.0,
        "core.aborts": calls("core.abort_job"),
        "workloads.arrivals.draws": calls("workloads.arrivals.next"),
        "sim.metrics.calls": calls(*metric_names),
        "sim.metrics.self_s": self_s(*metric_names),
        "sim.trace.records": records,
        "sim.trace.bytes": unit.trace_bytes,
        "sim.trace.bytes_per_record": unit.trace_bytes / records if records else 0.0,
        "sim.trace.serialise_s": table.get("sim.trace.save", (0, 0.0, 0.0))[1],
        "sim.trace.load_s": unit.load_s,
        "sim.trace.replay_s": unit.replay_s,
        "traced_busy_s": sum(r.elapsed for r in unit.results),
    }
    for name, spans in SELF_TIMES.items():
        metrics[name] = self_s(*spans)
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def emit(workload: str, seed: int, trace: int, metrics, record, tally) -> int:
    from perfbench.workloads import pool_workers

    catalogue = PER_LAYER if trace else END_TO_END
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {catalogue[name][0]}")
    if not trace:
        print(f"  {'failed_share':32s} {tally.failed / tally.attempted:>16.6g} fraction")
        # the host times above are at the reference host speed; these are not
        for name, value in record["raw"].items():
            print(f"  {'unscaled ' + name:32s} {value:>16.6g} {catalogue[name][0]}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    provenance = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": fingerprint(pool_workers()),
    }
    print(f"  commit {provenance['commit']}  source {provenance['source_sha256'][:12]}")
    print(f"  machine {json.dumps(provenance['machine'])}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(
            {"workload": workload, "seed": seed, "trace": trace,
             "metrics": metrics, "attempted": tally.attempted,
             "failed": tally.failed, "problems": tally.problems,
             **provenance, **record},
            indent=1,
        )
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": catalogue[name][0]}
            for name, value in metrics.items()
        },
    }))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one table of every metric."""
    from perfbench.workloads import WORKLOADS

    status = 0
    summary: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else {"correct": False}
    print(json.dumps(summary))
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the SGPRS simulator."
    )
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed run repeats its unit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and per-layer metrics")
    args = parser.parse_args(argv)
    _check_checkout()
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, pool_workers

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        return run_all(seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}, all")
    workload = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics, record = traced_run(workload, seed, pool_workers(), tally)
    else:
        metrics, record = timed_run(
            workload, seed, args.seconds, pool_workers(), tally
        )
    if not metrics:
        for problem in tally.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 1
    return emit(args.workload, seed, args.trace, metrics, record, tally)


if __name__ == "__main__":
    sys.exit(main())
