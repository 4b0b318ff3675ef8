"""Metrics replayed from a trace equal the live run's metrics.

:func:`metrics_from_trace` feeds a recorded or stored trace through the
same :class:`MetricsCollector` the scheduler feeds live.  Every scenario
here runs a real simulation and demands that the replay reproduces the
live summary exactly, including under admission control where releases
can be rejected or queued.
"""

import pytest

from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.spec import RTX_2080_TI
from repro.sim.metrics import MetricsCollector, metrics_from_trace
from repro.sim.trace import TraceRecord
from repro.sim.trace_kinds import JOB_KINDS
from repro.workloads.generator import identical_periodic_tasks

DURATION = 0.6
WARMUP = 0.15

SCENARIOS = [
    # (id, num_tasks, extra RunConfig kwargs)
    ("closed_overload", 20, {}),
    ("reject_poisson", 8, {"admission": "reject", "arrival": "poisson"}),
    ("queue_mmpp", 8, {"admission": "queue:depth=2", "arrival": "mmpp"}),
]


def run_traced(num_tasks, trace_backend, **kwargs):
    pool = ContextPoolConfig.from_oversubscription(2, 1.0, RTX_2080_TI)
    tasks = identical_periodic_tasks(
        num_tasks, nominal_sms=pool.sms_per_context
    )
    return run_simulation(
        tasks,
        RunConfig(
            pool=pool,
            duration=DURATION,
            warmup=WARMUP,
            record_trace=True,
            trace_backend=trace_backend,
            **kwargs,
        ),
    )


def live_summary(result):
    """The replayable part of the live result: the collector's scalars."""
    summary = result.metrics_summary()
    return {key: summary[key] for key in result.metrics.summary(DURATION)}


class TestAccumulatorEquivalence:
    @pytest.mark.parametrize("trace_backend", ["list", "columnar"])
    @pytest.mark.parametrize(
        "num_tasks,kwargs",
        [s[1:] for s in SCENARIOS],
        ids=[s[0] for s in SCENARIOS],
    )
    def test_matches_live_collector(self, num_tasks, kwargs, trace_backend):
        result = run_traced(num_tasks, trace_backend, **kwargs)
        streamed = metrics_from_trace(result.trace, WARMUP, DURATION)
        assert streamed["released"] > 0
        assert streamed == live_summary(result)

    def test_survives_disk_round_trip(self):
        from repro.sim.trace_io import trace_from_bytes, trace_to_bytes

        result = run_traced(20, "columnar")
        rebuilt = trace_from_bytes(trace_to_bytes(result.trace))
        streamed = metrics_from_trace(rebuilt, WARMUP, DURATION)
        assert streamed == live_summary(result)

    def test_incremental_feed_equals_one_shot(self):
        result = run_traced(20, "columnar")
        collector = MetricsCollector(warmup=WARMUP)
        for record in result.trace:
            collector.record(record.time, record.kind, **record.fields)
        assert collector.summary(DURATION) == metrics_from_trace(
            result.trace, WARMUP, DURATION
        )

    @pytest.mark.parametrize(
        "num_tasks,kwargs",
        [s[1:] for s in SCENARIOS],
        ids=[s[0] for s in SCENARIOS],
    )
    def test_job_kinds_alone_replay_the_same(self, num_tasks, kwargs):
        # The metrics read only the job_* kinds, so a trace kept to them
        # (e.g. a recorder with a kinds allow-list) scores the same.
        result = run_traced(num_tasks, "columnar", **kwargs)
        kept = [record for record in result.trace if record.kind in JOB_KINDS]
        assert 0 < len(kept) < len(result.trace)
        streamed = metrics_from_trace(kept, WARMUP, DURATION)
        assert streamed == live_summary(result)


class TestAccumulatorContract:
    def test_release_without_deadline_rejected(self):
        stale = TraceRecord(0.0, "job_release", {"task": "t0", "job": 0})
        with pytest.raises(ValueError, match="deadline"):
            metrics_from_trace([stale], 0.0, 1.0)

    def test_empty_trace_finalizes_to_zeros(self):
        metrics = metrics_from_trace([], 0.5, 1.0)
        assert metrics["total_fps"] == 0.0
        assert metrics["dmr"] == 0.0
        assert metrics["released"] == 0
        assert metrics["p99_response"] is None
        assert metrics["max_queue_depth"] == 0

    def test_finalize_is_repeatable(self):
        result = run_traced(20, "columnar")
        collector = MetricsCollector(warmup=WARMUP)
        for record in result.trace:
            collector.record(record.time, record.kind, **record.fields)
        first = collector.summary(DURATION)
        assert collector.summary(DURATION) == first
