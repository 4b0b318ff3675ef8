"""Real-time metrics: FPS, miss rate, tail latency, goodput, rejections.

The paper evaluates schedulers with two metrics (Section V):

* **Total FPS** — completed inference frames per second summed over all
  tasks, measured over a steady-state window.
* **Deadline Miss Rate (DMR)** — the fraction of job instances that did not
  complete by their absolute deadline.

The open-system arrivals subsystem (:mod:`repro.workloads.arrivals` +
:mod:`repro.core.admission`) adds the serving-stack view of the same run:

* **Rejection rate** — the fraction of post-warmup releases the admission
  controller turned away (trace kind ``job_reject``).  Rejected jobs are
  *excluded* from DMR: the client was refused up front, which is a
  load-shedding decision, not a missed frame (``job_skip`` drops, by
  contrast, still count as misses).
* **Goodput** — completed-*and*-met-deadline frames per second: the
  throughput a deadline-sensitive consumer actually benefits from.
* **Tail latency** — nearest-rank response-time percentiles (p99/p999).
* **Queue depth** — time-weighted mean and max of the number of admitted
  jobs in flight.

Each metric has one definition, in :class:`MetricsCollector`, and one
input: the job-event stream (the ``job_*`` kinds of
:mod:`repro.sim.trace_kinds`).  The collector is a sink with the trace
recorders' ``record(time, kind, **fields)`` signature.  The scheduler
feeds it live, and :func:`metrics_from_trace` feeds it a recorded or
stored trace, so a replayed trace scores exactly like the run that
wrote it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace_kinds import (
    JOB_COMPLETE,
    JOB_KINDS,
    JOB_REJECT,
    JOB_RELEASE,
    JOB_SKIP,
)


def nearest_rank(sorted_values: List[float], fraction: float) -> Optional[float]:
    """Ceil-based nearest-rank percentile of a pre-sorted sample.

    The value at 1-based rank ``ceil(fraction * n)`` (fraction 0 maps to
    the minimum); ``None`` on an empty sample.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not sorted_values:
        return None
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class JobRecord:
    """Lifecycle of one released job instance.

    ``rejected`` marks jobs the admission controller refused; they are
    excluded from deadline accounting and counted by the rejection-rate
    metric instead.
    """

    task_name: str
    job_index: int
    release_time: float
    absolute_deadline: float
    finish_time: Optional[float] = None
    rejected: bool = False

    @property
    def completed(self) -> bool:
        """Whether the job ran to completion (regardless of timeliness)."""
        return self.finish_time is not None

    def missed(self, now: float) -> bool:
        """Whether the job's deadline is missed as of simulated time ``now``.

        A job misses when it finished after its deadline, or has not
        finished by the time its deadline arrives.  An unfinished job
        whose deadline equals ``now`` has missed: the run is over at
        ``now`` (``run_until`` fires every event at exactly the horizon),
        so it can no longer finish in time.
        """
        if self.finish_time is not None:
            return self.finish_time > self.absolute_deadline
        return now >= self.absolute_deadline

    @property
    def response_time(self) -> Optional[float]:
        """Completion latency (finish - release), or ``None`` if unfinished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.release_time


class MetricsCollector:
    """Scores the job-event stream into the paper's metrics.

    Parameters
    ----------
    warmup:
        Jobs *released* before ``warmup`` seconds are excluded from every
        steady-state metric, so transients from an empty system do not
        bias the numbers.

    **Input.**  :meth:`record` scores the ``job_*`` kinds and ignores
    every other kind, so a full trace and one kept to ``job_*`` kinds
    score the same.  Job events must arrive in time order, and a
    ``job_release`` must carry its ``deadline``.  Admission is read off
    the stream: a release's ``job_skip``/``job_reject`` directly follows
    the release, so the collector holds one release pending and counts
    it admitted once any other job event arrives.  The queue depth
    counts a pending release as admitted, so it equals the scheduler's
    in-flight count between events.  An event that contradicts the
    stream so far (an unknown job, a second completion, a completion
    after a rejection, a departure of a job not in flight) raises.

    **Warmup rule.**  One population underlies all per-job metrics: jobs
    with ``release_time >= warmup`` (release exactly at the boundary
    counts).  FPS, per-task FPS, goodput, DMR, response times and the
    rejection rate all draw from it, so their numerators and
    denominators agree on any one run.  (A previous version filtered
    FPS/goodput only on ``finish_time >= warmup``, which counted frames
    from jobs released *during* warmup — work DMR's population never
    saw, making the throughput and miss-rate views of one run
    disagree.)  Completion-window bounds still apply on top: FPS and
    goodput count only completions with ``finish_time <= now``.
    """

    def __init__(self, warmup: float = 0.0) -> None:
        self.warmup = warmup
        self.jobs: List[JobRecord] = []
        self._job_index: Dict[Tuple[str, int], JobRecord] = {}
        #: Admitted jobs in flight; its size is the queue depth.
        self._open: Dict[Tuple[str, int], JobRecord] = {}
        #: The release awaiting its admission outcome (see class docstring).
        self._pending: Optional[JobRecord] = None
        #: Queue-depth step function: ``(time, depth)`` transitions in
        #: non-decreasing time order.
        self._depth_steps: List[Tuple[float, int]] = []
        self._last_time = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Score one event; the same signature as the trace recorders'."""
        if kind not in JOB_KINDS:
            return
        if time < self._last_time:
            raise ValueError(
                f"{kind} at {time} precedes the previous job event at "
                f"{self._last_time}"
            )
        self._last_time = time
        key = (fields["task"], fields["job"])
        if kind == JOB_SKIP or kind == JOB_REJECT:
            job = self._pending
            if job is None or (job.task_name, job.job_index) != key:
                raise self._unexpected(kind, key, "awaiting admission")
            self._pending = None
            job.rejected = kind == JOB_REJECT
            return
        self._admit_pending()
        if kind == JOB_RELEASE:
            deadline = fields.get("deadline")
            if deadline is None:
                raise ValueError(
                    f"job_release of {key} lacks the 'deadline' field; "
                    "the trace predates the streaming-metrics format"
                )
            if key in self._job_index:
                raise ValueError(f"job {key} released twice")
            job = JobRecord(key[0], key[1], time, deadline)
            self.jobs.append(job)
            self._job_index[key] = job
            self._pending = job
            return
        job = self._open.pop(key, None)
        if job is None:
            raise self._unexpected(kind, key, "in flight")
        if kind == JOB_COMPLETE:
            job.finish_time = time
        self._depth_steps.append((time, len(self._open)))

    def _admit_pending(self) -> None:
        """Commit the held release as admitted (nothing refused it)."""
        job = self._pending
        if job is not None:
            self._pending = None
            self._open[(job.task_name, job.job_index)] = job
            self._depth_steps.append((job.release_time, len(self._open)))

    def _unexpected(self, kind: str, key: Tuple[str, int], state: str):
        if key not in self._job_index:
            return KeyError(f"{kind} for unknown job {key}")
        return ValueError(f"{kind} for job {key}, which is not {state}")

    @property
    def queue_depth(self) -> int:
        """Admitted jobs in flight, a pending release included."""
        return len(self._open) + (self._pending is not None)

    def _depth_history(self) -> List[Tuple[float, int]]:
        """The depth step function, a pending release counted admitted."""
        if self._pending is None:
            return self._depth_steps
        return self._depth_steps + [(self._pending.release_time, self.queue_depth)]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def _measured_jobs(self, now: float) -> List[JobRecord]:
        """Jobs that count toward DMR at time ``now``.

        A job counts when it was released after warmup and its deadline has
        passed (so its outcome is decided).  Rejected jobs never count:
        the admission controller refused them up front, so their outcome
        is a *rejection* (see :meth:`rejection_rate`), not a miss.
        """
        return [
            job
            for job in self.jobs
            if not job.rejected
            and job.release_time >= self.warmup
            and job.absolute_deadline <= now
        ]

    def total_fps(self, now: float) -> float:
        """Completed frames per second over the post-warmup window.

        Counts completions (by ``now``) of post-warmup-released jobs
        only — the same population DMR measures (see the class
        docstring's warmup rule).
        """
        window = now - self.warmup
        if window <= 0.0:
            return 0.0
        completed = sum(
            1
            for job in self.jobs
            if job.finish_time is not None
            and job.release_time >= self.warmup
            and job.finish_time <= now
        )
        return completed / window

    def deadline_miss_rate(self, now: float) -> float:
        """Fraction of decided post-warmup jobs that missed their deadline."""
        jobs = self._measured_jobs(now)
        if not jobs:
            return 0.0
        missed = sum(1 for job in jobs if job.missed(now))
        return missed / len(jobs)

    def per_task_fps(self, now: float) -> Dict[str, float]:
        """Completed frames per second broken down by task (same
        post-warmup-released population as :meth:`total_fps`)."""
        window = now - self.warmup
        out: Dict[str, float] = {}
        if window <= 0.0:
            return out
        for job in self.jobs:
            if (
                job.finish_time is not None
                and job.release_time >= self.warmup
                and job.finish_time <= now
            ):
                out[job.task_name] = out.get(job.task_name, 0.0) + 1.0
        return {name: count / window for name, count in out.items()}

    def per_task_dmr(self, now: float) -> Dict[str, float]:
        """Deadline miss rate broken down by task."""
        counts: Dict[str, List[int]] = {}
        for job in self._measured_jobs(now):
            total_missed = counts.setdefault(job.task_name, [0, 0])
            total_missed[0] += 1
            if job.missed(now):
                total_missed[1] += 1
        return {
            name: missed / total for name, (total, missed) in counts.items()
        }

    def response_times(self) -> List[float]:
        """Response times of all completed post-warmup jobs, sorted."""
        values = [
            job.response_time
            for job in self.jobs
            if job.response_time is not None and job.release_time >= self.warmup
        ]
        return sorted(values)

    def response_time_percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile (0..1) of response times, or ``None``.

        Uses the explicit ceil-based nearest-rank definition: the value
        at rank ``ceil(fraction * n)`` (1-based; fraction 0 maps to the
        minimum).  A previous implementation used ``int(round(...))``,
        whose round-half-even tie-breaking made half-way fractions flap
        between adjacent ranks as the sample count changed; the ceil
        definition is monotone in ``fraction`` and stable.
        """
        return nearest_rank(self.response_times(), fraction)

    def rejection_rate(self, now: float) -> float:
        """Fraction of post-warmup releases refused by admission control.

        The population is every job with ``release_time >= warmup`` — the
        same release-based boundary DMR/FPS/goodput use (a release at
        exactly ``warmup`` is post-warmup).  Rejections are decided at
        release time, so nothing waits for a deadline to pass; ``now`` is
        accepted for signature parity with the other rate metrics but does
        not bound the population (jobs are only recorded once released, so
        a release after ``now`` cannot be present anyway — an earlier
        version filtered ``release_time <= now``, silently excluding a
        release at exactly ``now`` from the denominator).
        """
        released = [
            job for job in self.jobs if job.release_time >= self.warmup
        ]
        if not released:
            return 0.0
        return sum(1 for job in released if job.rejected) / len(released)

    def rejected_count(self) -> int:
        """Total jobs rejected by admission control (warmup included)."""
        return sum(1 for job in self.jobs if job.rejected)

    def goodput(self, now: float) -> float:
        """Completed-and-met-deadline frames per second after warmup.

        The deadline-sensitive counterpart of :meth:`total_fps`: a frame
        that finishes late still counts toward FPS (work was done) but
        not toward goodput (the consumer could no longer use it).  Same
        post-warmup-released population as FPS and DMR.
        """
        window = now - self.warmup
        if window <= 0.0:
            return 0.0
        good = sum(
            1
            for job in self.jobs
            if job.finish_time is not None
            and job.release_time >= self.warmup
            and job.finish_time <= now
            and job.finish_time <= job.absolute_deadline
        )
        return good / window

    def mean_queue_depth(self, now: float) -> float:
        """Time-weighted mean admitted-jobs-in-flight over ``[warmup, now]``.

        0.0 when no job was ever admitted or the window is empty.
        """
        steps = self._depth_history()
        window = now - self.warmup
        if window <= 0.0 or not steps:
            return 0.0
        weighted = 0.0
        # Depth in effect at the window start: the last transition at or
        # before warmup (0 jobs before the first transition).
        depth = 0
        start = self.warmup
        for time, next_depth in steps:
            if time <= self.warmup:
                depth = next_depth
                continue
            if time >= now:
                break
            weighted += depth * (time - start)
            start = time
            depth = next_depth
        weighted += depth * (now - start)
        return weighted / window

    def max_queue_depth(self, now: float) -> int:
        """Peak admitted-jobs-in-flight over ``[warmup, now]``.

        Includes the depth carried into the window by the last transition
        at or before warmup.
        """
        peak = 0
        carried = 0
        for time, depth in self._depth_history():
            if time <= self.warmup:
                carried = depth
            elif time <= now:
                peak = max(peak, depth)
            else:
                break
        return max(peak, carried)

    def released_count(self) -> int:
        """Total jobs released (including during warmup)."""
        return len(self.jobs)

    def completed_count(self) -> int:
        """Total jobs completed (including during warmup)."""
        return sum(1 for job in self.jobs if job.finish_time is not None)

    def summary(self, now: float) -> Dict[str, Any]:
        """The scalar metrics at ``now``, keyed by their ``RunResult`` names."""
        return {
            "total_fps": self.total_fps(now),
            "dmr": self.deadline_miss_rate(now),
            "goodput": self.goodput(now),
            "rejection_rate": self.rejection_rate(now),
            "released": self.released_count(),
            "completed": self.completed_count(),
            "rejected": self.rejected_count(),
            "p99_response": self.response_time_percentile(0.99),
            "p999_response": self.response_time_percentile(0.999),
            "mean_queue_depth": self.mean_queue_depth(now),
            "max_queue_depth": self.max_queue_depth(now),
        }


def metrics_from_trace(
    records: Iterable, warmup: float, now: float
) -> Dict[str, Any]:
    """Score any trace-record iterable: :meth:`MetricsCollector.summary`."""
    collector = MetricsCollector(warmup=warmup)
    for record in records:
        if record.kind in JOB_KINDS:  # the rest would be ignored anyway
            collector.record(record.time, record.kind, **record.fields)
    return collector.summary(now)
