"""The host's speed, sampled while the benchmark measures.

On a shared virtual machine the same code runs at speeds up to 1.6x apart,
and a slow spell lasts for minutes, so whole 30 s runs land fast or slow
and no statistic over one run's repeats takes it out.  A fixed calibration
loop, independent of the simulator, samples the speed of the very CPU time
a timed unit gets: a timer signal runs it every ``INTERVAL_S`` while the
unit runs.  Its per-sample time tracks the unit's time closely (correlation
0.95 over 129 ``fig3_past_pivot`` units), so the benchmark reports host
times scaled by ``REFERENCE_S`` / (the loop's median time during the
measurement): the time the measurement would have taken with the loop at
its reference time.  A change to the simulator leaves the loop's time
alone, so its effect passes through the scaling whole.

Usage::

    with HostSpeed() as speed:
        run_the_unit()
    scaled_s = scale(raw_s, speed.samples)
"""

from __future__ import annotations

import math
import signal
import statistics
from typing import List

from perfbench.clock import now

#: Seconds between calibration samples (the loop costs about 0.3% of that).
INTERVAL_S = 0.02
#: The loop's time in seconds at the reference speed: its fast-state
#: median on a 2-vCPU Intel Xeon (family 6, model 207) KVM guest at
#: 2.1 GHz, Python 3.11.  Scaled times are host seconds at that speed.
REFERENCE_S = 5.3e-5


def _loop() -> float:
    """The calibration work: dict updates, float arithmetic and calls."""
    table = {}
    total = 0.0
    for i in range(300):
        key = i & 31
        table[key] = table.get(key, 0.0) + i * 0.5
        total += math.sqrt(i)
    return total


class HostSpeed:
    """Samples the calibration loop from ``SIGALRM`` while in a ``with``."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = now()
        _loop()
        self.samples.append(now() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def loop_s(samples: List[float]) -> float:
    """The loop's median time over ``samples``."""
    if not samples:
        raise RuntimeError("no host-speed sample: measurement too short")
    return statistics.median(samples)


def scale(seconds: float, samples: List[float]) -> float:
    """``seconds``, measured while ``samples`` were taken, at the reference speed."""
    return seconds * REFERENCE_S / loop_s(samples)
