"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is everything ``run_point`` does before it calls
``run_simulation``: resolving the variant, building the context pool and
the task set.  :func:`set_up` times exactly that, by calling the real
``run_point`` with ``run_simulation`` replaced by a stub that stops it, so
the benchmark never keeps a copy of the program's set-up steps.  Run as a
script, this module imports ``repro`` and sets up every point of a
workload, the cold start a researcher waits for.  ``run.py`` starts it
between the timed repeats and reports the median.  Usage::

    python3 perfbench/setup_probe.py --workload fig3_sweep --seed 0

Prints one JSON object with ``import_s``, ``taskset_s`` and ``setup_s``
(host seconds), ``loop_s`` (the calibration loop's median time while the
probe ran, see ``hostspeed.py``) and ``scaled_setup_s`` (``setup_s`` at the
reference host speed).
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.clock import now  # noqa: E402
from perfbench.hostspeed import HostSpeed, loop_s, scale  # noqa: E402


class _SetUpDone(Exception):
    """Raised by the stub in place of the simulation."""


def set_up(points: Iterable) -> float:
    """Run ``run_point``'s set-up for every point; return its host seconds.

    ``run_point`` looks ``run_simulation`` up on its module at call time, so
    the stub there sees each point's set-up finish.  The original is put
    back before this returns.
    """
    from repro.exp import worker

    original = worker.run_simulation
    finished = []

    def stub(*args, **kwargs):
        finished.append(now())
        raise _SetUpDone

    total = 0.0
    worker.run_simulation = stub
    try:
        for point in points:
            started = now()
            try:
                worker.run_point(point)
            except _SetUpDone:
                total += finished[-1] - started
            else:
                raise RuntimeError("run_point returned without simulating")
    finally:
        worker.run_simulation = original
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    with HostSpeed() as speed:
        started = now()
        import repro  # noqa: F401

        from perfbench.workloads import WORKLOADS, points_of

        imported = now()
        taskset_s = set_up(points_of(WORKLOADS[args.workload].inputs(args.seed)))
    import_s = imported - started
    print(
        json.dumps(
            {
                "import_s": import_s,
                "taskset_s": taskset_s,
                "setup_s": import_s + taskset_s,
                "loop_s": loop_s(speed.samples),
                "scaled_setup_s": scale(import_s + taskset_s, speed.samples),
            }
        )
    )


if __name__ == "__main__":
    main()
