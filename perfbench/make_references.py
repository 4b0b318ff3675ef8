"""Rebuild ``references.json``: the statistics digest of every reference seed.

Run it only when a change means to alter simulated behaviour, and say so
in that change; a change that claims a speed-up leaves the file alone.
From the repository root (a few minutes)::

    python3 perfbench/make_references.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    REFERENCE_SEEDS,
    WORKLOADS,
    pool_workers,
    run_unit,
    stats_digest,
)


def digest(workload, seed: int) -> str:
    unit = run_unit(workload, workload.inputs(seed), pool_workers())
    if unit.failures:
        sys.exit("\n".join(unit.failures))
    return stats_digest(unit.results)


def main() -> None:
    references = {
        name: {str(seed): digest(workload, seed) for seed in REFERENCE_SEEDS}
        for name, workload in WORKLOADS.items()
    }
    path = ROOT / "perfbench" / "references.json"
    path.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
