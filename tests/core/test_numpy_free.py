"""The simulator runs on a numpy-free install.

numpy is a test/benchmark dependency only (``requirements-dev.txt``); the
library itself is stdlib-only.  This drives a short Scenario-1 run under
every re-arm mode and both trace backends in a subprocess where
``import numpy`` fails, and checks it matches the same runs in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.context_pool import ContextPoolConfig
from repro.core.runner import RunConfig, run_simulation
from repro.gpu.device import REARM_MODES
from repro.gpu.spec import RTX_2080_TI
from repro.sim.trace import TRACE_BACKENDS
from repro.workloads.generator import identical_periodic_tasks


def scenario1_runs():
    """Summaries of a short traced Scenario-1 run per (mode, backend)."""
    pool = ContextPoolConfig.from_oversubscription(2, 1.5, RTX_2080_TI)
    tasks = identical_periodic_tasks(6, nominal_sms=pool.sms_per_context)
    summaries = {}
    for rearm_mode in REARM_MODES:
        for backend in TRACE_BACKENDS:
            result = run_simulation(
                tasks,
                RunConfig(
                    pool=pool,
                    duration=0.5,
                    warmup=0.1,
                    record_trace=True,
                    trace_backend=backend,
                    rearm_mode=rearm_mode,
                    work_jitter_cv=0.1,
                ),
            )
            summaries[f"{rearm_mode}/{backend}"] = {
                "metrics": result.metrics_summary(),
                "records": len(result.trace),
                "kinds": sorted(result.trace.kinds()),
            }
    return summaries


CHILD = """
import json, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
sys.path.insert(0, {tests_dir!r})
from test_numpy_free import scenario1_runs
print(json.dumps(scenario1_runs(), sort_keys=True))
assert sys.modules["numpy"] is None
"""


def test_simulation_runs_without_numpy():
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c",
         CHILD.format(tests_dir=str(Path(__file__).resolve().parent))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    without_numpy = json.loads(child.stdout)
    expected = json.loads(json.dumps(scenario1_runs(), sort_keys=True))
    assert without_numpy == expected
    assert len(without_numpy) == len(REARM_MODES) * len(TRACE_BACKENDS)
