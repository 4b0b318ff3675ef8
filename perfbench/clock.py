"""The benchmark's one wall-clock read.

Host time is what the benchmark measures, so it is read here and nowhere
else; simulated time never comes from this clock.
"""

import time


def now() -> float:
    """Monotonic host time in seconds."""
    # repro: lint-ok[D002] host timing is the benchmark's measurement, never simulated time
    return time.perf_counter()
