"""SIM110 fixture: wall-clock read outside the designated modules.

This file stands in for ordinary simulation code (it is not
``repro/obs/profiler|journal``, ``repro/fleet/runner`` or
``repro/baselines/replay``), so even a speed measurement must not read
the host clock here — it belongs in a designated module.
"""

import time


def measure_step(sim):
    started = time.perf_counter()
    sim.step()
    return time.perf_counter() - started
