"""How fast the shared host runs right now, from fixed reference work.

The machines this benchmark runs on share their cores with other tenants.
The speed of a core moves by up to 2.2x over seconds to minutes, and a
CPU-bound program slows with it: its CPU time grows as much as its wall
time.  ``probe`` times fixed work that does not use the package: a fresh
interpreter that imports a few standard modules (process start, module
loading, bytecode execution, one C extension).

A timing is scaled by ``NOMINAL_S / probe time``, with the probe time
taken around it (``factor``) or over the run (``scale``), which expresses
it in seconds of a reference host on which the probe takes ``NOMINAL_S``.  A change to the package does not touch the probe, so
it moves the scaled timings as much as the measured ones.  Probes run only
while no operation of the workload is in flight.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Probe time, in seconds, on the reference host: the 2-CPU machine of
#: bench/README.md when no other tenant loaded it.  Only the scale of the
#: figures depends on it.
NOMINAL_S = 0.042
COMMAND = [sys.executable, "-I", "-c", "import decimal, fractions, json"]


def probe() -> float:
    """Seconds the reference work takes now."""
    t = time.perf_counter()
    subprocess.run(COMMAND, check=True)
    return time.perf_counter() - t


def factor(before: float, after: float) -> float:
    """Factor for a timing made between two probes."""
    return NOMINAL_S / (0.5 * (before + after))


def scale(probes: list[float]) -> float:
    """Factor that takes timings made among ``probes`` to the reference host."""
    return NOMINAL_S / statistics.median(probes)
