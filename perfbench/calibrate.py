"""How fast the host runs at the moment, for the end-to-end timings.

On a shared virtual machine the same request takes up to twice as long,
even in CPU time, when other tenants load the host (cache and memory
contention); in wall time it also waits while the hypervisor runs other
guests (steal time).  The benchmark times requests in CPU time and divides
by ``speed()`` of a fixed kernel, run a few times in every pass, so the
timings read as on a host where the kernel takes ``REFERENCE_MS``.

The kernel does the kinds of work staticstar does: interpreted Python
arithmetic, numpy on small arrays and a scipy ODE solve.  It is part of
the benchmark, not of the program, so a change to staticstar cannot move it.

Set-up is mostly importing numpy and scipy, which the kernel does not
track: when the host got twice as fast for the kernel, set-up got only
1.3 times as fast.  ``run.py`` scales set-up by a fresh interpreter's
import of staticstar's dependencies instead.

Run it alone to see the kernel's CPU time on this host::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# the kernel's typical CPU time, in ms, on the 2-vCPU 2 GHz x86-64 shared VM
# the benchmark was written on (its median over 15 runs of 25 s)
REFERENCE_MS = 7.5

_X = np.linspace(0.0, 1.0, 256)


def _rhs(t, y):
    return [y[1], -y[0] * (1.0 + 0.1 * math.sin(t))]


def kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sin(i * 1e-3)
    for _ in range(40):
        s += float(np.sum(np.sqrt(1.0 + _X) * np.exp(-_X)))
    sol = solve_ivp(_rhs, (0.0, 6.0), [1.0, 0.0], rtol=1e-8, atol=1e-10)
    return s + float(sol.y[0, -1])


def cpu_ms() -> float:
    """CPU time of one kernel run, in ms."""
    c0 = time.process_time()
    kernel()
    return (time.process_time() - c0) * 1e3


def speed(samples: list[float]) -> float:
    """Median kernel time over the reference: above 1 on a slowed host."""
    return statistics.median(samples) / REFERENCE_MS


if __name__ == "__main__":
    kernel()
    runs = sorted(cpu_ms() for _ in range(200))
    print(f"kernel CPU ms over 200 runs: min {runs[0]:.3f}, "
          f"median {statistics.median(runs):.3f}, max {runs[-1]:.3f}; "
          f"reference {REFERENCE_MS}")
