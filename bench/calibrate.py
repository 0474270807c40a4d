"""Machine-speed reference for the benchmark's timings.

The sandboxes this benchmark runs in share their CPUs with other tenants:
the same pass of the same program drifts by up to 1.7x over tens of seconds
while CPU time drifts with it and little steal is reported, so neither clock
separates the program from the machine.  The benchmark therefore times a
fixed kernel, which never changes between commits, next to every command
and reports each command's time in reference seconds: wall time x
(REFERENCE_S / kernel time), the time the work would take on a machine
that runs the kernel in REFERENCE_S.  The raw wall time is reported
alongside.

The kernel mixes what the workloads do: interpreter-bound loops over
Python objects, numpy array arithmetic, small dense linear algebra.  It
never imports the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal kernel time, near the kernel's time on a 2-vCPU sandbox, so that
# reference seconds read close to wall seconds.
REFERENCE_S = 0.012

_Z = np.exp(2j * np.pi * np.arange(50_000) / 50_000)
_M = np.random.default_rng(0).random((48, 48)) / 48.0


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(30_000):
        acc[i % 97] = acc.get(i % 97, 0.0) + (i * 0.5) ** 0.5
    z = _Z
    for _ in range(10):
        z = np.abs(z - 0.5) + 1j * np.minimum(z.real, z.imag)
    m = _M
    for _ in range(20):
        m = np.linalg.solve(np.eye(48) + m, m @ m)
    _ = (sum(acc.values()), z.sum(), m.sum())
    return time.perf_counter() - t0


def kernel_median(budget: float) -> float:
    """Median kernel time over at least three runs and ``budget`` seconds."""
    samples = []
    while len(samples) < 3 or sum(samples) < budget:
        samples.append(kernel_seconds())
    return statistics.median(samples)
