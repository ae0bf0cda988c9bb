"""Measurement helpers shared by every workload.

CPU and memory come from ``getrusage``: ``RUSAGE_CHILDREN`` covers forked
campaign workers once they have been joined, so a parallel run's CPU and
peak memory are counted, not just the parent's.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

import numpy as np


def cpu_seconds():
    """User+system CPU of this process plus every joined child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def max_rss_mb():
    """``(own, largest_child)`` max RSS in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def steal_seconds():
    """Hypervisor steal so far, in seconds per virtual CPU (0.0 off Linux).

    Steal is time the host ran other guests on this machine's virtual
    CPUs; from ``/proc/stat``.
    """
    try:
        with open("/proc/stat") as stat:
            lines = stat.read().splitlines()
    except OSError:
        return 0.0
    ncpu = sum(1 for line in lines if line.startswith("cpu") and line[3:4].isdigit())
    return int(lines[0].split()[8]) / os.sysconf("SC_CLK_TCK") / max(ncpu, 1)


def ran_share(wall_s, steal_before):
    """Share of the last ``wall_s`` seconds this machine's CPUs actually ran.

    Multiplying a wall time by it removes the host's preemption, which
    on a shared virtual machine swings run-to-run throughput by tens of
    percent without the program doing any more work.
    """
    return 1.0 - (steal_seconds() - steal_before) / wall_s


# Median time of SpeedGauge's kernel on the reference host (2 virtual
# CPUs, x86-64, numpy 2.4 with OpenBLAS 0.3.31, one BLAS thread).  It only
# sets the units of normalized times; ratios between runs do not depend on it.
REFERENCE_KERNEL_S = 0.017


class SpeedGauge:
    """Times a fixed numpy + interpreter kernel to gauge machine speed now.

    On a shared virtual machine the same work takes up to 1.5x longer
    while a neighbour loads the physical core, in phases lasting minutes;
    CPU time inflates with it.  ``factor()`` is the reference kernel time
    over the current one: multiplying a time measured right after by it
    gives that time at reference machine speed, which is what makes runs
    comparable.  The kernel uses no code of the program under test.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        self._a = gen.standard_normal((96, 288)).astype(np.float32)
        self._b = gen.standard_normal((288, 1024)).astype(np.float32)

    def _kernel_s(self):
        t0 = time.perf_counter()
        for _ in range(20):
            c = self._a @ self._b
            np.maximum(c, 0, out=c)
        total = 0
        for i in range(30000):
            total += i
        return time.perf_counter() - t0

    def factor(self, repeats=3):
        return REFERENCE_KERNEL_S / statistics.median(
            self._kernel_s() for _ in range(repeats))


def timing_summary(samples):
    """Median, the highest percentile with >= 10 samples beyond it, and n.

    Returns ``{"median", "pXX", "n"}``; the percentile key is omitted when
    fewer than 20 samples exist (no tail percentile is then meaningful).
    """
    values = sorted(samples)
    out = {"median": statistics.median(values), "min": values[0],
           "n": len(values)}
    for pct in (99.9, 99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            rank = min(len(values) - 1, int(round(pct / 100 * (len(values) - 1))))
            out[f"p{pct:g}"] = values[rank]
            break
    return out


def environment():
    """Host facts a reader needs to judge the numbers."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        pass
    return {
        "nproc": cores,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
    }
