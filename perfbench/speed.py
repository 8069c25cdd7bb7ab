"""The host's speed, sampled while an iteration runs, and times scaled by it.

On a shared host the program runs at a speed that other tenants set: the
same iteration takes up to twice as long when they are busy, in episodes of
a fraction of a second to minutes.  CPU time slows with wall time, because
the host takes throughput away rather than time slices.  So the benchmark
measures the speed while it measures the program.

A timer signal every ``INTERVAL_S`` runs a small fixed kernel in the
benchmark's process, between the program's own bytecodes, and records the
CPU time the kernel took.  The kernel is chosen to resemble the workload's
hot loop, because contention slows interpreted code, whole-array numpy
passes and text formatting by different factors: ``scalar`` (interpreted
loops over small arrays, like the adaptive quadrature), ``array``
(whole-array passes, like the Brownian mesh) or ``text`` (float-to-text
rows, like the CSV writers).  When the workload's process pool keeps every
CPU busy, the ticks take the CPUs in turn, because each CPU has its own
speed and the probe would otherwise sample mostly one of them.

Over an iteration of wall time ``T``, the mean of ``REFERENCE_S[kind] / d``
over the kernel's times ``d`` is the mean speed relative to the reference,
and ``T`` times it is the time the iteration would take at that speed.  The
kernel's own time is taken out of ``T`` first.  The kernel is the
benchmark's code, so a change to the program changes the scaled time by as
much as it changes the raw one.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time

import numpy as np

#: seconds between samples
INTERVAL_S = 0.05

#: CPU seconds each kernel takes at the reference speed: its fastest time on
#: a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4) with nothing else running
REFERENCE_S = {"scalar": 5.0e-4, "array": 6.0e-4, "text": 3.8e-4}

_A = np.linspace(0.0, 1.0, 15)
_G = np.random.default_rng(7).standard_normal((16, 4096))
_W = np.empty_like(_G)
_T = np.linspace(0.1, 9.9, 120)


def _scalar() -> float:
    acc = 0.0
    for i in range(200):
        y = np.exp(-_A * (1.0 + (i % 13) * 0.1))
        acc += math.sqrt(1.0 + float(y @ _A)) + math.log1p(i)
    return acc


def _array() -> float:
    np.cumsum(_G, axis=1, out=_W)
    peak = np.maximum.accumulate(_W, axis=1)
    return float(np.searchsorted(peak[0], 1.0)) + float(np.sort(_W[3])[100])


def _text() -> float:
    return len("\n".join(f"{i},{a!r},{a * a!r}" for i, a in enumerate(_T)))


KERNELS = {"scalar": _scalar, "array": _array, "text": _text}


class SpeedProbe:
    """Samples the host's speed with ``kind``'s kernel while it is active.

    Use as a context manager around one timed iteration; ``scaled`` then
    turns the iteration's wall or CPU time into time at the reference speed.
    The signal handler stays installed for the life of the process, so a
    tick that arrives as the timer stops finds a handler that ignores it.
    """

    def __init__(self, kind: str, every_cpu: bool = False) -> None:
        self.kernel = KERNELS[kind]
        self.reference = REFERENCE_S[kind]
        self.cpus = sorted(os.sched_getaffinity(0))
        self.every_cpu = every_cpu and len(self.cpus) > 1
        self.ticks = 0
        self.active = False
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        wall0 = time.perf_counter()
        if self.every_cpu:
            # only this thread moves; it is back on every CPU before the
            # program can start a process that would inherit the pinning
            self.ticks += 1
            os.sched_setaffinity(0, {self.cpus[self.ticks % len(self.cpus)]})
        try:
            cpu0 = time.thread_time()
            self.kernel()
            cpu = time.thread_time() - cpu0
        finally:
            if self.every_cpu:
                os.sched_setaffinity(0, self.cpus)
        self.samples.append(cpu)
        self.spent_cpu += cpu
        self.spent_wall += time.perf_counter() - wall0

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.spent_wall = self.spent_cpu = 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.active = False
        if not self.samples:  # an iteration shorter than one interval
            cpu0 = time.thread_time()
            self.kernel()
            self.samples.append(time.thread_time() - cpu0)

    def speed(self) -> float:
        """Mean speed over the iteration, relative to the reference."""
        return statistics.fmean(self.reference / d for d in self.samples)

    def scaled(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of the iteration at the reference speed."""
        s = self.speed()
        return (wall - self.spent_wall) * s, (cpu - self.spent_cpu) * s
