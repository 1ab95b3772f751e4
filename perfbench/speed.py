"""Times with the machine's CPU contention taken out.

On the shared 2-core machines this benchmark was sized on, the CPU that runs
the benchmark slows down by up to a factor of two, in stretches that last from
seconds to minutes: a fixed 3000-iteration kernel took 14-16 ms per call in
quiet stretches and 30-35 ms in busy ones.  The process CPU time slows
down with it and no steal time is accounted, so neither CPU time nor repeating
the operation inside one run removes the effect: raw per-operation times of
the same solve ranged from 4.3 s to 8.5 s, and run medians from 4.5 s to 7.4 s.

``SpeedProbe.time(fn)`` samples the CPU's speed while ``fn`` runs.  Every
``PERIOD_S`` a SIGALRM handler times a small fixed kernel.  Each stretch of
``fn`` between two probes is rescaled by the kernel's reference duration over
the mean duration of the two probes around it, and the probes' own time is
left out.  The result is the time ``fn`` takes on an uncontended CPU of the
reference machine.  On the same solve it spread 1.5% between quartiles where
raw times spread 23%.

``numpy_kernel()`` does interpreter and small-array numpy work like the
operations; ``PYTHON_KERNEL`` is plain Python, for timing code that imports
numpy itself.  Neither calls mgode, so changes to mgode cannot move the
reference.  This module imports nothing but the standard library at load
time.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01


class Kernel:
    """A fixed piece of work and its duration on an uncontended CPU of the
    reference machine (2-core Intel Xeon virtual machine, Python 3.11,
    numpy 2.4)."""

    def __init__(self, fn, reference_s: float):
        self.fn = fn
        self.reference_s = reference_s


def numpy_kernel() -> Kernel:
    """Interpreter and small-array numpy work like the operations' own."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 5)
    nodes = np.linspace(0.0, 1.0, 3)

    def work():
        acc = 0.0
        for i in range(20):
            s = (x - nodes[i % 3]) * 0.5
            acc += float(np.prod(s[:3])) + float(s @ s)
        return acc

    return Kernel(work, 1.4e-4)


def _python_work():
    acc = 0.0
    table = {}
    for i in range(60):
        row = [i * 0.5, i + 1.0, 2.0]
        table[i & 7] = row
        acc += sum(row) * 0.25
    return acc + len(table)


# plain Python, for timing code that itself imports numpy
PYTHON_KERNEL = Kernel(_python_work, 2.5e-5)


class SpeedProbe:
    """Samples the CPU speed around and during one call."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._busy = False

    def _probe(self, *_signal_args) -> None:
        if self._busy:      # a late timer signal must not nest probes
            return
        self._busy = True
        start = time.perf_counter()
        self.kernel.fn()
        self._durations.append(time.perf_counter() - start)
        self._starts.append(start)
        self._busy = False

    def time(self, fn):
        """Call ``fn()``; return its result, its wall seconds (probes
        included) and its contention-corrected seconds."""
        self._starts.clear()
        self._durations.clear()
        self.kernel.fn()    # warm the kernel's code and data before sampling
        previous = signal.signal(signal.SIGALRM, self._probe)
        try:
            self._probe()
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                t1 = time.perf_counter()
            self._probe()
        finally:
            signal.signal(signal.SIGALRM, previous)
        # stretch j runs from the end of probe j (or t0) to the start of
        # probe j + 1 (or t1); the first and last probe ran outside fn
        starts, durations = self._starts, self._durations
        begin = [t0] + [s + d for s, d in zip(starts[1:-1], durations[1:-1])]
        end = starts[1:-1] + [t1]
        corrected = sum(
            max(b - a, 0.0) * self.kernel.reference_s / (0.5 * (d0 + d1))
            for a, b, d0, d1 in zip(begin, end, durations, durations[1:]))
        return result, t1 - t0, corrected
