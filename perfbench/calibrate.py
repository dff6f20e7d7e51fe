"""Host speed, measured next to the program, for rescaling its times.

On a shared host the speed of the same code changes by 2x or more, in phases
that last from a few seconds to minutes, and every command slows by the
same factor.  ``HostClock`` follows those phases: while it runs a command,
a timer signal interrupts the program every ``INTERVAL_S`` seconds and times
a short fixed kernel.  Each stretch of the program's own work between two
kernel runs is rescaled by the mean time of those two runs, relative to
``REFERENCE_S``.  The result is the command's time at reference speed; the
kernel's own time is left out of it.

The kernel uses only the interpreter and numpy, never ``plateau``, so no
change to the program can move it.  Its mix follows the per-sample paths:
a small complex QR with the phase fix, a matrix product, and a pure-Python
loop.  One untimed pass before each timed run refills the caches the
program evicted, so the program's memory use does not leak into the speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

ITERATIONS = 40
INTERVAL_S = 0.05
# Kernel time in the fast phase of the 2-vCPU Xeon host the benchmark was
# built on (the slow phase took 2.8 ms).  Only ratios between runs matter.
REFERENCE_S = 0.0015


def kernel(iterations: int = ITERATIONS) -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(iterations):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        acc += float(np.trace(q @ q.conj().T).real)
        s = 0
        for j in range(40):
            s += j * j % 7
        acc += s
    return acc


class HostClock:
    """Times the kernel periodically while a command runs; see ``run``."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []  # (entered, timed from, left)
        self._busy = False

    def tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a tick is dropped
            return
        self._busy = True
        entered = time.perf_counter()
        kernel(1)
        timed = time.perf_counter()
        kernel()
        self.ticks.append((entered, timed, time.perf_counter()))
        self._busy = False

    def run(self, fn):
        """(fn(), wall seconds of fn's own work, the same at reference speed).

        The kernel runs once before ``fn``, every ``INTERVAL_S`` during it and
        once after, so every stretch of work lies between two kernel runs.
        """
        self.ticks = []
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.tick()
        work = at_reference = 0.0
        for before, after in zip(self.ticks, self.ticks[1:]):
            stretch = after[0] - before[2]
            work += stretch
            at_reference += stretch * speed(before, after)
        return result, work, at_reference


def speed(*ticks: tuple[float, float, float]) -> float:
    """Host speed relative to the reference, from the timed part of ``ticks``."""
    return len(ticks) * REFERENCE_S / sum(left - timed for _, timed, left in ticks)
