"""Scale item times by the host's speed, sampled between and inside items.

On a shared host, other tenants slow every instruction of this process, by
up to 2.5x.  The speed of one CPU wanders on a scale of about a second, and
the two CPUs wander independently, so raw times of one program spread by
10-25% between runs and another process cannot measure the speed for us.

A fixed calibration slice (small numpy calls driven from a Python loop,
like the library's hot paths) therefore runs in this process: between
items once enough timed work has queued, and inside long items from a
SIGALRM timer every ``SLICE_EVERY_S``.  Items and spans are timed with
``Calibration.clock``, which leaves out the timer's slices.  Each item's
time is then multiplied by ``REFERENCE_SLICE_S`` over the mean of the
slices from just before it to just after it.  Scaled times read as seconds on a host where one slice
takes ``REFERENCE_SLICE_S``; the slice is benchmark code, so no change to
the library can move it.
"""

import signal
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

import numpy as np

#: Time of one slice on an idle 2-core Xeon (Python 3.11, numpy 2.4,
#: OpenBLAS 0.3.31, one thread); a fixed constant, never re-measured.
REFERENCE_SLICE_S = 0.0045

#: Timed work between slices.
SLICE_EVERY_S = 0.1


class Calibration:
    """Calibration slices and the scaling of the item times between them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20260214)
        self._polys = rng.standard_normal((48, 9)) + 1j * rng.standard_normal((48, 9))
        n = np.arange(16)
        self._basis = np.exp(-2j * np.pi * np.outer(n[:8], n) / 16)
        self.slices: list = []
        self._timer_s = 0.0  # spent in slices the timer ran
        self._busy = False
        self.restart()

    def restart(self) -> None:
        """Start a new sequence of items with a fresh slice before them."""
        self._pending: list = []
        self._window = [self.slice()]

    def clock(self) -> float:
        """perf_counter without the time the timer's slices took."""
        return perf_counter() - self._timer_s

    def slice(self) -> float:
        self._busy = True
        try:
            t0 = perf_counter()
            acc = 0.0
            for p in self._polys:
                roots = np.roots(p)
                q = np.poly(roots[:4])
                acc += float(np.linalg.norm(np.abs((p[:8] * np.conj(q[0])) @ self._basis)))
                acc += sum(abs(complex(r)) for r in roots)
            dt = perf_counter() - t0
        finally:
            self._busy = False
        self.slices.append(dt)
        return dt

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the timer fired inside a slice
            return
        t0 = perf_counter()
        self._window.append(self.slice())
        self._timer_s += perf_counter() - t0

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Also run a slice every SLICE_EVERY_S of wall time in the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def add(self, times: list, scaled: list, i: int) -> None:
        """Queue item ``i``; once enough work is queued, run a slice and
        write the scaled times of the queued items into ``scaled``."""
        self._pending.append(i)
        if sum(times[j] for j in self._pending) >= SLICE_EVERY_S:
            self.flush(times, scaled)

    def flush(self, times: list, scaled: list) -> None:
        if not self._pending:
            return
        self._window.append(self.slice())
        factor = REFERENCE_SLICE_S / float(np.mean(self._window))
        for j in self._pending:
            scaled[j] = times[j] * factor
        self._window = self._window[-1:]
        self._pending = []

    def factor(self) -> float:
        """Median speed factor of the run: reference over measured slice."""
        return REFERENCE_SLICE_S / float(np.median(self.slices))
