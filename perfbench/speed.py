"""Stage times in reference seconds: wall time corrected for the machine's speed.

The host is shared, and its speed drifts: the same fixed work takes up
to half as long again in a slow spell, and spells last from seconds to
minutes, so they cover whole runs. No choice among a run's own samples
(mean, median or minimum) removes that. So while a timed block runs, a
timer interrupts it every ``PROBE_INTERVAL_S`` to time a probe: fixed
reference work of pure-Python integer arithmetic and small numpy
products, the two kinds of work the pipeline does, which touches no
latentsum code. The probe slows down with the machine but not with the
program. A block's time in reference seconds is its wall time, with the
probes taken out, times ``PROBE_REF_S / mean probe time`` over the
block: what it would take on a machine where the probe takes exactly
``PROBE_REF_S``. Each block also runs a few probes when it starts, so a
block shorter than the timer interval has a speed too.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

_NOW = time.perf_counter

PROBE_REF_S = 2.5e-4  # reference speed: the probe takes this long
PROBE_INTERVAL_S = 0.05
PROBES_AT_START = 3


class Probe:
    """Fixed reference work of about 0.25 ms, half interpreter, half numpy
    by time; that mix tracked the pipeline's speed best in calibration."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((32, 32))
        self.x = rng.standard_normal(32)

    def __call__(self) -> float:
        start = _NOW()
        total = 0
        for i in range(1500):
            total += i * i % 7
        h = self.x
        for _ in range(45):
            h = np.tanh(self.w @ h)
        return _NOW() - start


class Interval:
    """One timed block: its wall time without probes, and the probes run in it."""

    def __init__(self):
        self.wall_s = 0.0
        self.probes: list[float] = []

    @property
    def factor(self) -> float:
        """Multiplies this block's wall seconds into reference seconds."""
        return PROBE_REF_S / statistics.fmean(self.probes)

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.factor


class SpeedClock:
    def __init__(self):
        self._probe = Probe()
        self._open: list[Interval] = []  # timed blocks now running, outermost first
        self._busy = False
        self.probe_s = 0.0  # time spent in probes so far

    def _run_probe(self) -> None:
        self._busy = True
        try:
            took = self._probe()
        finally:
            self._busy = False
        self.probe_s += took
        for interval in self._open:
            interval.probes.append(took)

    def _on_timer(self, signum, frame) -> None:
        if self._open and not self._busy:
            self._run_probe()

    @contextmanager
    def running(self):
        """Fire the probe timer while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def now(self) -> float:
        """A clock that stands still while a probe runs."""
        return _NOW() - self.probe_s

    @contextmanager
    def timed(self, sink: list | None = None):
        """Time the block; yields its Interval, which is also appended to
        ``sink`` when the block ends."""
        interval = Interval()
        self._open.append(interval)
        try:
            for _ in range(PROBES_AT_START):
                self._run_probe()
            start = self.now()
            yield interval
            interval.wall_s = self.now() - start
        finally:
            self._open.remove(interval)
        if sink is not None:
            sink.append(interval)
