"""Host-speed probe, sampled while a workload runs.

On a shared host the speed of the same code drifts by a third and more
with other tenants' load, within seconds and over minutes.  While a run is
timed, an interval timer interrupts it every ``PERIOD_S`` seconds and times
one round of a fixed interpreter loop that does not use spreekit.  The
mean round time says how fast the host was during that run, so the run's
own time (its wall time minus the rounds) can be scaled to the host's
nominal speed: ``normalised = own time * NOMINAL_S / mean round time``.
A slow minute on the host then does not read as a slow program, while a
slower program still reads slower.

The loop's data fits in the core's own cache on purpose: a probe that
reads memory the workload has just evicted times the workload's cache
footprint as much as the host, so a change to the program would move it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
NOMINAL_S = 0.0002  # one round on the reference host (2-vCPU Intel Xeon VM)


def probe_round() -> None:
    """A fixed piece of interpreter work: arithmetic and dict stores."""
    x, table = 0, {}
    for i in range(1000):
        x += i * i % 7
        table[i & 255] = x


class HostProbe:
    """Samples the host's speed between ``start()`` and ``stop()``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_round()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall: float) -> float:
        """``wall`` (seconds, measured between start and stop) minus the
        probe rounds in it, at the nominal speed."""
        in_run = sum(self.samples)
        if not self.samples:  # a run shorter than one period
            self._sample()
        return (wall - in_run) * NOMINAL_S * len(self.samples) / sum(self.samples)
