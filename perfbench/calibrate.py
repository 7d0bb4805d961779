"""Host-speed calibration: a fixed probe timed throughout every task.

On a shared host the same code runs up to 1.6x slower or faster from one
second to the next, as other tenants load the cores the host shares with
this one and the clock speed follows.  A task of a second or more spans
several such changes, so its wall time varies with the host, not with the
program.

``SpeedSampler`` times a small fixed probe when a task starts, when it ends,
and every ``INTERVAL_S`` of wall time in between (from a ``SIGALRM``
handler, which runs between two bytecodes of the task).  The mean probe time
over ``PROBE_REFERENCE_S`` is the host's speed factor during the task: how
many times slower than the reference speed it ran.  The task's time divided
by that factor is its time at the reference speed.  The probe's own time is
taken out of the task's time.  The probe runs twice per sample and only the
second run is timed, so the caches it finds, cold after the task's own work,
do not enter the sample.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# About the median time of ``probe()`` between the bytecodes of a task on the
# reference machine (2-vCPU Xeon VM, CPython 3.11).  Any fixed value would do:
# it sets the scale, and scaled times are compared only with scaled times.
PROBE_REFERENCE_S = 0.001
INTERVAL_S = 0.05

_WIDE = (3**4000 + 1, 5**3000 + 7)


def _work() -> int:
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
    table = {}
    for i in range(4000):
        table[i & 63] = table.get(i & 63, 0) + i
    wide = _WIDE[0] * _WIDE[1]
    return acc.numerator + len(table) + wide.bit_length()


def probe() -> float:
    """Seconds one warm run of the probe takes now."""
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def factor_now(samples: int = 8) -> float:
    """The host's speed factor over a few back-to-back probes."""
    return statistics.mean(probe() for _ in range(samples)) / PROBE_REFERENCE_S


class SpeedSampler:
    """Samples the host's speed over a ``with`` block.

    ``hide(seconds)`` is called with the time of each sample taken inside the
    block, so that the caller's clock can leave it out; ``hidden`` is their
    sum.
    """

    def __init__(self, hide=None):
        self.samples = []
        self.hidden = 0.0
        self._hide = hide
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        spent = time.perf_counter() - t0
        self.hidden += spent
        if self._hide is not None:
            self._hide(spent)

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(probe())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())

    @property
    def factor(self) -> float:
        return statistics.mean(self.samples) / PROBE_REFERENCE_S
