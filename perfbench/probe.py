"""Host-speed probe: a fixed piece of work, timed between ops.

The host this benchmark runs on changes speed by a quarter or more within
seconds (see README.md, "Noise"), and a workload process can do nothing to
stop it.  Timing the same fixed work between ops measures that speed as it
goes, and a time measured beside it can be scaled to what it would have been
at a reference speed:

    time at reference speed = measured time * REFERENCE_S / probe time

The probe exercises the kinds of work oscillab does: interpreted Python
arithmetic and object churn, small numpy calls in Python loops with
``math.fsum`` over their values, numpy over arrays of a few thousand to tens
of thousands of cells, and ``math.fsum`` over long lists.  Host slowdowns do
not hit all of these alike (interpreted code suffers most), so the probe
mixes them.  It uses numpy and the standard library only, never oscillab, so
no change to oscillab changes it.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

import numpy as np

# The probe's time at the reference speed, in seconds.  On a 2-core KVM
# guest of a 2.1 GHz Xeon (Python 3.11, numpy 2.4) its median over a run
# ranged from 5.6 to 8.8 ms.
REFERENCE_S = 0.0070

_RNG = np.random.default_rng(20170705)
_SMALL = _RNG.random((8, 8))
_MID = _RNG.random(4096)
_LARGE = _RNG.random(40_000)
_VALUES = _RNG.random(1000).tolist()


def _work() -> float:
    acc, table = 0, {}
    for i in range(12_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    for i in range(2500):
        pair = (i, i + 1)
        table[str(i & 1023)] = [pair, pair]
    total = float(acc)
    for i in range(200):
        part = _SMALL[i % 4:i % 4 + 4, :]
        total += float(part.sum()) + math.fsum(part.ravel().tolist())
        total += float(np.maximum(part, 0.5).mean())
    for _ in range(30):
        total += float(np.sum(_MID * _MID))
        total += float(np.cumsum(_MID)[-1] + np.sort(_MID)[0])
    for _ in range(5):
        total += float(np.sum(_LARGE * _LARGE) + (_LARGE > 0.5).sum())
        total += float(np.cumsum(_LARGE)[-1])
    for _ in range(25):
        total += math.fsum(_VALUES)
    return total


def probe() -> float:
    """Seconds the fixed work takes now.

    The garbage collector is paused meanwhile, so that the probe does not
    pay for collecting what the ops before it left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTrace:
    """Probe times along a run, for scaling the times measured between them.

    ``maybe_probe`` probes when at least ``EVERY_S`` has passed since the
    last probe; ``factor(start, end)`` is ``REFERENCE_S`` over the median of
    the probes within ``WINDOW_S`` of the interval, always including the last
    probe before it and the first after it.
    """

    # Probing every 0.2 s takes about 3% of a run.  On recorded runs a 1 s
    # window left smaller spreads than 0.3 s, 3 s or the whole run.
    EVERY_S = 0.2
    WINDOW_S = 1.0

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def probe_now(self) -> None:
        self.times.append(time.perf_counter())
        self.probes.append(probe())

    def maybe_probe(self) -> None:
        if not self.times or \
                time.perf_counter() - self.times[-1] >= self.EVERY_S:
            self.probe_now()

    def latest_factor(self) -> float:
        return REFERENCE_S / self.probes[-1]

    def factor(self, start: float, end: float) -> float:
        ts = self.times
        lo = min(bisect.bisect_left(ts, start - self.WINDOW_S),
                 max(0, bisect.bisect_right(ts, start) - 1))
        hi = max(bisect.bisect_right(ts, end + self.WINDOW_S),
                 bisect.bisect_left(ts, end) + 1)
        return REFERENCE_S / statistics.median(self.probes[lo:hi])
