"""Machine-speed probe, so that timings on a shared host can be compared.

On a small virtual machine the speed of a core swings by up to a factor of
two within seconds, as other tenants come and go, and a 30 s run sees
whatever mix of fast and slow spells it happens to get.  A fixed probe runs
from a SIGALRM handler every `INTERVAL_S` in this thread while the clock
is running.  A region's reference time is its wall time minus the probes'
own time, scaled by the mean of REF_S / probe over the probes that ran
inside it: the work done, in seconds of a core running at the reference
speed.  REF_S is a fixed constant, the probe's time when run alone in the
fast spells of the 2-core box the baseline was recorded on; inside an op
the probe runs slower (the op has filled the caches), so reference time
reads below wall time, by a factor that is steady from run to run.

The probe mixes what hsgeom does (interpreter work on dicts and tuples,
tiny LAPACK calls, a gather from a 1 MiB array) because slow spells slow
such code more than a tight loop: across 4 s windows of catalogue reports,
a pure-Python loop left a 5-8% spread in reference op time, this probe
1.5%, against 16% in wall time.  It uses only the standard library and
numpy, never hsgeom, so a change to hsgeom cannot move it.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
REF_S = 4.0e-4


class _Probe:
    def __init__(self):
        import numpy as np
        rng = random.Random(0)
        self.doc = {f"k{i}": [rng.random() for _ in range(5)]
                    + [{"a": i, "b": str(i)}] for i in range(60)}
        self.pairs = [(rng.random(), i) for i in range(300)]
        self.mat = np.eye(3) + 0.1
        self.det = np.linalg.det
        self.big = np.ones(1 << 17)
        self.idx = np.arange(0, 1 << 17, 97)

    def __call__(self):
        t0 = perf_counter()
        json.dumps(self.doc, sort_keys=True)
        sorted(self.pairs)
        for _ in range(5):
            self.det(self.mat)
        self.big[self.idx].sum()
        return perf_counter() - t0


class SpeedClock:
    """Wall and reference-speed seconds of regions of this thread."""

    def __init__(self):
        self._probe = _Probe()
        self._samples = []       # probe seconds, in the order they ran
        self._probe_s = 0.0      # their sum
        self._last_factor = 1.0

    def _on_alarm(self, signum, frame):
        dt = self._probe()
        self._samples.append(dt)
        self._probe_s += dt

    def start(self):
        self._probe()                    # first call loads LAPACK paths
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self, t0=None):
        """A point to measure from: (perf_counter, probes so far, probe s)."""
        return (perf_counter() if t0 is None else t0, len(self._samples),
                self._probe_s)

    def since(self, mark):
        """(wall s, reference s) from `mark` to now, probe time excluded."""
        t0, n0, p0 = mark
        wall = perf_counter() - t0 - (self._probe_s - p0)
        own = self._samples[n0:]
        if own:
            self._last_factor = statistics.fmean(REF_S / s for s in own)
        return wall, wall * self._last_factor
