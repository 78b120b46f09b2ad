"""Machine-speed sampling, so that timings compare across a drifting machine.

The shared 2-vCPU machine this benchmark was built on runs in two states;
in the slow one the same code takes about 1.4-1.6 times as long. Each vCPU
switches states several times a second and the share of slow time drifts
over minutes, so one 35 s run can be 30% slower than the next with the
same code and inputs. Process CPU time drifts with wall time: the CPU
itself runs slower, no time is stolen by other processes.

While the timed loop runs, a timer signal every 20 ms runs a fixed probe
and records how long it took. A timed interval is then expressed at the
reference speed, at which the probe takes REFERENCE_S:

    normalized = (wall - probe time inside) * REFERENCE_S / mean probe nearby

"Nearby" is every probe that started within 50 ms of the interval. The
probe uses no hreb code, so a change to hreb cannot move it. It is a
scalar loop over a small numpy array, the kind of code hreb's numpy-backend
kernels run: in 0.5 s windows of one minute, its time tracked hreb's decode
and training-step times with correlation 0.80-0.86, where a pure-Python
integer loop reached 0.66-0.79. Rescaling is right for code that slows
down as much as the probe; calibrate.py measures how far that holds for
other kinds of code, native numpy code included.
"""

import bisect
import itertools
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
NEAR_S = 0.05
# About the probe's time in the fast state of the machine above. Any fixed
# value works, as long as every run uses the same one.
REFERENCE_S = 1.0e-4

_PROBE_IN = np.linspace(-1.0, 1.0, 128).reshape(4, 32)
_PROBE_OUT = np.zeros(32)


def probe():
    """About 0.12 ms of scalar numpy work: indexing, math calls, stores."""
    for t in range(4):
        for j in range(32):
            x = _PROBE_IN[t, j]
            _PROBE_OUT[j] = x * _PROBE_OUT[j] * 0.5 + math.tanh(x) * (1.0 - x * x)


class SpeedSampler:
    """Timer-driven probe samples, and intervals rescaled by them."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._cum = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._cum = [0.0] + list(itertools.accumulate(self.durations))

    def _sum(self, a, b):
        """(count, total duration) of the probes that started in [a, b)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return hi - lo, self._cum[hi] - self._cum[lo]

    def factor(self, a, b):
        """REFERENCE_S over the mean probe time near [a, b].

        1.0 for an interval with no probe near it (outside the sampled
        loop), which is then taken as measured.
        """
        n, near = self._sum(a - NEAR_S, b + NEAR_S)
        return REFERENCE_S * n / near if n else 1.0

    def unprobed(self, a, b):
        """Wall seconds in [a, b] not spent running probes."""
        return b - a - self._sum(a, b)[1]

    def normalize(self, a, b):
        """Seconds the interval [a, b] takes at the reference speed."""
        return self.unprobed(a, b) * self.factor(a, b)
