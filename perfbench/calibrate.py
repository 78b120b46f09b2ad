"""Does speed.py's rescaling fit native numpy code as well as Python code?

Run from the repository root (takes --seconds, default 60):

    python3 perfbench/calibrate.py --seconds 60

speed.py rescales every timed interval by how slow its scalar-numpy probe
ran near it. That is right only for code that slows down by as much as the
probe. This script times fixed sections of different kinds in turn, in the
same periods, while the probe runs, and prints for each kind:

- slow/fast: mean time in the slowest third of periods (by the probe)
  over the mean in the fastest third, raw and rescaled. Rescaling fits a
  kind when its rescaled ratio is about 1.
- IQR/median of the section's time, raw and rescaled.

The kinds are hreb's scalar-loop LSTM backward kernel (Python-heavy, as
the numpy backend is today), and numpy code of the shapes vectorized hreb
kernels would run: per-step calls on h=32 vectors, BLAS products of
(300, 128) activations, and elementwise math on cache-resident (300, 128)
arrays. The last kind streams over 1.6 MB arrays, larger than hreb's.
"""

import argparse
import statistics
import time

import run  # noqa: F401  (sets up sys.path and pins BLAS before numpy loads)

import numpy as np

from hreb import kernels
from speed import SpeedSampler

clock = time.perf_counter
rng = np.random.default_rng(0)
H = 32
N = 16
GATES = rng.random((N, 4 * H))
CELLS = rng.random((N, H))
HIDDEN = rng.random((N, H))
U = rng.random((H, 4 * H))
DOUT = rng.random((N, H))
X = rng.random((300, 128))
W = rng.random((128, 128))
h = rng.random(H)
BIG = rng.random(200_000)


def python_kernel():
    kernels.lstm_backward(GATES, CELLS, HIDDEN, U, DOUT)


def numpy_per_step():
    for _ in range(600):
        g = h @ U
        np.tanh(g) * g


def numpy_blas():
    for _ in range(20):
        X @ W


def numpy_elementwise():
    for _ in range(12):
        np.tanh(X)
        1.0 / (1.0 + np.exp(-X))


def numpy_streaming():
    for _ in range(6):
        np.exp(BIG)
        np.sqrt(BIG)


SECTIONS = [python_kernel, numpy_per_step, numpy_blas, numpy_elementwise,
            numpy_streaming]


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=60.0)
    args = p.parse_args()
    for f in SECTIONS:  # first calls out of the way
        f()
    times = {f.__name__: [] for f in SECTIONS}
    sampler = SpeedSampler()
    sampler.start()
    end = clock() + args.seconds
    try:
        while clock() < end:
            for f in SECTIONS:
                t = clock()
                f()
                times[f.__name__].append((t, clock()))
    finally:
        sampler.stop()

    print(f"{'section':<18} {'ms':>7} {'slow/fast raw':>14} {'rescaled':>9} "
          f"{'IQR/med raw':>12} {'rescaled':>9}")
    for name, ivs in times.items():
        raw = [sampler.unprobed(a, b) for a, b in ivs]
        factor = [sampler.factor(a, b) for a, b in ivs]
        norm = [r * f for r, f in zip(raw, factor)]
        lo, hi = statistics.quantiles(factor, n=3)
        slow = [i for i, f in enumerate(factor) if f <= lo]
        fast = [i for i, f in enumerate(factor) if f >= hi]

        def ratio(xs):
            return (statistics.fmean(xs[i] for i in slow)
                    / statistics.fmean(xs[i] for i in fast))
        print(f"{name:<18} {statistics.median(raw) * 1e3:>7.2f} "
              f"{ratio(raw):>14.3f} {ratio(norm):>9.3f} "
              f"{spread(raw):>12.3f} {spread(norm):>9.3f}")
    print(f"{len(sampler.durations)} probes, {len(ivs)} rounds")


if __name__ == "__main__":
    main()
