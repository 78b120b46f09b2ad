"""Timing comparison of the kernel implementation tables.

Every hot kernel is written twice: scalar loops (the reference, and the
source numba compiles) and a vectorized numpy version. This script times
the reference table, the vectorized table and, when numba imports, the
jitted loops on identical inputs across a few sequence lengths. It prints
per-call times and each table's speedup over the reference. The jitted
table is warmed up (triggering compilation) before any timing.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_kernels.py
    OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_kernels.py --lengths 128 512 2048 --repeats 7

Pin BLAS to one thread, as perfbench does: on a 2-vCPU machine, threaded
OpenBLAS made the (32, 255) x (255, 128) product that lstm_backward hoists
out of its time loop take about 16 ms instead of 0.09 ms.
"""

import argparse
import time

import numpy as np

from hreb.kernels import kernel_impls


def build_cases(rng, n, d, h, c):
    """One (args tuple) per kernel name, shared across the tables."""
    x = rng.standard_normal((n, d))
    alpha = rng.uniform(0.05, 0.95, d)
    h0 = rng.standard_normal(d)
    dout = rng.standard_normal((n, d))

    xw = rng.standard_normal((n, 4 * h))
    u = rng.standard_normal((h, 4 * h)) * 0.1
    b4 = rng.standard_normal(4 * h)
    dhid = rng.standard_normal((n, h))

    emissions = rng.standard_normal((n, c))
    trans = rng.standard_normal((c, c))
    start = rng.standard_normal(c)
    stop = rng.standard_normal(c)

    reference = kernel_impls()["reference"]
    hist = reference["ema_forward"](x, alpha, h0)
    hidden, gates, cells = reference["lstm_forward"](xw, u, b4)
    log_z, fwd = reference["crf_forward"](emissions, trans, start, stop)

    return [
        ("ema_forward", (x, alpha, h0)),
        ("ema_backward", (x, alpha, h0, hist, dout)),
        ("lstm_forward", (xw, u, b4)),
        ("lstm_backward", (gates, cells, hidden, u, dhid)),
        ("crf_forward", (emissions, trans, start, stop)),
        ("crf_backward", (emissions, trans, start, stop, fwd, log_z, 1.0)),
        ("viterbi", (emissions, trans, start, stop)),
    ]


def time_call(fn, args, repeats, inner):
    """Best-of-repeats mean time per call, in seconds."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def fmt(seconds):
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.2f} us"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=int, nargs="+",
                        default=[64, 256],
                        help="sequence lengths to benchmark")
    parser.add_argument("--dim", type=int, default=32,
                        help="feature width for the EMA kernels")
    parser.add_argument("--hidden", type=int, default=32,
                        help="LSTM hidden width")
    parser.add_argument("--classes", type=int, default=16,
                        help="CRF class count")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best is kept)")
    parser.add_argument("--inner", type=int, default=10,
                        help="calls per timed repetition")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    tables = kernel_impls()
    compared = ["numpy"] + (["numba"] if tables["numba"] else [])
    if not tables["numba"]:
        print("numba unavailable: timing the reference and numpy tables")

    header = f"{'kernel':<14} {'n':>6} {'reference':>12}"
    for label in compared:
        header += f" {label:>12} {'speedup':>8}"
    print(header)
    print("-" * len(header))

    for n in args.lengths:
        rng = np.random.default_rng(args.seed)
        cases = build_cases(rng, n, args.dim, args.hidden, args.classes)
        for name, call_args in cases:
            t_ref = time_call(tables["reference"][name], call_args,
                              args.repeats, args.inner)
            line = f"{name:<14} {n:>6} {fmt(t_ref):>12}"
            for label in compared:
                fn = tables[label][name]
                fn(*call_args)  # jit compilation stays outside the timing
                t = time_call(fn, call_args, args.repeats, args.inner)
                line += f" {fmt(t):>12} {t_ref / t:>7.1f}x"
            print(line)
        print()


if __name__ == "__main__":
    main()
