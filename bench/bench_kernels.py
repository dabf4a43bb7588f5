"""Benchmark: compiled normal-form kernels against the pure-Python twins.

Times Hermite and Smith reductions on random integer matrices of a few
shapes, importing both implementations directly.  The end-to-end
benchmark is ``perfbench/run.py``.

Usage: python bench/bench_kernels.py [--quick]
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ordroots import _pykernels  # noqa: E402

try:
    from ordroots import _speedups
except ImportError:
    _speedups = None


def random_cols(rng, nrows, ncols, span):
    return [[rng.randint(-span, span) for _ in range(nrows)] for _ in range(ncols)]


def time_fn(fn, args_list, repeat):
    best = []
    for args in args_list:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return sum(best)


def bench_kernels(quick):
    rng = random.Random(20240901)
    hnf_shapes = [(12, 16, 9), (24, 26, 99)]
    snf_shapes = [(12, 16, 9), (24, 26, 99)]
    if not quick:
        hnf_shapes.extend([(40, 44, 999), (64, 70, 999)])
        snf_shapes.append((40, 44, 999))
    repeat = 2 if quick else 3
    jobs = [("hnf", _pykernels.hnf_cols,
             _speedups.hnf_cols if _speedups else None, hnf_shapes),
            ("snf", _pykernels.snf_cols,
             _speedups.snf_cols if _speedups else None, snf_shapes)]
    print(f"{'kernel':<10} {'shape':<12} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>9}")
    for name, pure_fn, fast_fn, shapes in jobs:
        for nrows, ncols, span in shapes:
            mats = [(random_cols(rng, nrows, ncols, span), nrows) for _ in range(3)]
            t_pure = time_fn(pure_fn, mats, repeat)
            if fast_fn is None:
                print(f"{name:<10} {nrows}x{ncols:<9} {t_pure:>10.4f} {'n/a':>13} {'n/a':>9}")
                continue
            for cols, nr in mats:
                assert pure_fn(cols, nr) == fast_fn(cols, nr)
            t_fast = time_fn(fast_fn, mats, repeat)
            print(f"{name:<10} {nrows}x{ncols:<9} {t_pure:>10.4f} {t_fast:>13.4f} "
                  f"{t_pure / t_fast:>8.2f}x")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller shapes, fewer repeats")
    args = ap.parse_args()
    if _speedups is None:
        print("note: compiled kernels not built; showing pure-Python timings only")
    bench_kernels(args.quick)


if __name__ == "__main__":
    main()
