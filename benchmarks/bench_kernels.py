#!/usr/bin/env python3
"""Time the numpy kernels of ``menonsums.kernels`` on sweep-shaped workloads.

Each workload is timed as the best of `--repeat` runs after one warmup
call.  Run:

    python3 benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from menonsums import kernels  # noqa: E402
from menonsums.arith import power_divisors  # noqa: E402


def best_of(fn, repeat: int) -> float:
    fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads():
    pds2 = np.array(power_divisors(720720, 2), dtype=np.int64)
    k = kernels
    return [
        ("menon_gcd_sum", "n = 100000", lambda: k.menon_gcd_sum(100_000)),
        ("menon_gcd_sum", "all n <= 8000", lambda: [k.menon_gcd_sum(n) for n in range(1, 8001)]),
        ("klee_brute_count", "n = 100000, s = 2", lambda: k.klee_brute_count(100_000, 2)),
        ("klee_brute_count", "n = 30000, s = 1", lambda: k.klee_brute_count(30_000, 1)),
        ("sgcd_weights", "n = 720720, s = 2", lambda: k.sgcd_weights(720720, pds2)),
        ("dlog_cyclic", "q = 3^12", lambda: k.dlog_cyclic(531441, 5, 354294)),
        ("dlog_two_gens", "q = 2^19", lambda: k.dlog_two_gens(1 << 19, 1 << 17)),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'kernel':<18} {'workload':<20} {'best':>10}")
    for kernel, workload, call in workloads():
        print(f"{kernel:<18} {workload:<20} {best_of(call, args.repeat) * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
