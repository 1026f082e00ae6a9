"""Measurement behind ``repro.rdma.memory.MAP_MIN``.

Cost of one zero-filled buffer, by size and kind (``bytearray(size)``
against a private anonymous ``mmap``), for three lifetimes: allocated
and dropped untouched, one page in four written, every page written.
Each cell is the best of ``--reps`` runs of ``--count`` buffers that
are all alive at once (as a flow's rings are), in microseconds per
buffer; ``rss`` is the resident growth per untouched buffer in KiB.

    python benchmarks/perf/alloc_threshold.py

docs/performance.md ("Memory: committed on first touch") holds the
table this printed and the reading that set the constant.
"""

import argparse
import mmap
import time

PAGE = mmap.PAGESIZE
_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS


def mapped(size):
    return mmap.mmap(-1, size, flags=_FLAGS)


def resident_kib() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE // 1024


def cost(make, stride, size, count) -> float:
    """Seconds to allocate ``count`` buffers, write one byte in every
    ``stride``-th page of each (0: none) and drop them all."""
    start = time.perf_counter()
    buffers = [make(size) for _ in range(count)]
    if stride:
        for buffer in buffers:
            for offset in range(0, size, stride * PAGE):
                buffer[offset] = 1
    del buffers
    return time.perf_counter() - start


def resident_growth(make, size, count) -> float:
    before = resident_kib()
    buffers = [make(size) for _ in range(count)]
    grown = resident_kib() - before
    del buffers
    return grown / count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=256)
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args()
    print(f"{'size':>8} | {'bytearray: none':>15} {'1/4':>7} {'all':>7} "
          f"{'rss':>6} | {'mmap: none':>10} {'1/4':>7} {'all':>7} {'rss':>6}")
    plans = [(make, stride) for make in (bytearray, mapped)
             for stride in (0, 4, 1)]
    for kib in (4, 8, 16, 32, 64, 128, 256, 1024):
        size = kib * 1024
        best = [float("inf")] * len(plans)
        for rep in range(args.reps):
            # Rotate: no plan always runs on the heap the last one left.
            for index in range(rep, rep + len(plans)):
                index %= len(plans)
                best[index] = min(best[index],
                                  cost(*plans[index], size, args.count))
        us = [seconds / args.count * 1e6 for seconds in best]
        rss = [resident_growth(make, size, args.count)
               for make in (bytearray, mapped)]
        print(f"{kib:>5}KiB | {us[0]:>15.2f} {us[1]:>7.2f} {us[2]:>7.2f} "
              f"{rss[0]:>6.0f} | {us[3]:>10.2f} {us[4]:>7.2f} {us[5]:>7.2f} "
              f"{rss[1]:>6.0f}")


if __name__ == "__main__":
    main()
