"""Growth exponents of the three scaling ladders the workloads contain.

    python3 perfbench/ladders.py

For each rung, times one operation on fresh covers (median of three) and
prints the ratio to the previous rung and the log-log slope, the exponent k
in t ~ size^k.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import galcov  # noqa: E402
import gen  # noqa: E402

LADDERS = (
    ("decompose, 3-point Z_n", (60, 120, 240),
     lambda n: gen.Shape(f"Z{n}", (n,), (n, n, n // 2)), lambda c: galcov.decompose(c)),
    ("validate, two-point Z_N", (5000, 10000, 20000),
     lambda n: gen.Shape(f"Z{n}", (n,), (n, n)), lambda c: c.validate()),
    ("count_by_cardinality integral, Z_m with m points", (8, 9, 10, 11),
     lambda m: gen.Shape(f"Z{m}x{m}", (m,), (m,), (m,)), lambda c: galcov.count_by_cardinality(c, "integral")),
)


def main():
    for title, sizes, shape, operation in LADDERS:
        print(title)
        previous = None
        for size in sizes:
            times = []
            for k in range(3):
                cover = gen.to_cover(galcov, gen.draw(gen.pass_rng(0, title, k), shape(size)))
                t0 = time.perf_counter()
                operation(cover)
                times.append(time.perf_counter() - t0)
            t = statistics.median(times)
            slope = "" if previous is None else (
                f"  x{t / previous[1]:.2f}, exponent {math.log(t / previous[1]) / math.log(size / previous[0]):.2f}"
            )
            print(f"  {size:>6}  {t:9.4f} s{slope}")
            previous = (size, t)


if __name__ == "__main__":
    main()
