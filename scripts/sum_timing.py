#!/usr/bin/env python3
"""Timing of `quadrature.rounded_sum` against math.fsum, one line per shape.

For each shape (rows x n) and each kind of data (positive: uniform on
[0, 1); signed: standard normal; zeros, negzeros and mixzeros: +0.0, -0.0
and zeros of random sign, whose sum's sign each Python's math.fsum sets),
prints the best time over interleaved
rounds of `rounded_sum` as called (sum_us), of its extraction with the
small-array rule off (extract_us), and of math.fsum on each row's list
(fsum_us), fsum_us / sum_us, and whether all three give the same bits.
The small-array rule (`quadrature._EXTRACT_MIN` entries) sits where
extract_us falls below fsum_us.  Exits with status 1 if any shape
prints DIFFER.

    python scripts/sum_timing.py [ROWSxN ...]

The default shapes are those the call sites see (a sweep chunk's weight
table, 9 sums of 256 bodies of degree 8; the tangent-field blocks at
N = 7 and N = 8; the certificate rows of a 256-body sweep chunk, at the
rule, and of the benchmark's 250-body chunk, below it; the polar
oracle's field at 96 directions; a tangent row at N = 32768; the largest
quadrature grid), then shapes around the rule's crossover.
"""

import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hurwitzlab import quadrature  # noqa: E402

SHAPES = [
    "2304x10", "385x16", "385x18", "256x8", "250x8", "1x9216", "1x65537", f"1x{1 << 20}",
    "128x16", "32x64", "8x256", "1x1024", "1x2048",
]


def best_us(fns, x, rounds=9):
    """Each function's best time over interleaved rounds, in microseconds per call."""
    loops = max(1, 100_000 // x.size)
    best = [math.inf] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(loops):
                fn(x)
            best[i] = min(best[i], (time.perf_counter() - start) / loops)
    return [1e6 * b for b in best]


def forced(x):
    """`rounded_sum` with every row extracted, whatever its length."""
    rule, quadrature._EXTRACT_MIN = quadrature._EXTRACT_MIN, -math.inf
    try:
        return quadrature.rounded_sum(x)
    finally:
        quadrature._EXTRACT_MIN = rule


def per_row(x):
    """math.fsum of each row's list, as the call sites did it."""
    return [math.fsum(row) for row in np.atleast_2d(x).tolist()]


def main(shapes):
    rng = np.random.default_rng(0)
    differ = False
    print(f"{'shape':>12} {'data':>8} {'sum_us':>10} {'extract_us':>11} {'fsum_us':>10} {'ratio':>6}  bits")
    for shape in shapes:
        rows, n = (int(v) for v in shape.split("x"))
        kinds = {
            "positive": rng.random((rows, n)),
            "signed": rng.standard_normal((rows, n)),
            "zeros": np.zeros((rows, n)),
            "negzeros": np.full((rows, n), -0.0),
            "mixzeros": np.where(rng.random((rows, n)) < 0.5, 0.0, -0.0),
        }
        for kind, x in kinds.items():
            x = x[0] if rows == 1 else x  # a one-row site passes a 1-D array
            ref = [v.hex() for v in per_row(x)]
            same = all([v.hex() for v in np.atleast_1d(f(x)).tolist()] == ref for f in (quadrature.rounded_sum, forced))
            differ |= not same
            times = best_us((quadrature.rounded_sum, forced, per_row), x)
            print(f"{shape:>12} {kind:>8} {times[0]:>10.1f} {times[1]:>11.1f} {times[2]:>10.1f} {times[2] / times[0]:>6.2f}  {'same' if same else 'DIFFER'}")


    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or SHAPES))
