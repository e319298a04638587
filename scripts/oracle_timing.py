#!/usr/bin/env python3
"""Polar-oracle timing at high degree: one line per body degree N.

For random_body(3, N, index=1) at 96 directions, prints the time of a cold
`_polar_field` (its cache cleared first), the cell count m of the table its
tangent solve used (0 where its estimate leaves no room under tol and every
root is polished on Horner's g), and |polar - spectral_integral| / bar per
kernel.

    python scripts/oracle_timing.py [N ...]        (default: 8 32 128 512 1024)

It prints and asserts nothing: at N = 128, 96 directions alias, and
sin_cubed's err/bar exceeds 1 there (ROADMAP item 15).
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hurwitzlab import random_body  # noqa: E402
from hurwitzlab import visual_angle as va  # noqa: E402

DIRECTIONS = 96


def main(degrees):
    cfg = va.ExteriorConfig(nodes_phi=DIRECTIONS)
    tables, build = [], va._support_table
    va._support_table = lambda *args: tables.append(build(*args)) or tables[-1]
    print(f"{'N':>5} {'field_s':>8} {'m':>6}  " + "  ".join(f"{name:>17}" for name in sorted(va.KERNELS)))
    for degree in degrees:
        body = random_body(3, degree, index=1)
        va._polar_field.cache_clear()
        start = time.perf_counter()
        va._polar_field(body, cfg)
        seconds = time.perf_counter() - start
        cells = 0 if tables[-1] is None else tables[-1][0].shape[1]
        ratios = []
        for name in sorted(va.KERNELS):
            kernel = va.KERNELS[name]()
            polar = va.exterior_integral_grid(body, kernel, cfg)
            ratios.append(abs(polar.value - va.spectral_integral(body, kernel).value) / polar.error_bar)
        print(f"{degree:>5} {seconds:>8.3f} {cells:>6}  " + "  ".join(f"{r:>17.3g}" for r in ratios))


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [8, 32, 128, 512, 1024])
