#!/usr/bin/env python3
"""Polar-oracle timing at high degree: one line per body degree N.

For random_body(3, N, index=1) at 96 directions, prints the median time of
3 cold `_polar_field` builds, the cell count m of the table its tangent
solve used (0 where its estimate leaves no room under tol and every root is
polished on Horner's g), the points at which the solve evaluated g_H in
float32 (g32) and in float64 (g64), the roots it finished on Horner's g
(horner), and |polar - spectral_integral| / bar per kernel.

    python scripts/oracle_timing.py [N ...]        (default: 8 32 128 512 1024)

Every 97th root of each field is checked against |g| <= 1e-13 (|P| + a0) on
Horner's g, the tangent solve's contract; a miss is printed and the run
exits 1.  err/bar is printed only: at N = 128, 96 directions alias, and
sin_cubed's err/bar exceeds 1 there (ROADMAP item 15).
"""

import functools
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hurwitzlab import eval_support, random_body  # noqa: E402
from hurwitzlab import visual_angle as va  # noqa: E402

DIRECTIONS = 96
BUILDS = 3
EVERY = 97


def counted_build(body, cfg):
    """Build the field once more, into the cache, counting the solve's work
    and keeping every EVERY-th root with its point and body."""
    count = {"m": 0, np.dtype(np.float32): 0, np.dtype(np.float64): 0, "horner": 0}
    roots = []
    build, g_table, polish_roots, solve = va._support_table, va._g_table, va._polish_roots, va._tangent_solve

    def table(*args):
        made = build(*args)
        count["m"] = 0 if made is None else made[0].shape[1]
        return made

    def g_h(table, phi, *args):
        count[table[0].dtype] += np.size(phi)
        return g_table(table, phi, *args)

    def polish(f, x, *args, **kw):
        if isinstance(f, functools.partial) and f.func is va._g:
            count["horner"] += np.size(x)
        return polish_roots(f, x, *args, **kw)

    def tangent_solve(centered, px, py, *ray):
        phi1, phi2, omega = solve(centered, px, py, *ray)
        for phi in (phi1, phi2):
            roots.append((centered, px.ravel()[::EVERY], py.ravel()[::EVERY], phi.ravel()[::EVERY]))
        return phi1, phi2, omega

    va._support_table, va._g_table, va._polish_roots, va._tangent_solve = table, g_h, polish, tangent_solve
    try:
        va._polar_field.cache_clear()
        va._polar_field(body, cfg)
    finally:
        va._support_table, va._g_table, va._polish_roots, va._tangent_solve = build, g_table, polish_roots, solve
    return count, roots


def misses(roots):
    """The checked roots where Horner's g exceeds the contract's tol."""
    bad = 0
    for centered, px, py, phi in roots:
        g = px * np.cos(phi) + py * np.sin(phi) - eval_support(centered, phi)
        tol = 1e-13 * (np.hypot(px, py) + centered.a0)
        for i in np.flatnonzero(~(np.abs(g) <= tol)):
            print(f"MISS: P = ({px[i]!r}, {py[i]!r}), phi = {phi[i]!r}, |g| = {abs(g[i]):.3g} > tol = {tol[i]:.3g}")
            bad += 1
    return bad


def main(degrees):
    cfg = va.ExteriorConfig(nodes_phi=DIRECTIONS)
    names = sorted(va.KERNELS)
    head = f"{'N':>5} {'field_s':>8} {'m':>6} {'g32':>8} {'g64':>8} {'horner':>7}"
    print(head + "  " + "  ".join(f"{n:>17}" for n in names))
    bad = 0
    for degree in degrees:
        body = random_body(3, degree, index=1)
        seconds = []
        for _ in range(BUILDS):
            start = time.perf_counter()
            va._polar_field.__wrapped__(body, cfg)
            seconds.append(time.perf_counter() - start)
        count, roots = counted_build(body, cfg)
        bad += misses(roots)
        ratios = []
        for name in names:
            kernel = va.KERNELS[name]()
            polar = va.exterior_integral_grid(body, kernel, cfg)
            ratios.append(abs(polar.value - va.spectral_integral(body, kernel).value) / polar.error_bar)
        evals = f"{count[np.dtype(np.float32)]:>8} {count[np.dtype(np.float64)]:>8} {count['horner']:>7}"
        line = f"{degree:>5} {statistics.median(seconds):>8.3f} {count['m']:>6} {evals}"
        print(line + "  " + "  ".join(f"{r:>17.3g}" for r in ratios))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]] or [8, 32, 128, 512, 1024]))
