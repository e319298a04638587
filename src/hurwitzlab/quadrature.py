"""Quadrature rules backing every integral in the package.

The workhorse is the periodic trapezoid rule, which is exact for
trigonometric polynomials of degree below the node count; all closed-form
functionals here integrate such polynomials, so the quadrature path is
exact to round-off once the grid is fine enough.  Composite Gauss-Legendre
panels cover the non-periodic intervals.  Every sum is `rounded_sum`'s,
correctly rounded, so results do not depend on the order of additions or
on how work is scheduled.  A grid is only its angles, sized by
`grid_for_degree` (functionals) or `fast_len` (the tangent field); the
callers sample their integrands there by inverse FFTs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EmptyGrid

PI = math.pi
TWO_PI = 2.0 * math.pi
# Largest node count of a grid or an exterior-integral direction: 2^20 nodes
# are 8 MiB per sampled array.
MAX_NODES = 1 << 20
_EXTRACT_MIN = 2048  # below 2048 entries math.fsum costs less, whatever the shape (scripts/sum_timing.py)


def rounded_sum(x):
    """math.fsum of each row of the 1-D or 2-D array x, bit for bit: a float
    for 1-D x, else an array.  Extraction (Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31(1), 2008), u = 2^-53: for rows of n, 2^k >= n + 2 and per row
    sigma = 2^(k+e) > 2^k max|r|, q = (sigma + r) - sigma is exact, a multiple
    of u*sigma and |q| <= 2^-k sigma, so every partial sum of q is such a
    multiple below sigma: tau = sum(q) is exact in any order; so is r - q, at
    most u*sigma.  A row sums to hi + lo + sum(r), (hi, lo) = TwoSum(hi, tau)
    at each of two levels (hi = 0 at the first).  c = hi + d, d = lo + r.sum(),
    is off by at most |e| + u|d| + 2nu*n*u*sigma (e its exact TwoSum error;
    2nu >= gamma_(n-1) for r.sum() in any order); doubled and rounded up past
    its roundings, this certifies c below the gap from |c| down to the next
    float, the smaller gap about c, so no tie passes.  Where r is all zero the
    sum is hi + lo and d = lo, so c is its one IEEE rounding, ties to even as
    math.fsum rounds.  Rows shorter than their count are the columns of one
    transposed copy, so each max and sum is an elementwise pass across rows;
    the second level runs on the rows the first leaves undecided.  math.fsum
    takes arrays below _EXTRACT_MIN entries, and rows undecided, non-finite,
    with sigma > 2^1022 (its inf, nan, OverflowError) or c = 0 (its sign of
    zero).
    """
    x = np.asarray(x, dtype=float)
    rows, n = (x if x.ndim == 2 else x[None]), x.shape[-1]
    if x.size < _EXTRACT_MIN:
        return math.fsum(x.tolist()) if x.ndim == 1 else np.array(list(map(math.fsum, x.tolist())))
    r = np.ascontiguousarray(rows.T) if n < len(rows) else rows.T  # one column per row
    out, live, hi, k = np.full(len(rows), np.nan), np.arange(len(rows)), np.zeros(len(rows)), (n + 1).bit_length()
    for level in range(2):
        big = np.abs(r).max(0)
        if not (keep := big < 2.0 ** (1022 - k)).all():  # finite, and sigma <= 2^1022
            live, r, big, hi = live[keep], r.compress(keep, axis=1), big[keep], hi[keep]
        sigma = np.ldexp(1.0, k + np.frexp(big)[1])
        q = r + sigma
        q -= sigma
        hi, lo = _two_sum(hi, q.sum(0))
        r = np.subtract(r, q, out=q)
        c, e = _two_sum(hi, d := lo + r.sum(0))
        bound = np.abs(e) + 2.0**-53 * np.abs(d) + 2.0**-105 * n * n * sigma
        size = np.abs(c)  # its bits less one are the next float down; 0 gives NaN, which certifies nothing
        done = bound * (2.0 + 2.0**-49) + 2.0**-1069 < size - (size.view(np.int64) - 1).view(float)
        done |= ~r.any(0) & (c != 0.0)
        out[live[done]] = c[done]
        if level or done.all():
            break
        live, r, hi = live[~done], r.compress(~done, axis=1), hi[~done]
    left = np.isnan(out)
    out[left] = list(map(math.fsum, rows[left].tolist()))
    return float(out[0]) if x.ndim == 1 else out


def _two_sum(a, b):  # Knuth's TwoSum: a + b rounded, and its exact error
    return (s := a + b), (a - (s - (s - a))) + (b - (s - a))


def periodic_integral(samples) -> float:
    """(2*pi/M) * sum(samples) for M samples on the uniform grid of [0, 2*pi).

    Exact for trigonometric polynomials of degree <= M-1.  Degree M aliases
    onto the mean: cos(M*phi_j) = 1 at every node, so it integrates to 2*pi
    instead of 0.  The sum is `rounded_sum`'s, correctly rounded.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 2:
        raise EmptyGrid(f"periodic rule needs at least 2 samples, got {arr.size}")
    return TWO_PI / arr.size * rounded_sum(arr)


def grid_for_degree(degree: int) -> np.ndarray:
    """The angles of the uniform grid of [0, 2*pi) the quadrature path samples:
    at least 256 nodes, a power of two, and exact for degree-2N products."""
    m = max(256, 1 << (4 * max(degree, 0) + 7).bit_length())
    return np.linspace(0.0, TWO_PI, m, endpoint=False)


def fast_len(m: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d >= m, for m <= MAX_NODES: a length the
    FFT serves without Bluestein's algorithm.  Each odd part p = 3^b 5^c 7^d
    below the best length so far takes the least power of two that lifts it
    to m, the ceiling of m/p rounded up to a power of two."""
    best = 1 << (m - 1).bit_length() if m > 1 else 1
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                best = min(best, p3 << (-(-m // p3) - 1).bit_length())
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache or a body hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(*leggauss(points))


def gauss_panels(edges, points: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over consecutive panels.

    `edges` holds increasing panel boundaries along its last axis, one
    rule per row; each row's nodes are returned flattened in panel order
    so downstream compensated sums see a fixed ordering.  The rule is
    cached per point count as read-only arrays.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(points)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    shape = edges.shape[:-1] + (-1,)
    return (0.5 * (hi + lo) + half * x).reshape(shape), (half * w).reshape(shape)
