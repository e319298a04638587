"""Quadrature rules backing every integral in the package.

The workhorse is the periodic trapezoid rule, which is exact for
trigonometric polynomials of degree below the node count; all closed-form
functionals here integrate such polynomials, so the quadrature path is
exact to round-off once the grid is fine enough.  Composite Gauss-Legendre
panels cover the non-periodic intervals.  Sums are accumulated with
math.fsum in a fixed index order, so results are bit-reproducible
regardless of how work is scheduled.  A grid is only its angles,
`grid_for_degree` the one rule that sizes it; the callers sample their
integrands there by one inverse FFT (`bodies._grid_derivs`).
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


def periodic_integral(samples) -> float:
    """(2*pi/M) * sum(samples) for M samples on the uniform grid of [0, 2*pi).

    Exact for trigonometric polynomials of degree <= M-1.  Degree M aliases
    onto the mean: cos(M*phi_j) = 1 at every node, so it integrates to 2*pi
    instead of 0.  Accumulation is compensated (math.fsum) in index order.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 2:
        raise EmptyGrid(f"periodic rule needs at least 2 samples, got {arr.size}")
    return TWO_PI / arr.size * math.fsum(arr.tolist())


def grid_for_degree(degree: int) -> np.ndarray:
    """The angles of the uniform grid of [0, 2*pi) the quadrature path samples:
    at least 256 nodes, a power of two, and exact for degree-2N products."""
    m = max(256, 1 << (4 * max(degree, 0) + 7).bit_length())
    return np.linspace(0.0, TWO_PI, m, endpoint=False)


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
