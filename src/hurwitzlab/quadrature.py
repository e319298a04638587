"""Quadrature rules backing every integral in the package.

The workhorse is the periodic trapezoid rule, which is exact for
trigonometric polynomials of degree below the node count; all closed-form
functionals here integrate such polynomials, so the quadrature path is
exact to round-off once the grid is fine enough.  Composite Gauss-Legendre
panels cover the non-periodic intervals.  Sums are accumulated with
math.fsum in a fixed index order, so results are bit-reproducible
regardless of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EmptyGrid

PI = math.pi
TWO_PI = 2.0 * math.pi


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


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform periodic grid with a power-of-two node count."""

    m: int

    def __post_init__(self):
        if self.m < 16 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"node count must be a power of two >= 16, got {self.m}")

    @property
    def phis(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.m, endpoint=False)

    def integrate(self, samples) -> float:
        return periodic_integral(samples)


def grid_for_degree(degree: int) -> QuadratureGrid:
    """Default grid: at least 256 nodes and exact for degree-2N products."""
    return QuadratureGrid(max(256, _next_pow2(4 * max(degree, 0) + 8)))


@lru_cache(maxsize=None)
def _leggauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(points)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, points: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over consecutive panels.

    `edges` is an increasing sequence of panel boundaries; nodes are
    returned flattened in panel order so downstream compensated sums see a
    fixed ordering.  The rule is cached per point count as read-only arrays.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(points)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)
