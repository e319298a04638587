import math

import numpy as np
import pytest

from hurwitzlab import grid_for_degree, periodic_integral
from hurwitzlab.errors import EmptyGrid
from hurwitzlab.quadrature import MAX_NODES, gauss_panels

PI = math.pi
TWO_PI = 2.0 * math.pi


def test_cos_squared_exact():
    phis = np.linspace(0, TWO_PI, 8, endpoint=False)
    assert periodic_integral(np.cos(phis) ** 2) == pytest.approx(PI, rel=1e-15)


def test_constant():
    assert periodic_integral(np.ones(4)) == pytest.approx(TWO_PI, rel=1e-15)


def test_aliasing_at_degree_m():
    # cos(M phi_j) = 1 at every node: the rule sees the mean, not zero
    m = 16
    phis = np.linspace(0, TWO_PI, m, endpoint=False)
    assert periodic_integral(np.cos(m * phis)) == pytest.approx(TWO_PI, rel=1e-12)


def test_exact_below_degree_m():
    m = 32
    phis = np.linspace(0, TWO_PI, m, endpoint=False)
    for k in range(1, m):
        assert periodic_integral(np.cos(k * phis)) == pytest.approx(0.0, abs=1e-12)


def test_empty_grid():
    with pytest.raises(EmptyGrid):
        periodic_integral([])
    with pytest.raises(EmptyGrid):
        periodic_integral([1.0])


def test_grid_for_degree():
    # the smallest power of two >= max(256, 4N + 8), which is 4N + 8 itself at
    # N = 62, 126 and at the largest accepted degree (MAX_NODES - 8) / 4
    for degree, m in ((0, 256), (8, 256), (62, 256), (63, 512), (100, 512), (126, 512), (127, 1024)):
        phis = grid_for_degree(degree)
        assert phis.size == m
        assert np.array_equal(phis, np.linspace(0.0, TWO_PI, m, endpoint=False))
    assert grid_for_degree((MAX_NODES - 8) // 4).size == MAX_NODES


def test_gauss_panels_rows_match_one_row_calls():
    # a 2-D edges array is one rule per row, bit for bit the 1-D rule of that row
    edges = np.linspace(0.1, np.array([0.5, 1.0, 3.0]), 7, axis=1)
    nodes, weights = gauss_panels(edges, points=8)
    assert nodes.shape == weights.shape == (3, 48)
    for row, x, w in zip(edges, nodes, weights):
        x1, w1 = gauss_panels(row, points=8)
        assert np.array_equal(x, x1) and np.array_equal(w, w1)


def test_gauss_panels_polynomial():
    nodes, weights = gauss_panels([0.0, 0.4, 1.0], points=8)
    val = float(np.sum(weights * nodes**7))
    assert val == pytest.approx(1.0 / 8.0, rel=1e-14)
