import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import render
from hurwitzlab import (
    HypocycloidSpec,
    Polyline,
    Scene,
    Style,
    count_cusps,
    functionals_spectral,
    hypocycloid_parallel,
    sample_curve,
    sample_hypocycloid,
    shoelace_area,
    write_svg,
)
from hurwitzlab.errors import BadSpec, EmptyScene, NotValidated

PI = math.pi


class TestShoelace:
    def test_unit_square_ccw(self):
        square = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        assert shoelace_area(square) == pytest.approx(1.0)

    def test_orientation_sign(self):
        square = Polyline(np.array([[0, 0], [0, 1], [1, 1], [1, 0]], float))
        assert shoelace_area(square) == pytest.approx(-1.0)

    def test_circle_polygon(self):
        t = np.linspace(0, 2 * PI, 1000, endpoint=False)
        poly = Polyline(np.stack([np.cos(t), np.sin(t)], axis=1))
        assert shoelace_area(poly) == pytest.approx(PI, abs=1e-4)


class TestSampleCurve:
    def test_circle_evolute_is_a_point(self, circle_body):
        poly = sample_curve(circle_body, "evolute", 256)
        assert np.max(np.abs(poly.vertices)) <= 1e-12

    def test_boundary_area_oracle(self, ast_body):
        poly = sample_curve(ast_body, "boundary", 512)
        assert abs(shoelace_area(poly)) == pytest.approx(0.94 * PI, abs=1e-4)

    def test_pedal_area_oracle(self, delt_body):
        # A = F + (A - F) = 0.96 pi + 0.045 pi
        poly = sample_curve(delt_body, "pedal", 512)
        assert abs(shoelace_area(poly)) == pytest.approx(1.005 * PI, abs=1e-4)

    def test_pedal_centered_at_steiner_point(self, ast_body):
        from hurwitzlab import rigid_motion

        moved = rigid_motion(ast_body, 0.0, (2.0, 1.0))
        poly = sample_curve(moved, "pedal", 256)
        assert abs(shoelace_area(poly)) == pytest.approx(1.02 * PI, abs=1e-3)
        assert np.mean(poly.vertices[:, 0]) == pytest.approx(2.0, abs=0.05)

    def test_evolute_area_carries_multiplicity(self, ast_body, delt_body):
        # single-harmonic bodies trace their evolute uniformly, so the
        # signed polygon area reproduces the full evolute area |Fe|
        for body in (ast_body, delt_body):
            fe = abs(functionals_spectral(body).Fe)
            poly = sample_curve(body, "evolute", 4096)
            assert abs(shoelace_area(poly)) == pytest.approx(fe, rel=1e-4)

    def test_wigner_equals_inner_parallel_for_constant_width(self, cw35_body):
        w = sample_curve(cw35_body, "wigner", 512)
        par = sample_curve(cw35_body, "parallel", 512, r=-1.0)  # L/(2 pi) = a0 = 1
        assert np.max(np.abs(w.vertices - par.vertices)) <= 1e-10

    def test_parallel_requires_radius(self, ast_body):
        with pytest.raises(ValueError):
            sample_curve(ast_body, "parallel", 128)

    def test_unknown_kind(self, ast_body):
        with pytest.raises(ValueError):
            sample_curve(ast_body, "osculating", 128)

    def test_requires_validated(self):
        from hurwitzlab import TrigSupport

        with pytest.raises(NotValidated):
            sample_curve(TrigSupport(1.0), "boundary", 128)

    def test_minimum_samples(self, ast_body):
        with pytest.raises(ValueError):
            sample_curve(ast_body, "boundary", 32)

    @pytest.mark.parametrize("m", [(1 << 20) + 1, 10**11])
    def test_maximum_samples(self, ast_body, m):
        with pytest.raises(ValueError, match="samples"):
            sample_curve(ast_body, "wigner", m)
        with pytest.raises(ValueError, match="samples"):
            sample_hypocycloid(HypocycloidSpec(m=4), m)


class TestHypocycloid:
    def test_astroid_area(self):
        # classical swept area n (k-1)(k-2) pi r^2; 6 pi for k=4
        poly = sample_hypocycloid(HypocycloidSpec(m=4), 2048)
        assert abs(shoelace_area(poly)) == pytest.approx(6 * PI, abs=1e-3)

    def test_deltoid_area(self):
        poly = sample_hypocycloid(HypocycloidSpec(m=3), 2048)
        assert abs(shoelace_area(poly)) == pytest.approx(2 * PI, abs=1e-3)

    def test_astroid_area_against_generalized_area(self):
        # independent oracle: the generalized support 2 r sin(2 theta)
        # sweeps the same astroid once over a full period
        from hurwitzlab import Harmonic, TrigSupport, generalized_area

        poly = sample_hypocycloid(HypocycloidSpec(m=4), 4096)
        swept = generalized_area(TrigSupport(0.0, (Harmonic(2, 0.0, 2.0),)))
        assert abs(shoelace_area(poly)) == pytest.approx(abs(swept), abs=1e-3)

    def test_five_halves_closes_after_two_turns(self):
        spec = HypocycloidSpec(m=5, n=2)
        poly = sample_hypocycloid(spec, 4096)
        assert count_cusps(poly) == 5
        # winding number n doubles the multiplicity-counted area
        assert abs(shoelace_area(poly)) == pytest.approx(2 * (3 / 2) * (1 / 2) * PI, abs=1e-3)

    @pytest.mark.parametrize("m,n", [(3, 1), (4, 1), (5, 1), (5, 2), (7, 3)])
    def test_cusp_counts(self, m, n):
        poly = sample_hypocycloid(HypocycloidSpec(m=m, n=n), 4096)
        assert count_cusps(poly) == m

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            HypocycloidSpec(m=4, n=2)  # not coprime
        with pytest.raises(BadSpec):
            HypocycloidSpec(m=3, n=2)  # k <= 2
        with pytest.raises(BadSpec):
            HypocycloidSpec(m=3, r=0.0)

    @pytest.mark.parametrize("k,traversal,distinct", [(3, 6, 3), (4, 8, 8), (5, 10, 5), (6, 12, 12)])
    def test_hypocycloid_parallel_cusps(self, k, traversal, distinct):
        # the evolute of p = a0 + amp*cos(k phi) has cusps at phi = j*pi/k, j < 2k;
        # for odd k it retraces them after a half turn, for even k they are 2k distinct points
        body = hypocycloid_parallel(k, 1.0, 0.5 / (k * k - 1))
        evolute = sample_curve(body, "evolute", 2 * k * 64)
        assert count_cusps(evolute) == traversal
        assert len(np.unique(np.round(evolute.vertices[::64], 9), axis=0)) == distinct

    def test_smooth_convex_boundary_has_no_cusps(self, ast_body):
        assert count_cusps(sample_curve(ast_body, "boundary", 1024)) == 0


class TestSvg:
    def test_deterministic_bytes(self, ast_body):
        def build():
            scene = Scene(layers=[])
            scene.add(sample_curve(ast_body, "boundary", 128), Style(stroke="#222222"))
            scene.add(sample_curve(ast_body, "evolute", 128), Style(dash=(0.1, 0.05)))
            return write_svg(scene)

        first, second = build(), build()
        assert first == second
        text = first.decode()
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert 'version="1.1"' in text and "viewBox" in text
        assert text.count("<polygon") == 2
        assert "stroke-dasharray" in text

    def test_degenerate_layer_marker(self, circle_body):
        scene = Scene(layers=[]).add(sample_curve(circle_body, "evolute", 128))
        assert b"<circle" in write_svg(scene)

    def test_empty_scene(self):
        with pytest.raises(EmptyScene):
            write_svg(Scene(layers=[]))


def _fmt_join(verts):
    """The per-vertex points text that write_svg built before `_points`."""
    return " ".join(f"{render._fmt(x)},{render._fmt(-y)}" for x, y in verts)


_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 1e100, -1e100]),
    st.floats(-1e-6, 0.0, exclude_min=True, exclude_max=True),
    st.floats(-1e-5, 1e-5),
    st.floats(-1e100, 1e100),
)


@given(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_points_text_equals_per_vertex_format(pairs):
    verts = np.array(pairs, dtype=float)
    assert render._points(verts) == _fmt_join(verts)
