import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import (
    Harmonic,
    QuadratureGrid,
    TrigSupport,
    eval_support,
    functionals_quadrature,
    functionals_spectral,
    generalized_area,
    offset,
)
from hurwitzlab.bodies import evolute_support
from hurwitzlab.errors import NotValidated
from hurwitzlab.quadrature import grid_for_degree, periodic_integral

from .test_bodies import convex_bodies

PI = math.pi
TWO_PI = 2.0 * math.pi
PATHS = {"spectral": functionals_spectral, "quadrature": functionals_quadrature}


class TestSpectralFixtures:
    # Frozen values, all derived from the closed forms with c2^2 = 0.04:
    #   L = 2*pi*a0, F = pi - (pi/2)*3*0.04, Delta = 2*pi^2*3*0.04,
    #   Fe = -(pi/2)*4*3*0.04, A = F + (pi/2)*4*0.04, d2^2 = pi*0.04
    def test_ast(self, ast_body):
        fs = functionals_spectral(ast_body)
        assert fs.L == pytest.approx(TWO_PI, rel=1e-15)
        assert fs.F == pytest.approx(0.94 * PI, rel=1e-14)
        assert fs.Delta == pytest.approx(0.24 * PI**2, rel=1e-14)
        assert fs.Fe == pytest.approx(-0.24 * PI, rel=1e-14)
        assert fs.hurwitz_deficit == pytest.approx(0.0, abs=1e-14)
        assert fs.A == pytest.approx(1.02 * PI, rel=1e-14)
        assert fs.delta2_sq == pytest.approx(0.04 * PI, rel=1e-14)
        assert fs.Aw == pytest.approx(0.0, abs=1e-15)
        assert fs.Wq == pytest.approx(0.12 * PI, rel=1e-14)

    # same closed forms with c3^2 = 0.01
    def test_delt(self, delt_body):
        fs = functionals_spectral(delt_body)
        assert fs.Delta == pytest.approx(0.16 * PI**2, rel=1e-14)
        assert abs(fs.Fe) == pytest.approx(0.36 * PI, rel=1e-14)
        assert fs.hurwitz_deficit == pytest.approx(0.2 * PI**2, rel=1e-14)
        assert fs.AmF == pytest.approx(0.045 * PI, rel=1e-14)
        assert fs.delta2_sq == pytest.approx(0.01 * PI, rel=1e-14)
        assert fs.Aw == pytest.approx(-0.04 * PI, rel=1e-14)

    def test_circle(self, circle_body):
        fs = functionals_spectral(circle_body)
        assert fs.L == pytest.approx(TWO_PI, rel=1e-15)
        assert fs.F == pytest.approx(PI, rel=1e-15)
        assert fs.Delta == pytest.approx(0.0, abs=1e-13)
        assert fs.Fe == 0.0 and fs.A == pytest.approx(PI) and fs.delta2_sq == 0.0
        assert fs.Aw == 0.0

    def test_requires_validation(self):
        with pytest.raises(NotValidated):
            functionals_spectral(TrigSupport(1.0))

    def test_centering_applied_for_pedal(self, ast_body):
        # A and delta2^2 are measured about the Steiner point, so a
        # translation must not change them
        from hurwitzlab import rigid_motion

        moved = rigid_motion(ast_body, 0.0, (0.7, -0.4))
        fs0, fs1 = functionals_spectral(ast_body), functionals_spectral(moved)
        assert fs1.A == pytest.approx(fs0.A, rel=1e-13)
        assert fs1.delta2_sq == pytest.approx(fs0.delta2_sq, rel=1e-13)
        assert fs1.steiner == pytest.approx((0.7, -0.4))

    def test_cn_sq_in_one_pass(self, monkeypatch):
        # c_n^2 for n = 2..N come from one pass over the harmonics, with at
        # most one TrigSupport.harmonic scan; the values are those of c_sq(n)
        from hurwitzlab import random_body, recenter_to_steiner

        body = random_body(3, 64, index=1)
        assert len(body.harmonics) == 64
        calls = []
        harmonic = TrigSupport.harmonic
        monkeypatch.setattr(TrigSupport, "harmonic", lambda self, n: calls.append(n) or harmonic(self, n))
        fs = functionals_spectral(body)
        monkeypatch.undo()
        assert len(calls) <= 1
        centered = recenter_to_steiner(body)
        assert fs.cn_sq == tuple((n, centered.harmonic(n).c_sq) for n in range(2, 65))


class TestQuadratureAgreement:
    def test_ast_exact_at_64_nodes(self, ast_body):
        fq = functionals_quadrature(ast_body, QuadratureGrid(64))
        fs = functionals_spectral(ast_body)
        for name in fs.FIELD_NAMES:
            assert getattr(fq, name) == pytest.approx(getattr(fs, name), rel=1e-12, abs=1e-12)

    def test_delt_exact_at_64_nodes(self, delt_body):
        fq = functionals_quadrature(delt_body, QuadratureGrid(64))
        fs = functionals_spectral(delt_body)
        for name in fs.FIELD_NAMES:
            assert getattr(fq, name) == pytest.approx(getattr(fs, name), rel=1e-12, abs=1e-12)

    def test_circle_small_grid(self, circle_body):
        fq = functionals_quadrature(circle_body, QuadratureGrid(16))
        assert fq.L == pytest.approx(TWO_PI, rel=1e-15)
        assert fq.F == pytest.approx(PI, rel=1e-15)

    def test_grid_too_coarse(self, cw35_body):
        with pytest.raises(ValueError):
            functionals_quadrature(cw35_body, QuadratureGrid(16))

    @given(convex_bodies())
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_property(self, body):
        fs = functionals_spectral(body)
        fq = functionals_quadrature(body)
        scale = max(1.0, fs.L**2)
        for name in fs.FIELD_NAMES:
            a, b = getattr(fs, name), getattr(fq, name)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)) + 1e-13 * scale
        assert fq.steiner == pytest.approx(fs.steiner, abs=1e-12)
        for (n1, v1), (n2, v2) in zip(fs.cn_sq, fq.cn_sq):
            assert n1 == n2 and v1 == pytest.approx(v2, rel=1e-10, abs=1e-14)


class TestGeneralizedArea:
    def test_evolute_support_of_ast(self, ast_body):
        # f = p'(phi - pi/2) = -0.4 cos(2 phi); (1/2) int f (f + f'') =
        # (1/2)(-0.4)(1.2) int cos^2 = -0.24 pi, matching the spectral Fe
        val = generalized_area(evolute_support(ast_body))
        assert val == pytest.approx(-0.24 * PI, rel=1e-13)

    def test_unit_circle(self):
        assert generalized_area(TrigSupport(1.0)) == pytest.approx(PI, rel=1e-15)

    def test_steiner_support_swept_twice(self):
        # 0.1 sin(3 phi) over a full period sweeps the deltoid twice:
        # (pi/2)(1 - 9) * 0.01 = -0.04 pi
        f = TrigSupport(0.0, (Harmonic(3, 0.0, 0.1),))
        assert generalized_area(f) == pytest.approx(-0.04 * PI, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 13, 32])
    def test_single_harmonic(self, n):
        # f = a0 + c sin(nt): f + f'' = a0 + (1 - n^2) c sin(nt), so the area is
        # pi a0^2 + (pi/2)(1 - n^2) c^2 in closed form, on any exact grid
        rng = np.random.default_rng(n)
        a0, c = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0)
        exact = PI * a0 * a0 + 0.5 * PI * (1 - n * n) * c * c
        f = TrigSupport(a0, (Harmonic(n, 0.0, c),))
        for grid in (None, grid_for_degree(n), grid_for_degree(4 * n)):
            assert generalized_area(f, grid=grid) == pytest.approx(exact, rel=1e-12)


class TestParallelBodies:
    # The parallel body p + r has perimeter L + 2 pi r and area given by the
    # Steiner polynomial F + L r + pi r^2.  Every deficit the theorems compare
    # is built from q = p - L/(2 pi) and the evolute, which p + r shares.
    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("r", [0.25, 3.0])
    def test_steiner_formula(self, mix_body, path, r):
        fs, fr = PATHS[path](mix_body), PATHS[path](offset(mix_body, r))
        assert fr.L == pytest.approx(fs.L + TWO_PI * r, rel=1e-14)
        assert fr.F == pytest.approx(fs.F + fs.L * r + PI * r * r, rel=1e-13)

    @pytest.mark.parametrize("path", sorted(PATHS))
    @given(body=convex_bodies(), r=st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_deficits_invariant(self, path, body, r):
        fs, fr = PATHS[path](body), PATHS[path](offset(body, r))
        scale = 1e-12 * fr.L**2
        for name in ("Delta", "Fe", "hurwitz_deficit", "AmF", "delta2_sq", "Aw", "Wq"):
            assert getattr(fr, name) == pytest.approx(getattr(fs, name), rel=1e-12, abs=scale)

    def test_circle_shrinks_to_point(self, circle_body):
        assert generalized_area(offset(circle_body, -1.0)) == 0.0

    def test_ast_inner_minimum(self, ast_body):
        # the Steiner polynomial is least at r = -L/(2 pi): F - L^2/(4 pi) =
        # 0.94 pi - pi = -0.06 pi, and Delta = 4 pi |F_r| recovers 0.24 pi^2
        val = generalized_area(offset(ast_body, -1.0))
        assert val == pytest.approx(-0.06 * PI, rel=1e-13)
        assert 4 * PI * abs(val) == pytest.approx(functionals_spectral(ast_body).Delta, rel=1e-13)

    @given(convex_bodies())
    @settings(max_examples=25, deadline=None)
    def test_deficit_is_inner_parallel_area(self, body):
        # Delta = -4 pi F_r at the minimising inner offset r = -L/(2 pi)
        fs = functionals_spectral(body)
        val = generalized_area(offset(body, -fs.L / TWO_PI))
        assert -4 * PI * val == pytest.approx(fs.Delta, rel=1e-10, abs=1e-12)


class TestDeficitIdentities:
    @given(convex_bodies())
    @settings(max_examples=30, deadline=None)
    def test_area_minus_evolute_area(self, body):
        # F - Fe = (1/2) int (p + p'')^2, both areas with multiplicities
        fs = functionals_spectral(body)
        grid = grid_for_degree(body.max_degree)
        phis = grid.phis
        rho = eval_support(body, phis, 0) + eval_support(body, phis, 2)
        rhs = 0.5 * periodic_integral(rho**2)
        assert fs.F - fs.Fe == pytest.approx(rhs, rel=1e-10)

    @given(convex_bodies())
    @settings(max_examples=30, deadline=None)
    def test_deficit_vs_wirtinger(self, body):
        # pi|Fe| - Delta = (pi/2) (W_{q'} - 4 W_q) with q = p - L/(2 pi): the
        # Wirtinger deficit of q' is 2|Fe|, that of q is the functional Wq
        for fs in (functionals_spectral(body), functionals_quadrature(body)):
            rhs = 0.5 * PI * (2.0 * abs(fs.Fe) - 4.0 * fs.Wq)
            assert fs.hurwitz_deficit == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_pedal_dominates_wigner_fixed(self, sweep_bodies):
        for body in sweep_bodies[:50]:
            fs = functionals_spectral(body)
            assert fs.AmF >= abs(fs.Aw) - 1e-14


class TestSerialization:
    def test_to_dict_shape(self, cw35_body):
        d = functionals_spectral(cw35_body).to_dict()
        assert d["path"] == "spectral"
        assert set(d) == {
            "path", "L", "F", "Delta", "Fe", "hurwitz_deficit", "A", "AmF",
            "delta2_sq", "Aw", "Wq", "steiner", "cn_sq",
        }
        assert d["cn_sq"] == pytest.approx({"2": 0.0, "3": 0.0025, "4": 0.0, "5": 0.0001})

    def test_seventeen_digit_emission(self, ast_body):
        from hurwitzlab import jsonio

        text = jsonio.dumps(functionals_spectral(ast_body).to_dict())
        assert '"L": 6.2831853071795862' in text
