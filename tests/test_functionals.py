import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import (
    Harmonic,
    SuiteConfig,
    TrigSupport,
    eval_support,
    functionals_quadrature,
    functionals_spectral,
    generalized_area,
    offset,
    rigid_motion,
    run_suite,
    validate_convex,
)
from hurwitzlab import functionals, jsonio
from hurwitzlab.bodies import wigner_support
from hurwitzlab.errors import NotValidated
from hurwitzlab.quadrature import grid_for_degree, periodic_integral

from .test_bodies import convex_bodies

PI = math.pi
TWO_PI = 2.0 * math.pi
PATHS = {"spectral": functionals_spectral, "quadrature": functionals_quadrature}


def evolute_support(body):
    """The evolute's generalized support p'(phi - pi/2), from the coefficients
    of p' = sum n (b_n cos(n phi) - a_n sin(n phi)) turned a quarter turn."""
    derivative = TrigSupport(0.0, tuple(Harmonic(h.n, h.n * h.b, -h.n * h.a) for h in body.harmonics))
    return rigid_motion(derivative, theta=PI / 2.0)


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
    @pytest.mark.parametrize("degree", [62, 126])
    def test_exact_on_a_grid_of_4n_plus_8(self, degree):
        # grid_for_degree(N) has exactly 4N + 8 nodes here (256 and 512), the
        # edge of the exact rule; the top harmonic carries most of Fe
        c = 1.0 / (degree * degree - 1)
        hs = (Harmonic(1, 0.3, -0.2), Harmonic(2, 0.05, 0.02), Harmonic(3, 0.01, 0.0),
              Harmonic(degree - 1, 0.2 * c, 0.1 * c), Harmonic(degree, 0.3 * c, 0.2 * c))
        body = validate_convex(TrigSupport(1.0, hs))
        assert grid_for_degree(degree).size == 4 * degree + 8
        fq, fs = functionals_quadrature(body), functionals_spectral(body)
        for name in fs.FIELD_NAMES:
            assert getattr(fq, name) == pytest.approx(getattr(fs, name), rel=1e-12, abs=1e-12), name
        assert fq.steiner == pytest.approx(fs.steiner, abs=1e-12)
        for (n1, v1), (n2, v2) in zip(fs.cn_sq, fq.cn_sq, strict=True):
            assert n1 == n2 and v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)

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


class TestOnePass:
    def test_one_grid_pass_on_the_centred_body(self, monkeypatch):
        # every integrand reads the samples of one _grid_derivs call, made on
        # a body with no degree-one harmonic (the Steiner-centred one), and
        # no Horner pass runs
        from hurwitzlab import random_body

        body = random_body(3, 64, index=1)
        calls = []
        grid_derivs = functionals._grid_derivs
        monkeypatch.setattr(functionals, "_grid_derivs", lambda *a, **k: calls.append(a[::2]) or grid_derivs(*a, **k))
        monkeypatch.setattr(functionals, "_derivs", lambda *a, **k: calls.append(("_derivs", a[2])))
        fq = functionals_quadrature(body)
        monkeypatch.undo()
        assert [orders for _, orders in calls] == [(0, 1, 2, 3)]
        assert body.harmonic(1).c_sq > 0.0 and calls[0][0].harmonic(1).c_sq == 0.0
        assert len(fq.cn_sq) == 63

    @given(convex_bodies(max_degree=12))
    @settings(max_examples=30, deadline=None)
    def test_fe_aw_against_generalized_area(self, body):
        # Fe and Aw are the swept areas of the evolute's and the Wigner
        # caustic's supports, built here from the coefficients
        fq = functionals_quadrature(body)
        scale = max(fq.L**2, PI * abs(fq.Fe))
        assert abs(fq.Fe - generalized_area(evolute_support(body))) <= 1e-13 * scale
        assert abs(fq.Aw - generalized_area(wigner_support(body))) <= 1e-13 * scale


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
        # pi a0^2 + (pi/2)(1 - n^2) c^2 in closed form
        rng = np.random.default_rng(n)
        a0, c = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0)
        exact = PI * a0 * a0 + 0.5 * PI * (1 - n * n) * c * c
        f = TrigSupport(a0, (Harmonic(n, 0.0, c),))
        assert generalized_area(f) == pytest.approx(exact, rel=1e-12)


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
        phis = grid_for_degree(body.max_degree)
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
        text = jsonio.dumps(functionals_spectral(ast_body).to_dict())
        assert '"L": 6.2831853071795862' in text

    @pytest.mark.parametrize("name", ["circle", "ast", "delt", "cw35", "mix", "hd17"])
    def test_dumps_equals_recursive_form_on_golden_payloads(self, request, name):
        body = request.getfixturevalue(f"{name}_body")
        for payload in (
            functionals_spectral(body).to_dict(),
            functionals_quadrature(body).to_dict(),
            run_suite(body, SuiteConfig(path="both")).to_dict(),
        ):
            assert jsonio.dumps(payload) == _recursive_dumps(payload)

    def test_dumps_of_non_finite_and_mixed_lists(self):
        floats = [math.nan, math.inf, -math.inf, -0.0, 1e-320]
        assert jsonio.dumps(floats) == '[\n  null,\n  "inf",\n  "-inf",\n  -0,\n  9.9998886718268301e-321\n]'
        mixed = floats + [True, 3]
        nested = {"inf": floats, "nan": dict(zip("abcde", floats)), "n": {"t": True, "x": 1.5}, "np": [np.float64(0.1)]}
        percent = {"%s": ["%d%%", 0.5], "%": {}}  # a % in a key or string is text, not a format
        overflow = [1e308, 1e308, -0.0]  # finite floats whose sum is not
        for obj in (floats, tuple(floats), mixed, nested, [[math.inf], []], {"-inf": -math.inf}, percent, overflow):
            assert jsonio.dumps(obj) == _recursive_dumps(obj)
        assert jsonio.dumps(overflow) == "[\n  1e+308,\n  1e+308,\n  -0\n]"
        assert jsonio.dumps(percent) == '{\n  "%s": [\n    "%d%%",\n    0.5\n  ],\n  "%": {}\n}'
        with pytest.raises(TypeError, match="cannot serialize object"):
            jsonio.dumps({"x": [1.0, object()]})

    @given(st.lists(st.floats()), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_dumps_of_float_lists_equals_recursive_form(self, values, as_dict):
        obj = {f"k{i}": v for i, v in enumerate(values)} if as_dict else values
        assert jsonio.dumps([obj]) == _recursive_dumps([obj])  # obj at indent level 1


    @given(st.dictionaries(st.text(), st.floats() | st.booleans()), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_dict_keys_quoted_as_one_by_one(self, obj, int_keys):
        # keys with a backslash, a quote, a newline or a % among them
        obj = {i: v for i, v in enumerate(obj.values())} if int_keys else obj
        assert jsonio.dumps(obj) == _recursive_dumps(obj)


def _recursive_dumps(obj, level=0):
    """jsonio.dumps as one recursive call per leaf, each formatted alone:
    the form its one-pass walk and single %-format replaced."""
    pad, end_pad = "  " * (level + 1), "  " * level
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return jsonio.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [pad + jsonio.dumps(str(k)) + ": " + _recursive_dumps(v, level + 1) for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + end_pad + "}"
    if not obj:
        return "[]"
    items = [pad + _recursive_dumps(v, level + 1) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + end_pad + "]"
