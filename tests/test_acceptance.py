"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is frozen from an independent derivation
noted alongside it.
"""

import contextlib
import math

import numpy as np
import pytest

from hurwitzlab import (
    ExteriorConfig,
    HypocycloidSpec,
    TheoremId,
    astroid_parallel,
    classify_equality,
    crofton_kernel,
    expected_equality,
    exterior_integral,
    exterior_integral_grid,
    exterior_point,
    functionals_quadrature,
    functionals_spectral,
    is_constant_width,
    minkowski_sum,
    moment_kernel,
    run_suite,
    sample_curve,
    sample_hypocycloid,
    shoelace_area,
    sin_cubed_kernel,
    spectral_integral,
    verify,
    visual_deficit_cw_kernel,
    visual_deficit_kernel,
)

PI = math.pi


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {label}")


def test_01_oracle_equivalence(sweep_bodies):
    """200 seeded random bodies: spectral and quadrature paths agree to 1e-10."""
    with criterion(1, "spectral/quadrature oracle equivalence on 200 random bodies"):
        assert len(sweep_bodies) == 200
        assert sum(1 for b in sweep_bodies if is_constant_width(b)[0]) == 100
        degrees = {b.max_degree for b in sweep_bodies}
        assert degrees <= set(range(1, 9)) and max(degrees) == 8
        for body in sweep_bodies:
            fs = functionals_spectral(body)
            fq = functionals_quadrature(body)
            floor = 1e-13 * max(1.0, fs.L**2)  # round-off floor for exact zeros
            for name in fs.FIELD_NAMES:
                a, b = getattr(fs, name), getattr(fq, name)
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)) + floor, (name, a, b)
            for (na, va), (nb, vb) in zip(fs.cn_sq, fq.cn_sq):
                assert na == nb and abs(va - vb) <= 1e-10 * max(abs(va), abs(vb)) + floor
            assert abs(fs.steiner[0] - fq.steiner[0]) <= floor
            assert abs(fs.steiner[1] - fq.steiner[1]) <= floor


def test_02_hurwitz_inequality(sweep_bodies, ast_body):
    """Residual >= 0 everywhere; zero on astroid parallels; matches the quartic sum."""
    with criterion(2, "Hurwitz inequality: sign, equality case, spectral identity"):
        for body in sweep_bodies:
            fs = functionals_spectral(body)
            scale = max(fs.L**2, PI * abs(fs.Fe))
            assert fs.hurwitz_deficit >= -1e-12 * scale
            # quartic sum recomputed from quadrature-projected amplitudes,
            # so the two sides of the identity share no arithmetic
            fq = functionals_quadrature(body)
            direct = 0.5 * PI**2 * math.fsum(
                (n**4 - 5 * n**2 + 4) * v for n, v in fq.cn_sq if n >= 3
            )
            assert abs(fs.hurwitz_deficit - direct) <= 1e-12 * max(abs(direct), scale * 1e-9)
        specs = [(1.0, 0.2), (2.5, 0.4), (1.0, 0.33), (0.7, 0.1)]
        for spec in [None] + specs:
            body = ast_body if spec is None else astroid_parallel(*spec)
            fs = functionals_spectral(body)
            scale = max(fs.L**2, PI * abs(fs.Fe))
            assert abs(fs.hurwitz_deficit) <= 1e-12 * scale


def test_03_constant_width_sharpening(sweep_bodies, delt_body):
    """(4/9) pi |Fe| - Delta >= 0 at constant width; ties at the Steiner parallel."""
    with criterion(3, "constant-width sharpening: sign and equality at 0.16 pi^2"):
        for body in sweep_bodies:
            if not is_constant_width(body)[0]:
                continue
            v = verify(body, TheoremId.HURWITZ_CW)
            scale = max(v.lhs, 1e-6)
            assert v.residual >= -1e-12 * scale
        v = verify(delt_body, TheoremId.HURWITZ_CW)
        assert v.lhs == pytest.approx(0.16 * PI**2, rel=1e-12)
        assert v.rhs == pytest.approx(0.16 * PI**2, rel=1e-12)
        assert v.equality


def test_04_visual_angle_identities(ast_body, delt_body, circle_body):
    """Moments and Crofton against closed forms, within 0.5%."""
    with criterion(4, "visual-angle moments, Crofton and the sin^3 identity (0.5%)"):
        for body, n, expect in ((ast_body, 2, 4.12 * PI**2), (delt_body, 3, 3.92 * PI**2)):
            assert spectral_integral(body, moment_kernel(n)).value == pytest.approx(expect, rel=1e-13)
            assert exterior_integral(body, moment_kernel(n)).value == pytest.approx(expect, rel=5e-3)
        res = exterior_integral(circle_body, crofton_kernel())
        assert res.value == pytest.approx(PI**2, rel=5e-3)
        for body in (ast_body, delt_body, circle_body):
            fs = functionals_spectral(body)
            expect = fs.L**2 + 3 * PI**2 * fs.cn_sq_map().get(2, 0.0)
            res = exterior_integral(body, sin_cubed_kernel())
            assert (4.0 / 3.0) * res.value == pytest.approx(expect, rel=5e-3)


def test_05_visual_deficit_geometric(delt_body):
    """(5/4) L^2 + 5 * integral of the deficit kernel hits 0.2 pi^2 within 1%."""
    with criterion(5, "general visual-angle bound, geometric path on the Steiner parallel"):
        fs = functionals_spectral(delt_body)
        res = exterior_integral(delt_body, visual_deficit_kernel())
        rhs = 1.25 * fs.L**2 + 5.0 * res.value
        assert rhs == pytest.approx(0.2 * PI**2, rel=1e-2)
        # the spectral deficit is exactly 0.2 pi^2 at this equality case
        assert fs.hurwitz_deficit == pytest.approx(0.2 * PI**2, rel=1e-12)
        assert rhs == pytest.approx(fs.hurwitz_deficit, rel=1e-2)


def test_06_cw_visual_deficit_geometric(cw35_body):
    """(64/9) * integral of the constant-width kernel equals the sharpened deficit."""
    with criterion(6, "constant-width visual-angle bound, geometric path (1%)"):
        fs = functionals_spectral(cw35_body)
        lhs = (4.0 / 9.0) * PI * abs(fs.Fe) - fs.Delta
        # (2 pi^2 / 9) * 384 * 0.0001, only c3 and c5 present
        assert lhs == pytest.approx(0.0085333333333333 * PI**2, rel=1e-10)
        res = exterior_integral(cw35_body, visual_deficit_cw_kernel())
        rhs = (64.0 / 9.0) * res.value
        assert rhs == pytest.approx(0.0085333333333333 * PI**2, rel=1e-2)
        assert rhs == pytest.approx(lhs, rel=1e-2)


def test_07_pedal_and_steiner_disk(delt_body, mix_body):
    """Pedal/Steiner-disk bounds: equalities on the Steiner parallel, strict on MIX."""
    with criterion(7, "pedal and Steiner-disk bounds: equalities and strict cases"):
        v = verify(delt_body, TheoremId.PEDAL_CW)
        assert v.lhs == pytest.approx(0.2 * PI**2, rel=1e-12)
        assert v.rhs == pytest.approx(0.2 * PI**2, rel=1e-12)
        fs = functionals_spectral(delt_body)
        assert abs(fs.Fe) == pytest.approx(0.36 * PI, rel=1e-12)
        assert 36.0 * fs.delta2_sq == pytest.approx(0.36 * PI, rel=1e-12)
        assert abs(abs(fs.Fe) - 36.0 * fs.delta2_sq) <= 1e-12 * PI
        # MIX: lhs = 0.1008 pi^2; pedal rhs = (20/9) pi^2 * 25 * 0.0004,
        # Steiner-disk rhs = 20 pi^2 * 0.0004
        v71 = verify(mix_body, TheoremId.PEDAL)
        v73 = verify(mix_body, TheoremId.STEINER_DISK)
        assert v71.lhs == pytest.approx(0.1008 * PI**2, rel=1e-12)
        assert v71.rhs == pytest.approx((20.0 / 9.0) * 0.01 * PI**2, rel=1e-12)
        assert v73.rhs == pytest.approx(0.008 * PI**2, rel=1e-12)
        assert v71.residual > 1e-3 and v73.residual > 1e-3


def test_08_equality_classification(circle_body, ast_body, delt_body, cw35_body, mix_body):
    """Documented classes for the six fixtures; flags match the class prediction."""
    with criterion(8, "equality classification and flag consistency on all fixtures"):
        sum_body = minkowski_sum(ast_body, delt_body)
        expected_classes = {
            "circle": (circle_body, "disk", ()),
            "ast": (ast_body, "astroid_parallel", ()),
            "delt": (delt_body, "steiner_parallel", ()),
            "cw35": (cw35_body, "minkowski_sum", ("steiner_parallel", "hypocycloid5_parallel")),
            "sum": (sum_body, "minkowski_sum", ("astroid_parallel", "steiner_parallel")),
            "mix": (mix_body, "none", ()),
        }
        for name, (body, kind, comps) in expected_classes.items():
            cls = classify_equality(body)
            assert cls.kind == kind, (name, cls)
            if comps:
                assert cls.components == comps
            report = run_suite(body)
            cw, _ = is_constant_width(body)
            for v in report.verdicts:
                if not v.applicable or v.id == TheoremId.WIGNER_PEDAL:
                    continue
                assert v.equality == expected_equality(v.id, cls.support, cw), (name, v.id)


def test_09_geometry_oracles(ast_body, delt_body, circle_body):
    """Shoelace areas against F and A; hypocycloid area; evolute of a circle."""
    with criterion(9, "polyline oracles: areas to 1e-6, astroid 6 pi, point evolute"):
        for body in (ast_body, delt_body):
            fs = functionals_spectral(body)
            b_area = abs(shoelace_area(sample_curve(body, "boundary", 4096)))
            p_area = abs(shoelace_area(sample_curve(body, "pedal", 4096)))
            assert b_area == pytest.approx(fs.F, rel=1e-6)
            assert p_area == pytest.approx(fs.A, rel=1e-6)
        poly = sample_hypocycloid(HypocycloidSpec(m=4, n=1, r=1.0), 4096)
        assert abs(shoelace_area(poly)) == pytest.approx(6 * PI, abs=1e-3)
        ev = sample_curve(circle_body, "evolute", 256)
        assert float(np.max(np.abs(ev.vertices))) <= 1e-12


def test_10_jacobian_gate(mix_body, circle_body, ast_body, delt_body, cw35_body):
    """Analytic area element vs finite differences; tangent vs polar methods."""
    with criterion(10, "jacobian gate (1000 points, 1e-6) and method agreement"):
        rng = np.random.default_rng(2024)
        h = 1e-6
        for _ in range(1000):
            phi1 = rng.uniform(0.0, 2.0 * PI)
            delta = rng.uniform(0.05, PI - 0.05)
            _, jac, _ = exterior_point(mix_body, phi1, delta)
            pp = exterior_point(mix_body, phi1 + h, delta)[0]
            pm = exterior_point(mix_body, phi1 - h, delta)[0]
            dp = exterior_point(mix_body, phi1, delta + h)[0]
            dm = exterior_point(mix_body, phi1, delta - h)[0]
            u = (pp - pm) / (2 * h)
            v = (dp - dm) / (2 * h)
            fd = abs(u[0] * v[1] - u[1] * v[0])
            assert abs(fd - jac) <= 1e-6 * jac
        cfg = ExteriorConfig(nodes_phi=96)
        cases = [
            (circle_body, crofton_kernel()),
            (circle_body, moment_kernel(3)),
            (ast_body, sin_cubed_kernel()),
            (ast_body, moment_kernel(2)),
            (delt_body, visual_deficit_kernel()),
            (cw35_body, visual_deficit_cw_kernel()),
        ]
        for body, kernel in cases:
            tan = exterior_integral(body, kernel, cfg)
            pol = exterior_integral_grid(body, kernel, cfg)
            assert abs(tan.value - pol.value) <= tan.error_bar + pol.error_bar, kernel.name


def test_11_wigner_checks(sweep_bodies, ast_body, mix_body):
    """Wigner caustic: sharp deficit bound, strictness off constant width,
    and the pedal-side residual reported as a convention discrepancy."""
    with criterion(11, "Wigner caustic identities and the flagged discrepancy"):
        for body in sweep_bodies:
            fs = functionals_spectral(body)
            scale = max(fs.L**2, 1.0)
            if is_constant_width(body)[0]:
                assert abs(fs.Delta - 4 * PI * abs(fs.Aw)) <= 1e-12 * scale
            assert fs.AmF >= abs(fs.Aw) - 1e-12 * scale
        for body in (ast_body, mix_body):
            fs = functionals_spectral(body)
            assert fs.Delta - 4 * PI * abs(fs.Aw) > 1e-6
        # constant-width residual of the pedal-side bound, and its flag
        cw_bodies = [b for b in sweep_bodies if is_constant_width(b)[0]][:20]
        for body in cw_bodies:
            fs = functionals_spectral(body)
            predicted = 0.5 * PI * math.fsum(
                v for n, v in fs.cn_sq if n >= 3 and n % 2 == 1
            )
            residual = fs.AmF - abs(fs.Aw)
            assert residual == pytest.approx(predicted, rel=1e-10, abs=1e-13)
            v = verify(body, TheoremId.WIGNER_PEDAL)
            assert "discrepancy" in v.notes
            assert v.residual >= -1e-12
