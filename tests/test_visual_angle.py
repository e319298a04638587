import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import (
    CircleSpec,
    ExteriorConfig,
    Kernel,
    construct,
    crofton_kernel,
    eval_support,
    exterior_integral,
    exterior_integral_grid,
    exterior_point,
    functionals_spectral,
    moment_kernel,
    random_body,
    recenter_to_steiner,
    rigid_motion,
    sin_cubed_kernel,
    support_line_angles,
    visual_deficit_cw_kernel,
    visual_deficit_kernel,
    visual_moment,
)
from hurwitzlab import visual_angle
from hurwitzlab.bodies import _eval, boundary_point
from hurwitzlab.errors import (
    BadOrder,
    BoundaryCollar,
    DegenerateGap,
    InteriorPoint,
    NonIntegrableKernel,
    NotValidated,
)
from hurwitzlab.quadrature import gauss_panels
from hurwitzlab.visual_angle import (
    KERNELS,
    _corners,
    _gap_mass,
    _polar_field,
    _radial_boundary,
    _tangent_angles,
    _tangent_field,
)

from .test_bodies import convex_bodies

PI = math.pi
TWO_PI = 2.0 * math.pi


class TestKernels:
    def test_moment2_is_sin_cubed(self):
        # sin^3 w = (3 sin w - sin 3w)/4, so the order-2 moment kernel is
        # exactly (4/3) sin^3 w
        om = np.linspace(1e-9, PI - 1e-9, 2001)
        k2 = moment_kernel(2)
        assert np.max(np.abs(k2(om) - (4.0 / 3.0) * np.sin(om) ** 3)) < 1e-14

    def test_cw_kernel_combination(self):
        # crofton + (1/2) moment_3 - (9/64)(16/3) moment_2, pointwise
        om = np.linspace(1e-9, PI - 1e-9, 2001)
        combo = (
            crofton_kernel()(om)
            + 0.5 * moment_kernel(3)(om)
            - (9.0 / 64.0) * (16.0 / 3.0) * moment_kernel(2)(om)
        )
        assert np.max(np.abs(visual_deficit_cw_kernel()(om) - combo)) < 1e-14

    def test_cubic_behaviour_at_zero(self):
        for maker in (crofton_kernel, sin_cubed_kernel, visual_deficit_kernel,
                      visual_deficit_cw_kernel):
            k = maker()
            k.check_integrable()
            # f(w)/w^3 must stay bounded as w -> 0
            ratios = [abs(k(w)) / w**3 for w in (1e-1, 1e-2, 1e-3)]
            assert max(ratios) < 10 * (min(ratios) + 1e-9)
        for n in range(2, 9):
            moment_kernel(n).check_integrable()

    def test_series_matches_direct_near_cutoff(self):
        k = visual_deficit_cw_kernel()
        for w in (0.2499, 0.2501, 0.1, 0.01):
            direct = (
                w - 2 * math.sin(w) + math.sin(2 * w)
                - 0.25 * math.sin(4 * w) - math.sin(w) ** 3
            )
            assert k(w) == pytest.approx(direct, rel=1e-10, abs=1e-18)

    def test_non_integrable_rejected(self, circle_body):
        bad = Kernel("sin", 0.0, ((1, 1.0),))
        with pytest.raises(NonIntegrableKernel):
            exterior_integral(circle_body, bad)

    def test_bad_moment_order(self):
        with pytest.raises(BadOrder):
            moment_kernel(1)


class TestSupportLineAngles:
    def test_circle_from_axis_point(self, circle_body):
        # tangents from (2, 0) to the unit circle touch at normal angles
        # +-pi/3; the visual angle is 2*arcsin(1/2) = pi/3
        tp = support_line_angles(circle_body, (2.0, 0.0))
        assert sorted((tp.phi1, tp.phi2)) == pytest.approx([PI / 3, 5 * PI / 3], abs=1e-12)
        assert tp.omega == pytest.approx(PI / 3, abs=1e-12)
        assert tp.t1 == pytest.approx(math.sqrt(3), abs=1e-12)
        assert tp.t2 == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_rotation_invariance(self, circle_body):
        tp = support_line_angles(circle_body, (math.sqrt(2), math.sqrt(2)))
        assert tp.omega == pytest.approx(PI / 3, abs=1e-12)

    def test_interior_point(self, circle_body):
        with pytest.raises(InteriorPoint):
            support_line_angles(circle_body, (0.5, 0.0))

    def test_boundary_collar(self, circle_body):
        with pytest.raises(BoundaryCollar):
            support_line_angles(circle_body, (1.0 + 1e-12, 0.0))

    def test_omega_formula_along_distances(self, circle_body):
        for d in (1.01, 1.5, 3.0, 10.0, 100.0):
            tp = support_line_angles(circle_body, (d * math.cos(0.7), d * math.sin(0.7)))
            assert tp.omega == pytest.approx(2 * math.asin(1.0 / d), abs=1e-12)

    def test_support_lines_pass_through_point(self, mix_body):
        from hurwitzlab import eval_support

        for ang in np.linspace(0, TWO_PI, 7):
            point = np.array([2.5 * math.cos(ang), 2.5 * math.sin(ang)])
            tp = support_line_angles(mix_body, point)
            for phi in (tp.phi1, tp.phi2):
                g = point[0] * math.cos(phi) + point[1] * math.sin(phi) - eval_support(mix_body, phi)
                assert abs(g) <= 1e-12 * mix_body.a0 * (1 + np.hypot(*point))

    def test_requires_validation(self):
        from hurwitzlab import TrigSupport

        with pytest.raises(NotValidated):
            support_line_angles(TrigSupport(1.0), (2.0, 0.0))

    @pytest.mark.parametrize("phi", np.linspace(0.1, TWO_PI + 0.1, 8, endpoint=False))
    def test_interior_and_collar_on_mix(self, mix_body, phi):
        # P = gamma(phi) + s*N(phi) clears the boundary by s; the collar is 1e-9*a0
        normal = np.array([math.cos(phi), math.sin(phi)])
        edge = boundary_point(mix_body, phi)
        for s in (1e-12, 1e-6, 1e-2):
            with pytest.raises(InteriorPoint):
                support_line_angles(mix_body, edge - s * normal)
        for s in (1e-11, 5e-10):
            with pytest.raises(BoundaryCollar):
                support_line_angles(mix_body, edge + s * normal)
        for s in (1e-3, 0.1, 1.0):
            tp = support_line_angles(mix_body, edge + s * normal)
            assert 0.0 < tp.omega < PI

    @pytest.mark.parametrize(
        "name, clearance, picks",
        [
            ("circle", 1e-8, [361, 389, 717, 1420, 1455, 1564, 1762, 1785]),
            ("circle", 2e-9, [201, 664, 727, 746, 1061, 1215, 1342, 1350]),
            ("mix", 3e-9, [361, 400, 403, 439, 462, 1215, 1420, 1701]),
        ]
        + [
            (name, clearance, slice(50))
            for name in ("circle", "mix", "random8")
            for clearance in (1e-4, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 3e-9, 2e-9, 5e-10)
        ],
    )
    def test_clearance_above_collar_is_not_rejected(self, name, clearance, picks, request):
        # The first three cases clear the boundary by 2-10x the collar, 1e-9*a0,
        # but their grid maximum of g lies below it; the grid maximum used to be
        # polished only below 1e-13*(|P| + a0), so each raised a false
        # BoundaryCollar.  From a clearance of about 3e-6*a0 down, the positive
        # arc of g fits between two scan angles for most directions, so the
        # polished maximum has to bracket the roots.  Below the collar every
        # point is rejected.
        body = random_body(3, 8, index=2) if name == "random8" else request.getfixturevalue(f"{name}_body")
        phis = np.random.default_rng(0).uniform(0.0, TWO_PI, 2000)[picks]
        points = _exterior_points(body, phis, np.full(phis.size, clearance * body.a0))
        if clearance < 1e-9:
            for point in points:
                with pytest.raises(BoundaryCollar):
                    support_line_angles(body, point)
            return
        # about 8 one-point solves per case keep the 50-direction cases fast
        _check_batch(body, points, every=len(points) // 8)
        if name == "circle":
            _, _, omega = _tangent_angles(body, points)
            assert omega == pytest.approx(2.0 * math.asin(1.0 / (1.0 + clearance)), abs=1e-8)


def _exterior_points(body, phis, gaps):
    """gamma(phi) + s*N(phi): points that clear the boundary by s."""
    phis = np.asarray(phis, dtype=float)
    normals = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    return boundary_point(body, phis) + np.asarray(gaps)[:, None] * normals


def _check_batch(body, points, every=1):
    """Roots, sign pattern and gap of the batched solve, and bit equality
    with the one-point solve of support_line_angles on every `every`-th point."""
    phi1, phi2, omega = _tangent_angles(body, points)
    delta = PI - omega
    tol = 1e-13 * (np.hypot(points[:, 0], points[:, 1]) + body.a0)
    for phi in (phi1, phi2):
        g = points[:, 0] * np.cos(phi) + points[:, 1] * np.sin(phi) - eval_support(body, phi)
        assert np.all(np.abs(g) <= tol)
    mid = phi1 + 0.5 * delta
    assert np.all(points[:, 0] * np.cos(mid) + points[:, 1] * np.sin(mid) > eval_support(body, mid))
    assert np.all((0.0 < delta) & (delta < PI))
    for i in range(0, len(points), every):
        tp = support_line_angles(body, points[i])
        assert (tp.phi1, tp.phi2, tp.omega) == (phi1[i], phi2[i], omega[i])
    return phi1, delta


class TestBatchedTangents:
    @given(
        convex_bodies(max_degree=8),
        st.lists(st.tuples(st.floats(0.0, TWO_PI), st.floats(-5.0, 2.0)), min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_single_points(self, body, draws):
        # clearances from the polar oracle's collar, 1e-5*a0, out to 100*a0
        phis = [phi for phi, _ in draws]
        gaps = [body.a0 * 10.0**u for _, u in draws]
        _check_batch(body, _exterior_points(body, phis, gaps))

    @given(
        convex_bodies(max_degree=8),
        st.lists(st.tuples(st.floats(0.0, TWO_PI), st.floats(-5.0, 2.0)), min_size=2, max_size=12),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_concatenation_solves_like_its_parts(self, body, draws, data):
        # the polar oracle relies on this: grouping points into blocks moves no bit
        points = _exterior_points(body, [phi for phi, _ in draws], [body.a0 * 10.0**u for _, u in draws])
        cut = data.draw(st.integers(1, len(draws) - 1))
        whole = _tangent_angles(body, points)
        for got, head, tail in zip(whole, _tangent_angles(body, points[:cut]), _tangent_angles(body, points[cut:])):
            assert np.array_equal(got, np.concatenate([head, tail]))

    def test_scan_doubling_near_mix_boundary(self, mix_body):
        # each positive arc lies inside one cell of the 64-angle scan, so the
        # scan sees no sign change and the polished maximum of g brackets the roots
        h = TWO_PI / 64
        phis = (np.arange(0, 64, 5) + 0.5) * h
        points = _exterior_points(mix_body, phis, np.full(phis.size, 1e-4))
        phi1, delta = _check_batch(mix_body, points)
        assert np.all(np.floor(phi1 / h) == np.floor((phi1 + delta) / h))


def _reference_radial(body, theta):
    """min of p(phi)/cos(theta - phi) over the half-turn window: 4097 samples, then two zooms."""
    lo, hi = theta - PI / 2 + 1e-6, theta + PI / 2 - 1e-6
    for _ in range(3):
        phis = np.linspace(lo, hi, 4097)
        vals = eval_support(body, phis) / np.cos(theta - phis)
        i = int(np.argmin(vals))
        lo, hi = phis[max(i - 1, 0)], phis[min(i + 1, phis.size - 1)]
    return float(vals[i])


class TestRadialBoundary:
    def test_centred_circle(self):
        thetas = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        rb, _ = _radial_boundary(construct(CircleSpec(2.5)), thetas)
        assert rb == pytest.approx(np.full(16, 2.5), rel=1e-15)

    @pytest.mark.parametrize("name", ["ast_body", "mix_body"])
    def test_hits_boundary_along_the_ray(self, name, request):
        body = request.getfixturevalue(name)
        thetas = np.linspace(0.0, TWO_PI, 24, endpoint=False) + 0.05
        rb, phi = _radial_boundary(body, thetas)
        hit = boundary_point(body, phi)
        ray = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        assert np.all(np.abs(hit[:, 0] * ray[:, 1] - hit[:, 1] * ray[:, 0]) <= 1e-12 * body.a0)
        assert np.all(np.abs(np.sum(hit * ray, axis=1) - rb) <= 1e-12 * body.a0)
        ref = [_reference_radial(body, t) for t in thetas]
        assert np.all(np.abs(rb - ref) <= 1e-12 * body.a0)


class TestExteriorPoint:
    def test_circle_example(self, circle_body):
        point, jac, omega = exterior_point(circle_body, -PI / 3, 2 * PI / 3)
        assert point == pytest.approx([2.0, 0.0], abs=1e-12)
        assert omega == pytest.approx(PI / 3)
        # jac = t1 t2 / sin(omega) = 3 / sin(pi/3)
        assert jac == pytest.approx(2 * math.sqrt(3), rel=1e-12)

    def test_degenerate_gap(self, circle_body):
        with pytest.raises(DegenerateGap):
            exterior_point(circle_body, 0.0, PI)
        with pytest.raises(DegenerateGap):
            exterior_point(circle_body, 0.0, 0.0)

    def test_kernel_times_jacobian_bounded_toward_pi(self, delt_body):
        # along delta -> pi the area element blows up like omega^-3 but the
        # kernel decays like omega^3; the product tends to a finite limit
        k = crofton_kernel()
        vals = []
        for delta in PI - np.geomspace(1e-6, 0.5, 12):
            _, jac, omega = exterior_point(delt_body, 0.3, delta)
            vals.append(k(omega) * jac)
        vals = np.array(vals)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 10.0
        # the sequence converges: the last two values nearly agree
        assert abs(vals[0] - vals[1]) < 1e-4 * max(1.0, abs(vals[0]))

    def test_annulus_area_oracle(self, circle_body):
        # integrating jac over phi1 x (0, dmax) must give the area of the
        # annulus 1 < |P| < sec(dmax/2), i.e. pi tan^2(dmax/2)
        from hurwitzlab.quadrature import gauss_panels

        dmax = 2.0
        nodes, weights = gauss_panels(np.linspace(1e-9, dmax, 40), points=16)
        total = 0.0
        for d, w in zip(nodes, weights):
            _, jac, _ = exterior_point(circle_body, 0.123, d)
            total += w * TWO_PI * jac  # circular symmetry in phi1
        assert total == pytest.approx(PI * math.tan(dmax / 2) ** 2, rel=1e-10)

    def test_jacobian_matches_finite_differences(self, mix_body):
        # spot check here; the full 1000-point gate runs in acceptance
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(60):
            phi1 = rng.uniform(0, TWO_PI)
            delta = rng.uniform(0.05, PI - 0.05)
            _, jac, _ = exterior_point(mix_body, phi1, delta)
            pp = exterior_point(mix_body, phi1 + h, delta)[0]
            pm = exterior_point(mix_body, phi1 - h, delta)[0]
            dp = exterior_point(mix_body, phi1, delta + h)[0]
            dm = exterior_point(mix_body, phi1, delta - h)[0]
            u = (pp - pm) / (2 * h)
            v = (dp - dm) / (2 * h)
            assert abs(u[0] * v[1] - u[1] * v[0]) == pytest.approx(jac, rel=1e-6)


def _reference_corners(body, phi1, deltas):
    """Per-gap corner solve, one gap at a time: the reference for the block form."""
    c1, s1 = np.cos(phi1), np.sin(phi1)
    p1, dp1 = _eval(body, phi1, 0), _eval(body, phi1, 1)
    for d in deltas:
        phi2 = phi1 + d
        c2, s2 = np.cos(phi2), np.sin(phi2)
        sd = math.sin(d)
        p2 = _eval(body, phi2, 0)
        px = (p1 * s2 - p2 * s1) / sd
        py = (p2 * c1 - p1 * c2) / sd
        yield px, py, -px * s1 + py * c1 - dp1, -px * s2 + py * c2 - _eval(body, phi2, 1)


def _reference_gap_mass(body, deltas, nodes_phi):
    phi1 = np.linspace(0.0, TWO_PI, nodes_phi, endpoint=False)
    return np.array([
        TWO_PI / nodes_phi * math.fsum(np.abs(u1 * u2).tolist()) / math.sin(d)
        for d, (_, _, u1, u2) in zip(deltas, _reference_corners(body, phi1, deltas))
    ])


def _reference_exterior_point(body, phi1, delta):
    px, py, u1, u2 = next(_reference_corners(body, phi1, (delta,)))
    return np.array([px, py]), float(abs(u1 * u2)) / math.sin(delta), PI - delta


@pytest.fixture(scope="module", params=["circle", "mix", "random8", "random64"])
def field_body(request):
    if request.param.startswith("random"):
        return random_body(5, degree=int(request.param[6:]))
    return request.getfixturevalue(f"{request.param}_body")


class TestTangentField:
    @pytest.mark.parametrize("nodes_phi", [16, 96, 100, 256])
    def test_block_gap_mass_equals_per_gap_loop(self, field_body, nodes_phi):
        rows = max(1, visual_angle._BLOCK_ENTRIES // nodes_phi)
        rng = np.random.default_rng(nodes_phi)
        gaps = np.concatenate([[1e-4, PI - 1e-9], rng.uniform(1e-4, PI, 2 * rows + 1)])
        assert gaps.size % rows != 0
        block = _gap_mass(field_body, gaps, nodes_phi)
        assert np.array_equal(block, _reference_gap_mass(field_body, gaps, nodes_phi))

    def test_block_corners_keep_row_order(self, mix_body):
        phi1 = np.linspace(0.0, TWO_PI, 40, endpoint=False)
        gaps = np.linspace(0.1, 3.0, 7)
        for got, want in zip(_corners(mix_body, phi1, gaps), zip(*_reference_corners(mix_body, phi1, gaps))):
            assert np.array_equal(got, np.array(want))

    def test_exterior_point_unchanged_on_mix(self, mix_body):
        rng = np.random.default_rng(7)
        for phi1, delta in zip(rng.uniform(0.0, TWO_PI, 50), rng.uniform(1e-6, PI, 50)):
            point, jac, omega = exterior_point(mix_body, float(phi1), float(delta))
            ref_point, ref_jac, ref_omega = _reference_exterior_point(mix_body, float(phi1), float(delta))
            assert np.array_equal(point, ref_point)
            assert (jac, omega) == (ref_jac, ref_omega)

    def test_kernels_share_one_field(self, monkeypatch):
        # fine level, coarse level and collar row: 3 calls for all 4 kernels
        calls = []
        monkeypatch.setattr(visual_angle, "_gap_mass", lambda *args: calls.append(args) or _gap_mass(*args))
        _tangent_field.cache_clear()
        body, cfg = construct(CircleSpec(1.37)), ExteriorConfig(nodes_phi=32, nodes_delta=32)
        for make in KERNELS.values():
            exterior_integral(body, make(), cfg)
        assert len(calls) == 3

    def test_field_cache_is_bounded(self):
        cfg = ExteriorConfig(nodes_phi=16, nodes_delta=16)
        for i in range(10):
            body = construct(CircleSpec(1.0 + 0.1 * i))
            exterior_integral(body, crofton_kernel(), cfg)
        assert _tangent_field.cache_info().currsize <= 8


class TestExteriorIntegral:
    def test_crofton_circle(self, circle_body):
        # L^2/2 - pi F = pi^2 for the unit circle
        res = exterior_integral(circle_body, crofton_kernel())
        assert res.value == pytest.approx(PI**2, rel=5e-3)
        assert res.method == "tangent_coords"
        assert abs(res.value - PI**2) <= max(res.error_bar, 1e-7)

    def test_visual_deficit_delt(self, delt_body):
        # spectral identity: integral = -pi F - (3/2) pi^2 c2^2 = -0.96 pi^2
        res = exterior_integral(delt_body, visual_deficit_kernel())
        assert res.value == pytest.approx(-0.96 * PI**2, rel=5e-3)

    def test_cw_kernel_cw35(self, cw35_body):
        # (9/64) * ((4/9) pi |Fe| - Delta) = 0.0012 pi^2
        res = exterior_integral(cw35_body, visual_deficit_cw_kernel())
        assert res.value == pytest.approx(0.0012 * PI**2, rel=5e-3)

    def test_w3_identity_property(self, sweep_bodies):
        # (4/3) int sin^3(omega) dP = L^2 + 3 pi^2 c2^2 for every body
        for body in sweep_bodies[:6]:
            fs = functionals_spectral(body)
            expect = fs.L**2 + 3 * PI**2 * fs.cn_sq_map().get(2, 0.0)
            res = exterior_integral(body, sin_cubed_kernel())
            assert (4.0 / 3.0) * res.value == pytest.approx(expect, rel=1e-6)

    def test_requires_validation(self):
        from hurwitzlab import TrigSupport

        with pytest.raises(NotValidated):
            exterior_integral(TrigSupport(1.0), crofton_kernel())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExteriorConfig(nodes_phi=4)
        for nodes in ({"nodes_phi": 2**20 + 1}, {"nodes_delta": 2**20 + 1}):
            with pytest.raises(ValueError):
                ExteriorConfig(**nodes)
        assert ExteriorConfig(nodes_phi=2**20, nodes_delta=2**20).nodes_delta == 2**20
        with pytest.raises(ValueError):
            ExteriorConfig(delta_min=1.0)
        with pytest.raises(TypeError):
            ExteriorConfig(method="magic")

    @pytest.mark.parametrize("r_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_max_rejected(self, r_max):
        # the polar cutoff is fixed at 40*a0; r_max is no field
        with pytest.raises(TypeError):
            ExteriorConfig(r_max=r_max)


class TestVisualMoment:
    def test_ast_order2(self, ast_body):
        # L^2 + pi^2 * 3 * c2^2 = (4 + 0.12) pi^2
        numeric, spectral = visual_moment(ast_body, 2)
        assert spectral == pytest.approx(4.12 * PI**2, rel=1e-14)
        assert numeric == pytest.approx(spectral, rel=5e-3)

    def test_delt_order3(self, delt_body):
        # sign flips for odd order: L^2 - pi^2 * 8 * c3^2 = 3.92 pi^2
        numeric, spectral = visual_moment(delt_body, 3)
        assert spectral == pytest.approx(3.92 * PI**2, rel=1e-14)
        assert numeric == pytest.approx(spectral, rel=5e-3)

    def test_circle_any_order(self, circle_body):
        for n in (2, 3, 5):
            numeric, spectral = visual_moment(circle_body, n)
            assert spectral == pytest.approx(4 * PI**2, rel=1e-15)
            assert numeric == pytest.approx(4 * PI**2, rel=5e-3)

    def test_bad_order(self, circle_body):
        with pytest.raises(BadOrder):
            visual_moment(circle_body, 1)

    @given(convex_bodies(max_degree=5), st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_dual_paths_agree(self, body, n):
        numeric, spectral = visual_moment(body, n)
        assert numeric == pytest.approx(spectral, rel=1e-5)


class TestPolarOracle:
    def test_circle_crofton(self, circle_body):
        cfg = ExteriorConfig(nodes_phi=96)
        res = exterior_integral_grid(circle_body, crofton_kernel(), cfg)
        assert res.value == pytest.approx(PI**2, rel=1e-2)
        assert res.method == "polar_grid"

    def test_ast_sin_cubed(self, ast_body):
        # (3/4)(L^2 + 3 pi^2 c2^2) = 3.09 pi^2
        cfg = ExteriorConfig(nodes_phi=96)
        res = exterior_integral_grid(ast_body, sin_cubed_kernel(), cfg)
        assert res.value == pytest.approx(3.09 * PI**2, rel=1e-2)

    def test_circle_moment3(self, circle_body):
        cfg = ExteriorConfig(nodes_phi=96)
        res = exterior_integral_grid(circle_body, moment_kernel(3), cfg)
        assert res.value == pytest.approx(4 * PI**2, rel=1e-2)

    def test_methods_agree_within_bars(self, delt_body):
        cfg = ExteriorConfig(nodes_phi=96)
        for kernel in (crofton_kernel(), visual_deficit_kernel()):
            tan = exterior_integral(delt_body, kernel, cfg)
            pol = exterior_integral_grid(delt_body, kernel, cfg)
            assert abs(tan.value - pol.value) <= tan.error_bar + pol.error_bar

    def test_field_cache_is_bounded(self):
        cfg = ExteriorConfig(nodes_phi=16)
        for i in range(10):
            body = construct(CircleSpec(1.0 + 0.1 * i))
            exterior_integral_grid(body, crofton_kernel(), cfg)
        assert _polar_field.cache_info().currsize <= 8


def _reference_polar_field(body, cfg):
    """Per-direction loop, one tangent solve per theta: the reference for the block form."""
    centered = recenter_to_steiner(body)
    a0 = centered.a0
    collar = 1e-5 * a0
    thetas = np.linspace(0.0, TWO_PI, cfg.nodes_phi, endpoint=False)
    w_theta = TWO_PI / cfg.nodes_phi
    rbs, _ = _radial_boundary(centered, thetas)
    r1 = 3.0 * float(np.max(rbs))
    far_nodes, far_w = gauss_panels(np.geomspace(r1, 40.0 * a0, visual_angle._POLAR_PANELS + 1), points=8)
    omegas, weights, ring_mass = [], [], 0.0
    for theta, rb in zip(thetas, rbs):
        u_edges = np.linspace(math.sqrt(collar), math.sqrt(r1 - rb), visual_angle._POLAR_PANELS + 1)
        u_nodes, u_w = gauss_panels(u_edges, points=8)
        rs = np.concatenate([rb + u_nodes**2, far_nodes])
        ws = np.concatenate([2.0 * u_nodes * u_w, far_w])
        omegas.append(_tangent_angles(centered, np.outer(rs, (math.cos(theta), math.sin(theta))))[2])
        weights.append(w_theta * ws * rs)
        ring_mass += w_theta * rb * collar
    return np.array(omegas), np.array(weights), far_nodes, ring_mass


@pytest.fixture(scope="module", params=["circle", "mix", "random8", "random33", "translated"])
def polar_body(request):
    if request.param == "translated":
        return rigid_motion(random_body(6, degree=8), 0.0, (40.0, -25.0))
    if request.param.startswith("random"):
        return random_body(5, degree=int(request.param[6:]))
    return request.getfixturevalue(f"{request.param}_body")


class TestPolarBlocks:
    # up to degree 8 a block holds 5 directions, so 16, 17 and 96 end on a partial block
    @pytest.mark.parametrize("nodes_phi", [16, 17, 96, 100])
    def test_block_field_equals_per_direction_loop(self, polar_body, nodes_phi):
        cfg = ExteriorConfig(nodes_phi=nodes_phi)
        got, want = _polar_field(polar_body, cfg), _reference_polar_field(polar_body, cfg)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        assert got[3:] == want[3:]

    def test_one_tangent_solve_per_block(self, mix_body, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            visual_angle, "_tangent_angles", lambda body, points: sizes.append(len(points)) or _tangent_angles(body, points)
        )
        _polar_field.__wrapped__(mix_body, ExteriorConfig(nodes_phi=96))
        # 96 radial nodes x 64 scan angles per direction: 19 blocks of 5 directions, then one of 1
        assert sizes == [5 * 96] * 19 + [96]
