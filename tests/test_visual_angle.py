import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzlab import (
    ExteriorConfig,
    Harmonic,
    IntegralResult,
    Kernel,
    TrigSupport,
    astroid_parallel,
    crofton_kernel,
    deltoid_parallel,
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
    spectral_integral,
    support_line_angles,
    validate_convex,
    visual_deficit_cw_kernel,
    visual_deficit_kernel,
)
from hurwitzlab import visual_angle
from hurwitzlab.bodies import _derivs, boundary_point
from hurwitzlab.errors import (
    BadOrder,
    BoundaryCollar,
    DegenerateGap,
    InteriorPoint,
    NonIntegrableKernel,
    NotValidated,
)
from hurwitzlab.quadrature import fast_len, gauss_panels
from hurwitzlab.visual_angle import (
    KERNELS,
    _g,
    _g_table,
    _gap_mass,
    _polar_field,
    _radial_boundary,
    _support_table,
    _tangent_angles,
    _tangent_field,
    _tangent_solve,
    _turn,
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
            # f(w)/w^3 must stay bounded as w -> 0
            ratios = [abs(k(w)) / w**3 for w in (1e-1, 1e-2, 1e-3)]
            assert max(ratios) < 10 * (min(ratios) + 1e-9)
        for n in range(2, 9):
            moment_kernel(n)  # builds, so it is integrable

    def test_series_matches_direct_near_cutoff(self):
        k = visual_deficit_cw_kernel()
        for w in (0.2499, 0.2501, 0.1, 0.01):
            direct = (
                w - 2 * math.sin(w) + math.sin(2 * w)
                - 0.25 * math.sin(4 * w) - math.sin(w) ** 3
            )
            assert k(w) == pytest.approx(direct, rel=1e-10, abs=1e-18)

    def test_array_call_matches_scalar_calls(self):
        # the series covers only the entries below the cutoff; a 2-D array
        # mixing both branches gives each entry the bits of its scalar call
        om = np.array([[0.0, 1e-9, 0.2499, 0.25], [0.2501, 1.0, PI - 1e-9, -0.1]])
        for maker in KERNELS.values():
            k = maker()
            got = k(om)
            assert got.shape == om.shape
            assert np.array_equal(got, [[k(float(w)) for w in row] for row in om])
            assert isinstance(k(np.float64(0.1)), float)

    def test_non_integrable_rejected(self, circle_body):
        with pytest.raises(NonIntegrableKernel):
            exterior_integral(circle_body, Kernel("sin", 0.0, ((1, 1.0),)))

    @pytest.mark.parametrize(
        "omega_coeff, sin_coeffs",
        [(math.nan, ()), (math.inf, ()), (0.0, ((1, math.inf), (3, -math.inf))), (0.0, ((1, math.nan),))],
    )
    def test_non_finite_coefficients_rejected(self, omega_coeff, sin_coeffs):
        # NaN passed the integrability check, which compares with >, and the
        # closed form then failed on the kernel; inf - inf failed inside it
        with pytest.raises(ValueError, match="finite"):
            Kernel("k", omega_coeff, sin_coeffs)

    def test_named_kernels_are_shared(self):
        for name, make in KERNELS.items():
            assert make() is make(), name

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

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0), (2.0,)], ids=["nan", "inf", "one_entry"])
    def test_invalid_point_rejected_before_any_solve(self, mix_body, point, monkeypatch):
        # these reached the solve and came back as RootCountAnomaly ("positive
        # arc has length nan"), InteriorPoint and IndexError
        monkeypatch.setattr(visual_angle, "_tangent_angles", lambda *args: pytest.fail("the point was solved"))
        with pytest.raises(ValueError, match="two finite coordinates"):
            support_line_angles(mix_body, point)

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

    @pytest.mark.parametrize("body", [astroid_parallel(1.0, 0.33), deltoid_parallel(1.0, 0.124)], ids=["ast", "delt"])
    def test_collar_on_near_degenerate_bodies(self, body):
        # rho_min is 0.01*a0 and 0.008*a0; along every normal g(phi_b) stays
        # close enough to the clearance that 2x the collar is solved and half
        # the collar is rejected
        phis = np.linspace(0.0, TWO_PI, 4000, endpoint=False)
        _check_batch(body, _exterior_points(body, phis, np.full(phis.size, 2e-9 * body.a0)), every=400)
        for point in _exterior_points(body, phis, np.full(phis.size, 5e-10 * body.a0)):
            with pytest.raises(BoundaryCollar):
                support_line_angles(body, point)

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
        # BoundaryCollar tests g(phi_b), a lower bound on the clearance, against
        # the collar, 1e-9*a0: at 2x the collar and above every point is solved.
        # The first three cases are directions where the largest sample of g on
        # a 64-angle grid lies below the collar, and from a clearance of about
        # 3e-6*a0 down the positive arc of g is shorter than that grid's spacing
        # for most directions.  Below the collar every point is rejected.
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


def _check_batch(body, points, every=1, table=None):
    """Roots, sign pattern and gap of the batched solve, and bit equality
    with the one-point solve on every `every`-th point: support_line_angles,
    or the same table's solve of that point alone."""
    phi1, phi2, omega = _tangent_angles(body, points, table)
    delta = PI - omega
    tol = 1e-13 * (np.hypot(points[:, 0], points[:, 1]) + body.a0)
    for phi in (phi1, phi2):
        g = points[:, 0] * np.cos(phi) + points[:, 1] * np.sin(phi) - eval_support(body, phi)
        assert np.all(np.abs(g) <= tol)
    mid = phi1 + 0.5 * delta
    assert np.all(points[:, 0] * np.cos(mid) + points[:, 1] * np.sin(mid) > eval_support(body, mid))
    assert np.all((0.0 < delta) & (delta < PI))
    for i in range(0, len(points), every):
        if table is None:
            tp = support_line_angles(body, points[i])
            one = (tp.phi1, tp.phi2, tp.omega)
        else:
            one = tuple(float(v[0]) for v in _tangent_angles(body, points[i : i + 1], table))
        assert one == (phi1[i], phi2[i], omega[i])
    return phi1, delta


@given(
    st.floats(-4.0 * PI, 4.0 * PI, exclude_max=True)
    | st.sampled_from([k * TWO_PI + d for k in (-2, -1, 0, 1, 2) for d in (-1e-15, -0.0, 0.0, 1e-15)])
    | st.sampled_from([5e-324, -5e-324, -1e-17, 1e-300])
)
@settings(max_examples=300, deadline=None)
def test_turn_reduces_as_remainder(x):
    # the tangent solve reads g at _turn(x) and returns _turn(x): bit for bit
    # x % TWO_PI on [-4*pi, 4*pi), with the neighbouring doubles of x
    xs = np.array([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    xs = xs[(-4.0 * PI <= xs) & (xs < 4.0 * PI)]
    assert np.array_equal(_turn(xs).view(np.int64), (xs % TWO_PI).view(np.int64))


def test_reduced_root_keeps_the_polish_bound():
    # a falsifying example of test_batch_matches_single_points when the polish
    # read g before the reduction mod 2*pi: |g| = 2.922e-12 at the reduced
    # root against tol = 2.917e-12, the round-off of the reduction carrying
    # |g| past the bound the polish met
    hs = (Harmonic(1, 0.0, -0.15625), Harmonic(3, 0.004384222169643162, 0.0))
    body = rigid_motion(validate_convex(TrigSupport(1.755859375, hs)), 0.0, np.zeros(2))
    _check_batch(body, _exterior_points(body, [4.5766374703241794], [body.a0 * 10.0**1.162109375]))


def _count_horner_polish(monkeypatch):
    """The sizes of the tangent solve's calls of Horner's g, as they are made."""
    sizes = []
    monkeypatch.setattr(visual_angle, "_g", lambda body, px, *args: sizes.append(np.size(px)) or _g(body, px, *args))
    return sizes


def _table(body):
    """The body's `_support_table`, built whatever its estimate."""
    return _support_table(body, math.inf)


def _table_values(body, phi):
    """H at the angles phi in [0, 2*pi), from the body's `_support_table`."""
    return -_g_table(_table(body), np.asarray(phi, dtype=float), 0.0, 0.0)[0]


@st.composite
def _translated_bodies(draw):
    body = draw(convex_bodies(max_degree=8))
    shift, heading = draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, TWO_PI))
    return rigid_motion(body, 0.0, shift * body.a0 * np.array([math.cos(heading), math.sin(heading)]))


@given(
    _translated_bodies() | st.builds(random_body, st.just(3), st.sampled_from([128, 1024])),
    st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=64),
)
@settings(max_examples=60, deadline=None)
def test_table_stays_within_its_error_estimate(body, phis):
    # the tangent solve takes |g_H| <= tol - E for |g| <= tol, g read by
    # Horner as eval_support reads it: E, an estimate, must hold at random angles
    _, _, estimate = _table(body)
    assert np.all(np.abs(eval_support(body, phis) - _table_values(body, phis)) <= estimate)


def test_table_estimate_leaves_the_polish_room():
    # E is no vacuous allowance: it leaves the polish most of tol
    # (>= 1e-13 * a0) up to degree 128, and the table's cells follow the body
    for degree, cells in ((0, 64), (8, 1024), (32, 4096), (128, 8192)):
        body = recenter_to_steiner(random_body(3, degree, index=1)) if degree else validate_convex(TrigSupport(1.0))
        rows, _, estimate = _table(body)
        assert rows.shape == (6, cells) and estimate <= 0.4e-13 * body.a0, degree


@pytest.mark.parametrize("degree", [128, 512, 1024])
def test_one_polar_block_keeps_the_contract(degree, monkeypatch):
    # the first block of the polar field at 96 directions, 42 rays of 96
    # nodes from the collar out, solved on the table with no Horner fallback
    body = recenter_to_steiner(random_body(3, degree, index=1))
    fallbacks = _count_horner_polish(monkeypatch)
    _, points, table = _reference_polar_field(body, ExteriorConfig(nodes_phi=96))
    fallbacks.clear()
    _check_batch(body, points[:42].reshape(-1, 2), every=997, table=table)
    assert table is not None and fallbacks == []


def test_roots_the_table_leaves_keep_the_contract(mix_body, monkeypatch):
    # mix translated by 1e3 * a0: near the origin tol = 1e-13 * (|P| + a0) lies
    # below the table's E, about 1e-15 * 1e3 * a0, so those roots are finished
    # on Horner's g; the points near the body meet tol - E in the same batch
    body = rigid_motion(mix_body, 0.0, (1e3, 0.0))
    near_origin = np.array([[0.5, 0.3], [-2.0, 1.0], [3.0, -40.0]])
    points = np.vstack([near_origin, _exterior_points(body, np.linspace(0.0, TWO_PI, 9), np.full(9, 0.01))])
    table = _table(body)
    tol = 1e-13 * (np.hypot(points[:, 0], points[:, 1]) + body.a0)
    assert np.all((tol <= table[2]) == (np.arange(len(points)) < 3))
    fallbacks = _count_horner_polish(monkeypatch)
    _check_batch(body, points, table=table)
    assert fallbacks and fallbacks[0] == 6


def test_table_wherever_its_estimate_leaves_room(monkeypatch):
    # a table is built whenever the least tol of its roots exceeds its E,
    # however few roots it serves: the polar field of degree 128 at 16
    # directions (8192 cells, 3072 roots) polishes no root on Horner's g
    body = recenter_to_steiner(random_body(3, 8, index=1))
    _, _, estimate = _table(body)
    assert _support_table(body, 2.0 * estimate) is not None and _support_table(body, estimate) is None
    fallbacks = _count_horner_polish(monkeypatch)
    _polar_field.__wrapped__(random_body(3, 128, index=1), ExteriorConfig(nodes_phi=16))
    assert fallbacks == []


class TestBatchedTangents:
    @given(
        convex_bodies(max_degree=8),
        st.lists(st.tuples(st.floats(0.0, TWO_PI), st.floats(-7.0, 6.0)), min_size=1, max_size=12),
        st.floats(0.0, 1e3),
        st.floats(0.0, TWO_PI),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_single_points(self, body, draws, shift, heading):
        # clearances from the polar oracle's collar, 1e-7*a0, out to 1e6*a0, on
        # the body translated by up to 1e3*a0
        body = rigid_motion(body, 0.0, shift * body.a0 * np.array([math.cos(heading), math.sin(heading)]))
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

    def test_arcs_shorter_than_2pi_over_64_are_resolved(self, mix_body):
        # at clearance 1e-4*a0 each positive arc of g lies inside one cell of a
        # 64-angle grid, so no sample of g on that grid is positive
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
        rb, _ = _radial_boundary(validate_convex(TrigSupport(2.5)), thetas)
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


def _reference_corners(phi1, deltas, p1, dp1, ends):
    """Per-gap corner solve, one gap at a time, from p and p' at phi1 and,
    by ends(d), at phi1 + d: the reference for the block form."""
    c1, s1 = np.cos(phi1), np.sin(phi1)
    for d in deltas:
        phi2 = phi1 + d
        c2, s2 = np.cos(phi2), np.sin(phi2)
        sd = math.sin(d)
        p2, dp2 = ends(d)
        px = (p1 * s2 - p2 * s1) / sd
        py = (p2 * c1 - p1 * c2) / sd
        yield px, py, -px * s1 + py * c1 - dp1, -px * s2 + py * c2 - dp2


def _mass_from_corners(deltas, nodes_phi, corners):
    return np.array([
        TWO_PI / nodes_phi * math.fsum(np.abs(u1 * u2).tolist()) / math.sin(d)
        for d, (_, _, u1, u2) in zip(deltas, corners)
    ])


def _reference_gap_mass(body, deltas, nodes_phi):
    """G at each gap from Horner values at the shifted angles, one gap at a time."""
    phi1 = np.linspace(0.0, TWO_PI, nodes_phi, endpoint=False)
    corners = _reference_corners(phi1, deltas, *_derivs(body, phi1, (0, 1)), lambda d: _derivs(body, phi1 + d, (0, 1)))
    return _mass_from_corners(deltas, nodes_phi, corners)


def _mp_gap_mass(body, delta):
    """G(delta) to 40 digits from the corner's definition: u1 = (p2 - p1 cos d)/sin d
    - p1' and u2 = (p2 cos d - p1)/sin d - p2' have the Fourier coefficients
    c_n ((e^{ind} - cos d)/sin d - in) and c_n ((e^{ind} cos d - 1)/sin d - in e^{ind}),
    and -u1*u2 >= 0 integrates over phi1 by Parseval; every trapezoid of
    m >= 2N + 1 nodes gives that integral."""
    import mpmath

    with mpmath.workdps(40):
        d = mpmath.mpf(float(delta))
        sd, cd = mpmath.sin(d), mpmath.cos(d)
        total = -((mpmath.mpf(body.a0) * (1 - cd) / sd) ** 2)
        for n, a, b in zip(body.n.tolist(), body.a.tolist(), body.b.tolist()):
            c, e = mpmath.mpc(a, -b), mpmath.expj(n * d)
            f1, f2 = c * ((e - cd) / sd - 1j * n), c * ((e * cd - 1) / sd - 1j * n * e)
            total += (f1 * mpmath.conj(f2)).real / 2
        return float(-2 * mpmath.pi * total / sd)


def _reference_exterior_point(body, phi1, delta):
    p1, dp1 = eval_support(body, phi1, 0), eval_support(body, phi1, 1)
    ends = lambda d: (eval_support(body, phi1 + d, 0), eval_support(body, phi1 + d, 1))  # noqa: E731
    px, py, u1, u2 = next(_reference_corners(phi1, (delta,), p1, dp1, ends))
    return np.array([px, py]), float(abs(u1 * u2)) / math.sin(delta), PI - delta


@pytest.fixture(scope="module", params=["circle", "mix", "random8", "random64", "one_harmonic"])
def field_body(request):
    if request.param == "one_harmonic":  # random-0-2-0-0, centred: its n = 2 term alone
        return recenter_to_steiner(random_body(0, 2, False, 0))
    if request.param.startswith("random"):
        return random_body(5, degree=int(request.param[6:]))
    return request.getfixturevalue(f"{request.param}_body")


def _three_call_field(body):
    """`_tangent_field` composed as one `_gap_mass` call per level and one
    for the collar row, each with its own blocks."""
    body = recenter_to_steiner(body)
    nodes_phi = fast_len(max(16, 2 * body.max_degree + 1))
    panels = (visual_angle._DELTA_PANELS, visual_angle._DELTA_PANELS // 2)
    gaps = [gauss_panels(visual_angle._delta_edges(n), points=16)[0] for n in panels]
    masses = tuple(_gap_mass(body, nodes, nodes_phi) for nodes in gaps)
    return masses, gaps[0].size * nodes_phi, float(_gap_mass(body, [visual_angle._DELTA_MIN], nodes_phi)[0])


def _inline_integral(body, kernel):
    """`exterior_integral` with the kernel evaluated inline on every call."""
    masses, nodes, collar_row = _tangent_field(body)
    rules = visual_angle._gap_rules()
    fine, coarse = (math.fsum((w * kernel(PI - x) * mass).tolist()) for (x, w), mass in zip(rules, masses))
    collar_err = visual_angle._DELTA_MIN * abs(kernel(PI - visual_angle._DELTA_MIN)) * collar_row
    err = abs(fine - coarse) + collar_err + 1e-14 * abs(fine)
    return IntegralResult(fine, err, "tangent_coords", nodes)


def _test_gaps(nodes_phi):
    rows = max(1, visual_angle._BLOCK_ENTRIES // nodes_phi)
    rng = np.random.default_rng(nodes_phi)
    gaps = np.concatenate([[1e-4, PI - 1e-9], rng.uniform(1e-4, PI, 2 * rows + 1)])
    assert gaps.size % rows != 0
    return gaps


def _spy_blocks(monkeypatch):
    """The gaps of each `_tangent_lengths` call, in call order."""
    blocks, tangent_lengths = [], visual_angle._tangent_lengths
    monkeypatch.setattr(
        visual_angle, "_tangent_lengths",
        lambda body, m, gaps: blocks.append(gaps.tolist()) or tangent_lengths(body, m, gaps),
    )
    return blocks


class TestTangentField:
    @pytest.mark.parametrize("nodes_phi", [16, 96, 100, 256])
    def test_block_gap_mass_equals_per_gap_loop(self, field_body, nodes_phi):
        # the blocks' rows are bit for bit each gap computed alone
        gaps = _test_gaps(nodes_phi)
        block = _gap_mass(field_body, gaps, nodes_phi)
        assert np.array_equal(block, np.concatenate([_gap_mass(field_body, [d], nodes_phi) for d in gaps]))

    @pytest.mark.parametrize("nodes_phi", [16, 96, 100, 256])
    def test_gap_mass_matches_horner(self, field_body, nodes_phi):
        # an independent evaluation, corners from Horner's p and p' one gap at
        # a time, to 1e-12 relative; below delta = 5e-4 its own round-off grows
        # like u/delta (corners of nearly parallel lines): at delta = 1e-4 it is
        # 2.2e-12 off a 40-digit G on mix, 16 nodes (the 40-digit test below)
        gaps = _test_gaps(nodes_phi)
        ref = _reference_gap_mass(field_body, gaps, nodes_phi)
        got = _gap_mass(field_body, gaps, nodes_phi)
        assert np.all(np.abs(got - ref) <= np.maximum(1e-12, 5e-16 / gaps) * np.abs(ref))

    @pytest.mark.parametrize("name", ["circle", "mix", "random8", "random64", "random200"])
    def test_gap_mass_matches_40_digits(self, request, name):
        # 1e-14 relative at every gap, on the field's own grid and on 8N + 1
        # nodes: the multipliers carry no cancellation, from delta = 1e-4 to
        # pi - 1e-9 (3.9e-16 seen; the corner form was 1.3e-12 off at 1e-4)
        if name.startswith("random"):
            body = recenter_to_steiner(random_body(5, degree=int(name[6:])))
        else:
            body = request.getfixturevalue(f"{name}_body")
        gaps = np.concatenate([[1e-4, 1e-3, 0.05, PI - 1e-4, PI - 1e-9], np.linspace(0.1, 3.0, 7)])
        ref = np.array([_mp_gap_mass(body, d) for d in gaps])
        for nodes_phi in (fast_len(max(16, 2 * body.max_degree + 1)), 8 * body.max_degree + 1):
            got = _gap_mass(body, gaps, nodes_phi)
            assert np.all(np.abs(got - ref) <= 1e-14 * ref), nodes_phi

    @pytest.mark.parametrize("nodes_phi", [16, 100, 1 << 14])
    def test_gap_mass_blocks_bound_memory(self, monkeypatch, nodes_phi):
        # no _tangent_lengths call covers more gaps than a block of
        # _BLOCK_ENTRIES entries holds, and together they cover every gap once
        body = random_body(5, degree=64)
        gaps = np.linspace(1e-3, 3.0, 2 * max(1, visual_angle._BLOCK_ENTRIES // nodes_phi) + 3)
        blocks = _spy_blocks(monkeypatch)
        _gap_mass(body, gaps, nodes_phi)
        assert max(map(len, blocks)) == max(1, visual_angle._BLOCK_ENTRIES // nodes_phi)
        assert sum(blocks, []) == gaps.tolist()

    def test_exterior_point_unchanged_on_mix(self, mix_body):
        rng = np.random.default_rng(7)
        for phi1, delta in zip(rng.uniform(0.0, TWO_PI, 50), rng.uniform(1e-6, PI, 50)):
            point, jac, omega = exterior_point(mix_body, float(phi1), float(delta))
            ref_point, ref_jac, ref_omega = _reference_exterior_point(mix_body, float(phi1), float(delta))
            assert np.array_equal(point, ref_point)
            assert (jac, omega) == (ref_jac, ref_omega)

    def test_kernels_share_one_field(self, monkeypatch):
        # fine level, coarse level and collar row in 1 call for all 4 kernels
        calls = []
        monkeypatch.setattr(visual_angle, "_gap_mass", lambda *args: calls.append(args) or _gap_mass(*args))
        _tangent_field.cache_clear()
        body = validate_convex(TrigSupport(1.37))
        for make in KERNELS.values():
            exterior_integral(body, make())
        assert len(calls) == 1
        (fine, _), (coarse, _) = visual_angle._gap_rules()
        assert calls[0][1].tolist() == [*fine.tolist(), *coarse.tolist(), visual_angle._DELTA_MIN]

    # random draws (seed, degree, constant width, index); degree 2 and the
    # constant-width degree 3 keep one harmonic once centred
    @pytest.mark.parametrize(
        "name", ["circle", "ast", "delt", "cw35", "mix", "hd17"]
        + ["random-5-8-0-1", "random-5-64-0-1", "random-5-200-0-1", "random-0-2-0-0", "random-0-3-1-3"]
    )
    def test_one_pass_field_equals_three_calls(self, request, name):
        if name.startswith("random"):
            seed, degree, cw, index = map(int, name.split("-")[1:])
            body = random_body(seed, degree, bool(cw), index)
        else:
            body = request.getfixturevalue(f"{name}_body")
        _tangent_field.cache_clear()
        masses, nodes, collar_row = _tangent_field(body)
        want_masses, want_nodes, want_collar = _three_call_field(body)
        assert collar_row.hex() == want_collar.hex()
        assert nodes == want_nodes
        for got, want in zip(masses, want_masses, strict=True):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    @pytest.mark.parametrize("degree", [2, 3, 8, 64])
    def test_field_ignores_translation_bit_for_bit(self, degree):
        # the n = 1 multipliers are exact zeros (R_1 = D_1 = 0)
        body = random_body(5, degree, index=2)
        want = _tangent_field(recenter_to_steiner(body))
        for v in [(1e3, -2e3), (1e-3, 5.0), (3e7, 1.0)]:
            got = _tangent_field(validate_convex(rigid_motion(body, 0.0, v)))
            assert [x.tobytes() for x in got[0]] == [x.tobytes() for x in want[0]] and got[1:] == want[1:]

    @pytest.mark.parametrize("degree", [8, 64, 200])
    def test_one_pass_blocks_span_levels(self, monkeypatch, degree):
        # the 385 gaps once, in order, in blocks of _BLOCK_ENTRIES entries
        # that run on across the fine level, the coarse level and the collar row
        body = random_body(5, degree, index=1)
        blocks = _spy_blocks(monkeypatch)
        _tangent_field.cache_clear()
        _tangent_field(body)
        rows = max(1, visual_angle._BLOCK_ENTRIES // fast_len(2 * degree + 1))
        assert [len(block) for block in blocks] == [min(rows, 385 - start) for start in range(0, 385, rows)]
        (fine, _), (coarse, _) = visual_angle._gap_rules()
        assert sum(blocks, []) == [*fine.tolist(), *coarse.tolist(), visual_angle._DELTA_MIN]

    def test_field_cache_is_bounded(self):
        for i in range(10):
            body = validate_convex(TrigSupport(1.0 + 0.1 * i))
            exterior_integral(body, crofton_kernel())
        assert _tangent_field.cache_info().currsize <= 8


_ALL_KERNELS = [make() for make in KERNELS.values()] + [moment_kernel(n) for n in range(2, 11)]


class TestKernelWeights:
    @pytest.mark.parametrize("kernel", _ALL_KERNELS, ids=lambda k: k.name)
    def test_weights_equal_inline_values(self, kernel):
        level_f, collar_f = kernel._gap_weights
        for wf, (x, w) in zip(level_f, visual_angle._gap_rules(), strict=True):
            assert wf.tobytes() == (w * kernel(PI - x)).tobytes()
            assert not (wf.flags.writeable or x.flags.writeable or w.flags.writeable)
        assert collar_f == visual_angle._DELTA_MIN * abs(kernel(PI - visual_angle._DELTA_MIN))

    @pytest.mark.parametrize("kernel", _ALL_KERNELS, ids=lambda k: k.name)
    def test_integral_equals_inline_form(self, kernel, mix_body, hd17_body):
        for body in (mix_body, hd17_body, random_body(5, 64, index=1)):
            got, want = exterior_integral(body, kernel), _inline_integral(body, kernel)
            assert (got.value.hex(), got.error_bar.hex()) == (want.value.hex(), want.error_bar.hex())
            assert got == want

    def test_equal_fresh_kernel_gives_the_same_bits(self, mix_body):
        # a fresh kernel works out its own weights, to the bits of the shared one
        shared, fresh = crofton_kernel(), Kernel("crofton", 1.0, ((1, -1.0),))
        assert fresh == shared and fresh is not shared
        for integral in (exterior_integral, spectral_integral):
            got, want = integral(mix_body, fresh), integral(mix_body, shared)
            assert (got.value.hex(), got.error_bar.hex()) == (want.value.hex(), want.error_bar.hex())
            assert got == want

    def test_non_integrable_raises_on_every_construction(self):
        for _ in range(3):
            with pytest.raises(NonIntegrableKernel):
                Kernel("sin", 0.0, ((1, 1.0),))


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

    def test_config_is_accepted_and_unread(self, mix_body):
        # the third positional argument reads like exterior_integral_grid's;
        # the tangent rule follows the body alone
        for make in KERNELS.values():
            got = exterior_integral(mix_body, make(), ExteriorConfig(nodes_phi=96))
            assert got == exterior_integral(mix_body, make())

    def test_config_validation(self):
        for nodes_phi in (4, 0, 15, 2**20 + 1):
            with pytest.raises(ValueError):
                ExteriorConfig(nodes_phi=nodes_phi)
        assert ExteriorConfig(nodes_phi=16).nodes_phi == 16
        assert ExteriorConfig(nodes_phi=2**20).nodes_phi == 2**20
        # an integer count, as the docstring says, checked at construction and
        # not by a TypeError inside np.linspace later; numpy integers count
        for nodes_phi in (16.5, 32.0, "32", None):
            with pytest.raises(ValueError):
                ExteriorConfig(nodes_phi=nodes_phi)
        assert ExteriorConfig(nodes_phi=np.int64(32)).nodes_phi == 32
        # the gap rule is a fixed 16 panels: nodes_delta is no field
        for field in ({"nodes_delta": 256}, {"method": "magic"}):
            with pytest.raises(TypeError):
                ExteriorConfig(**field)

    @pytest.mark.parametrize("r_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_max_rejected(self, r_max):
        # the polar rule maps the far zone to a finite interval and has no
        # cutoff radius; r_max is no field
        with pytest.raises(TypeError):
            ExteriorConfig(r_max=r_max)


def moment_pair(body, n):
    """Order-n moment integrated in tangent coordinates and in closed form."""
    kernel = moment_kernel(n)
    return exterior_integral(body, kernel).value, spectral_integral(body, kernel).value


class TestVisualMoment:
    def test_ast_order2(self, ast_body):
        # L^2 + pi^2 * 3 * c2^2 = (4 + 0.12) pi^2
        numeric, spectral = moment_pair(ast_body, 2)
        assert spectral == pytest.approx(4.12 * PI**2, rel=1e-14)
        assert numeric == pytest.approx(spectral, rel=5e-3)

    def test_delt_order3(self, delt_body):
        # sign flips for odd order: L^2 - pi^2 * 8 * c3^2 = 3.92 pi^2
        numeric, spectral = moment_pair(delt_body, 3)
        assert spectral == pytest.approx(3.92 * PI**2, rel=1e-14)
        assert numeric == pytest.approx(spectral, rel=5e-3)

    def test_circle_any_order(self, circle_body):
        for n in (2, 3, 5):
            numeric, spectral = moment_pair(circle_body, n)
            assert spectral == pytest.approx(4 * PI**2, rel=1e-15)
            assert numeric == pytest.approx(4 * PI**2, rel=5e-3)

    @given(convex_bodies(max_degree=5), st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_dual_paths_agree(self, body, n):
        numeric, spectral = moment_pair(body, n)
        assert numeric == pytest.approx(spectral, rel=1e-5)


def _tangent_field_harmonic(n, delta):
    """Part g_n of the tangent field G(delta) = a0^2 g_0 + sum c_n^2 g_n, from
    Parseval on the phi1 integral of -u1*u2 (independent of spectral_integral)."""
    c, s = np.cos(delta), np.sin(delta)
    if n == 0:
        return TWO_PI * np.tan(0.5 * delta) ** 2 / s
    cn, sn = np.cos(n * delta), np.sin(n * delta)
    return PI * (((1.0 + c * c) * cn - 2.0 * c) / s**3 + 2.0 * n * c * sn / s**2 - n * n * cn / s)


def _weight(kernel, n):
    """w(n) of `spectral_integral`, read off one body: a0 = 1 plus c cos(n phi)."""
    w0 = spectral_integral(validate_convex(TrigSupport(1.0)), kernel).value / PI**2
    if n == 0:
        return w0
    c = 0.5 / (n * n - 1)
    body = validate_convex(TrigSupport(1.0, (Harmonic(n, c, 0.0),)))
    return (spectral_integral(body, kernel).value / PI**2 - w0) / (c * c)


def _hand_forms(fs):
    """Hand-derived closed forms of the named kernels' integrals, keyed like KERNELS."""
    c2, c3 = (dict(fs.cn_sq).get(n, 0.0) for n in (2, 3))
    return {
        "crofton": 0.5 * fs.L**2 - PI * fs.F,
        "sin_cubed": 0.75 * (fs.L**2 + 3.0 * PI**2 * c2),
        "visual_deficit": -PI * fs.F - 1.5 * PI**2 * c2,
        "visual_deficit_cw": 0.25 * fs.L**2 - PI * fs.F - 2.25 * PI**2 * c2 - 4.0 * PI**2 * c3,
    }


FIXTURES = ("circle", "ast", "delt", "cw35", "mix", "hd17")


class TestSpectralIntegral:
    @pytest.mark.parametrize("k", [None] + list(range(2, 13)))
    def test_rule_is_the_tangent_field_transform(self, k):
        # w(n) = int_0^pi f(pi - delta) g_n(delta) d delta / pi^2 for crofton
        # (k None) and sin(k w) - k sin(w): even k act at every n >= k
        kernel = crofton_kernel() if k is None else Kernel(f"sin{k}", 0.0, ((1, -float(k)), (k, 1.0)))
        graded = PI * (1.0 - (1.0 - np.linspace(0.0, 1.0, 65)) ** 2)
        edges = np.concatenate([[0.0], np.geomspace(1e-3, graded[1], 8)[:-1], graded[1:]])
        x, w = gauss_panels(edges, points=16)
        f = kernel(PI - x)
        for n in [0] + list(range(2, 15)):
            transform = float(np.sum(w * f * _tangent_field_harmonic(n, x))) / PI**2
            rule = _weight(kernel, n)
            assert 2.0 * rule == pytest.approx(round(2.0 * rule), abs=1e-6), (n, rule)
            assert transform == pytest.approx(rule, abs=1e-3), n

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_hand_forms(self, request, name):
        body = request.getfixturevalue(f"{name}_body")
        fs = functionals_spectral(body)
        scale = max(fs.L**2, PI * abs(fs.Fe))
        for kernel_name, hand in _hand_forms(fs).items():
            value = spectral_integral(body, KERNELS[kernel_name]()).value
            assert abs(value - hand) <= 4.0 * np.spacing(scale), kernel_name

    @pytest.mark.parametrize("name", ["hd17", "random17", "random17_moved"])
    def test_moments(self, request, name):
        # L^2 + (-1)^n pi^2 (n^2 - 1) c_n^2, c_n about the Steiner point; the
        # kernel's coefficients are exact fractions, so w(0) = 4 exactly and
        # only the final sums round
        if name == "hd17":
            body = request.getfixturevalue("hd17_body")
        else:
            body = random_body(4, 17, index=2)
            if name.endswith("moved"):
                body = rigid_motion(body, 0.4, (3.0, -7.0))
        L = TWO_PI * body.a0
        centered = recenter_to_steiner(body)
        for n in range(2, 17):
            expect = L * L + (-1) ** n * PI**2 * (n * n - 1) * centered.harmonic(n).c_sq
            assert abs(spectral_integral(body, moment_kernel(n)).value - expect) <= 2.0 * np.spacing(L * L), n

    def test_result_shape_and_checks(self, ast_body):
        res = spectral_integral(ast_body, crofton_kernel())
        assert res == IntegralResult(res.value, 0.0, "spectral", 0)
        with pytest.raises(NotValidated):
            spectral_integral(TrigSupport(1.0), crofton_kernel())
        with pytest.raises(NonIntegrableKernel):
            spectral_integral(ast_body, Kernel("bad", 1.0, ()))

    @pytest.mark.parametrize("name", FIXTURES + ("random9", "random9_cw"))
    def test_named_kernels_within_tangent_bar(self, request, name):
        if name.startswith("random"):
            body = random_body(2, 9, constant_width=name.endswith("cw"), index=3)
        else:
            body = request.getfixturevalue(f"{name}_body")
        for kernel_name, make in KERNELS.items():
            res = exterior_integral(body, make())
            assert abs(res.value - spectral_integral(body, make()).value) <= res.error_bar, kernel_name


# The tangent bar's round-off allowance 1e-14*|value| misses the kernel
# evaluation cancellation of even moment orders >= 4: err/bar is 1.04, 1.87,
# 2.1 and 2.0 at n = 4, 6, 8 and 10, at a nearly body-independent relative
# error of 1.2e-14 to 6.0e-14 (ROADMAP, known defects).
_BAR_MISSES = pytest.mark.xfail(strict=True, reason="tangent bar under-reports even moments n >= 4")


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9] + [pytest.param(n, marks=_BAR_MISSES) for n in (4, 6, 8, 10)])
def test_moment_kernels_within_tangent_bar(n):
    for seed in (1, 2, 3):
        body = random_body(seed, 9, index=3)
        res = exterior_integral(body, moment_kernel(n))
        assert abs(res.value - spectral_integral(body, moment_kernel(n)).value) <= res.error_bar, seed


_DEGREES = (8, 32, 128)


@pytest.fixture(scope="module", params=_DEGREES)
def degree_body(request):
    return request.param, random_body(3, request.param, index=1)


class TestDegreeExactGrid:
    """The tangent field's phi1 rule: fast_len(max(16, 2N + 1)) nodes, exact
    for the degree-2N integrand -u1*u2, whatever the config's nodes_phi."""

    def test_fine_level_is_exact(self, degree_body):
        n, body = degree_body
        gaps, fine = visual_angle._gap_rules()[0][0], _tangent_field(body)[0][0]
        ref = _gap_mass(body, gaps, 8 * n + 1)
        assert np.all(np.abs(fine - ref) <= 1e-14 * np.abs(ref))
        # on 2N nodes the trapezoid aliases: 1.4e-7 relative at N = 128
        assert np.max(np.abs(_gap_mass(body, gaps, 2 * n) - ref) / np.abs(ref)) > 1e-9

    @pytest.mark.parametrize("name", ["circle", "hd17"] + [f"random{n}" for n in _DEGREES])
    def test_bar_is_honest(self, request, name):
        # |tangent - closed form| / bar <= 1; at N = 128 the bar no longer
        # carries an aliased coarse level, so it is within 10x of the error
        # (about 0.45), except sin_cubed's: its collar term vanishes and the
        # coarse level's 128 gaps under-resolve G there (err/bar 0.004)
        if name.startswith("random"):
            body = random_body(3, int(name[6:]), index=1)
        else:
            body = request.getfixturevalue(f"{name}_body")
        for kernel_name, make in KERNELS.items():
            res = exterior_integral(body, make())
            ratio = abs(res.value - spectral_integral(body, make()).value) / res.error_bar
            assert ratio <= 1.0, kernel_name
            if body.max_degree == 128 and kernel_name != "sin_cubed":
                assert ratio >= 0.1, kernel_name

    @pytest.mark.parametrize("n", [0, 7, 8, 128])
    def test_default_node_count(self, circle_body, n):
        # fast_len(max(16, 2N + 1)): 17 -> 18 = 2*3^2, 257 -> 270 = 2*3^3*5
        body = circle_body if n == 0 else random_body(3, n, index=1)
        want = {0: 16, 7: 16, 8: 18, 128: 270}[n]
        assert exterior_integral(body, crofton_kernel()).nodes == 256 * want


class TestPolarOracle:
    # each closed form lies within the oracle's bar
    def test_circle_crofton(self, circle_body):
        cfg = ExteriorConfig(nodes_phi=96)
        res = exterior_integral_grid(circle_body, crofton_kernel(), cfg)
        assert abs(res.value - PI**2) <= res.error_bar
        assert res.method == "polar_grid"

    def test_ast_sin_cubed(self, ast_body):
        # (3/4)(L^2 + 3 pi^2 c2^2) = 3.09 pi^2
        cfg = ExteriorConfig(nodes_phi=96)
        res = exterior_integral_grid(ast_body, sin_cubed_kernel(), cfg)
        assert abs(res.value - 3.09 * PI**2) <= res.error_bar

    def test_circle_moment3(self, circle_body):
        cfg = ExteriorConfig(nodes_phi=96)
        res = exterior_integral_grid(circle_body, moment_kernel(3), cfg)
        assert abs(res.value - 4 * PI**2) <= res.error_bar

    @pytest.mark.parametrize("name", ["circle", "ast", "delt", "cw35", "mix", "random8", "random32"])
    def test_bar_is_honest_and_tight(self, request, name):
        # |polar - closed form| <= bar, and bar <= 1e-4 L^2, which needs the
        # far zone to reach infinity with no fitted tail and the collar's
        # first order in the value; the widest bar is 3.6e-5 L^2, on delt,
        # whose rho_min is 0.2*a0
        if name.startswith("random"):
            body = random_body(3, int(name[6:]), index=1)
        else:
            body = request.getfixturevalue(f"{name}_body")
        scale = functionals_spectral(body).L ** 2
        cfg = ExteriorConfig(nodes_phi=96)
        for kernel_name, make in KERNELS.items():
            res = exterior_integral_grid(body, make(), cfg)
            assert abs(res.value - spectral_integral(body, make()).value) <= res.error_bar, kernel_name
            assert res.error_bar <= 1e-4 * scale, kernel_name

    def test_methods_agree_within_bars(self, delt_body):
        cfg = ExteriorConfig(nodes_phi=96)
        for kernel in (crofton_kernel(), visual_deficit_kernel()):
            tan = exterior_integral(delt_body, kernel, cfg)
            pol = exterior_integral_grid(delt_body, kernel, cfg)
            assert abs(tan.value - pol.value) <= tan.error_bar + pol.error_bar

    def test_field_cache_is_bounded(self):
        cfg = ExteriorConfig(nodes_phi=16)
        for i in range(10):
            body = validate_convex(TrigSupport(1.0 + 0.1 * i))
            exterior_integral_grid(body, crofton_kernel(), cfg)
        assert _polar_field.cache_info().currsize <= 8


def _reference_polar_field(body, cfg):
    """Per-direction loop, each ray's own Gauss rule and one tangent solve per
    theta fed that ray's (theta, rb, phi_b) and the field's table: the
    reference for the broadcast grid and the block solve.  Also returns the
    nodes' points, one row per theta, and the table."""
    centered = recenter_to_steiner(body)
    collar = visual_angle._POLAR_COLLAR * centered.a0
    panels = visual_angle._POLAR_PANELS
    thetas = np.linspace(0.0, TWO_PI, cfg.nodes_phi, endpoint=False)
    w_theta = TWO_PI / cfg.nodes_phi
    rbs, phi_bs = _radial_boundary(centered, thetas)
    r1 = 3.0 * float(np.max(rbs))
    # far zone in s = r1/r on (0, 1]: r dr = r1^2 s^-3 ds
    s_nodes, s_w = gauss_panels(np.linspace(0.0, 1.0, panels + 1), points=8)
    far_r, far_w = r1 / s_nodes, r1 * r1 * s_w / s_nodes**3
    radii, weights, points, ring = [], [], [], []
    for rb, c, s in zip(rbs, np.cos(thetas), np.sin(thetas)):
        u_nodes, u_w = gauss_panels(np.linspace(math.sqrt(collar), math.sqrt(r1 - rb), panels + 1), points=8)
        near_r = rb + u_nodes**2
        radii.append(np.concatenate([near_r, far_r]))
        weights.append(w_theta * np.concatenate([2.0 * u_nodes * u_w * near_r, far_w]))
        points.append(np.stack([radii[-1] * c, radii[-1] * s], axis=1))
        ring.append(rb * collar + 0.5 * collar * collar)
    radii, points = np.array(radii), np.array(points)
    table = _support_table(centered, 1e-13 * (centered.a0 + float(np.min(radii))))
    omegas = [_tangent_solve(centered, *p.T, rs, *exit, table)[2] for p, rs, *exit in zip(points, radii, thetas, rbs, phi_bs)]
    return (np.array(omegas), np.array(weights), w_theta * math.fsum(ring)), points, table


@pytest.fixture(scope="module", params=["circle", "mix", "random8", "random33", "translated"])
def polar_body(request):
    if request.param == "translated":
        return rigid_motion(random_body(6, degree=8), 0.0, (40.0, -25.0))
    if request.param.startswith("random"):
        return random_body(5, degree=int(request.param[6:]))
    return request.getfixturevalue(f"{request.param}_body")


class TestPolarBlocks:
    # a block holds 42 directions of 96 radial nodes, so 84 ends on a full block
    # and 16, 17, 96 and 100 on a partial one
    @pytest.mark.parametrize("nodes_phi", [16, 17, 84, 96, 100])
    def test_block_field_equals_per_direction_loop(self, polar_body, nodes_phi):
        cfg = ExteriorConfig(nodes_phi=nodes_phi)
        omegas, weights, ring_mass = _polar_field(polar_body, cfg)
        want, _, _ = _reference_polar_field(polar_body, cfg)
        assert np.array_equal(omegas, want[0]) and np.array_equal(weights, want[1])
        assert ring_mass == want[2]

    @pytest.mark.parametrize("nodes_phi", [16, 17, 84, 96, 100])
    def test_shared_exit_matches_per_point_solve(self, polar_body, nodes_phi):
        # each ray's exit is solved once and shared by its nodes; solving every
        # node's own exit from its own point moves omega by round-off only
        cfg = ExteriorConfig(nodes_phi=nodes_phi)
        _, points, table = _reference_polar_field(polar_body, cfg)
        per_point = _tangent_angles(recenter_to_steiner(polar_body), points.reshape(-1, 2), table)[2]
        assert np.max(np.abs(_polar_field(polar_body, cfg)[0].ravel() - per_point)) <= 1e-11

    def test_one_exit_solve_per_field(self, mix_body, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            visual_angle, "_radial_boundary",
            lambda body, thetas: sizes.append(np.size(thetas)) or _radial_boundary(body, thetas),
        )
        _polar_field.__wrapped__(mix_body, ExteriorConfig(nodes_phi=96))
        assert sizes == [96]

    def test_one_table_per_field(self, mix_body, monkeypatch):
        # the blocks share the field's table: it is built once, not once per block
        tables = []
        monkeypatch.setattr(visual_angle, "_support_table", lambda *a: tables.append(_support_table(*a)) or tables[-1])
        _polar_field.__wrapped__(mix_body, ExteriorConfig(nodes_phi=96))
        assert len(tables) == 1 and tables[0] is not None

    def test_one_tangent_solve_per_block(self, mix_body, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            visual_angle, "_tangent_solve",
            lambda body, px, *ray: sizes.append(np.size(px)) or _tangent_solve(body, px, *ray),
        )
        _polar_field.__wrapped__(mix_body, ExteriorConfig(nodes_phi=96))
        # 96 radial nodes per direction, at most 4096 points per block: two blocks
        # of 42 directions, then one of 12
        assert sizes == [42 * 96] * 2 + [12 * 96]

    def test_polish_evaluates_only_open_brackets(self, monkeypatch):
        # the FOUND lines' field: each block of 8064 roots took 5 float64
        # evaluations of g_H at every root, the last for about 400 still open.
        # Past a block's float32 seeds and first two float64 evaluations, the
        # polish reads g_H at most at half of that block's roots
        calls = []
        monkeypatch.setattr(
            visual_angle, "_tangent_solve",
            lambda body, px, *ray: calls.append(("block", 2 * np.size(px))) or _tangent_solve(body, px, *ray),
        )
        monkeypatch.setattr(
            visual_angle, "_g_table",
            lambda table, phi, *a: calls.append((table[0].dtype, np.size(phi))) or _g_table(table, phi, *a),
        )
        _polar_field.__wrapped__(random_body(5, 10, index=3), ExteriorConfig(nodes_phi=96))
        starts = [i for i, (kind, _) in enumerate(calls) if kind == "block"] + [len(calls)]
        assert [calls[i][1] for i in starts[:-1]] == [8064, 8064, 2304]
        for i, j in zip(starts, starts[1:]):
            roots = calls[i][1]
            float32 = [n for kind, n in calls[i + 1 : j] if kind == np.float32]
            float64 = [n for kind, n in calls[i + 1 : j] if kind == np.float64]
            assert float32 and float32[0] == roots
            assert float64[:2] == [roots, roots] and all(2 * n <= roots for n in float64[2:])


def _old_polish_roots(f, x, neg, pos, tol, active):
    """`bodies._polish_roots` as it was before it gathered the open brackets,
    verbatim: the reference for the bits of the gathered solver."""
    vals = f(x)
    for _ in range(120):
        fx, dfx = vals[0], vals[1]
        active = active & (np.abs(fx) > tol)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / dfx
        inside = (np.minimum(neg, pos) < xn) & (xn < np.maximum(neg, pos))
        newton = (np.sign(pos - neg) * dfx > 0.0) & inside
        x = np.where(active, np.where(newton, xn, 0.5 * (neg + pos)), x)
        vals = f(x)
        up = vals[0] > 0.0
        pos = np.where(active & up, x, pos)
        neg = np.where(active & ~up, x, neg)
    return x, vals


def _hex(*arrays):
    return [[float.hex(v) for v in np.ravel(a).tolist()] for a in arrays]


def _circle_brackets(body, cfg):
    """The first polar block's points and the tangent solve's brackets and
    circle seeds for them, as `_tangent_solve` builds them."""
    _, points, table = _reference_polar_field(body, cfg)
    centered = recenter_to_steiner(body)
    pts = points[:42]
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    rb, phi_b = _radial_boundary(centered, theta[:, :1])
    shape = r.shape + (2,)
    px, py, b = (np.broadcast_to(np.asarray(v)[..., None], shape).copy() for v in (pts[..., 0], pts[..., 1], phi_b))
    x, neg = b + np.array([-1.0, 1.0]) * np.arccos(rb / r)[..., None], b + np.array([-PI, PI])
    tol = 1e-13 * (np.hypot(px, py) + centered.a0)
    return centered, table, px, py, x, neg, b, tol


@pytest.mark.parametrize("degree", [8, 33, 512])
def test_gathered_polish_keeps_the_bits(degree, monkeypatch):
    # from identical seeds the solver that gathers its open brackets returns
    # the bits of the one that evaluated f at every bracket: on Horner's g,
    # on the table's g_H and in the ray exits of `_radial_boundary`
    body = random_body(5, degree)
    centered, table, px, py, x, neg, b, tol = _circle_brackets(body, ExteriorConfig(nodes_phi=96))
    tol_h = (1.0 - 2.0**-50) * tol - table[2]
    for g, first, t, mask in ((_g, centered, tol, True), (_g_table, table, tol_h, tol_h > 0.0)):
        sizes = []
        new = visual_angle._polish_roots(
            lambda y, qx, qy: sizes.append(y.size) or g(first, y, qx, qy), x, neg, b, t, mask, px, py
        )
        old = _old_polish_roots(lambda y: g(first, y, px, py), x, neg, b, t, mask)
        assert _hex(new[0], *new[1]) == _hex(old[0], *old[1])
        assert min(sizes) < x.size // 2  # the open brackets were gathered
    thetas = np.linspace(0.0, TWO_PI, 96, endpoint=False)
    want = _radial_boundary(centered, thetas)
    monkeypatch.setattr(
        visual_angle, "_polish_roots",
        lambda f, x, neg, pos, tol, active, *args: _old_polish_roots(lambda y: f(y, *args), x, neg, pos, tol, active),
    )
    assert _hex(*_radial_boundary(centered, thetas)) == _hex(*want)


@pytest.mark.parametrize("seed", ["nan", "neg", "pos", "circle"])
def test_float32_pass_only_seeds(polar_body, seed, monkeypatch):
    # the float32 pass only seeds the float64 polish: a NaN seed falls back to
    # the circle seed, and from the bracket ends or the circle seeds every
    # root meets the contract on Horner's g, and block and per-point solves
    # stay within the shared-exit bound
    def coarse(table, px, py, x, neg, pos, tol):
        return {"nan": np.full_like(x, np.nan), "neg": neg, "pos": pos, "circle": x}[seed]

    monkeypatch.setattr(visual_angle, "_coarse_roots", coarse)
    cfg = ExteriorConfig(nodes_phi=96)
    centered = recenter_to_steiner(polar_body)
    _, points, table = _reference_polar_field(polar_body, cfg)
    _check_batch(centered, points.reshape(-1, 2), every=997, table=table)
    per_point = _tangent_angles(centered, points.reshape(-1, 2), table)[2]
    assert np.max(np.abs(_polar_field.__wrapped__(polar_body, cfg)[0].ravel() - per_point)) <= 1e-11
