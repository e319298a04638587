import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurwitzlab import bodies
from hurwitzlab import (
    Harmonic,
    TrigSupport,
    astroid_parallel,
    body_from_dict,
    body_to_dict,
    deltoid_parallel,
    eval_support,
    functionals_quadrature,
    hypocycloid_parallel,
    is_constant_width,
    min_curvature_radius,
    minkowski_sum,
    offset,
    random_body,
    recenter_to_steiner,
    rigid_motion,
    steiner_point,
    validate_convex,
)
from hurwitzlab.errors import (
    AmplitudeTooLarge,
    BadSpec,
    NonpositiveMean,
    NotStrictlyConvex,
)

PI = math.pi
TWO_PI = 2.0 * math.pi


# strategy for strictly convex bodies: per-frequency budgets sum below a0,
# so rho = p + p'' >= 0.6*a0 by construction and validation never rejects
@st.composite
def convex_bodies(draw, max_degree=6):
    a0 = draw(st.floats(0.5, 3.0))
    degree = draw(st.integers(1, max_degree))
    hs = []
    for n in range(1, degree + 1):
        cap = 0.2 * a0 / (n * n * 2**n)
        a = draw(st.floats(-cap, cap))
        b = draw(st.floats(-cap, cap))
        hs.append(Harmonic(n, a, b))
    return validate_convex(TrigSupport(a0, tuple(hs)))


def _rho(body, phi):
    return eval_support(body, phi, 0) + eval_support(body, phi, 2)


def _certificate_slack(body):
    return body.a0 - math.fsum((h.n * h.n - 1) * math.hypot(h.a, h.b) for h in body.harmonics)


def _reference_rho_min(body):
    """min rho: FFT samples at 64x the search grid, then a zoom on each near-minimal sample."""
    m = 64 * 16 * max(body.max_degree, 4)
    h = TWO_PI / m
    spec = np.zeros(m // 2 + 1, dtype=complex)
    spec[0] = m * body.a0
    for hm in body.harmonics:
        spec[hm.n] = 0.5 * m * (1 - hm.n**2) * complex(hm.a, -hm.b)
    rho = np.fft.irfft(spec, m)
    # |rho''| <= curv, so the sample nearest the global minimum lies within curv*h^2 of the least sample
    curv = math.fsum(hm.n**2 * (hm.n**2 - 1) * math.hypot(hm.a, hm.b) for hm in body.harmonics)
    local = (rho <= np.roll(rho, 1)) & (rho <= np.roll(rho, -1)) & (rho <= rho.min() + curv * h * h)
    best = math.inf
    for x in h * np.nonzero(local)[0]:
        width = h
        for _ in range(4):
            xs = x + np.linspace(-width, width, 65)
            vals = _rho(body, xs)
            x, width = xs[np.argmin(vals)], width / 16
        best = min(best, float(np.min(vals)))
    return best


# strategy for bodies near the convexity boundary, where the certificate
# fails and validation needs the curvature search: |c_n| ~ n^-2 up to
# degree 8-64, with a0 set so that rho_min / a0 lies in [1e-3, 0.1]
@st.composite
def near_convex_bodies(draw):
    degree = draw(st.integers(8, 64))
    rnd = draw(st.randoms(use_true_random=False))
    hs = []
    for n in range(1, degree + 1):
        mag, phase = rnd.uniform(0.2, 1.0) / n**2, rnd.uniform(0.0, TWO_PI)
        hs.append(Harmonic(n, mag * math.cos(phase), mag * math.sin(phase)))
    frac = draw(st.floats(1e-3, 0.1))
    body = TrigSupport(-_reference_rho_min(TrigSupport(0.0, tuple(hs))) / (1.0 - frac), tuple(hs))
    assume(_certificate_slack(body) < 1e-9 * body.a0)
    return body


# bodies whose certificate spends a share t in [0.9, 1] of a0, so that its
# slack (1 - t) * a0 lands near the eps values drawn against it
@st.composite
def certificate_edge_bodies(draw):
    a0 = draw(st.floats(0.5, 3.0))
    degree = draw(st.integers(2, 8))
    raw = [
        (n, draw(st.floats(1e-3, 1.0)), draw(st.floats(0.0, TWO_PI))) for n in range(2, degree + 1)
    ]
    spent = sum((n * n - 1) * mag for n, mag, _ in raw)
    k = draw(st.floats(0.9, 1.0)) * a0 / spent
    hs = [Harmonic(n, k * mag * math.cos(ph), k * mag * math.sin(ph)) for n, mag, ph in raw]
    hs.append(Harmonic(1, draw(st.floats(-a0, a0)), draw(st.floats(-a0, a0))))
    return TrigSupport(a0, tuple(hs))


class _Searched(Exception):
    pass


def _no_search(body):
    raise _Searched


@st.composite
def horner_bodies(draw, max_degree=128):
    """Support functions of degree <= max_degree, dense or sparse, with
    coefficients of size ~ n^-decay drawn from a seeded generator."""
    degree = draw(st.integers(0, max_degree))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decay = draw(st.sampled_from([0.0, 1.0, 3.0]))
    keep = rng.random(degree) < draw(st.floats(0.1, 1.0))
    hs = [Harmonic(n, *(rng.standard_normal(2) / n**decay)) for n in range(1, degree + 1) if keep[n - 1]]
    return TrigSupport(draw(st.floats(-2.0, 2.0)), tuple(hs))


def _mp_derivative(body, phi, k):
    """p^(k)(phi) summed in 40-digit arithmetic, phi taken exactly as given."""
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(phi)
        total = mpmath.mpf(body.a0) if k == 0 else mpmath.mpf(0)
        for h in body.harmonics:
            c, s = mpmath.cos(h.n * x), mpmath.sin(h.n * x)
            for _ in range(k):  # d/dphi maps (cos, sin)(n phi) to n * (-sin, cos)(n phi)
                c, s = -s, c
            total += mpmath.mpf(h.n) ** k * (h.a * c + h.b * s)
        return float(total)


class TestEvalSupport:
    def test_ast_value(self, ast_body):
        assert eval_support(ast_body, PI / 4, 0) == pytest.approx(1.2, abs=1e-15)

    def test_ast_second_derivative(self, ast_body):
        assert eval_support(ast_body, PI / 4, 2) == pytest.approx(-0.8, abs=1e-15)

    def test_circle_derivative_vanishes(self, circle_body):
        for phi in (0.0, 1.0, 2.5, 6.0):
            assert eval_support(circle_body, phi, 1) == 0.0

    def test_vectorized_matches_scalar(self, delt_body):
        phis = np.linspace(0, TWO_PI, 17)
        vec = eval_support(delt_body, phis, 1)
        assert vec == pytest.approx([eval_support(delt_body, p, 1) for p in phis])

    def test_bad_order(self, ast_body):
        with pytest.raises(ValueError):
            eval_support(ast_body, 0.0, 4)

    def test_integer_angle_is_an_angle(self, mix_body):
        assert eval_support(mix_body, 3, 1) == eval_support(mix_body, 3.0, 1)
        assert np.array_equal(bodies.boundary_point(mix_body, 3), bodies.boundary_point(mix_body, 3.0))

    @given(horner_bodies(), st.lists(st.floats(-TWO_PI, 2.0 * TWO_PI), min_size=1, max_size=4), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_horner_error_within_backward_bound(self, body, phis, k):
        # Horner with |z| = 1: error about N*u*sum_n n^k |c_n| (Higham 2002, ch. 5)
        (vals,) = bodies._derivs(body, np.array(phis), (k,))
        scale = math.fsum(h.n**k * math.hypot(h.a, h.b) for h in body.harmonics) + (abs(body.a0) if k == 0 else 0.0)
        bound = 4.0 * (body.max_degree + 1) * 2.0**-53 * scale
        for phi, v in zip(phis, vals):
            assert abs(v - _mp_derivative(body, phi, k)) <= bound

    @given(
        horner_bodies(max_degree=64),
        st.lists(st.floats(-TWO_PI, 2.0 * TWO_PI), min_size=16, max_size=16),
        st.permutations(range(4)),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_bits_independent_of_shape_and_orders(self, body, phis, orders, count):
        block = np.array(phis).reshape(2, 8)
        full = bodies._derivs(body, block, (0, 1, 2, 3))
        subset = tuple(orders[:count])
        given_cs = bodies._derivs(body, block.ravel(), subset, (np.cos(block.ravel()), np.sin(block.ravel())))
        for k, v in zip(subset, given_cs):
            assert v.tobytes() == full[k].tobytes()
        for i, phi in enumerate(block.ravel()):
            scalar = bodies._derivs(body, float(phi), subset)
            single = bodies._derivs(body, np.array([phi]), subset)
            for k, vs, v1 in zip(subset, scalar, single):
                assert np.float64(vs).tobytes() == v1.tobytes() == full[k].ravel()[i].tobytes()


class TestMinCurvature:
    def test_ast(self, ast_body):
        # rho = 1 - 0.6 sin(2 phi): minimum 0.4 at phi = pi/4
        rho, phi = min_curvature_radius(ast_body)
        assert rho == pytest.approx(0.4, abs=1e-12)
        assert phi == pytest.approx(PI / 4, abs=1e-9)

    def test_delt(self, delt_body):
        # rho = 1 - 0.8 cos(3 phi): minimum 0.2 at phi = 0
        rho, phi = min_curvature_radius(delt_body)
        assert rho == pytest.approx(0.2, abs=1e-12)
        assert min(phi, TWO_PI - phi) == pytest.approx(0.0, abs=1e-9)

    def test_circle(self):
        rho, _ = min_curvature_radius(TrigSupport(2.0))
        assert rho == 2.0

    @given(convex_bodies())
    @settings(max_examples=40, deadline=None)
    def test_never_above_dense_sampling(self, body):
        rho, _ = min_curvature_radius(body)
        phis = np.linspace(0, TWO_PI, 4096, endpoint=False)
        dense = np.min(eval_support(body, phis, 0) + eval_support(body, phis, 2))
        assert rho <= dense + 1e-12 * body.a0

    @given(near_convex_bodies())
    @settings(max_examples=15, deadline=None)
    def test_near_convex_matches_fine_reference(self, body):
        rho, phi = min_curvature_radius(body)
        assert abs(rho - _reference_rho_min(body)) <= 1e-10 * body.a0
        assert abs(_rho(body, phi) - rho) <= 1e-10 * body.a0


class TestCertificate:
    def test_search_skipped_unless_certificate_fails(
        self, monkeypatch, circle_body, ast_body, delt_body, cw35_body, mix_body
    ):
        calls = []
        search = bodies.min_curvature_radius

        def spy(body):
            calls.append(body)
            return search(body)

        monkeypatch.setattr(bodies, "min_curvature_radius", spy)
        for body in (circle_body, ast_body, delt_body, cw35_body, mix_body):
            validate_convex(body)
        for seed in range(3):
            for degree in range(1, 9):
                random_body(seed, degree)
                random_body(seed, degree, constant_width=True, index=1)
        assert calls == []
        # slack 1 - 3*0.2 - 8*0.05 = 0, yet rho_min ~ 0.049
        body = validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 0.2), Harmonic(3, 0.05, 0.0))))
        assert body.validated and len(calls) == 1

    @given(certificate_edge_bodies(), st.floats(1e-12, 0.1))
    @settings(max_examples=60, deadline=None)
    def test_certified_bodies_clear_eps(self, body, eps_rel):
        eps = eps_rel * body.a0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bodies, "min_curvature_radius", _no_search)
            try:
                validate_convex(body, eps=eps)
            except _Searched:
                assume(False)
        phis = np.linspace(0, TWO_PI, 4096, endpoint=False)
        assert np.min(_rho(body, phis)) >= eps

    def test_certificate_overflow_falls_back_to_search(self):
        # the weighted amplitudes sum past the float range
        body = TrigSupport(1.0, (Harmonic(2, 5e307, 0.0), Harmonic(3, 1.9e307, 0.0)))
        with np.errstate(all="ignore"), pytest.raises(NotStrictlyConvex):
            validate_convex(body)

    def test_exact_boundary_astroid_rejected(self):
        with pytest.raises(NotStrictlyConvex):
            validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 1.0 / 3.0),)), eps=1e-300)


class TestValidate:
    def test_ast_passes(self):
        body = validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 0.2),)), eps=1e-9)
        assert body.validated

    def test_nonconvex(self):
        with pytest.raises(NotStrictlyConvex) as err:
            validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 0.5),)))
        assert err.value.rho_min == pytest.approx(-0.5, abs=1e-12)

    def test_zero_mean(self):
        with pytest.raises(NonpositiveMean):
            validate_convex(TrigSupport(0.0))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            validate_convex(TrigSupport(1.0), eps=-1.0)

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
    def test_eps_must_be_positive(self, eps):
        # a NaN eps compares false both ways and must not certify rho_min = -0.5
        with pytest.raises(ValueError):
            validate_convex(TrigSupport(1.0, (Harmonic(2, 0.0, 0.5),)), eps=eps)

    def test_magnitude_counts_translation(self):
        # the degree-1 term leaves rho alone but enters every |p|^2
        with pytest.raises(BadSpec, match="magnitude"):
            validate_convex(TrigSupport(1.0, (Harmonic(1, 1e101, 0.0),)))

    def test_degree_bound(self):
        # 262142 = (MAX_NODES - 8) // 4 is the largest degree grid_for_degree
        # can serve; above it the certificate would pass and every spectral
        # sum or render grid would run out of time or memory
        assert validate_convex(TrigSupport(1.0, (Harmonic(262142, 1e-20, 0.0),))).validated
        for n in (262143, 10**9):
            with pytest.raises(BadSpec, match="degree"):
                validate_convex(TrigSupport(1.0, (Harmonic(n, 1e-20, 0.0),)))
        with pytest.raises(ValueError, match="degree"):
            random_body(1, 262143)

    def test_constructors_keep_magnitude_bound(self, circle_body):
        # offset, rigid_motion and minkowski_sum keep `validated` without
        # calling validate_convex, so they must apply its magnitude bound
        big = validate_convex(TrigSupport(0.6e100))
        for make in (
            lambda: offset(circle_body, 1e200),
            lambda: rigid_motion(circle_body, 0.0, (1e200, 0.0)),
            lambda: minkowski_sum(big, big),
        ):
            with pytest.raises(BadSpec, match="magnitude"):
                make()
        for out in (
            offset(circle_body, 0.5e100),
            rigid_motion(circle_body, 1.0, (0.5e100, 0.0)),
            minkowski_sum(big, circle_body),
        ):
            assert out.validated
            assert math.isfinite(functionals_quadrature(out).F)
        # the bound applies to validated results only
        assert not offset(TrigSupport(1.0), 1e200).validated


class TestSteiner:
    def test_point_is_degree_one_coefficients(self):
        body = TrigSupport(1.0, (Harmonic(1, 0.3, -0.1),))
        assert steiner_point(body) == pytest.approx([0.3, -0.1])

    def test_recenter_removes_degree_one(self):
        body = TrigSupport(1.0, (Harmonic(1, 0.3, -0.1),))
        assert recenter_to_steiner(body) == TrigSupport(1.0)

    def test_no_degree_one_term(self, ast_body):
        assert steiner_point(ast_body) == pytest.approx([0.0, 0.0])

    @given(convex_bodies())
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_preserves_high_harmonics(self, body):
        once = recenter_to_steiner(body)
        assert recenter_to_steiner(once) == once
        for n in range(2, body.max_degree + 1):
            assert once.harmonic(n).c_sq == body.harmonic(n).c_sq


class TestMinkowski:
    def test_coefficientwise(self, ast_body, delt_body):
        s = minkowski_sum(ast_body, delt_body)
        assert s.a0 == 2.0
        assert s.harmonics == (Harmonic(2, 0.0, 0.2), Harmonic(3, 0.1, 0.0))

    def test_length_additive(self, ast_body, delt_body):
        s = minkowski_sum(ast_body, delt_body)
        assert TWO_PI * s.a0 == pytest.approx(4 * PI, rel=1e-15)

    def test_identity_element(self, ast_body):
        zero = TrigSupport(0.0)
        s = minkowski_sum(ast_body, zero)
        assert s.a0 == ast_body.a0 and s.harmonics == ast_body.harmonics

    @given(convex_bodies(), convex_bodies(), convex_bodies())
    @settings(max_examples=25, deadline=None)
    def test_associative_commutative(self, x, y, z):
        left = minkowski_sum(minkowski_sum(x, y), z)
        right = minkowski_sum(x, minkowski_sum(y, z))
        assert left.a0 == pytest.approx(right.a0, rel=1e-14)
        for n in range(1, left.max_degree + 1):
            ha, hb = left.harmonic(n), right.harmonic(n)
            assert ha.a == pytest.approx(hb.a, abs=1e-14)
            assert ha.b == pytest.approx(hb.b, abs=1e-14)
        ab = minkowski_sum(x, y)
        ba = minkowski_sum(y, x)
        assert ab == ba
        # Steiner point is additive as well
        assert steiner_point(ab) == pytest.approx(steiner_point(x) + steiner_point(y))


class TestOffset:
    def test_simple(self, ast_body):
        out = offset(ast_body, 0.5)
        assert out.a0 == 1.5 and out.harmonics == ast_body.harmonics

    def test_inner_parallel_reaches_zero_mean(self, ast_body):
        L = TWO_PI * ast_body.a0
        assert offset(ast_body, -L / TWO_PI).a0 == pytest.approx(0.0, abs=1e-15)

    def test_inner_offset_drops_validation(self, ast_body):
        assert not offset(ast_body, -0.5).validated
        assert offset(ast_body, 0.5).validated


class TestRigidMotion:
    def test_translation_hits_degree_one_only(self, ast_body):
        out = rigid_motion(ast_body, 0.0, (1.0, 2.0))
        assert out.harmonic(1) == Harmonic(1, 1.0, 2.0)
        assert out.harmonic(2) == ast_body.harmonic(2)

    def test_threefold_symmetry(self, delt_body):
        out = rigid_motion(delt_body, 2 * PI / 3)
        assert out.harmonic(3).a == pytest.approx(0.1, abs=1e-15)
        assert out.harmonic(3).b == pytest.approx(0.0, abs=1e-15)

    @given(convex_bodies(), st.floats(-10, 10), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_cn_sq_invariant(self, body, theta, vx, vy):
        out = rigid_motion(body, theta, (vx, vy))
        for n in range(2, body.max_degree + 1):
            assert out.harmonic(n).c_sq == pytest.approx(body.harmonic(n).c_sq, rel=1e-12, abs=1e-300)

    @given(convex_bodies(), st.floats(-6, 6))
    @settings(max_examples=25, deadline=None)
    def test_rotation_moves_support_values(self, body, theta):
        phis = np.linspace(0, TWO_PI, 32, endpoint=False)
        rotated = rigid_motion(body, theta)
        assert eval_support(rotated, phis) == pytest.approx(
            eval_support(body, phis - theta), rel=1e-12, abs=1e-12
        )


class TestConstruct:
    def test_astroid(self, ast_body):
        body = astroid_parallel(1.0, 0.2)
        assert body.harmonics == ast_body.harmonics and body.validated

    def test_deltoid_bound(self):
        with pytest.raises(AmplitudeTooLarge):
            deltoid_parallel(1.0, 0.13)

    def test_astroid_bound(self):
        with pytest.raises(AmplitudeTooLarge):
            astroid_parallel(1.0, 0.4)

    def test_hypocycloid_parallel(self):
        body = hypocycloid_parallel(5, 1.0, 0.02)
        assert body.harmonic(5).a == 0.02
        with pytest.raises(AmplitudeTooLarge):
            hypocycloid_parallel(5, 1.0, 0.05)
        with pytest.raises(BadSpec):
            hypocycloid_parallel(2, 1.0, 0.01)

    @pytest.mark.parametrize(
        "k, make",
        [(2, astroid_parallel), (3, deltoid_parallel)]
        + [(k, functools.partial(hypocycloid_parallel, k)) for k in (3, 4, 5, 7)],
        ids=["astroid", "deltoid", "k3", "k4", "k5", "k7"],
    )
    def test_amplitude_bound_is_sharp(self, k, make):
        # rho = a0 - (k^2 - 1)|amp| at the cusp directions: either sign of amp
        # just inside the bound gives a validated body, at or past it none
        a0 = 1.5
        edge = a0 / (k * k - 1)
        for amp in (0.999 * edge, -0.999 * edge):
            body = make(a0, amp)
            assert body.validated and body.max_degree == k
            assert math.hypot(body.harmonic(k).a, body.harmonic(k).b) == abs(amp)
            assert min_curvature_radius(body)[0] == pytest.approx(0.001 * a0, rel=1e-6)
        for amp in (1.001 * edge, -1.001 * edge, 2 * edge):
            with pytest.raises(AmplitudeTooLarge):
                make(a0, amp)

    @pytest.mark.parametrize("k", [2, 0, -5, 3.0, "5"])
    def test_hypocycloid_frequency_rejected(self, k):
        with pytest.raises(BadSpec):
            hypocycloid_parallel(k, 1.0, 0.01)

    def test_deltoid_is_three_cusped_parallel(self, delt_body):
        assert deltoid_parallel(1.0, 0.1) == hypocycloid_parallel(3, 1.0, 0.1) == delt_body

    def test_random_constant_width(self):
        body = random_body(seed=7, degree=6, constant_width=True)
        assert body.validated
        for n in (2, 4, 6):
            assert body.harmonic(n).c_sq == 0.0

    def test_random_reproducible(self):
        a = random_body(11, 5, index=3)
        b = random_body(11, 5, index=3)
        assert a == b
        assert a != random_body(11, 5, index=4)


class TestConstantWidth:
    def test_delt(self, delt_body):
        flag, w = is_constant_width(delt_body)
        assert flag and w == 2.0

    def test_ast(self, ast_body):
        assert not is_constant_width(ast_body)[0]

    def test_circle(self, circle_body):
        flag, w = is_constant_width(circle_body)
        assert flag and w == 2.0


class TestJsonFormat:
    def test_round_trip(self, cw35_body):
        data = body_to_dict(cw35_body)
        assert data == {
            "a0": 1.0,
            "harmonics": [
                {"n": 3, "a": 0.05, "b": 0.0},
                {"n": 5, "a": 0.0, "b": 0.01},
            ],
        }
        back = body_from_dict(data)
        assert back.a0 == cw35_body.a0 and back.harmonics == cw35_body.harmonics

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(BadSpec):
            body_from_dict({"a0": 1.0, "harmonics": [{"n": 2, "a": 0.1, "b": 0}, {"n": 2, "a": 0, "b": 0.1}]})

    def test_malformed(self):
        with pytest.raises(BadSpec):
            body_from_dict({"harmonics": []})


class TestHarmonicInvariants:
    def test_frequency_positive(self):
        with pytest.raises(ValueError):
            Harmonic(0, 1.0, 0.0)

    def test_sorted_and_unique(self):
        body = TrigSupport(1.0, (Harmonic(5, 0.1, 0.0), Harmonic(2, 0.0, 0.1)))
        assert [h.n for h in body.harmonics] == [2, 5]
        with pytest.raises(ValueError):
            TrigSupport(1.0, (Harmonic(2, 0.1, 0.0), Harmonic(2, 0.0, 0.1)))

    @given(convex_bodies())
    @settings(max_examples=30, deadline=None)
    def test_validated_bodies_have_positive_rho(self, body):
        phis = np.linspace(0, TWO_PI, 512, endpoint=False)
        rho = eval_support(body, phis, 0) + eval_support(body, phis, 2)
        assert np.all(rho > 0)
