import functools
import math
from fractions import Fraction

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
    m = 64 * (1 << (16 * max(body.max_degree, 4) - 1).bit_length())
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


def _companion_rho_min(body):
    """min rho over the arguments of the roots of z^N rho'(z), found by
    np.roots (the eigenvalues of the companion matrix): an oracle for the
    search that shares neither its grid nor its polish.  On |z| = 1,
    rho' = (1/2) sum_n (q_n z^n + conj(q_n) z^-n) with q_n = in(1 - n^2)(a_n - i b_n);
    the arguments of roots off the unit circle only add angles to the minimum."""
    degree = body.max_degree
    coeffs = np.zeros(2 * degree + 1, dtype=complex)  # coeffs[k] multiplies z^k
    for h in body.harmonics:
        q = 0.5j * h.n * (1 - h.n**2) * complex(h.a, -h.b)
        coeffs[degree + h.n] += q
        coeffs[degree - h.n] += q.conjugate()
    return float(np.min(_rho(body, np.angle(np.roots(coeffs[::-1])))))


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


def _ripple_body(degree):
    """a0 = 3, a_n = 0.3/n^3, b_n = 0.2/n^3 for n = 2..degree.  Its certificate
    slack a0 - 0.36 sum (n^2 - 1)/n^3 is 0.23 at degree 4096 and turns
    negative past degree 7660 (-0.27 at 16384), where the dense grid decides."""
    return TrigSupport(3.0, tuple(Harmonic(n, 0.3 / n**3, 0.2 / n**3) for n in range(2, degree + 1)))


class _Searched(Exception):
    pass


def _no_search(body, **_):
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


def _mp_grid_derivatives(body, m):
    """p^(k) for k = 0..3 at the exact angles 2*pi*j/m, j = 0..m-1: n*x_j is
    2*pi*((n*j) mod m)/m, so one table of m angles from 40-digit mpmath
    serves every harmonic; the sums are exact in integers of 2^-160."""
    import mpmath

    one = 1 << 160
    with mpmath.workdps(40):
        angles = [2 * mpmath.pi * t / m for t in range(m)]
        table = [(int(mpmath.nint(mpmath.cos(x) * one)), int(mpmath.nint(mpmath.sin(x) * one))) for x in angles]
    coef = [(h.n, round(Fraction(h.a) * one), round(Fraction(h.b) * one)) for h in body.harmonics]
    out = np.zeros((4, m))
    for j in range(m):
        sums = [round(Fraction(body.a0) * one) * one, 0, 0, 0]
        for n, a, b in coef:
            c, s = table[n * j % m]
            for k in range(4):  # d/dphi maps (cos, sin)(n phi) to n * (-sin, cos)(n phi)
                sums[k] += n**k * (a * c + b * s)
                c, s = -s, c
        out[:, j] = [float(Fraction(v, one * one)) for v in sums]
    return out


def _abs_sum(body, k):
    """sum_n n^k |c_n|, plus |a0| for k = 0: the scale of the round-off of p^(k)."""
    return math.fsum(h.n**k * math.hypot(h.a, h.b) for h in body.harmonics) + (abs(body.a0) if k == 0 else 0.0)


class TestGridDerivs:
    def test_error_within_fft_bound(self):
        # the FFT's error: about u*log2(m)*sum_n n^k |c_n| (Higham 2002, ch. 24)
        body = recenter_to_steiner(random_body(3, 128, index=1))
        m = 512
        exact = _mp_grid_derivatives(body, m)
        got = bodies._grid_derivs(body, m, (0, 1, 2, 3))
        for k in range(4):
            assert np.max(np.abs(got[k] - exact[k])) <= 2.0**-53 * math.log2(m) * _abs_sum(body, k)

    @pytest.mark.parametrize("shifts", [None, np.array([0.3, -1.2, 2.9])])
    def test_grid_below_the_degree_matches_horner(self, shifts):
        # m = 64 against harmonics at, around and past m/2 and m: the samples
        # come from the oversampled transform, so none aliases.  The body
        # turned by -s samples p(phi + s).  Horner is off by
        # 4(N+1)*u*sum n^k |c_n| at its float angles, which are off the exact
        # ones by at most 4u(2*pi + |s|) (rounding of 2*pi, j*h and + s)
        hs = tuple(Harmonic(n, 0.01 * (-1) ** n, 0.02 / (1 + n % 5)) for n in (31, 32, 33, 64, 100))
        body = TrigSupport(1.0, hs)
        m = 64
        phis = np.linspace(0.0, TWO_PI, m, endpoint=False)
        for s in [0.0] if shifts is None else shifts:
            got = bodies._grid_derivs(body if shifts is None else rigid_motion(body, -s), m, (0, 1, 2, 3))
            want = bodies._derivs(body, phis + s, (0, 1, 2, 3))
            angle_err = 4 * 2.0**-53 * (TWO_PI + abs(s))
            for k in range(4):
                bound = 4 * (body.max_degree + 1) * 2.0**-53 * _abs_sum(body, k) + angle_err * _abs_sum(body, k + 1)
                assert np.max(np.abs(got[k] - want[k])) <= bound

    @pytest.mark.parametrize("m", [81, 128, 1024])
    def test_rows_equal_single_row_calls(self, m):
        # each order's row has the bits of a call with that order alone
        body = random_body(5, 40, index=2)
        rows = bodies._grid_derivs(body, m, (0, 1, 2, 3))
        for k, row in enumerate(rows):
            assert np.array_equal(row, bodies._grid_derivs(body, m, (k,))[0])

    def test_disk_is_its_mean(self):
        p, dp = bodies._grid_derivs(TrigSupport(2.5), 64, (0, 1))
        assert np.array_equal(p, np.full(64, 2.5)) and np.array_equal(dp, np.zeros(64))

    def test_fields_are_read_only_arrays_that_evaluation_leaves_alone(self):
        body = random_body(5, 40, index=2)
        twin = TrigSupport(body.a0, body.harmonics, validated=body.validated)
        seen = (repr(body), hash(body), body_to_dict(body))
        first = bodies._grid_derivs(body, 128, (0, 1))
        assert all(not x.flags.writeable for x in (body.n, body.a, body.b))
        second = bodies._grid_derivs(body, 128, (0, 1))
        assert all(np.array_equal(x, y) for x, y in zip(first, second))
        assert (repr(body), hash(body), body_to_dict(body)) == seen == (repr(twin), hash(twin), body_to_dict(twin))
        assert body == twin and set(vars(body)) == {"a0", "n", "a", "b", "validated", "_key"}
        with pytest.raises(ValueError):
            body.a[0] = 1.0
        with pytest.raises(AttributeError):
            body.a0 = 2.0


def _inline_rho(body):
    """rho on the grid of `_rho_grid` by the inverse FFT of its own spectrum
    that it took before it sampled through `_grid_derivs`: the reference."""
    n = body.n
    m = 1 << (16 * max(body.max_degree, 4) - 1).bit_length()
    spec = np.zeros(m // 2 + 1, dtype=complex)
    spec[n] = 0.5 * (1 - n * n) * bodies._coef(body)
    return body.a0 + np.fft.irfft(spec, m, norm="forward")


_signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.01, 0.01))


class TestRhoGrid:
    @given(st.integers(1, 300), _signed, _signed, st.floats(0.5, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_rho_equals_the_inline_fft(self, n, a, b, a0):
        body = TrigSupport(a0, (Harmonic(n, a, b),))
        _, r, rho, _, _ = bodies._rho_grid(body)
        assert rho.tobytes() == _inline_rho(body).tobytes()
        assert np.array_equal(r, (1 - body.n * body.n) * bodies._coef(body))

    @pytest.mark.parametrize(
        "ns",
        [(2, 3), (2, 17), (5, 1009), (2, 3, 500, 1009), tuple(range(2, 65)), (7, 4096), (3, 12289)],
        ids=["deg3", "deg17", "prime1009", "sparse1009", "dense64", "pow2", "prime12289"],
    )
    def test_err_bounds_the_fft_round_off(self, ns):
        # against rho at the exact grid angles in extended precision, on the
        # power-of-two grid whatever the degree (a prime p too)
        if np.finfo(np.longdouble).precision < 18:
            pytest.skip("needs an extended-precision long double")
        rng = np.random.default_rng(len(ns))
        body = TrigSupport(1.0, tuple(Harmonic(n, *(rng.standard_normal(2) / n**2)) for n in ns))
        _, _, rho, _, err = bodies._rho_grid(body)
        m = rho.size
        j = np.arange(m)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        exact = np.full(m, np.longdouble(body.a0))
        for h in body.harmonics:
            angle = 2 * pi * ((h.n * j) % m).astype(np.longdouble) / m
            exact += np.longdouble(1 - h.n**2) * (np.longdouble(h.a) * np.cos(angle) + np.longdouble(h.b) * np.sin(angle))
        assert float(np.max(np.abs(rho.astype(np.longdouble) - exact))) <= err

    def test_cell_bound(self):
        # rho = 1 - 0.6 sin(2 phi) - 0.4 cos(3 phi): M2 = 4*0.6 + 9*0.4 = 6, h = 2 pi / 64
        _, _, rho, dip, _ = bodies._rho_grid(TrigSupport(1.0, (Harmonic(2, 0.0, 0.2), Harmonic(3, 0.05, 0.0))))
        assert rho.size == 64
        assert dip == pytest.approx(6.0 * (TWO_PI / 64) ** 2 / 8, rel=1e-9) and dip >= 6.0 * (TWO_PI / 64) ** 2 / 8


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

    @given(near_convex_bodies())
    @settings(max_examples=15, deadline=None)
    def test_near_convex_matches_companion_oracle(self, body):
        assert abs(min_curvature_radius(body)[0] - _companion_rho_min(body)) <= 1e-12 * body.a0

    @pytest.mark.parametrize("share", [0.999, 1.0 - 1e-9, 1.0, 1.001])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_amplitude_edge_matches_companion_oracle(self, k, share):
        # the parallels a0 + amp cos(k phi) (or sin) with (k^2 - 1)|amp| at and
        # about a0, where rho_min = a0 - (k^2 - 1)|amp| crosses zero
        a0 = 1.5
        amp = share * a0 / (k * k - 1)
        for h in (Harmonic(k, amp, 0.0), Harmonic(k, -amp, 0.0), Harmonic(k, 0.0, amp), Harmonic(k, 0.0, -amp)):
            body = TrigSupport(a0, (h,))
            rho, _ = min_curvature_radius(body)
            assert abs(rho - _companion_rho_min(body)) <= 1e-12 * a0
            assert rho == pytest.approx((1.0 - share) * a0, abs=1e-14 * a0)


    def test_polish_stops_at_round_off_floor(self, monkeypatch):
        # at N = 512 about 100 brackets stall at |rho'| ~ 1e-12 * scale, the
        # round-off of rho' itself; polishing them to the 120-step cap took
        # 121 evaluations
        body = random_body(3, 512, index=1)
        calls = []
        polish = bodies._polish_roots
        monkeypatch.setattr(
            bodies, "_polish_roots", lambda f, *args: polish(lambda x: calls.append(x.size) or f(x), *args)
        )
        rho, _ = min_curvature_radius(body)
        monkeypatch.undo()
        assert 1 <= len(calls) <= 10
        assert abs(rho - _reference_rho_min(body)) <= 1e-12 * body.a0

    def test_minimum_away_from_the_least_sample(self):
        # the least of the 64 samples lies in one well of rho, and the true
        # minimum 0.04 lower in another well, between samples: only the cell
        # bound, not the sample values, sends that well's bracket to the polish
        body = TrigSupport(4.0, (Harmonic(2, -0.34, 0.44), Harmonic(3, 0.1, 0.06), Harmonic(4, -0.15, 0.1)))
        rho, phi = min_curvature_radius(body)
        _, _, samples, _, _ = bodies._rho_grid(body)
        least = TWO_PI / samples.size * np.argmin(samples)
        assert abs(math.remainder(phi - least, TWO_PI)) > 10 * TWO_PI / samples.size
        assert abs(rho - _companion_rho_min(body)) <= 1e-12 * body.a0

    def test_full_ripple_polishes_one_bracket(self, monkeypatch):
        # a0 = 3, c_n = (0.3 - 0.2i)/n^3 for n = 2..4096: rho has a grid-local
        # minimum in about every period of the top harmonic, and before the
        # cell bound every one of them was polished, a table of about N^2
        # entries.  Only the 2 cells about the least sample reach the bound.
        body = _ripple_body(4096)
        sizes = []
        polish = bodies._polish_roots
        monkeypatch.setattr(bodies, "_polish_roots", lambda f, x, *args: sizes.append(x.size) or polish(f, x, *args))
        rho, phi = min_curvature_radius(body)
        assert sizes == [1]
        m = 8 * 16 * body.max_degree
        spec = np.zeros(m // 2 + 1, dtype=complex)
        for h in body.harmonics:
            spec[h.n] = 0.5 * (1 - h.n**2) * complex(h.a, -h.b)
        dense = body.a0 + np.fft.irfft(spec, m, norm="forward")
        assert rho <= np.min(dense) + 1e-12 * body.a0
        assert abs(_rho(body, phi) - rho) <= 1e-12 * body.a0

    def test_blocked_polish_table_gives_the_same_minimum(self, monkeypatch):
        # 8-fold symmetric: 8 brackets of equal minima reach the polish, one
        # table row per block when a block holds only K = 8 entries
        body = TrigSupport(1.0, tuple(Harmonic(8 * j, 0.3 / (8 * j) ** 2, 0.1 / (8 * j) ** 2) for j in range(1, 9)))
        whole = min_curvature_radius(body)
        monkeypatch.setattr(bodies, "_BLOCK_ENTRIES", 8)
        rho, phi = min_curvature_radius(body)
        # the 8 minima tie to round-off, so either run may pick another one
        assert abs(rho - whole[0]) <= 1e-14 * body.a0 and abs(_rho(body, phi) - rho) <= 1e-12 * body.a0
        assert abs(rho - _companion_rho_min(body)) <= 1e-12 * body.a0


class TestCertificate:
    def test_each_stage_decides_its_bodies(
        self, monkeypatch, circle_body, ast_body, delt_body, cw35_body, mix_body, hd17_body
    ):
        grids, searches = [], []
        grid, search = bodies._rho_grid, bodies.min_curvature_radius
        monkeypatch.setattr(bodies, "_rho_grid", lambda body: grids.append(body) or grid(body))
        monkeypatch.setattr(
            bodies, "min_curvature_radius", lambda body, **kw: searches.append(body) or search(body, **kw)
        )

        def stages():
            reached = 1 + bool(grids) + bool(searches)
            grids.clear()
            searches.clear()
            return reached

        # stage 1, the certificate: the fixtures and the sweep draws
        for body in (circle_body, ast_body, delt_body, cw35_body, mix_body):
            validate_convex(body)
        for seed in range(3):
            for degree in range(1, 9):
                random_body(seed, degree)
                random_body(seed, degree, constant_width=True, index=1)
        assert stages() == 1
        # stage 2, the dense grid: slack 1 - 3*0.2 - 8*0.05 = 0, yet rho_min ~ 0.049;
        # hd17 (slack -0.29, rho_min 0.595); the ripple body at degree 16384
        for body in (TrigSupport(1.0, (Harmonic(2, 0.0, 0.2), Harmonic(3, 0.05, 0.0))), hd17_body, _ripple_body(16384)):
            assert validate_convex(body).validated
            assert stages() == 2
        # stage 3, the search: a convex body whose minimum lies below the
        # cell bound (the slack-0 body lowered to rho_min = 1e-3) ...
        hs = (Harmonic(2, 0.0, 0.2), Harmonic(3, 0.05, 0.0))
        low = TrigSupport(1.0 - search(TrigSupport(1.0, hs))[0] + 1e-3, hs)
        assert validate_convex(low).validated
        assert stages() == 3
        # ... and every rejection, which reports the searched minimum.  A
        # one-harmonic parallel has rho_min equal to its certificate slack
        # (share 0.999 is certified at stage 1), so it reaches stage 3 only
        # to be rejected, as at the amplitude edge
        for share in (1.0, 1.001):
            body = TrigSupport(1.5, (Harmonic(3, share * 1.5 / 8, 0.0),))
            with pytest.raises(NotStrictlyConvex) as info:
                validate_convex(body)
            assert stages() == 3
            assert info.value.rho_min == search(body)[0] == pytest.approx((1.0 - share) * 1.5, abs=1e-14)

    def test_rejected_body_samples_rho_once(self, monkeypatch):
        # stage 2's grid is the search's: a body of degree 4099 that the grid
        # cannot certify and the search rejects is sampled by one inverse FFT
        grids, grid = [], bodies._rho_grid
        monkeypatch.setattr(bodies, "_rho_grid", lambda body: grids.append(body) or grid(body))
        body = TrigSupport(1.0, (Harmonic(2, 0.0, 0.5), Harmonic(4099, 1e-20, 0.0)))
        with pytest.raises(NotStrictlyConvex) as info:
            validate_convex(body)
        assert len(grids) == 1
        assert (info.value.rho_min, info.value.phi_at) == min_curvature_radius(body)

    @given(st.one_of(near_convex_bodies(), certificate_edge_bodies()), st.floats(1e-12, 0.1))
    @settings(max_examples=40, deadline=None)
    def test_grid_bound_below_companion_minimum(self, body, eps_rel):
        # the stage-2 bound is a lower bound on the true minimum, and a body
        # certified without the search has its minimum at or above eps
        _, _, rho, dip, err = bodies._rho_grid(body)
        companion = _companion_rho_min(body)
        assert float(np.min(rho)) - dip - err <= companion
        eps = eps_rel * body.a0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bodies, "min_curvature_radius", _no_search)
            try:
                validate_convex(body, eps=eps)
            except _Searched:
                return
        assert companion >= eps

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

    @pytest.mark.parametrize(
        "hs", [((2, 5e307, 0.0), (3, 1.9e307, 0.0)), ((2, 1e308, 0.0),), ((2, 1e308, 1e308), (40, 1e305, 0.0))]
    )
    def test_certificate_overflow_falls_back_to_search(self, hs):
        # the weighted amplitudes sum past the float range, and so do the
        # search's grid values or its spectrum itself (1e308 * (1 - n^2) is
        # inf): its minimum is NaN or -inf, and neither certifies
        body = TrigSupport(1.0, tuple(Harmonic(*h) for h in hs))
        with np.errstate(all="ignore"):
            assert not min_curvature_radius(body)[0] >= 0.0
            with pytest.raises(NotStrictlyConvex):
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

    def test_mean_bound(self):
        # the mirror of the magnitude bound: a0 >= 1e-100 keeps a0^2 clear of underflow
        assert validate_convex(TrigSupport(1e-100, (Harmonic(2, 0.0, 2e-101),))).validated
        for a0 in (9.9e-101, 1e-200, 5e-324):
            with pytest.raises(BadSpec, match="below"):
                validate_convex(TrigSupport(a0, (Harmonic(2, 0.0, 0.2 * a0),)))

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


def _scalar_random_body(seed, degree, constant_width=False, index=0):
    """random_body drawn one rng.uniform per magnitude and per phase, the
    oracle of its one-array draw; it halves the amplitudes the same way."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    rng = np.random.Generator(np.random.Philox(seed=ss))
    hs = []
    for n in range(1, degree + 1):
        mag = rng.uniform(0.0, 0.5) / n**3
        phase = rng.uniform(0.0, TWO_PI)
        if constant_width and n >= 2 and n % 2 == 0:
            continue
        hs.append(Harmonic(n, mag * math.cos(phase), mag * math.sin(phase)))
    body = TrigSupport(1.0, tuple(hs))
    for _ in range(60):
        try:
            return bodies.validate_convex(body)
        except NotStrictlyConvex:
            body = TrigSupport(body.a0, tuple(Harmonic(h.n, 0.5 * h.a, 0.5 * h.b) for h in body.harmonics))
    raise AmplitudeTooLarge("random draw could not be rescaled to a convex body")


def _bits(body):
    """a0, n, a, b and the flag of a body, as bytes where they are floats:
    equal exactly when every bit is, the sign of zero included."""
    return np.float64(body.a0).tobytes(), body.n.tobytes(), body.a.tobytes(), body.b.tobytes(), body.validated


# The body algebra as it was written before the harmonics became arrays, one
# Harmonic and one dict entry at a time: the reference of the array forms.
def _reference_minkowski_sum(a, b):
    coeffs = {}
    for body in (a, b):
        for h in body.harmonics:
            acc = coeffs.setdefault(h.n, [0.0, 0.0])
            acc[0] += h.a
            acc[1] += h.b
    hs = tuple(Harmonic(n, ab[0], ab[1]) for n, ab in sorted(coeffs.items()))
    return TrigSupport(a.a0 + b.a0, hs, validated=a.validated and b.validated)


def _reference_rigid_motion(body, theta, v):
    vx, vy = float(v[0]), float(v[1])
    coeffs = {}
    for h in body.harmonics:
        c, s = math.cos(h.n * theta), math.sin(h.n * theta)
        coeffs[h.n] = [h.a * c - h.b * s, h.a * s + h.b * c]
    if vx != 0.0 or vy != 0.0:
        acc = coeffs.setdefault(1, [0.0, 0.0])
        acc[0] += vx
        acc[1] += vy
    hs = tuple(Harmonic(n, ab[0], ab[1]) for n, ab in sorted(coeffs.items()))
    return TrigSupport(body.a0, hs, validated=body.validated)


def _reference_recenter_to_steiner(body):
    return TrigSupport(body.a0, tuple(h for h in body.harmonics if h.n != 1), validated=body.validated)


def _reference_wigner_support(body):
    return TrigSupport(0.0, tuple(h for h in body.harmonics if h.n % 2 == 1))


@st.composite
def signed_zero_bodies(draw, max_degree=9):
    """Small bodies at distinct frequencies whose coefficients are often
    +0.0 or -0.0, so sums and rotations meet zeros of either sign."""
    ns = draw(st.lists(st.integers(1, max_degree), unique=True, max_size=max_degree))
    hs = [Harmonic(n, draw(_signed), draw(_signed)) for n in ns]
    return TrigSupport(draw(st.floats(0.5, 3.0)), hs, validated=draw(st.booleans()))


class TestArrayAlgebraBits:
    @given(signed_zero_bodies(), signed_zero_bodies())
    @settings(max_examples=60, deadline=None)
    def test_minkowski_sum(self, x, y):
        assert _bits(minkowski_sum(x, y)) == _bits(_reference_minkowski_sum(x, y))

    @given(signed_zero_bodies(), st.sampled_from([0.0, -0.0, PI]) | st.floats(-10, 10), _signed, _signed)
    @settings(max_examples=60, deadline=None)
    def test_rigid_motion(self, body, theta, vx, vy):
        got = rigid_motion(body, theta, (vx, vy))
        assert _bits(got) == _bits(_reference_rigid_motion(body, theta, (vx, vy)))

    @given(signed_zero_bodies())
    @settings(max_examples=60, deadline=None)
    def test_recenter_and_wigner(self, body):
        assert _bits(recenter_to_steiner(body)) == _bits(_reference_recenter_to_steiner(body))
        assert _bits(bodies.wigner_support(body)) == _bits(_reference_wigner_support(body))


class TestRandomBody:
    @pytest.mark.parametrize("constant_width", [False, True])
    @pytest.mark.parametrize("degree", [1, 2, 5, 8, 33])
    def test_array_draw_equals_scalar_draws(self, degree, constant_width):
        for seed in range(4):
            for index in range(3):
                got = random_body(seed, degree, constant_width, index)
                want = _scalar_random_body(seed, degree, constant_width, index)
                assert got.validated and _bits(got) == _bits(want)

    def test_halved_draw_equals_scalar_draws(self, monkeypatch):
        # default draws are convex at once, so a stricter check forces the
        # halving: every coefficient must fall to 1e-3 first.  The draw's
        # certificate (`_stage_one` on all rows) must leave such a row
        # uncertified, so that it reaches the stricter validate_convex
        validate, stage_one = bodies.validate_convex, bodies._stage_one
        rejected = []

        def large(a, b):
            return bool(np.any(np.maximum(np.abs(a), np.abs(b)) > 1e-3))

        def strict(body, *args, **kwargs):
            if large(body.a, body.b):
                rejected.append(body)
                raise NotStrictlyConvex(0.0, 0.0)
            return validate(body, *args, **kwargs)

        def strict_rows(a0, n, a, b):
            finite, slack, magnitude = stage_one(a0, n, a, b)
            strict = np.array([large(*row) for row in zip(a, b)], dtype=bool)
            return finite, np.where(strict, -math.inf, slack), magnitude

        monkeypatch.setattr(bodies, "validate_convex", strict)
        monkeypatch.setattr(bodies, "_stage_one", strict_rows)
        got = random_body(3, 6, index=2)
        halvings = len(rejected)
        want = _scalar_random_body(3, 6, index=2)
        assert _bits(got) == _bits(want)
        assert halvings == len(rejected) - halvings >= 5
        # the same in a chunk, between rows the certificate clears
        rejected.clear()
        chunk = bodies.random_bodies(3, [1, 2, 5], [2, 6, 3], [False, False, True])
        halvings = len(rejected)
        want = [_scalar_random_body(3, d, cw, i) for i, d, cw in [(1, 2, False), (2, 6, False), (5, 3, True)]]
        assert [_bits(body) for body in chunk] == [_bits(body) for body in want]
        assert halvings == len(rejected) - halvings >= 5

    def test_draws_certified_past_stage_one_equal_scalar_draws(self, monkeypatch):
        # a row the certificate leaves undecided is certified by the grid at
        # once, unhalved, and written back from its own values: rows of full
        # degree, of lower degree and of constant width
        stage_one = bodies._stage_one

        def undecided(a0, n, a, b):
            finite, slack, magnitude = stage_one(a0, n, a, b)
            return finite, np.full_like(slack, -math.inf), magnitude

        monkeypatch.setattr(bodies, "_stage_one", undecided)
        rows = [(0, 8, False), (1, 5, False), (2, 8, True), (3, 2, False)]
        chunk = bodies.random_bodies(3, *zip(*rows))
        assert [_bits(body) for body in chunk] == [_bits(_scalar_random_body(3, d, cw, i)) for i, d, cw in rows]

    @given(
        st.integers(0, 2**130 - 1),
        st.lists(st.tuples(st.integers(0, 2**40 - 1), st.integers(1, 64), st.booleans()), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_draw_equals_scalar_draws(self, seed, rows):
        # seeds of up to 5 words and spawn keys of 1 or 2 words, in one chunk
        index, degree, cw = zip(*rows)
        chunk = bodies.random_bodies(seed, index, degree, cw)
        for body, (i, d, c) in zip(chunk, rows):
            one = random_body(seed, d, c, index=i)
            assert _bits(body) == _bits(one) == _bits(_scalar_random_body(seed, d, c, i))

    @pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**100, 2**128 + 5, 3**90])
    def test_uniforms_follow_numpys_philox_stream(self, seed):
        # keys and doubles of the array Philox against numpy's Generator, for
        # spawn keys of one, two and three words in one call
        index = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 9, 2**64 + 1]
        key0, key1 = bodies._philox_keys(seed, index)
        for i, k0, k1 in zip(index, key0.tolist(), key1.tolist()):
            assert [k0, k1] == np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64).tolist()
        for k in range(1, 18):
            blocks = np.full(len(index), -(-k // 4))
            u = bodies._uniforms(seed, index, blocks).reshape(len(index), -1)[:, :k]
            for i, row in zip(index, u):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
                assert np.array_equal(row, rng.random(k))

    @pytest.mark.parametrize("seed, index", [(-1, 0), (3, -1), (-(2**70), 2)])
    def test_negative_seed_or_index_rejected(self, seed, index):
        with pytest.raises(ValueError, match=f"must be a non-negative integer, got {min(seed, index)}"):
            random_body(seed, 4, index=index)

    @pytest.mark.parametrize(
        "seed, degree, index", [(1.5, 3, 0), (-0.5, 3, 0), (1, 3, 2.9), (np.float64(1.0), 3, 0), (1, 3.0, 0)]
    )
    def test_non_integer_seed_degree_or_index_rejected(self, monkeypatch, seed, degree, index):
        # as numpy's SeedSequence rejects them, not truncated to an integer,
        # and before any draw; numpy integers are integers
        assert random_body(np.int64(1), np.int64(3), index=np.uint8(2)) == random_body(1, 3, index=2)
        monkeypatch.setattr(bodies, "_uniforms", lambda *args: pytest.fail("drew"))
        with pytest.raises(TypeError, match="integer"):
            random_body(seed, degree, index=index)


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
    def test_signed_zero_is_equal_hashes_equal_and_is_kept(self):
        neg, pos = (body_from_dict({"a0": 1, "harmonics": [{"n": 2, "a": a, "b": 0.2}]}) for a in (-0.0, 0.0))
        assert neg == pos and hash(neg) == hash(pos)
        assert math.copysign(1.0, body_to_dict(neg)["harmonics"][0]["a"]) == -1.0

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

    @pytest.mark.parametrize("n", [0, -3])
    def test_harmonic_lookup_below_one_rejected(self, ast_body, n):
        for body in (TrigSupport(1.0), ast_body):
            with pytest.raises(ValueError):
                body.harmonic(n)

    def test_harmonic_lookup(self, cw35_body):
        assert cw35_body.harmonic(5) == Harmonic(5, 0.0, 0.01)
        for n in (1, 4, 6, 10**30):
            assert cw35_body.harmonic(n) == Harmonic(n, 0.0, 0.0)
        assert TrigSupport(1.0).harmonic(2) == Harmonic(2, 0.0, 0.0)

    def test_hash_is_kept_after_the_first_call(self):
        body = random_body(5, 40, index=2)
        first = hash(body)
        vars(body).update(n=None, a=None, b=None)  # a hash that read them again would fail
        assert hash(body) == first

    def test_c_sq_is_one_read_only_array(self):
        body = random_body(5, 40, index=2)
        c_sq = body.c_sq
        assert body.c_sq is c_sq and not c_sq.flags.writeable
        assert c_sq.tobytes() == (body.a * body.a + body.b * body.b).tobytes()
        with pytest.raises(ValueError):
            c_sq[0] = 0.0
        with pytest.raises(AttributeError):
            body.c_sq = c_sq

    def test_frequency_past_int64_is_a_degree_past_the_bound(self):
        with pytest.raises(ValueError, match="harmonic degree 10{30} exceeds 262142"):
            TrigSupport(1.0, (Harmonic(10**30, 1e-20, 0.0),))

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
