"""Visual angles from exterior points and exterior-plane integrals.

The visual angle omega(P) of a convex body from an exterior point P is the
angle between the two tangent lines through P.  Integrals of kernels
f(omega) over the whole exterior are evaluated by two independent
quadratures and in closed form:

* tangent coordinates (primary): exterior points are parametrized by the
  normal angle phi1 of one support line and the gap delta in (0, pi) to
  the other, with area element dP = (t1*t2/sin(omega)) dphi1 ddelta where
  t_i are the tangent-segment lengths.  The domain is the finite rectangle
  [0,2*pi) x (0,pi) and the integrand stays bounded because every admitted
  kernel vanishes like omega^3 while the area element grows like
  omega^-3 as delta -> pi.  Its phi1 integral G(delta), the tangent field,
  is kernel independent and cached per body.  At a fixed
  gap the phi1 integrand t1*t2/sin(omega) = -u1*u2/sin(delta), with signed
  tangent lengths u1 = (p2 - p1 cos delta)/sin delta - p1' and
  u2 = (p2 cos delta - p1)/sin delta - p2' (p_i, p_i' at phi1 and
  phi1 + delta), is a product of two trigonometric polynomials of degree N
  in phi1, so of degree 2N: the periodic trapezoid on m >= 2N + 1 nodes is
  exact, and on 2N nodes it aliases.  The integrator takes the least such
  m >= 16 with no prime factor above 7 (`quadrature.fast_len`).  With
  c_n = a_n - i b_n, u1 has the coefficients a0 tan(delta/2) and
  c_n (R_n + i D_n), u2 has -a0 tan(delta/2) and c_n e^{in delta}
  (-R_n + i D_n), where R_n = (cos n delta - cos delta)/sin delta =
  -2 sin((n+1) delta/2) sin((n-1) delta/2)/sin delta and D_n =
  sin(n delta)/sin delta - n = -4 sum_{0<k<n, k+n odd} sin^2(k delta/2),
  neither of which cancels; each is one inverse FFT per gap
  (`_tangent_lengths`).

* polar grid (oracle): direct 2D quadrature about the Steiner point, the
  far zone mapped to s = r1/r on (0, 1] with no cutoff and the boundary
  collar added to first order (`_polar_field`).  Each ray's boundary exit
  is solved once and shared by its radial nodes, and the tangent lines of
  a block of directions are solved in one batch, O(1) per point and
  Newton step on one table of p; the field is cached per (body, config).

* closed form (`spectral_integral`): weights on a0^2 and on each c_n^2
  that follow from the kernel's coefficients.

The tangent lines through a point P are the roots of
g(phi) = <P, N(phi)> - p(phi), bracketed on either side of the normal angle
where the ray from the Steiner point through P leaves the body, and
polished together (`_tangent_solve`).  The polar oracle polishes them on
g_H = <P, N> - H, H the quintic Hermite interpolant of p sampled once per
field by one FFT (`_support_table`), to |g_H| <= tol - E, E a first-order
estimate of |g - g_H|, and finishes a root that misses it on Horner's g.
Float32 Newton steps on H seed it (`_coarse_roots`), and once fewer than
half of its brackets are open the float64 polish reads g_H at those alone.

The convention omega = pi - delta is pinned by the circle: a unit circle
seen from distance d subtends omega = 2*arcsin(1/d).

Kernels are stored exactly as alpha0*omega + sum_k alpha_k sin(k*omega);
that makes the omega -> 0 behaviour checkable by series (the coefficient
of omega must cancel) and lets small-omega evaluation switch to the
Maclaurin series, avoiding the cancellation that direct evaluation of
terms like omega - sin(omega) suffers near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from .bodies import (
    TrigSupport,
    _derivs,
    _grid_derivs,
    _polish_roots,
    _require_validated,
    boundary_point,
    recenter_to_steiner,
    steiner_point,
)
from .errors import (
    BadOrder,
    BoundaryCollar,
    DegenerateGap,
    InteriorPoint,
    NonIntegrableKernel,
    RootCountAnomaly,
)
from .quadrature import MAX_NODES, PI, TWO_PI, _read_only, fast_len, gauss_panels, rounded_sum

_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 16
# 8-point Gauss panels per radial zone (near and far) of the polar oracle.
_POLAR_PANELS = 6
# Entries (gaps x phi1) per block of _gap_mass, one _tangent_lengths call each:
# blocks keep the field's memory flat in the degree (unblocked, degree 262142
# would take about 6 GB); of 2^13 to 2^16, 2^14 timed best at degrees 8 to
# 128 and 8192, and 1.14x and 1.34x the best (2^15) at 512 and 2048.
_BLOCK_ENTRIES = 1 << 14
# Points per block of the polar oracle's tangent solve.
_POLAR_BLOCK_POINTS = 1 << 12
_COARSE_STEPS = 3  # float32 steps of `_polish_roots` that seed the polar oracle's float64 polish
# Collar of the polar oracle, in units of a0; its ring enters to first order.
_POLAR_COLLAR = 1e-7
# Exterior points must clear the boundary by this many a0 for the tangent solve.
_TANGENT_COLLAR = 1e-9
# Near-boundary collar of the tangent integrator: gaps below it are dropped,
# and the dropped mass is bounded inside the error bar.
_DELTA_MIN = 1e-4
# 16-point Gauss panels in the gap direction of the tangent integrator's fine
# level; its coarse level halves them.
_DELTA_PANELS = 16


@dataclass(frozen=True)
class Kernel:
    """Exterior kernel f(omega) = omega_coeff*omega + sum alpha_k sin(k omega).

    An alpha_k may be a `fractions.Fraction`, kept exact where the closed
    form sums it (`spectral_integral`) and rounded once where f is evaluated.
    A coefficient that is not finite raises ValueError, and a Maclaurin
    coefficient of omega that does not vanish NonIntegrableKernel, so every
    kernel has an exterior integral.  A kernel holds what depends on it alone,
    each part computed on first use: its Maclaurin series, its weights on the
    tangent integrator's gap rules and its closed form's w(0) and E(n).
    """

    name: str
    omega_coeff: float
    sin_coeffs: tuple[tuple[int, float | Fraction], ...]

    def __post_init__(self):
        if not all(math.isfinite(a) for a in (self.omega_coeff, *(a for _, a in self.sin_coeffs))):
            raise ValueError(f"kernel {self.name!r} needs finite coefficients")
        linear = self.omega_coeff + math.fsum(k * a for k, a in self.sin_coeffs)
        scale = abs(self.omega_coeff) + math.fsum(abs(k * a) for k, a in self.sin_coeffs)
        if abs(linear) > 1e-12 * max(scale, 1.0):
            raise NonIntegrableKernel(
                f"kernel {self.name!r} behaves like {linear:.3g}*omega near 0; "
                "exterior integrals need O(omega^3)"
            )

    @cached_property
    def _gap_weights(self) -> tuple[tuple[np.ndarray, ...], float]:
        """The kernel's part of `exterior_integral`: w * f(pi - x) on each
        level's gap rule of `_gap_rules`, and the collar factor
        _DELTA_MIN * |f(pi - _DELTA_MIN)|."""
        levels = _read_only(*(w * self(PI - x) for x, w in _gap_rules()))
        return levels, _DELTA_MIN * abs(self(PI - _DELTA_MIN))

    @cached_property
    def _closed_form(self) -> tuple[float, np.ndarray]:
        """The kernel's part of `spectral_integral`: w(0) and the read-only
        table of E(n), n <= k_max, the largest sin frequency; the sums of
        k^2 alpha_k are exact in fractions and rounded once."""
        moments = [(k, k * k * Fraction(a)) for k, a in self.sin_coeffs]
        w0 = float(-Fraction(self.omega_coeff) - 2 * sum(m for _, m in moments))
        corr = np.array([
            float(sum(m for k, m in moments if (n % 2 == 0 and k > n) or (k % 2 == 0 and k <= n)))
            for n in range(max((k for k, _ in moments), default=0) + 1)
        ])
        return w0, _read_only(corr)[0]

    def spectral_weights(self, n: np.ndarray) -> tuple[float, np.ndarray]:
        """w(0) and w(n) = alpha0 (n^2-1)/2 - E(n) at the frequencies n of
        `spectral_integral`'s closed form, E(n) = E(k_max) above the largest
        sin frequency k_max; w(1) = 0 exactly."""
        w0, corr = self._closed_form
        return w0, 0.5 * self.omega_coeff * (n * n - 1) - corr.take(n, mode="clip")

    @cached_property
    def _series(self) -> np.ndarray:
        # Maclaurin coefficients of omega^(2j+1), j = 0.._SERIES_TERMS-1.
        coeffs = np.zeros(_SERIES_TERMS)
        coeffs[0] = self.omega_coeff
        for k, a in self.sin_coeffs:
            term = float(k)
            for j in range(_SERIES_TERMS):
                coeffs[j] += float(a) * term
                term *= -(k * k) / ((2 * j + 2) * (2 * j + 3))
        return coeffs

    def __call__(self, omega):
        om = np.asarray(omega, dtype=float)
        out = self.omega_coeff * om
        for k, a in self.sin_coeffs:
            out = out + float(a) * np.sin(k * om)
        out = np.asarray(out)
        small = np.abs(om) < _SERIES_CUTOFF
        if np.any(small):
            om_s = om[small]
            acc = np.zeros_like(om_s)
            sq = om_s * om_s
            for c in self._series[::-1]:
                acc = acc * sq + c
            out[small] = acc * om_s
        if np.ndim(omega) == 0:
            return float(out)
        return out


def _merge_sin(terms: list[tuple[int, Fraction]]) -> tuple[tuple[int, Fraction], ...]:
    """Sum the coefficients of equal frequencies; sums start from the integer
    0, so exact Fraction terms stay exact."""
    acc: dict[int, Fraction] = {}
    for k, a in terms:
        acc[k] = acc.get(k, 0) + a
    return tuple(sorted((k, a) for k, a in acc.items() if a != 0.0))


@cache
def crofton_kernel() -> Kernel:
    """omega - sin(omega); integrates to L^2/2 - pi*F over the exterior."""
    return Kernel("crofton", 1.0, ((1, -1.0),))


@cache
def sin_cubed_kernel() -> Kernel:
    """sin^3(omega) = (3 sin(omega) - sin(3 omega)) / 4."""
    return Kernel("sin_cubed", 0.0, ((1, 0.75), (3, -0.25)))


def moment_kernel(n: int) -> Kernel:
    """Kernel whose exterior integral is L^2 + (-1)^n pi^2 (n^2-1) c_n^2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise BadOrder(f"moment order must be an integer >= 2, got {n!r}")
    n = int(n)
    terms = [(1, Fraction(-2)), (n - 1, Fraction(n + 1, n - 1)), (n + 1, Fraction(1 - n, n + 1))]
    return Kernel(f"moment_{n}", 0.0, _merge_sin(terms))


@cache
def visual_deficit_kernel() -> Kernel:
    """omega - sin(omega) - (2/3) sin^3(omega), the general deficit kernel."""
    return Kernel("visual_deficit", 1.0, ((1, -1.5), (3, Fraction(1, 6))))


@cache
def visual_deficit_cw_kernel() -> Kernel:
    """omega - 2 sin(omega) + sin(2 omega) - (1/4) sin(4 omega) - sin^3(omega).

    Constant-width deficit kernel; equals crofton + (1/2)*moment_3
    - (3/4)*moment_2 pointwise.
    """
    return Kernel("visual_deficit_cw", 1.0, ((1, -2.75), (2, 1.0), (3, 0.25), (4, -0.25)))


KERNELS = {
    "crofton": crofton_kernel,
    "sin_cubed": sin_cubed_kernel,
    "visual_deficit": visual_deficit_kernel,
    "visual_deficit_cw": visual_deficit_cw_kernel,
}


@dataclass(frozen=True)
class TangentPair:
    """The two support lines through an exterior point.

    phi1, phi2 are normal angles in [0, 2*pi); the counterclockwise gap
    from phi1 to phi2 is delta in (0, pi) and the visual angle is
    omega = pi - delta.  t1, t2 are the tangent-segment lengths from the
    point to the two tangency points.
    """

    phi1: float
    phi2: float
    omega: float
    t1: float
    t2: float


@dataclass(frozen=True)
class ExteriorConfig:
    """Controls of the polar oracle `exterior_integral_grid`.

    nodes_phi: its directions, an integer in [16, 2^20] (ValueError, raised
    before any allocation), each with 96 radial nodes.  The tangent
    integrator reads no config: its rule follows the body,
    fast_len(max(16, 2N + 1)) phi1 nodes for a body of degree N (the fewest
    with no prime factor above 7 on which it is exact, module docstring)
    and _DELTA_PANELS = 16 Gauss panels of 16 points in the gap, gaps below
    the fixed collar _DELTA_MIN = 1e-4 excluded and their dropped mass
    bounded inside the error bar.
    """

    nodes_phi: int = 256

    def __post_init__(self):
        if not isinstance(self.nodes_phi, (int, np.integer)) or not 16 <= self.nodes_phi <= MAX_NODES:
            raise ValueError(f"nodes_phi must be an integer in [16, {MAX_NODES}], got {self.nodes_phi!r}")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_bar: float
    method: str
    nodes: int


# ---------------------------------------------------------------------------
# Tangent root finding


def _g(body: TrigSupport, phi, px, py):
    """g(phi) = <P, N(phi)> - p(phi) and g'(phi), read at phi reduced by `_turn`."""
    phi = _turn(phi)
    c, s = np.cos(phi), np.sin(phi)
    p, dp = _derivs(body, phi, (0, 1), (c, s))
    return px * c + py * s - p, -px * s + py * c - dp


def _support_table(body: TrigSupport, tol: float):
    """(rows, h, E): the quintic Hermite interpolant H(j*h + s) =
    sum_k rows[k, j] s^k of p, p', p'' sampled by one `_grid_derivs` call on m
    cells of h = 2*pi/m (the last ends at sample 0), m the least power of two
    >= max(64, 2N + 2) whose remainder M6 h^6 / 46080 (M6 = sum_n n^6 |c_n|)
    is at most 1e-15 S_0, S_k = [k=0] a0 + sum_n n^k |c_n|.  E estimates
    |H - p| and Horner's N*u*S_0 in g at the root to first order, not as a
    proof: the remainder, the samples' 4*log2(m)*u*S_k through the Hermite
    basis (weights 1, 5/16, 1/32; against long-double FFTs, random_body(3, N,
    index=1) up to N = 2048 measured at most 0.4*log2(m)*u*S_k) and
    32u*sum_k h^k S_k for the cells.  None where E >= tol.
    """
    n, mag = body.n.astype(float), np.hypot(body.a, body.b)
    s0, s1, s2, s6 = (float(np.sum(n**k * mag)) for k in (0, 1, 2, 6))
    m, degree = 64, body.max_degree
    while m < 2 * degree + 2 or s6 * (TWO_PI / m) ** 6 / 46080.0 > 1e-15 * (body.a0 + s0):
        m *= 2
    h = TWO_PI / m
    sums = np.array([body.a0 + s0, s1 * h, s2 * h * h])
    weights = 4.0 * math.log2(m) * np.array([1.0, 5 / 16, 1 / 32]) + 32.0  # the samples through H, and the cells
    err = s6 * h**6 / 46080.0 + 2.0**-53 * (degree * sums[0] + sums @ weights)
    if err >= tol:
        return None
    p, dp, ddp = (np.append(v, v[0]) for v in _grid_derivs(body, m, (0, 1, 2)))
    # the left end's Taylor quadratic misses p, h p', h^2 p'' at the right end by
    # h^3 times (d, e, k); c_k = (10d - 4e + k/2, 7e - 15d - k, 6d - 3e + k/2) / h^(k-3)
    a2 = 0.5 * ddp[:-1]
    d = (p[1:] - (p[:-1] + h * (dp[:-1] + h * a2))) / h**3
    e = (dp[1:] - (dp[:-1] + 2.0 * h * a2)) / h**2
    k = (ddp[1:] - ddp[:-1]) / h
    c3, c4, c5 = 10.0 * d - 4.0 * e + 0.5 * k, (7.0 * e - 15.0 * d - k) / h, (6.0 * d - 3.0 * e + 0.5 * k) / h**2
    return np.array([p[:-1], dp[:-1], a2, c3, c4, c5]), h, err


def _g_table(table, phi, px, py):
    """g_H = <P, N(phi)> - H(phi) and g_H', read like `_g` (cell m, where phi/h
    rounds up, wraps to cell 0) in the dtype of the rows, phi and P; Horner's
    accumulators are the taken rows, updated in place."""
    (rows, h, _), phi = table, _turn(phi)
    cell = np.floor(phi / h)
    s, j = phi - cell * h, cell.astype(np.intp)
    *coef, v, dv = (row.take(j, mode="wrap") for row in rows)  # one array each keeps them off mmap
    v += dv * s
    for ck in coef[::-1]:
        np.add(np.multiply(dv, s, out=dv), v, out=dv)
        np.add(np.multiply(v, s, out=v), ck, out=v)
    c, sn = np.cos(phi), np.sin(phi)
    return px * c + py * sn - v, -px * sn + py * c - dv


def _coarse_roots(table, px, py, x, neg, pos, tol):
    """x after at most _COARSE_STEPS steps of `_polish_roots` on g_H in float32
    (whose sin and cos numpy runs as SIMD kernels) to |g_H| <= 2^23 tol, about
    7 float32 ulps of |P| + a0, below which a root would be bisected away."""
    x, neg, pos, px, py, tol, rows = (v.astype(np.float32) for v in (x, neg, pos, px, py, 2.0**23 * tol, table[0]))
    return _polish_roots(partial(_g_table, (rows, *table[1:])), x, neg, pos, tol, True, px, py, steps=_COARSE_STEPS)[0]


def _tangent_angles(body: TrigSupport, points, table=None):
    """Arrays (phi1, phi2, omega) of the support lines through each row of
    points: the ray from the Steiner point S through each P is solved by
    `_radial_boundary` and handed to `_tangent_solve` with the table.  Each
    point is solved on its own, bit for bit.
    """
    px, py = points[:, 0], points[:, 1]
    sx, sy = steiner_point(body)
    theta = np.arctan2(py - sy, px - sx)
    rb, phi_b = _radial_boundary(recenter_to_steiner(body), theta)
    return _tangent_solve(body, px, py, np.hypot(px - sx, py - sy), theta, rb, phi_b, table)


def _turn(x):
    """x % TWO_PI for x in [-4*pi, 4*pi), bit for bit, by floor and one
    correction (each step exact or rounded once as `%` rounds), about ten
    times cheaper than numpy's remainder."""
    x = x - TWO_PI * np.floor(x / TWO_PI)
    return np.where(x < 0.0, x + TWO_PI, x)


def _tangent_solve(body: TrigSupport, px, py, r, theta, rb, phi_b, table=None):
    """Arrays (phi1, phi2, omega) of the support lines through the points (px, py).

    The point lies at distance r from the Steiner point S in the direction
    theta, and the ray leaves the body at distance rb, at the boundary point
    with normal angle phi_b.  The arguments broadcast, so the polar oracle
    solves each direction's exit once and shares it by that ray's nodes.  At
    phi_b, g(phi) = <P, N(phi)> - p(phi) equals (r - rb) * cos(theta - phi_b),
    a lower bound on the clearance max g: InteriorPoint means it is at most
    tol = 1e-13 * (|P| + a0), BoundaryCollar at most _TANGENT_COLLAR * a0.
    Otherwise g is positive on one arc shorter than pi that contains phi_b, so
    g(phi_b -/+ pi) < 0 and phi1, phi2 lie in (phi_b - pi, phi_b) and
    (phi_b, phi_b + pi).  Both are polished together from
    phi_b -/+ arccos(rb / r), the roots for a circle of radius rb.  Given a
    `_support_table`, `_coarse_roots` moves them in float32 (into the bracket;
    one it leaves non-finite or unmoved stays), and they are polished on
    g_H = <P, N> - H to |g_H| <= (1 - 2^-50) tol - E, E its estimate of
    |g - g_H|, with one more Newton step where the last exceeded 1e-12, kept
    if it meets that bound; roots that miss it, and all without a table, are
    polished on Horner's g.  Both read g at the root reduced mod 2*pi, so the
    bound holds at the angle returned.  g rises through zero at phi1 and is
    positive on the counterclockwise arc of length delta = pi - omega to
    phi2; RootCountAnomaly means that arc is not shorter than pi.
    """
    tol = 1e-13 * (np.hypot(px, py) + body.a0)
    collar = _TANGENT_COLLAR * body.a0
    clearance = (r - rb) * np.cos(theta - phi_b)
    inside = clearance <= tol
    if inside.any():
        raise InteriorPoint(f"point {[float(px[inside][0]), float(py[inside][0])]} lies inside the body")
    thin = clearance <= collar
    if thin.any():
        raise BoundaryCollar(f"point clears the boundary by {clearance[thin][0]:.3g}, below collar {collar:.3g}")
    # last axis, entry 0: rising root, entry 1: falling root; every bracket lies
    # within pi of phi_b, itself within pi/2 of theta in (-pi, 2*pi): in _turn's range.
    # The polish gathers arrays of the roots' shape (a broadcast one costs 6x as much).
    shape = clearance.shape + (2,)
    px, py, tol, b = (np.broadcast_to(v[..., None], shape).copy() for v in (px, py, tol, phi_b))
    x, neg = b + np.array([-1.0, 1.0]) * np.arccos(rb / r)[..., None], b + np.array([-PI, PI])
    todo = np.ones(shape, dtype=bool)
    if table is not None:
        tol_h = (1.0 - 2.0**-50) * tol - table[2]
        seed = _coarse_roots(table, px, py, x, neg, b, tol)
        moved = np.isfinite(seed) & (seed != x.astype(np.float32))
        x = np.where(moved, np.clip(seed, np.minimum(neg, b), np.maximum(neg, b)), x)
        x, (g, dg) = _polish_roots(partial(_g_table, table), x, neg, b, tol_h, tol_h > 0.0, px, py)
        todo = ~(np.abs(g) <= tol_h)
        big = ~todo & (np.abs(g) > 1e-12 * np.abs(dg)) & (dg != 0.0)
        y = x[big] - g[big] / dg[big]
        x[big] = np.where(np.abs(_g_table(table, y, px[big], py[big])[0]) <= tol_h[big], y, x[big])
    if todo.any():
        x[todo], _ = _polish_roots(partial(_g, body), x[todo], neg[todo], b[todo], tol[todo], True, px[todo], py[todo])
    roots = _turn(x)
    delta = _turn(roots[..., 1] - roots[..., 0])
    wide = ~((0.0 < delta) & (delta < PI))
    if wide.any():
        raise RootCountAnomaly(f"positive arc has length {delta[wide][0]:.6g}, outside (0, pi)")
    return roots[..., 0], roots[..., 1], PI - delta


def support_line_angles(body: TrigSupport, point) -> TangentPair:
    """Normal angles of the two support lines through an exterior point.

    Roots of g(phi) = <P, N(phi)> - p(phi) are bracketed on either side of
    the normal angle where the ray from the Steiner point through P leaves the
    body, and polished to |g| <= 1e-13 * (|P| + a0) (the one-point case of
    `_tangent_angles`).  Raises InteriorPoint when P is not outside that
    boundary point and BoundaryCollar when g there, a lower bound on the
    clearance, is below 1e-9 * a0; ValueError, before any solve, when the
    point is not two finite coordinates.
    """
    _require_validated(body)
    point = np.asarray(point, dtype=float)
    if point.shape != (2,) or not np.isfinite(point).all():
        raise ValueError(f"point must be two finite coordinates, got {point.tolist()!r}")
    phi1, phi2, omega = (float(v[0]) for v in _tangent_angles(body, point[None, :]))
    t1, t2 = (float(np.hypot(*(point - boundary_point(body, phi)))) for phi in (phi1, phi2))
    return TangentPair(phi1=phi1, phi2=phi2, omega=omega, t1=t1, t2=t2)


def exterior_point(body: TrigSupport, phi1: float, delta: float):
    """Exterior point with support-line normals at phi1 and phi1 + delta.

    Returns (P, jac, omega): P solves the 2x2 linear system of the two
    support-line equations, jac = t1*t2/sin(omega) = |u1*u2|/sin(delta) is
    the area-element factor of the (phi1, delta) parametrization, u1 and u2
    the signed tangent lengths from P, and omega = pi - delta.
    """
    _require_validated(body)
    if not (0.0 < delta < PI):
        raise DegenerateGap(f"delta must lie in (0, pi), got {delta}")
    sd, (p1, dp1), (p2, dp2) = math.sin(delta), _derivs(body, phi1, (0, 1)), _derivs(body, phi1 + delta, (0, 1))
    c1, s1, c2, s2 = np.cos(phi1), np.sin(phi1), np.cos(phi1 + delta), np.sin(phi1 + delta)
    px, py = float((p1 * s2 - p2 * s1) / sd), float((p2 * c1 - p1 * c2) / sd)
    u1, u2 = -px * s1 + py * c1 - dp1, -px * s2 + py * c2 - dp2
    return np.array([px, py]), float(abs(u1 * u2)) / sd, PI - delta


# ---------------------------------------------------------------------------
# Tangent-coordinate integration


def _tangent_lengths(body: TrigSupport, m: int, gaps) -> np.ndarray:
    """(u1, u2) stacked, one row per gap delta and one column per phi1 =
    2*pi*j/m, by the multipliers of the module docstring, sampled like
    `bodies._grid_derivs` on a multiple q*m > 2N.  D_n runs by
    D_(n+2) = D_n - 4 sin^2((n+1) delta/2) from D_0 = D_1 = 0.  Real
    multiplies and adds alone form and apply the multipliers, so a row's
    bits depend on its gap alone."""
    n, a, b, top = body.n, 0.5 * body.a, 0.5 * body.b, body.max_degree
    q = 2 * top // m + 1
    half = (0.5 * gaps)[:, None] * np.arange(top + 2.0)
    s, d = np.sin(half), np.zeros((len(gaps), top // 2 + 1, 2))  # D_2i+j at [:, i, j]
    d.reshape(len(gaps), -1)[:, 2 : top + 1] = -4.0 * s[:, 1:top] ** 2
    d = np.cumsum(d, axis=1).reshape(len(gaps), -1)
    r, d, sn = -2.0 * s[:, n + 1] * s[:, n - 1] / np.sin(gaps)[:, None], d[:, n], s[:, n]
    cos_n, sin_n = 1.0 - 2.0 * sn * sn, 2.0 * sn * np.cos(half[:, n])
    ar, bd, ad, br = a * r, b * d, a * d, b * r  # c_n (R_n + i D_n) and c_n (-R_n + i D_n)
    x, y = bd - ar, ad + br
    spec = np.zeros((2, len(gaps), q * m // 2 + 1), dtype=complex)
    spec[:, :, 0] = np.multiply.outer([body.a0, -body.a0], np.tan(0.5 * gaps))
    spec[0].real[:, n], spec[0].imag[:, n] = ar + bd, ad - br
    spec[1].real[:, n], spec[1].imag[:, n] = cos_n * x - sin_n * y, sin_n * x + cos_n * y
    return np.fft.irfft(spec, q * m, norm="forward")[..., ::q]


def _gap_mass(body: TrigSupport, gaps, nodes_phi: int):
    """The tangent field G at the 1-D `gaps`: integral_exterior f(omega) dP =
    integral_0^pi f(pi - delta) G(delta) ddelta, G the periodic trapezoid of
    |u1*u2| / sin(delta) on nodes_phi angles, one `_tangent_lengths` call
    per block of _BLOCK_ENTRIES entries (gaps x phi1).
    """
    gaps = np.asarray(gaps, dtype=float)
    rows = max(1, _BLOCK_ENTRIES // nodes_phi)
    blocks = (_tangent_lengths(body, nodes_phi, gaps[i : i + rows]) for i in range(0, len(gaps), rows))
    return TWO_PI / nodes_phi * np.concatenate([rounded_sum(np.abs(u1 * u2)) for u1, u2 in blocks]) / np.sin(gaps)


def _delta_edges(panels: int) -> np.ndarray:
    s = np.linspace(0.0, 1.0, panels + 1)
    return _DELTA_MIN + (PI - _DELTA_MIN) * (1.0 - (1.0 - s) ** 2)


@lru_cache(maxsize=1)
def _gap_rules() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(gap nodes, Gauss weights) of the fine level, _DELTA_PANELS panels of
    16 points, and of the coarse level, half as many; body independent,
    built on first use."""
    panels = (_DELTA_PANELS, _DELTA_PANELS // 2)
    return tuple(_read_only(*gauss_panels(_delta_edges(n), points=16)) for n in panels)


@lru_cache(maxsize=8)
def _tangent_field(body: TrigSupport):
    """Kernel-independent part of `exterior_integral`, cached for the last 8
    bodies: (G at the gap nodes of the fine and of the coarse level of
    `_gap_rules`, the fine level's node count, G(_DELTA_MIN)).

    G's phi1 rule is exact on the `fast_len`(max(16, 2N + 1)) nodes all gaps
    take (module docstring).  The fine level takes _DELTA_PANELS gap panels
    and the coarse level half as many, so fine - coarse measures the delta
    rule.  The two levels and the collar row are one `_gap_mass` call, one
    sequence of blocks, whose masses are split back per level.  G is
    translation invariant: the n = 1 multipliers vanish (R_1 = D_1 = 0).
    """
    nodes_phi = fast_len(max(16, 2 * body.max_degree + 1))
    levels = [x for x, _ in _gap_rules()]
    mass = _gap_mass(body, np.concatenate([*levels, [_DELTA_MIN]]), nodes_phi)
    *masses, collar_row = np.split(mass, np.cumsum([x.size for x in levels]))
    return _read_only(*masses), levels[0].size * nodes_phi, float(collar_row[0])


def exterior_integral(body: TrigSupport, kernel: Kernel, config: ExteriorConfig | None = None) -> IntegralResult:
    """Integral of kernel(omega(P)) over the exterior, in tangent coordinates.

    Composite Gauss panels in the gap direction (graded toward delta = pi,
    where the integrand has a removable limit) and a periodic trapezoid in
    the angular direction on fast_len(max(16, 2N + 1)) nodes, exact for the
    degree-2N phi1 integrand.  The error bar combines the difference from a
    coarse level that halves only the delta panels with a bound on the mass
    dropped inside the near-boundary collar.  The tangent field is kernel
    independent and cached per body, and the kernel's weighted values on the
    gap nodes are body independent and held by the kernel.
    `config` is accepted, so the call reads like `exterior_integral_grid`'s,
    and not read: the rule follows the body alone.
    """
    _require_validated(body)
    level_f, collar_f = kernel._gap_weights
    masses, nodes, collar_row = _tangent_field(body)
    fine, coarse = (rounded_sum(wf * mass) for wf, mass in zip(level_f, masses))
    # the dropped collar mass is ~ 0.5*_DELTA_MIN*row; report twice that for safety
    collar_err = collar_f * collar_row
    err = abs(fine - coarse) + collar_err + 1e-14 * abs(fine)
    return IntegralResult(fine, err, "tangent_coords", nodes)


def spectral_integral(body: TrigSupport, kernel: Kernel) -> IntegralResult:
    """Integral of kernel(omega(P)) over the exterior, in closed form.

    For f = alpha0*omega + sum alpha_k sin(k omega) it is pi^2 [w(0) a0^2 +
    sum_{n>=2} w(n) c_n^2], each weight the transform of one harmonic's part of
    the tangent field (Santalo 1976): w(0) = -alpha0 - 2 sum k^2 alpha_k and
    w(n) = alpha0 (n^2-1)/2 - E(n), E(n) the sum of k^2 alpha_k over the k with
    (n even and k > n) or (k even and k <= n).  The n = 1 harmonic cancels.
    `Kernel.spectral_weights` gives w(0) and w(n); the sum over w(0) a0^2 and
    the products is correctly rounded.
    """
    _require_validated(body)
    w0, w = kernel.spectral_weights(body.n)
    value = PI * PI * rounded_sum(np.concatenate(([w0 * body.a0 * body.a0], w * body.c_sq)))
    return IntegralResult(value, 0.0, "spectral", 0)


# ---------------------------------------------------------------------------
# Polar-grid oracle


def _radial_boundary(body: TrigSupport, thetas):
    """Distances rb from the origin to the boundary along the directions
    thetas, and the normal angles phi of the boundary points they reach.

    rb minimizes p(phi)/cos(theta - phi) over the half-turn window about
    theta (the origin must be interior), so phi is the root of
    k = p' cos(theta - phi) - p sin(theta - phi), whose derivative
    rho cos(theta - phi) is positive in the window: k < 0 < k at its ends.
    """
    span = PI / 2.0 - 1e-6

    def k(phi, theta):
        c, s = np.cos(theta - phi), np.sin(theta - phi)
        p, dp, ddp = _derivs(body, phi, (0, 1, 2))
        return dp * c - p * s, (p + ddp) * c, p / c

    phi, (_, _, rb) = _polish_roots(k, thetas, thetas - span, thetas + span, 1e-13 * body.a0, True, thetas)
    return rb, phi


@lru_cache(maxsize=8)
def _polar_field(body: TrigSupport, cfg: ExteriorConfig):
    """Visual-angle field on a polar grid about the Steiner point.

    Returns (omegas, weights, ring_mass):
      omegas/weights: one row of radial nodes per theta, with full area
        measure r*dr*dtheta; the near zone, from the collar _POLAR_COLLAR * a0
        off the boundary out to r1 = 3 * max rb, in r = rb + u^2, then the far
        zone r > r1 in s = r1/r on (0, 1], where r dr = r1^2 s^-3 ds; each
        direction's boundary exit is solved once, by one `_radial_boundary`
        call for all of them, and shared by that ray's nodes, and the tangent
        lines of a block of rows are solved in one batch (`_tangent_solve`),
        on one `_support_table` of the body where its estimate leaves room;
      ring_mass: area of the collar ring, sum_theta w_theta (rb*c + c^2/2).
    Cached for the last 8 (body, config) pairs: the field is kernel independent.
    """
    centered = recenter_to_steiner(body)
    collar = _POLAR_COLLAR * centered.a0
    n_theta = cfg.nodes_phi
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    w_theta = TWO_PI / n_theta

    rbs, phi_bs = _radial_boundary(centered, thetas)
    r1 = 3.0 * float(np.max(rbs))
    # far zone: admitted kernels vanish like omega^3 and omega ~ width/r, so f(omega) s^-3 stays bounded as s -> 0
    s_nodes, s_w = gauss_panels(np.linspace(0.0, 1.0, _POLAR_PANELS + 1), points=8)
    # near zone: r = rb + u^2 smooths the sqrt-type onset of omega(r); one row of panels per direction
    u_edges = np.linspace(math.sqrt(collar), np.sqrt(r1 - rbs), _POLAR_PANELS + 1, axis=1)
    u_nodes, u_w = gauss_panels(u_edges, points=8)
    near_r = rbs[:, None] + u_nodes**2
    rs = np.hstack([near_r, np.tile(r1 / s_nodes, (n_theta, 1))])
    weights = w_theta * np.hstack([2.0 * u_nodes * u_w * near_r, np.tile(r1 * r1 * s_w / s_nodes**3, (n_theta, 1))])
    ring_mass = w_theta * rounded_sum(rbs * collar + 0.5 * collar * collar)
    exits = (thetas[:, None], rbs[:, None], phi_bs[:, None])
    rays = (rs * np.cos(exits[0]), rs * np.sin(exits[0]), rs, *exits)
    rows = max(1, _POLAR_BLOCK_POINTS // rs.shape[1])
    table = _support_table(centered, 1e-13 * (centered.a0 + float(np.min(rs))))
    omegas = [_tangent_solve(centered, *(a[i : i + rows] for a in rays), table)[2] for i in range(0, n_theta, rows)]
    return np.concatenate(omegas), weights, ring_mass


def exterior_integral_grid(body: TrigSupport, kernel: Kernel, config: ExteriorConfig | None = None) -> IntegralResult:
    """Polar-grid oracle for the exterior integral.

    2D quadrature about the Steiner point (`_polar_field`): Gauss panels in
    the radius, the far zone mapped to s = r1/r so the rule reaches infinity
    with no cutoff, and the periodic trapezoid in the direction.  The collar
    ring within _POLAR_COLLAR * a0 of the boundary adds f(pi) * ring_mass, its
    first order.  The error bar is twice the difference from every other
    direction, plus ring_mass * max_theta |f(omega at the innermost node) -
    f(pi)|, a bound on the collar's next order, plus 1e-12 * |value|.
    """
    _require_validated(body)
    omegas, weights, ring_mass = _polar_field(body, config or ExteriorConfig())
    fvals = kernel(omegas)
    mass = weights * fvals
    field = rounded_sum(mass.ravel())
    # angular-resolution estimate: same field restricted to every other theta
    coarse = 2.0 * rounded_sum(mass[::2].ravel())
    f_pi = kernel(PI)
    value = field + f_pi * ring_mass
    collar_err = ring_mass * float(np.max(np.abs(fvals[:, 0] - f_pi)))
    err = 2.0 * abs(field - coarse) + collar_err + 1e-12 * abs(value)
    return IntegralResult(value, err, "polar_grid", omegas.size)
