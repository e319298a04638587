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
  omega^-3 as delta -> pi.  Its phi1 integral G(delta), the tangent
  field, is kernel independent and cached per (body, config).

* polar grid (oracle): direct 2D quadrature about the Steiner point out to
  the cutoff radius 40*a0, with the tangent lines of all radial nodes of a
  block of directions solved in one batch, plus a fitted 1/r^2 tail for the
  remainder.  Its visual-angle field is cached per (body, config) too.

* closed form (`spectral_integral`): weights on a0^2 and on each c_n^2
  that follow from the kernel's coefficients.

The tangent lines through a point P are the roots of
g(phi) = <P, N(phi)> - p(phi), bracketed on either side of the normal angle
where the ray from the Steiner point through P leaves the body, and
polished together (`_tangent_angles`).

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
from functools import cached_property, lru_cache

import numpy as np

from .bodies import (
    TrigSupport,
    _derivs,
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
from .quadrature import MAX_NODES, PI, TWO_PI, gauss_panels

_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 16
# 8-point Gauss panels per radial zone (near and far) of the polar oracle.
_POLAR_PANELS = 6
# Entries (gaps x phi1) per block of the corner solve in _gap_mass.
_BLOCK_ENTRIES = 1 << 12
# Points per block of the polar oracle's tangent solve.
_POLAR_BLOCK_POINTS = 1 << 12
# Cutoff radius of the polar oracle, in units of a0.
_POLAR_R_MAX = 40.0
# Exterior points must clear the boundary by this many a0 for the tangent solve.
_TANGENT_COLLAR = 1e-9
# Near-boundary collar of the tangent integrator: gaps below it are dropped,
# and the dropped mass is bounded inside the error bar.
_DELTA_MIN = 1e-4


@dataclass(frozen=True)
class Kernel:
    """Exterior kernel f(omega) = omega_coeff*omega + sum alpha_k sin(k omega).

    An alpha_k may be a `fractions.Fraction`, kept exact where the closed
    form sums it (`spectral_integral`) and rounded once where f is evaluated.
    """

    name: str
    omega_coeff: float
    sin_coeffs: tuple[tuple[int, float | Fraction], ...]

    def check_integrable(self) -> None:
        """Raise unless the Maclaurin coefficient of omega vanishes."""
        linear = self.omega_coeff + math.fsum(k * a for k, a in self.sin_coeffs)
        scale = abs(self.omega_coeff) + math.fsum(abs(k * a) for k, a in self.sin_coeffs)
        if abs(linear) > 1e-12 * max(scale, 1.0):
            raise NonIntegrableKernel(
                f"kernel {self.name!r} behaves like {linear:.3g}*omega near 0; "
                "exterior integrals need O(omega^3)"
            )

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
        small = np.abs(om) < _SERIES_CUTOFF
        if np.any(small):
            om_s = np.where(small, om, 0.0)
            acc = np.zeros_like(om_s)
            sq = om_s * om_s
            for c in self._series[::-1]:
                acc = acc * sq + c
            out = np.where(small, acc * om_s, out)
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


def crofton_kernel() -> Kernel:
    """omega - sin(omega); integrates to L^2/2 - pi*F over the exterior."""
    return Kernel("crofton", 1.0, ((1, -1.0),))


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


def visual_deficit_kernel() -> Kernel:
    """omega - sin(omega) - (2/3) sin^3(omega), the general deficit kernel."""
    return Kernel("visual_deficit", 1.0, ((1, -1.5), (3, Fraction(1, 6))))


def visual_deficit_cw_kernel() -> Kernel:
    """omega - 2 sin(omega) + sin(2 omega) - (1/4) sin(4 omega) - sin^3(omega).

    Constant-width deficit kernel; equals crofton + (1/2)*moment_3
    - (3/4)*moment_2 pointwise.
    """
    return Kernel(
        "visual_deficit_cw",
        1.0,
        ((1, -2.75), (2, 1.0), (3, 0.25), (4, -0.25)),
    )


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
    """Controls for exterior integrals.

    nodes_phi: periodic trapezoid nodes in the angular direction.
    nodes_delta: total Gauss points along the gap direction (16 per panel).
    Gaps below the fixed collar _DELTA_MIN = 1e-4 (delta -> 0) are
    excluded; their dropped mass is bounded and reported inside the error
    bar.  The polar oracle uses nodes_phi directions and the cutoff radius
    40*a0.  Node counts must lie in [16, 2^20] (ValueError, raised before
    any allocation).
    """

    nodes_phi: int = 256
    nodes_delta: int = 256

    def __post_init__(self):
        if not all(16 <= n <= MAX_NODES for n in (self.nodes_phi, self.nodes_delta)):
            raise ValueError(f"node counts must lie in [16, {MAX_NODES}]")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_bar: float
    method: str
    nodes: int


# ---------------------------------------------------------------------------
# Tangent root finding


def _g(body: TrigSupport, px, py, phi):
    """g(phi) = <P, N(phi)> - p(phi) and its derivative g'(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    p, dp = _derivs(body, phi, (0, 1), (c, s))
    return px * c + py * s - p, -px * s + py * c - dp


def _tangent_angles(body: TrigSupport, points):
    """Arrays (phi1, phi2, omega) of the support lines through each row of points.

    The ray from the Steiner point S through P leaves the body at distance rb,
    at the boundary point with normal angle phi_b (`_radial_boundary`).  There
    g(phi) = <P, N(phi)> - p(phi) equals (|P - S| - rb) * cos(theta - phi_b), a
    lower bound on the clearance max g: InteriorPoint means it is at most
    tol = 1e-13 * (|P| + a0), BoundaryCollar at most _TANGENT_COLLAR * a0.
    Otherwise g is positive on one arc shorter than pi that contains phi_b, so
    g(phi_b -/+ pi) < 0 and phi1, phi2 lie in (phi_b - pi, phi_b) and
    (phi_b, phi_b + pi).  Both are polished together to |g| <= tol from
    phi_b -/+ arccos(rb / |P - S|), the roots for a circle of radius rb.
    g rises through zero at phi1 and is positive on the counterclockwise arc
    of length delta = pi - omega to phi2; RootCountAnomaly means that arc is
    not shorter than pi.  Each point is solved on its own, bit for bit.
    """
    px, py = points[:, 0], points[:, 1]
    tol = 1e-13 * (np.hypot(px, py) + body.a0)
    collar = _TANGENT_COLLAR * body.a0
    sx, sy = steiner_point(body)
    r, theta = np.hypot(px - sx, py - sy), np.arctan2(py - sy, px - sx)
    rb, phi_b = _radial_boundary(recenter_to_steiner(body), theta)
    clearance = (r - rb) * np.cos(theta - phi_b)
    inside = clearance <= tol
    if inside.any():
        raise InteriorPoint(f"point {points[inside][0].tolist()} lies inside the body")
    thin = clearance <= collar
    if thin.any():
        raise BoundaryCollar(f"point clears the boundary by {clearance[thin][0]:.3g}, below collar {collar:.3g}")
    # column 0: rising root, column 1: falling root
    side, b = np.array([-1.0, 1.0]), phi_b[:, None]
    x, _ = _polish_roots(
        lambda x: _g(body, px[:, None], py[:, None], x),
        b + side * np.arccos(rb / r)[:, None], neg=b + side * PI, pos=b, tol=tol[:, None], active=True,
    )
    roots = x % TWO_PI
    delta = (roots[:, 1] - roots[:, 0]) % TWO_PI
    wide = ~((0.0 < delta) & (delta < PI))
    if wide.any():
        raise RootCountAnomaly(f"positive arc has length {delta[wide][0]:.6g}, outside (0, pi)")
    return roots[:, 0], roots[:, 1], PI - delta


def support_line_angles(body: TrigSupport, point) -> TangentPair:
    """Normal angles of the two support lines through an exterior point.

    Roots of g(phi) = <P, N(phi)> - p(phi) are bracketed on either side of
    the normal angle where the ray from the Steiner point through P leaves the
    body, and polished to |g| <= 1e-13 * (|P| + a0) (the one-point case of
    `_tangent_angles`).  Raises InteriorPoint when P is not outside that
    boundary point and BoundaryCollar when g there, a lower bound on the
    clearance, is below 1e-9 * a0.
    """
    _require_validated(body)
    point = np.asarray(point, dtype=float)
    phi1, phi2, omega = (float(v[0]) for v in _tangent_angles(body, point[None, :]))
    t1, t2 = (float(np.hypot(*(point - boundary_point(body, phi)))) for phi in (phi1, phi2))
    return TangentPair(phi1=phi1, phi2=phi2, omega=omega, t1=t1, t2=t2)


def _corners(body: TrigSupport, phi1, deltas):
    """(px, py, u1, u2), one row per gap delta and one column per phi1: the
    corner P where the support lines at phi1 and phi1 + delta meet, and the
    signed tangent lengths from P to their tangency points."""
    c1, s1 = np.cos(phi1), np.sin(phi1)
    p1, dp1 = _derivs(body, phi1, (0, 1), (c1, s1))
    phi2 = phi1 + deltas[:, None]
    c2, s2 = np.cos(phi2), np.sin(phi2)
    sd = np.array([math.sin(d) for d in deltas])[:, None]
    p2, dp2 = _derivs(body, phi2, (0, 1), (c2, s2))
    px = (p1 * s2 - p2 * s1) / sd
    py = (p2 * c1 - p1 * c2) / sd
    return px, py, -px * s1 + py * c1 - dp1, -px * s2 + py * c2 - dp2


def exterior_point(body: TrigSupport, phi1: float, delta: float):
    """Exterior point with support-line normals at phi1 and phi1 + delta.

    Returns (P, jac, omega): P solves the 2x2 linear system of the two
    support-line equations, jac = t1*t2/sin(omega) is the area-element
    factor of the (phi1, delta) parametrization, and omega = pi - delta.
    """
    _require_validated(body)
    if not (0.0 < delta < PI):
        raise DegenerateGap(f"delta must lie in (0, pi), got {delta}")
    px, py, u1, u2 = (float(v[0, 0]) for v in _corners(body, phi1, np.array([delta])))
    return np.array([px, py]), abs(u1 * u2) / math.sin(delta), PI - delta


# ---------------------------------------------------------------------------
# Tangent-coordinate integration


def _gap_mass(body: TrigSupport, delta, nodes_phi: int):
    """Integral over phi1 of the area-element factor at fixed gap delta.

    Vectorized over gaps in blocks of _BLOCK_ENTRIES corners; returns the
    kernel-independent tangent field G (cached by `_tangent_field`) with
    integral_exterior f(omega) dP = integral_0^pi f(pi - delta) G(delta) ddelta.
    """
    phi1 = np.linspace(0.0, TWO_PI, nodes_phi, endpoint=False)
    deltas = np.atleast_1d(np.asarray(delta, dtype=float))
    rows = max(1, _BLOCK_ENTRIES // nodes_phi)
    sums = []
    for start in range(0, deltas.size, rows):
        _, _, u1, u2 = _corners(body, phi1, deltas[start : start + rows])
        sums.extend(map(math.fsum, np.abs(u1 * u2).tolist()))
    return TWO_PI / nodes_phi * np.array(sums) / np.array([math.sin(d) for d in deltas])


def _delta_edges(panels: int) -> np.ndarray:
    s = np.linspace(0.0, 1.0, panels + 1)
    return _DELTA_MIN + (PI - _DELTA_MIN) * (1.0 - (1.0 - s) ** 2)


@lru_cache(maxsize=8)
def _tangent_field(body: TrigSupport, cfg: ExteriorConfig):
    """Kernel-independent part of `exterior_integral`, cached for the last 8
    (body, config) pairs as the polar field is: (gap nodes, Gauss weights, G at
    the nodes, node count) for the fine and the coarse level, and G(_DELTA_MIN)."""
    panels = max(4, cfg.nodes_delta // 16)
    levels = []
    for nodes_phi, n in ((cfg.nodes_phi, panels), (max(16, cfg.nodes_phi // 2), max(2, panels // 2))):
        nodes, weights = gauss_panels(_delta_edges(n), points=16)
        levels.append((nodes, weights, _gap_mass(body, nodes, nodes_phi), nodes.size * nodes_phi))
    return tuple(levels), float(_gap_mass(body, _DELTA_MIN, cfg.nodes_phi)[0])


def exterior_integral(body: TrigSupport, kernel: Kernel, config: ExteriorConfig | None = None) -> IntegralResult:
    """Integral of kernel(omega(P)) over the exterior, in tangent coordinates.

    Composite Gauss panels in the gap direction (graded toward delta = pi,
    where the integrand has a removable limit) and a periodic trapezoid in
    the angular direction.  The error bar combines a coarse/fine difference
    with a bound on the mass dropped inside the near-boundary collar.  The
    tangent field is kernel independent and cached per (body, config).
    """
    _require_validated(body)
    kernel.check_integrable()
    cfg = config or ExteriorConfig()
    levels, collar_row = _tangent_field(body, cfg)
    fine, coarse = (math.fsum((w * kernel(PI - x) * mass).tolist()) for x, w, mass, _ in levels)
    # the dropped collar mass is ~ 0.5*_DELTA_MIN*row; report twice that for safety
    collar_err = _DELTA_MIN * abs(kernel(PI - _DELTA_MIN)) * collar_row
    err = abs(fine - coarse) + collar_err + 1e-14 * abs(fine)
    return IntegralResult(fine, err, "tangent_coords", levels[0][3])


@lru_cache(maxsize=32)
def _spectral_weights(kernel: Kernel) -> tuple[float, float, tuple[float, ...]]:
    """The kernel-only part of `spectral_integral`, cached per kernel: w(0),
    alpha0/2 and E(n) for n = 0..k_max, the largest sin frequency; E(n) = E(k_max) above.
    The sums of k^2 alpha_k are exact in fractions and rounded once."""
    kernel.check_integrable()
    moments = [(k, k * k * Fraction(a)) for k, a in kernel.sin_coeffs]
    w0 = float(-Fraction(kernel.omega_coeff) - 2 * sum(m for _, m in moments))
    corr = tuple(
        float(sum(m for k, m in moments if (n % 2 == 0 and k > n) or (k % 2 == 0 and k <= n)))
        for n in range(max((k for k, _ in moments), default=0) + 1)
    )
    return w0, 0.5 * kernel.omega_coeff, corr


def spectral_integral(body: TrigSupport, kernel: Kernel) -> IntegralResult:
    """Integral of kernel(omega(P)) over the exterior, in closed form.

    For f = alpha0*omega + sum alpha_k sin(k omega) it is pi^2 [w(0) a0^2 +
    sum_{n>=2} w(n) c_n^2], each weight the transform of one harmonic's part of
    the tangent field (Santalo 1976): w(0) = -alpha0 - 2 sum k^2 alpha_k and
    w(n) = alpha0 (n^2-1)/2 - E(n), E(n) the sum of k^2 alpha_k over the k with
    (n even and k > n) or (k even and k <= n).  The n = 1 harmonic cancels.
    """
    _require_validated(body)
    w0, half, corr = _spectral_weights(kernel)
    last = len(corr) - 1
    terms = [w0 * body.a0 * body.a0]
    for h in body.harmonics:
        n = h.n
        if n >= 2:
            terms.append((half * (n * n - 1) - corr[n if n < last else last]) * h.c_sq)
    return IntegralResult(PI * PI * math.fsum(terms), 0.0, "spectral", 0)


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

    def k(phi):
        c, s = np.cos(thetas - phi), np.sin(thetas - phi)
        p, dp, ddp = _derivs(body, phi, (0, 1, 2))
        return dp * c - p * s, (p + ddp) * c, p / c

    phi, (_, _, rb) = _polish_roots(k, thetas, thetas - span, thetas + span, 1e-13 * body.a0, True)
    return rb, phi


@lru_cache(maxsize=8)
def _polar_field(body: TrigSupport, cfg: ExteriorConfig):
    """Visual-angle field on a polar grid about the Steiner point.

    Returns (omegas, weights, far_r, bound_mass):
      omegas/weights: one row of radial nodes per theta out to the cutoff
        radius _POLAR_R_MAX * a0, with full area measure r*dr*dtheta; the
        tangent lines of a block of rows are solved in one batch;
      far_r: the outer radial nodes, the last columns of every row, for tail fits;
      bound_mass: integral of r over the collar ring, bounding dropped area.
    Cached for the last 8 (body, config) pairs: the field is kernel independent.
    """
    centered = recenter_to_steiner(body)
    a0 = centered.a0
    collar = 1e-5 * a0
    n_theta = cfg.nodes_phi
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    w_theta = TWO_PI / n_theta

    rbs, _ = _radial_boundary(centered, thetas)
    r1 = 3.0 * float(np.max(rbs))
    far_edges = np.geomspace(r1, _POLAR_R_MAX * a0, _POLAR_PANELS + 1)
    far_nodes, far_w = gauss_panels(far_edges, points=8)

    points = []
    weights = []
    ring_mass = 0.0
    for theta, rb in zip(thetas, rbs):
        # near zone: r = rb + u^2 smooths the sqrt-type onset of omega(r)
        u_lo, u_hi = math.sqrt(collar), math.sqrt(r1 - rb)
        u_nodes, u_w = gauss_panels(np.linspace(u_lo, u_hi, _POLAR_PANELS + 1), points=8)
        rs = np.concatenate([rb + u_nodes**2, far_nodes])
        ws = np.concatenate([2.0 * u_nodes * u_w, far_w])
        points.append(np.outer(rs, (math.cos(theta), math.sin(theta))))
        weights.append(w_theta * ws * rs)
        ring_mass += w_theta * rb * collar
    rows = max(1, _POLAR_BLOCK_POINTS // weights[0].size)
    omegas = [_tangent_angles(centered, np.concatenate(points[i : i + rows]))[2] for i in range(0, n_theta, rows)]
    return np.concatenate(omegas).reshape(n_theta, -1), np.array(weights), far_nodes, ring_mass


def exterior_integral_grid(body: TrigSupport, kernel: Kernel, config: ExteriorConfig | None = None) -> IntegralResult:
    """Polar-grid oracle for the exterior integral.

    2D quadrature about the Steiner point up to r_max = 40*a0, followed by a tail
    of the form C/r^2 fitted on the outermost decade of radii.  Much
    coarser than the tangent integrator; its honest error bar combines an
    angular-resolution difference, the tail-fit scatter and the dropped
    collar ring.
    """
    _require_validated(body)
    kernel.check_integrable()
    cfg = config or ExteriorConfig()
    omegas, weights, far_r, ring_mass = _polar_field(body, cfg)
    r_max = _POLAR_R_MAX * body.a0
    fvals = kernel(omegas)
    mass = weights * fvals
    main = math.fsum(mass.ravel().tolist())
    # angular-resolution estimate: same field restricted to every other theta
    coarse = 2.0 * math.fsum(mass[::2].ravel().tolist())

    # tail: theta-averaged ring mass m(r) = r * mean_theta f; fit m ~ C/r^2
    ring = far_r * np.mean(fvals[:, -far_r.size :], axis=0) * TWO_PI
    fit_mask = far_r >= far_r[-1] / 10.0
    scaled = ring[fit_mask] * far_r[fit_mask] ** 2
    c_fit = float(np.mean(scaled))
    tail = c_fit / r_max
    tail_err = (float(np.max(np.abs(scaled - c_fit))) if scaled.size else 0.0) / r_max + 0.2 * abs(tail)

    collar_err = abs(kernel(PI)) * ring_mass if kernel(PI) != 0.0 else 0.1 * ring_mass
    err = 2.0 * abs(main - coarse) + tail_err + collar_err + 1e-12 * abs(main)
    return IntegralResult(main + tail, err, "polar_grid", omegas.size)
