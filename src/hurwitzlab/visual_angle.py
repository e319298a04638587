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
  in phi1, so of degree 2N: the periodic trapezoid on any m >= 2N + 1
  nodes is exact (on 2N nodes it aliases), and by the discrete Parseval
  identity it is the inner product of the two coefficient vectors, with no
  node sampled.  With c_n = a_n - i b_n, u1 has the coefficients
  a0 tan(delta/2) and c_n (R_n + i D_n), u2 has -a0 tan(delta/2) and
  c_n e^{in delta} (-R_n + i D_n), where R_n = (cos n delta - cos delta)/
  sin delta = -2 sin((n+1) delta/2) sin((n-1) delta/2)/sin delta and D_n =
  sin(n delta)/sin delta - n = -4 sum_{0<k<n, k+n odd} sin^2(k delta/2),
  neither of which cancels.  So -mean(u1*u2) = a0^2 tan^2(delta/2) +
  sum_n |c_n|^2/2 Re((R_n + i D_n)^2 e^{-in delta}), one term per harmonic
  (`_parseval_terms`); it reads |c_n|^2 and the geometric multipliers,
  never the closed form's weights.

* polar grid (oracle): direct 2D quadrature about the Steiner point, the
  far zone mapped to s = r1/r on (0, 1] with no cutoff and the boundary
  collar added to first order (`_polar_field`).  Each ray's boundary exit
  is solved once and shared by its radial nodes, and the tangent lines of
  a block of directions are solved in one batch, O(1) per point and
  Newton step on one table of p, which the exits read too.  The blocks
  share one `_Workspace`, whose rows hold every intermediate of the g_H
  evaluations, so no evaluation allocates an array of a block's size; the
  field is cached per (body, config).

* closed form (`spectral_integral`): weights on a0^2 and on each c_n^2
  that follow from the kernel's coefficients.

The tangent lines through a point P are the roots of
g(phi) = <P, N(phi)> - p(phi), bracketed on either side of the normal angle
where the ray from the Steiner point through P leaves the body, and solved
together (`_tangent_solve`) on g_H = <P, N> - H, H the quintic Hermite
interpolant of p sampled by one FFT (`_support_table`), to |g_H| <= tol_h,
tol less E, a first-order estimate of |g - g_H|, and less what reducing
the root mod 2*pi moves.  Three plain float32 Newton steps on g_H seed
them (`_coarse_roots`, no bracket); one float64 evaluation of g_H gives a
Newton step, returned where a Taylor bound with M >= |g_H''| (from the
table's bound on |H + H''|) proves it meets tol_h and its next correction
at most 1e-12 (`_newton_certificate`): at every root, then at most twice
more at the roots it leaves.  Horner's g finishes what remains, every root
where E leaves tol_h no room among them.  The ray exits solve
k = H' cos - H sin on the same table (`_radial_boundary`): rb is the
minimum of H/cos, within E/cos of p's.

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
from .quadrature import MAX_NODES, PI, TWO_PI, _read_only, gauss_panels, rounded_sum

_SERIES_CUTOFF = 0.25
_SERIES_TERMS = 16
# 8-point Gauss panels per radial zone (near and far) of the polar oracle.
_POLAR_PANELS = 6
# Entries (gaps x (N + 2)) per block of _gap_mass, one _parseval_terms call
# each: blocks keep the field's memory flat in the degree (unblocked, degree
# 262142 would take several GB); of 2^13 to 2^17, 2^14 timed within 8% of the
# best at degrees 8 to 128 and best at 8192 and 32768, and 1.1x and 1.3x the
# best (2^16) at 512 and 2048.
_BLOCK_ENTRIES = 1 << 14
# Points per block of the polar oracle's tangent solve.
_POLAR_BLOCK_POINTS = 1 << 12
_COARSE_STEPS = 3  # float32 Newton steps seeding the tangent solve (numpy's float32 sin and cos are SIMD)
# Rows of a tangent-solve `_Workspace`: `_g_table`'s, then all of them.
_G_ROWS = 9
_WORK_ROWS = _G_ROWS + 7
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
    integrator reads no config: its phi1 integral is exact by Parseval's
    identity (module docstring), and its gap rule is _DELTA_PANELS = 16
    Gauss panels of 16 points, gaps below the fixed collar
    _DELTA_MIN = 1e-4 excluded and their dropped mass bounded inside the
    error bar.
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


def _support_table(body: TrigSupport):
    """(rows, h, E, B): the quintic Hermite interpolant H(j*h + s) =
    sum_k rows[k, j] s^k of p, p', p'' sampled by one `_grid_derivs` call on m
    cells of h = 2*pi/m (the last ends at sample 0), m the least power of two
    >= max(64, 2N + 2) whose remainder M6 h^6 / 46080 (M6 = sum_n n^6 |c_n|)
    is at most 1e-15 S_0, S_k = [k=0] a0 + sum_n n^k |c_n|.  E estimates
    |H - p| and Horner's N*u*S_0 in g at the root to first order, not as a
    proof: the remainder, the samples' 4*log2(m)*u*S_k through the Hermite
    basis (weights 1, 5/16, 1/32; against long-double FFTs, random_body(3, N,
    index=1) up to N = 2048 measured at most 0.4*log2(m)*u*S_k),
    32u*sum_k h^k S_k for the cells and 4u*S_0 >= |H'| 2^-51 for reading H
    at an angle that is not reduced mod 2*pi.  B >= |H + H''| everywhere:
    the largest sum_k |b_k| h^k over the cells, b_k the coefficients of
    H + H'' in s, b_k = rows[k] + (k+1)(k+2) rows[k+2], with room for their
    rounding.
    """
    n, mag = body.n.astype(float), np.hypot(body.a, body.b)
    s0, s1, s2, s6 = (float(np.sum(n**k * mag)) for k in (0, 1, 2, 6))
    m, degree = 64, body.max_degree
    while m < 2 * degree + 2 or s6 * (TWO_PI / m) ** 6 / 46080.0 > 1e-15 * (body.a0 + s0):
        m *= 2
    h = TWO_PI / m
    sums = np.array([body.a0 + s0, s1 * h, s2 * h * h])
    weights = 4.0 * math.log2(m) * np.array([1.0, 5 / 16, 1 / 32]) + 32.0  # the samples through H, and the cells
    err = s6 * h**6 / 46080.0 + 2.0**-53 * ((degree + 4) * sums[0] + sums @ weights)
    p, dp, ddp = (np.append(v, v[0]) for v in _grid_derivs(body, m, (0, 1, 2)))
    # the left end's Taylor quadratic misses p, h p', h^2 p'' at the right end by
    # h^3 times (d, e, k); c_k = (10d - 4e + k/2, 7e - 15d - k, 6d - 3e + k/2) / h^(k-3)
    a2 = 0.5 * ddp[:-1]
    d = (p[1:] - (p[:-1] + h * (dp[:-1] + h * a2))) / h**3
    e = (dp[1:] - (dp[:-1] + 2.0 * h * a2)) / h**2
    k = (ddp[1:] - ddp[:-1]) / h
    c3, c4, c5 = 10.0 * d - 4.0 * e + 0.5 * k, (7.0 * e - 15.0 * d - k) / h, (6.0 * d - 3.0 * e + 0.5 * k) / h**2
    rows = np.array([p[:-1], dp[:-1], a2, c3, c4, c5])
    bent = rows.copy()
    bent[:4] += np.array([2.0, 6.0, 12.0, 20.0])[:, None] * rows[2:]
    return rows, h, err, float(np.max(h ** np.arange(6.0) @ np.abs(bent))) * (1.0 + 2.0**-40)


def _hermite(table, phi):
    """H, H' and H'' at phi, read from the table's cells like `_g_table`."""
    rows, h = table[:2]
    cell = np.floor(phi / h)
    s, j = phi - cell * h, cell.astype(np.intp)
    v, dv, ddv = rows[5].take(j, mode="wrap"), 0.0, 0.0
    for ck in rows[4::-1]:
        ddv, dv, v = ddv * s + 2.0 * dv, dv * s + v, v * s + ck.take(j, mode="wrap")
    return v, dv, ddv


class _Workspace:
    """Scratch rows of the tangent solve: one float64 allocation of
    _WORK_ROWS rows of `roots` entries, made by the caller that solves the
    blocks (`_polar_field` once per field, `_tangent_angles` sized to its
    points) and handed to every `_tangent_solve`.  Each row serves as one
    array of float64, float32, intp or bool; a call reads its leading
    entries in the shape of its argument, so a short block or a gathered
    subset uses the same buffers.  `_g_table` writes rows 0 to _G_ROWS - 1,
    `_coarse_roots` and `_newton_certificate` the rows after them, and an
    array read from a row holds until that row is next written.  Without it
    every g_H evaluation allocated and freed about 15 arrays of a block's
    size, and the freed top of the heap, given back to the system, was
    faulted back in page by page by the next evaluation.
    """

    def __init__(self, roots: int):
        self._rows = np.empty((_WORK_ROWS, roots))

    def __call__(self, like, *rows, dtype=None):
        """The given rows, each as an array of like's shape in dtype (like's by default)."""
        dtype = like.dtype if dtype is None else dtype
        return [self._rows[i].view(dtype)[: like.size].reshape(like.shape) for i in rows]


def _g_table(table, phi, px, py, work):
    """g_H = <P, N(phi)> - H(phi) and g_H' at phi as given, not reduced mod
    2*pi: the cell's `take` wraps (cell m, where phi/h rounds up, is cell 0),
    in the dtype of the rows, phi and P.  Every intermediate is a row of the
    `_Workspace` work; Horner's accumulators are the taken rows, updated in
    place, and g_H and g_H' are returned in rows 3 and 1."""
    rows, h = table[:2]
    c, s, *coef, v, dv = work(phi, 0, 1, 3, 4, 5, 6, 7, 8)
    (j,) = work(phi, 2, dtype=np.intp)
    np.floor(np.divide(phi, h, out=c), out=c)  # the cell
    np.subtract(phi, np.multiply(c, h, out=s), out=s)
    np.copyto(j, c, casting="unsafe")
    for row, out in zip(rows, (*coef, v, dv)):
        row.take(j, mode="wrap", out=out)
    np.add(v, np.multiply(dv, s, out=c), out=v)
    for ck in coef[::-1]:
        np.add(np.multiply(dv, s, out=dv), v, out=dv)
        np.add(np.multiply(v, s, out=v), ck, out=v)
    g, t = coef[:2]
    np.cos(phi, out=c)
    np.sin(phi, out=s)
    np.subtract(np.add(np.multiply(px, c, out=g), np.multiply(py, s, out=t), out=g), v, out=g)
    np.multiply(np.negative(px, out=t), s, out=s)
    np.subtract(np.add(s, np.multiply(py, c, out=c), out=s), dv, out=s)
    return g, s


def _coarse_roots(table, px, py, x, work):
    """x after _COARSE_STEPS plain Newton steps on g_H in float32: no bracket
    and no stop, seeds only, returned in a row of the `_Workspace` work."""
    x32, px32, py32 = work(x, *range(_G_ROWS, _G_ROWS + 3), dtype=np.float32)
    for v, out in zip((x, px, py), (x32, px32, py32)):
        np.copyto(out, v)
    table = (table[0].astype(np.float32), *table[1:])
    with np.errstate(all="ignore"):
        for _ in range(_COARSE_STEPS):
            g, dg = _g_table(table, x32, px32, py32, work)
            np.subtract(x32, np.divide(g, dg, out=g), out=x32)
    return x32


def _newton_certificate(table, x, px, py, lo, hi, size, tol_h, work):
    """(y, done): y = x - g_H/g_H' where that Newton step lands inside
    (lo, hi), else x, from one float64 evaluation of g_H at x; done where y
    is certified to meet |g_H(y)| <= tol_h and its next Newton correction is
    at most 1e-12.  size = |px| + |py|.  y and done are rows of the
    `_Workspace` work.

    With d the step, G = g_H in exact arithmetic and g, g' its computed
    values at x: G'' = -(G + H + H''), so on [x, y] |G''| <= M = B + |G|
    with B >= |H + H''| the table's, and |G| <= |g| + |g'| d + slop + M d^2/2
    there; as d^2/2 <= 2^-21 (below), M <= (B + |g| + |g'| d + slop)
    (1 + 2^-20).  Taylor's theorem then gives |G(y)| <= M (d + 2^-50)^2 / 2
    plus the round-off of g and g' and of the step, at most slop =
    2^-48 (size + |g| + |g'|): cos and sin within an ulp, the cell's Horner
    sum within 12u of |H| <= size + |g|, the quotient within u|g|, and y
    rounded within half an ulp, 2^-50 (every bracket lies in (-4*pi, 4*pi)).
    Certified: M (d + 2^-50)^2 / 2 + slop <= tol_h and
    M (d + 2^-50)^2 / 2 <= 1e-12 |g'|, the predicted next correction, which
    as M >= |g'| d also gives d^3 <= 2e-12, so d^2/2 < 2^-21.  tol_h already
    holds the table's E and 2^-49 size for reading g at y reduced mod 2*pi.
    A step that is not finite (g' = 0) certifies nothing.
    """
    g, dg = _g_table(table, x, px, py, work)
    y, d, slop, taylor = work(x, *range(_G_ROWS, _G_ROWS + 4))
    inside, ok, out = work(x, *range(_G_ROWS + 4, _WORK_ROWS), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(x, np.divide(g, dg, out=d), out=y)
        np.abs(d, out=d)
        np.abs(g, out=g)
        np.abs(dg, out=dg)
        np.multiply(2.0**-48, np.add(np.add(size, g, out=slop), dg, out=slop), out=slop)
        # taylor = 0.5 (1 + 2^-20) (B + g + dg d + slop) (d + 2^-50)^2
        np.add(np.add(table[3], g, out=g), np.multiply(dg, d, out=taylor), out=taylor)
        np.multiply(0.5 * (1.0 + 2.0**-20), np.add(taylor, slop, out=taylor), out=taylor)
        np.multiply(taylor, np.square(np.add(d, 2.0**-50, out=d), out=d), out=taylor)
    np.logical_and(np.less(lo, y, out=inside), np.less(y, hi, out=ok), out=inside)
    np.copyto(y, x, where=np.logical_not(inside, out=out))
    np.less_equal(np.add(taylor, slop, out=slop), tol_h, out=ok)
    np.less_equal(taylor, np.multiply(1e-12, dg, out=dg), out=out)
    return y, np.logical_and(np.logical_and(inside, ok, out=ok), out, out=ok)


def _tangent_angles(body: TrigSupport, points):
    """Arrays (phi1, phi2, omega) of the support lines through each row of
    points: the ray from the Steiner point S through each P is solved by
    `_radial_boundary` on the `_support_table` of the body centred at S and
    handed to `_tangent_solve` with the body's own table (one table where
    S is the origin).  Each point is solved on its own, bit for bit.
    """
    px, py = points[:, 0], points[:, 1]
    sx, sy = steiner_point(body)
    theta = np.arctan2(py - sy, px - sx)
    centered = recenter_to_steiner(body)
    table = _support_table(body)
    rb, phi_b = _radial_boundary(centered, theta, table if centered is body else _support_table(centered))
    work = _Workspace(2 * len(points))
    return _tangent_solve(body, px, py, np.hypot(px - sx, py - sy), theta, rb, phi_b, table, work)


def _turn(x):
    """x % TWO_PI for x in [-4*pi, 4*pi), bit for bit, by floor and one
    correction (each step exact or rounded once as `%` rounds), about ten
    times cheaper than numpy's remainder."""
    x = x - TWO_PI * np.floor(x / TWO_PI)
    return np.where(x < 0.0, x + TWO_PI, x)


def _tangent_solve(body: TrigSupport, px, py, r, theta, rb, phi_b, table, work):
    """Arrays (phi1, phi2, omega) of the support lines through the points (px, py).

    The point lies at distance r from the Steiner point S in the direction
    theta, and the ray leaves the body at distance rb, at the boundary point
    with normal angle phi_b.  The arguments broadcast, so the polar oracle
    solves each direction's exit once and shares it by that ray's nodes.  At
    phi_b, g(phi) = <P, N(phi)> - p(phi) equals (r - rb) * cos(theta - phi_b)
    within the table's E (`_radial_boundary`), a lower bound on the
    clearance max g: InteriorPoint means it is at most
    tol = 1e-13 * (|P| + a0), BoundaryCollar at most _TANGENT_COLLAR * a0.
    Otherwise g is positive on one arc shorter than pi that contains phi_b, so
    g(phi_b -/+ pi) < 0 and phi1, phi2 lie in (phi_b - pi, phi_b) and
    (phi_b, phi_b + pi).  Both start from phi_b -/+ arccos(rb / r), the roots
    for a circle of radius rb, moved by three plain float32 Newton steps
    (`_coarse_roots`) and clipped into the bracket unless not finite or
    moved by no more than float32 round-off can move them: 2^-20
    (|px| + |py|) / s, 16 float32 roundings of g_H over s = sqrt(r^2 - rb^2),
    the circle's |g'| at its roots (on circles, whose circle seeds are the
    exact roots, the steps moved them by at most 7.7 of these at 96
    directions), so a circle keeps its float64 seeds.  They are solved on the body's `_support_table`, g_H = <P, N> - H
    read at the angle as it is, to |g_H| <= tol_h = (1 - 2^-50) tol - E -
    2^-49 (|px| + |py|): E the table's estimate of |g - g_H| and the last term
    the most that reducing the root mod 2*pi moves <P, N> as g reads it,
    rounding included.  Each step is one float64 evaluation of g_H and a
    Newton step inside the bracket, returned where `_newton_certificate`
    proves it meets tol_h with its next correction at most 1e-12: at every
    root, then at most twice more at the roots it leaves.  Roots it still
    leaves (all where tol_h <= 0) are polished on Horner's g from their last
    step, read at the root reduced mod 2*pi, so |g| <= tol holds at the angle
    returned.  g rises through zero at phi1 and is positive on the
    counterclockwise arc of length delta = pi - omega to phi2;
    RootCountAnomaly means that arc is not shorter than pi.

    work is the caller's `_Workspace`, of at least two entries per point:
    the seeds and the certificates, with their g_H evaluations, write every
    intermediate into its rows, so the blocks of a field share one
    allocation and no evaluation allocates an array of a block's size.
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
    # The steps gather arrays of the roots' shape (a broadcast one costs 6x as much).
    shape = clearance.shape + (2,)
    px, py, tol, b = (np.broadcast_to(v[..., None], shape).copy() for v in (px, py, tol, phi_b))
    x, neg = b + np.array([-1.0, 1.0]) * np.arccos(rb / r)[..., None], b + np.array([-PI, PI])
    size, lo, hi = np.abs(px) + np.abs(py), np.minimum(neg, b), np.maximum(neg, b)
    tol_h = (1.0 - 2.0**-50) * tol - table[2] - 2.0**-49 * size
    seed = _coarse_roots(table, px, py, x, work)
    noise = 2.0**-20 * size / np.sqrt((r - rb) * (r + rb))[..., None]
    x = np.where(np.isfinite(seed) & (np.abs(seed - x) > noise), np.clip(seed, lo, hi), x)
    x[...], done = _newton_certificate(table, x, px, py, lo, hi, size, tol_h, work)  # x copies the steps out of work
    todo = ~done
    for _ in range(2):
        if not todo.any():
            break
        x[todo], done = _newton_certificate(table, *(v[todo] for v in (x, px, py, lo, hi, size, tol_h)), work)
        todo[todo] = ~done
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


def _parseval_terms(body: TrigSupport, gaps) -> np.ndarray:
    """The terms of -mean(u1*u2) by Parseval (module docstring), one row per
    gap delta: a0^2 tan^2(delta/2), then c_sq_n/2 Re((R_n + i D_n)^2
    e^{-in delta}) per harmonic n.  D_n runs by D_(n+2) = D_n -
    4 sin^2((n+1) delta/2) from D_0 = D_1 = 0 over a table of the half-angle
    sines, gaps x (N + 2).  Real multiplies and adds alone form the terms,
    so a row's bits depend on its gap alone."""
    n, top = body.n, body.max_degree
    half = (0.5 * gaps)[:, None] * np.arange(top + 2.0)
    s, d = np.sin(half), np.zeros((len(gaps), top // 2 + 1, 2))  # D_2i+j at [:, i, j]
    d.reshape(len(gaps), -1)[:, 2 : top + 1] = -4.0 * s[:, 1:top] ** 2
    d = np.cumsum(d, axis=1).reshape(len(gaps), -1)[:, n]
    r, sn = -2.0 * s[:, n + 1] * s[:, n - 1] / np.sin(gaps)[:, None], s[:, n]
    cos_n, sin_n = 1.0 - 2.0 * sn * sn, 2.0 * sn * np.cos(half[:, n])
    harmonic = 0.5 * body.c_sq * ((r * r - d * d) * cos_n + 2.0 * r * d * sin_n)
    return np.hstack([(body.a0 * np.tan(0.5 * gaps))[:, None] ** 2, harmonic])


def _gap_mass(body: TrigSupport, gaps):
    """The tangent field G at the 1-D `gaps`: integral_exterior f(omega) dP =
    integral_0^pi f(pi - delta) G(delta) ddelta, G = 2*pi*row/sin(delta),
    row the `rounded_sum` of the gap's `_parseval_terms`, one call per block
    of at most _BLOCK_ENTRIES entries (gaps x (N + 2)).
    """
    gaps = np.asarray(gaps, dtype=float)
    rows = max(1, _BLOCK_ENTRIES // (body.max_degree + 2))
    blocks = (_parseval_terms(body, gaps[i : i + rows]) for i in range(0, len(gaps), rows))
    return TWO_PI * np.concatenate([rounded_sum(terms) for terms in blocks]) / np.sin(gaps)


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
    `_gap_rules`, the fine level's product count, G(_DELTA_MIN)).

    G is exact in phi1 by Parseval's identity (module docstring): each gap
    sums 1 + K products for a body of K harmonics, the count reported as
    `IntegralResult.nodes`.  The fine level takes _DELTA_PANELS gap panels
    and the coarse level half as many, so fine - coarse measures the delta
    rule.  The two levels and the collar row are one `_gap_mass` call, one
    sequence of blocks, whose masses are split back per level.  G is
    translation invariant: the n = 1 multipliers vanish (R_1 = D_1 = 0).
    """
    levels = [x for x, _ in _gap_rules()]
    mass = _gap_mass(body, np.concatenate([*levels, [_DELTA_MIN]]))
    *masses, collar_row = np.split(mass, np.cumsum([x.size for x in levels]))
    return _read_only(*masses), levels[0].size * (1 + body.n.size), float(collar_row[0])


def exterior_integral(body: TrigSupport, kernel: Kernel, config: ExteriorConfig | None = None) -> IntegralResult:
    """Integral of kernel(omega(P)) over the exterior, in tangent coordinates.

    Composite Gauss panels in the gap direction (graded toward delta = pi,
    where the integrand has a removable limit) and, in the angular
    direction, the exact trapezoid of the degree-2N phi1 integrand, read by
    Parseval's identity as one product per harmonic and gap.  `nodes` is
    the fine level's gap count times 1 + K, K the body's harmonic count:
    the products its value sums.  The error bar combines the difference from a
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


def _radial_boundary(body: TrigSupport, thetas, table):
    """Distances rb from the origin to the boundary along the directions
    thetas, and the normal angles phi of the boundary points they reach,
    read on the body's `_support_table`.

    rb minimizes H(phi)/cos(theta - phi) over the half-turn window about
    theta (the origin must be interior), so phi is the root of
    k_H = H' cos(theta - phi) - H sin(theta - phi), whose derivative
    (H + H'') cos(theta - phi) is positive in the window: k_H < 0 < k_H at
    its ends; k_H is polished to |k_H| <= 1e-13 * a0.  k_H / cos^2 is the
    derivative of H/cos, so rb is the minimum of H/cos and within
    E/cos(theta - phi) of the minimum of p/cos, E the table's estimate,
    whatever the error of H', and g(phi) of `_tangent_solve` is within E of
    its (r - rb) cos(theta - phi).
    """
    span = PI / 2.0 - 1e-6

    def k(phi, theta):
        c, s = np.cos(theta - phi), np.sin(theta - phi)
        p, dp, ddp = _hermite(table, phi)
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
        lines of a block of rows are solved in one batch (`_tangent_solve`);
        both read the body's one `_support_table`, and every block, the
        short last one included, runs in the one `_Workspace` made here for
        the largest block;
      ring_mass: area of the collar ring, sum_theta w_theta (rb*c + c^2/2).
    Cached for the last 8 (body, config) pairs: the field is kernel independent.
    """
    centered = recenter_to_steiner(body)
    collar = _POLAR_COLLAR * centered.a0
    n_theta = cfg.nodes_phi
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    w_theta = TWO_PI / n_theta

    table = _support_table(centered)
    rbs, phi_bs = _radial_boundary(centered, thetas, table)
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
    work = _Workspace(2 * min(rows, n_theta) * rs.shape[1])
    blocks = range(0, n_theta, rows)
    omegas = [_tangent_solve(centered, *(a[i : i + rows] for a in rays), table, work)[2] for i in blocks]
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
