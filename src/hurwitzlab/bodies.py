"""Convex bodies encoded by truncated trigonometric support functions.

A planar convex body K is stored through the coefficients of its support
function

    p(phi) = a0 + sum_n [ a_n cos(n phi) + b_n sin(n phi) ],

the signed distance from the origin to the supporting line of K with
outward normal N(phi) = (cos phi, sin phi).  The boundary is recovered as
gamma(phi) = p N + p' N' and the curvature radius is rho = p + p''.
A support function describes a strictly convex body exactly when rho > 0
everywhere; operations that rely on convexity only accept bodies blessed
by `validate_convex`.  It decides by the certificate
a0 - sum_{n>=2} (n^2 - 1)|c_n| >= eps, a lower bound on rho, and only when
that fails by `min_curvature_radius`, a vectorized search for the minimum
of rho.

Coefficients are kept as a sparse, frequency-sorted tuple.  The extremal
bodies of interest (parallels of astroids, Steiner curves, five-cusped
hypocycloids and their Minkowski sums) have one to three harmonics, so the
sparse form keeps every downstream spectral sum exact.  `astroid_parallel`,
`deltoid_parallel` and `hypocycloid_parallel` build those parallels,
`random_body` draws reproducible test bodies, and `HypocycloidSpec` names
the cusped curve itself, which is drawn but is not a body.

Conventions: angles in radians, positive rotation counterclockwise, a
rotation by theta maps p to p(phi - theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    AmplitudeTooLarge,
    BadSpec,
    NonpositiveMean,
    NotStrictlyConvex,
    NotValidated,
)
from .quadrature import MAX_NODES, TWO_PI

# Relative margin by which the convexity certificate must clear eps.
_CERT_MARGIN = 1e-15
# Largest accepted magnitude a0 + sum n^2 |c_n| of a body (see validate_convex).
_MAX_MAGNITUDE = 1e100
# Largest harmonic degree: grid_for_degree needs 4N + 8 <= MAX_NODES nodes.
_MAX_DEGREE = (MAX_NODES - 8) // 4
# Entries per basis table in the curvature-minimum search.
_TABLE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Harmonic:
    """Single frequency term a*cos(n phi) + b*sin(n phi) of a support function."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"harmonic frequency must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def c_sq(self) -> float:
        """Squared amplitude a^2 + b^2, invariant under rotations."""
        return self.a * self.a + self.b * self.b


@dataclass(frozen=True)
class TrigSupport:
    """Support function a0 + sum of harmonics, sorted by frequency.

    `validated` marks that strict convexity and a positive mean term have
    been certified by `validate_convex`.  Values are immutable; every
    operation returns a new instance.
    """

    a0: float
    harmonics: tuple[Harmonic, ...] = ()
    validated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        hs = tuple(sorted((h for h in self.harmonics if h.a != 0.0 or h.b != 0.0), key=lambda h: h.n))
        seen = [h.n for h in hs]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate harmonic frequencies: {seen}")
        object.__setattr__(self, "harmonics", hs)

    @property
    def max_degree(self) -> int:
        return self.harmonics[-1].n if self.harmonics else 0

    def harmonic(self, n: int) -> Harmonic:
        """The harmonic at frequency n (zero harmonic if absent)."""
        for h in self.harmonics:
            if h.n == n:
                return h
        return Harmonic(max(n, 1), 0.0, 0.0)


def _require_validated(body: TrigSupport) -> None:
    if not isinstance(body, TrigSupport) or not body.validated:
        raise NotValidated("body must pass validate_convex first")


def _derivs(body: TrigSupport, phi, orders, cs=None) -> tuple:
    """p^(k)(phi) for each order k (0 to 3) in `orders`, in one Horner pass.

    The one per-harmonic evaluation loop: with z = e^{i phi},
    p^(k)(phi) = [k=0] a0 + Re sum_n (in)^k (a_n - i b_n) z^n, summed by
    Horner over every degree N, ..., 1, with an error of about
    N*u*sum_n n^k |c_n| (Higham 2002, ch. 5).  A caller that holds
    (cos phi, sin phi) passes it as `cs`.  The accumulators of all orders
    form one real (re, im) pair of arrays, updated by real multiplies and
    adds only, so each value's bits depend neither on the shape of phi nor
    on the other orders asked for (numpy's complex product would fuse
    multiply-adds on arrays but not on single elements).
    """
    phi = np.asarray(phi, dtype=float)
    c, s = (np.cos(phi), np.sin(phi)) if cs is None else cs
    shape = (len(orders),) + (1,) * phi.ndim
    vals = np.array([body.a0 if k == 0 else 0.0 for k in orders]).reshape(shape)
    if not body.harmonics:
        vals = vals + np.zeros(phi.shape)
    else:
        n = np.arange(body.max_degree + 1.0)
        a, b = np.zeros((2, n.size))
        for h in body.harmonics:
            a[h.n], b[h.n] = h.a, h.b
        turns = ((a, -b), (b, a), (-a, b), (-b, -a))  # i^k (a - ib)
        coef = np.array([[n**k * part for part in turns[k]] for k in orders])
        dre, dim = coef.transpose(1, 2, 0).reshape((2, n.size) + shape)
        re, im = dre[-1], dim[-1]
        for i in range(n.size - 2, 0, -1):
            re, im = re * c - im * s + dre[i], re * s + im * c + dim[i]
        vals = re * c - im * s + vals
    return tuple(float(v) for v in vals) if phi.ndim == 0 else tuple(vals)


def eval_support(body: TrigSupport, phi, order: int = 0):
    """p, p', p'' or p''' at phi, by Horner's rule in z = e^{i phi}.

    Exact (to round-off) for the truncated series; accepts scalars or
    arrays of angles.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be one of 0,1,2,3, got {order}")
    return _derivs(body, phi, (order,))[0]


def boundary_point(body: TrigSupport, phi):
    """Boundary parametrization gamma(phi) = p N + p' N' at angles phi."""
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    p, dp = _derivs(body, phi, (0, 1), (c, s))
    return np.stack([p * c - dp * s, p * s + dp * c], axis=-1)


def _polish_roots(f, x, neg, pos, tol, active):
    """Safeguarded Newton/bisection for roots of f, vectorized over brackets.

    f(x) returns a tuple whose first two entries are f and f' at the array
    x; further entries ride along.  Bracket i is labelled by the sign of f
    at its ends, f(neg[i]) <= 0 <= f(pos[i]), and neg may lie on either side
    of pos.  A Newton step is taken when f' has the sign of pos - neg and
    lands strictly inside the bracket, otherwise the bracket is bisected;
    brackets where the mask `active` (or a plain True) is false or where
    |f| <= tol stay put.  Returns the roots and the last value of f(x).
    """
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


def min_curvature_radius(body: TrigSupport) -> tuple[float, float]:
    """Global minimum of the curvature radius rho = p + p'' and its angle.

    rho has the coefficients (1 - n^2)(a_n, b_n), so on any set of angles
    rho, rho' and rho'' are one product of the basis table
    [cos(n phi) | sin(n phi)] (an outer(phi, n) product) with a coefficient
    matrix.  Dense sampling at 16*max(N,4) points finds the local-minimum
    candidates, and `_polish_roots` finds the roots of rho' in all
    bracketed candidates at once, down to |rho'| <= 1e-12 * scale; the
    table of its last step gives the final rho values.
    """
    if not body.harmonics:
        return body.a0, 0.0
    n = np.array([h.n for h in body.harmonics], dtype=float)
    a = np.array([h.a for h in body.harmonics])
    b = np.array([h.b for h in body.harmonics])
    w = 1.0 - n * n
    # columns: rho - a0, rho', rho'' on the basis [cos(n phi) | sin(n phi)]
    coef = np.stack(
        [
            np.concatenate([w * a, w * b]),
            np.concatenate([n * w * b, -n * w * a]),
            np.concatenate([-n * n * w * a, -n * n * w * b]),
        ],
        axis=1,
    )

    def terms(x):
        arg = np.outer(x, n)
        return np.hstack([np.cos(arg), np.sin(arg)]) @ coef

    n_grid = 16 * max(body.max_degree, 4)
    phis = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    # grid blocks keep each basis table near _TABLE_ENTRIES entries at high degree
    blocks = -(-n_grid * n.size // _TABLE_ENTRIES)
    rho = body.a0 + np.concatenate([terms(x)[:, 0] for x in np.array_split(phis, blocks)])
    scale = max(abs(body.a0), *(max(abs(h.a), abs(h.b)) for h in body.harmonics), 1e-300)

    x = phis[(rho <= np.roll(rho, 1)) & (rho <= np.roll(rho, -1))]
    h = TWO_PI / n_grid
    lo, hi = x - h, x + h
    ends = terms(np.concatenate([lo, hi]))[:, 1]
    active = (ends[: x.size] <= 0.0) & (0.0 <= ends[x.size :])

    def slope(x):
        t = terms(x)
        return t[:, 1], t[:, 2], t[:, 0]

    x, (_, _, rho) = _polish_roots(slope, x, lo, hi, 1e-12 * scale, active)
    vals = body.a0 + rho
    best = int(np.argmin(vals))
    return float(vals[best]), float(x[best] % TWO_PI)


def validate_convex(body: TrigSupport, eps: float | None = None) -> TrigSupport:
    """Certify strict convexity; returns the body marked as validated.

    Raises BadSpec when a coefficient is not finite or the degree exceeds
    _MAX_DEGREE = 262142 (the largest with a quadrature grid of at most
    MAX_NODES nodes), NonpositiveMean when a0 <= 0, ValueError unless
    eps > 0 (default 1e-9 * a0) and NotStrictlyConvex when the curvature
    radius dips below eps.  A convex body whose magnitude M = a0 +
    sum_n n^2 |c_n|, a bound on |p|, |p'| and |p''|, exceeds
    _MAX_MAGNITUDE = 1e100 raises BadSpec: every functional and integral
    is quadratic in p, so M <= 1e100 keeps it below 1e200 times its largest
    factor (about 1e13, the tangent-coordinate area element at the last gap
    node), far inside the float range.

    The certificate decides first: rho(phi) >= slack = a0 - sum_{n>=2}
    (n^2 - 1)|c_n| for every phi, so slack >= eps proves strict convexity.
    It must clear eps by _CERT_MARGIN * a0, a few ulps of a0 that cover the
    round-off of slack, so it never certifies a body whose true rho_min
    sits at eps.  Only when it fails does `min_curvature_radius` search.
    """
    coeffs = [body.a0] + [c for h in body.harmonics for c in (h.a, h.b)]
    if not all(math.isfinite(c) for c in coeffs):
        raise BadSpec("support coefficients must be finite")
    if body.max_degree > _MAX_DEGREE:
        raise BadSpec(f"harmonic degree {body.max_degree} exceeds {_MAX_DEGREE}")
    if body.a0 <= 0.0:
        raise NonpositiveMean(f"mean term a0={body.a0:.6g} must be positive")
    if eps is None:
        eps = 1e-9 * body.a0
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    try:
        slack = body.a0 - math.fsum((h.n * h.n - 1) * math.hypot(h.a, h.b) for h in body.harmonics)
    except OverflowError:  # the sum passed the float range, far above a0
        slack = -math.inf
    if slack < eps + _CERT_MARGIN * body.a0:
        rho_min, phi_at = min_curvature_radius(body)
        if rho_min < eps:
            raise NotStrictlyConvex(rho_min, phi_at)
    return _bounded(replace(body, validated=True))


def _bounded(body: TrigSupport) -> TrigSupport:
    """The body itself; raises BadSpec when it is validated and its magnitude
    a0 + sum_n n^2 |c_n| exceeds _MAX_MAGNITUDE (see validate_convex)."""
    if body.validated:
        magnitude = body.a0 + sum(h.n * h.n * math.hypot(h.a, h.b) for h in body.harmonics)
        if not magnitude <= _MAX_MAGNITUDE:
            raise BadSpec(f"body magnitude {magnitude:.3g} exceeds {_MAX_MAGNITUDE:.0e}")
    return body


def steiner_point(body: TrigSupport) -> np.ndarray:
    """Steiner point (a1, b1): the degree-one Fourier coefficients."""
    h1 = body.harmonic(1)
    return np.array([h1.a, h1.b])


def recenter_to_steiner(body: TrigSupport) -> TrigSupport:
    """Support function with the Steiner point as origin (degree-1 term removed).

    The curvature radius is unchanged (degree-1 terms cancel in p + p''),
    so a validated body stays validated.
    """
    hs = tuple(h for h in body.harmonics if h.n != 1)
    return replace(body, harmonics=hs)


def minkowski_sum(a: TrigSupport, b: TrigSupport) -> TrigSupport:
    """Coefficient-wise sum of support functions.

    Perimeter and Steiner point are additive; the sum of two validated
    bodies is again strictly convex (curvature radii add).  A validated sum
    above the magnitude bound of validate_convex raises BadSpec.
    """
    coeffs: dict[int, list[float]] = {}
    for body in (a, b):
        for h in body.harmonics:
            acc = coeffs.setdefault(h.n, [0.0, 0.0])
            acc[0] += h.a
            acc[1] += h.b
    hs = tuple(Harmonic(n, ab[0], ab[1]) for n, ab in sorted(coeffs.items()))
    return _bounded(TrigSupport(a.a0 + b.a0, hs, validated=a.validated and b.validated))


def offset(body: TrigSupport, r: float) -> TrigSupport:
    """Parallel body at signed distance r: only the mean term shifts.

    Inner parallels (r < 0) may lose convexity, so the result is only kept
    validated for outward offsets of validated bodies; a validated result
    above the magnitude bound of validate_convex raises BadSpec.
    """
    return _bounded(replace(body, a0=body.a0 + float(r), validated=body.validated and r >= 0.0))


def rigid_motion(body: TrigSupport, theta: float = 0.0, v: Sequence[float] = (0.0, 0.0)) -> TrigSupport:
    """Rotate by theta (counterclockwise) then translate by v.

    Rotation shifts each harmonic phase by n*theta; translation only
    touches the degree-one harmonic, so all c_n^2 with n >= 2 are exact
    invariants.  A validated result above the magnitude bound of
    validate_convex raises BadSpec.
    """
    vx, vy = float(v[0]), float(v[1])
    coeffs: dict[int, list[float]] = {}
    for h in body.harmonics:
        c, s = math.cos(h.n * theta), math.sin(h.n * theta)
        coeffs[h.n] = [h.a * c - h.b * s, h.a * s + h.b * c]
    if vx != 0.0 or vy != 0.0:
        acc = coeffs.setdefault(1, [0.0, 0.0])
        acc[0] += vx
        acc[1] += vy
    hs = tuple(Harmonic(n, ab[0], ab[1]) for n, ab in sorted(coeffs.items()))
    return _bounded(TrigSupport(body.a0, hs, validated=body.validated))


def derivative(body: TrigSupport) -> TrigSupport:
    """Coefficients of p'; a generalized support, not a convex body."""
    hs = tuple(Harmonic(h.n, h.n * h.b, -h.n * h.a) for h in body.harmonics)
    return TrigSupport(0.0, hs)


def evolute_support(body: TrigSupport) -> TrigSupport:
    """Generalized support function of the evolute, p'(phi - pi/2)."""
    return rigid_motion(derivative(body), theta=math.pi / 2.0)


def wigner_support(body: TrigSupport) -> TrigSupport:
    """Generalized support of the Wigner caustic, (p(phi) - p(phi + pi)) / 2.

    Keeps exactly the odd harmonics of p.
    """
    hs = tuple(h for h in body.harmonics if h.n % 2 == 1)
    return TrigSupport(0.0, hs)


def is_constant_width(body: TrigSupport) -> tuple[bool, float]:
    """Whether p(phi) + p(phi + pi) is constant, and the width w = 2*a0.

    Constant width is equivalent to all even harmonics (n >= 2) vanishing;
    they are compared against tol = 1e-10 * a0.
    """
    tol = 1e-10 * max(abs(body.a0), 1e-300)
    flag = all(
        max(abs(h.a), abs(h.b)) <= tol for h in body.harmonics if h.n >= 2 and h.n % 2 == 0
    )
    return flag, 2.0 * body.a0


@dataclass(frozen=True)
class HypocycloidSpec:
    """Hypocycloid traced by a circle of radius r rolling inside radius k*r.

    k = m/n in lowest terms with m > 2n; the closed curve has m cusps and
    closes after the rolling parameter sweeps [0, 2*pi*n].
    """

    m: int
    n: int = 1
    r: float = 1.0

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0:
            raise BadSpec("hypocycloid m, n must be positive integers")
        if math.gcd(self.m, self.n) != 1:
            raise BadSpec(f"hypocycloid m={self.m}, n={self.n} must be coprime")
        if self.m <= 2 * self.n:
            raise BadSpec(f"hypocycloid needs k = m/n > 2, got {self.m}/{self.n}")
        if self.r <= 0:
            raise BadSpec("rolling radius must be positive")

    @property
    def k(self) -> float:
        return self.m / self.n


def random_body(
    seed: int,
    degree: int,
    constant_width: bool = False,
    index: int = 0,
) -> TrigSupport:
    """Reproducible random validated body, a0 = 1 and |c_n| <= 0.5*n^-3.

    Randomness flows from a counter-based generator keyed on (seed, index)
    so sweeps are reproducible and order-independent.  Amplitudes are
    halved (at most 60 times) until strict convexity holds.  The degree
    must lie in [1, _MAX_DEGREE] (ValueError, raised before any draw).
    """
    if not 1 <= degree <= _MAX_DEGREE:
        raise ValueError(f"degree must lie in [1, {_MAX_DEGREE}], got {degree}")
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
            return validate_convex(body)
        except NotStrictlyConvex:
            body = TrigSupport(
                body.a0, tuple(Harmonic(h.n, 0.5 * h.a, 0.5 * h.b) for h in body.harmonics)
            )
    raise AmplitudeTooLarge("random draw could not be rescaled to a convex body")


# ---------------------------------------------------------------------------
# Parallels of hypocycloids: the equality bodies, one harmonic of frequency k


def _parallel(a0: float, h: Harmonic) -> TrigSupport:
    """The validated body a0 + h, h of frequency k and amplitude |amp|; checks
    first that |amp|*(k^2 - 1) < a0, which keeps p + p'' > 0 (AmplitudeTooLarge)."""
    amp = math.hypot(h.a, h.b)
    if (h.n * h.n - 1) * amp >= a0:
        raise AmplitudeTooLarge(
            f"parallel of frequency k={h.n} needs |amp|*(k^2-1) < a0, got |amp|={amp:.6g}, a0={a0:.6g}"
        )
    return validate_convex(TrigSupport(a0, (h,)))


def astroid_parallel(a0: float, amp: float) -> TrigSupport:
    """Outer parallel of an astroid: p = a0 + amp*sin(2 phi); needs |amp| < a0/3."""
    return _parallel(a0, Harmonic(2, 0.0, amp))


def deltoid_parallel(a0: float, amp: float) -> TrigSupport:
    """Outer parallel of a Steiner curve: p = a0 + amp*cos(3 phi); needs |amp| < a0/8."""
    return _parallel(a0, Harmonic(3, amp, 0.0))


def hypocycloid_parallel(k: int, a0: float, amp: float) -> TrigSupport:
    """Outer parallel of a hypocycloid: p = a0 + amp*cos(k phi), integer k >= 3.

    The hypocycloid, the envelope of amp*cos(k phi), has k cusps for odd k
    (traced twice) and 2k cusps for even k; the 4-cusped astroid is
    `astroid_parallel`.
    """
    if not isinstance(k, (int, np.integer)) or k < 3:
        raise BadSpec(f"hypocycloid parallel needs integer k >= 3, got {k!r}")
    return _parallel(a0, Harmonic(int(k), amp, 0.0))


# ---------------------------------------------------------------------------
# JSON form: {"a0": <number>, "harmonics": [{"n":..., "a":..., "b":...}, ...]}


def body_to_dict(body: TrigSupport) -> dict:
    return {
        "a0": body.a0,
        "harmonics": [{"n": h.n, "a": h.a, "b": h.b} for h in body.harmonics],
    }


def _frequency(value) -> int:
    n = float(value)
    if not n.is_integer():
        raise BadSpec(f"harmonic frequency must be an integer, got {value!r}")
    return int(n)


def body_from_dict(data: dict) -> TrigSupport:
    try:
        a0 = float(data["a0"])
        hs = tuple(Harmonic(_frequency(h["n"]), float(h["a"]), float(h["b"])) for h in data.get("harmonics", ()))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadSpec(f"malformed body JSON: {exc}") from exc
    try:
        return TrigSupport(a0, hs)
    except ValueError as exc:
        raise BadSpec(str(exc)) from exc
