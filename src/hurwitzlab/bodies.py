"""Convex bodies encoded by truncated trigonometric support functions.

A planar convex body K is stored through the coefficients of its support
function

    p(phi) = a0 + sum_n [ a_n cos(n phi) + b_n sin(n phi) ],

the signed distance from the origin to the supporting line of K with
outward normal N(phi) = (cos phi, sin phi).  The boundary is recovered as
gamma(phi) = p N + p' N' and the curvature radius is rho = p + p''.
A support function describes a strictly convex body exactly when rho > 0
everywhere; operations that rely on convexity only accept bodies blessed
by `validate_convex`.  It decides in three stages, each run only when the
one before cannot certify: the certificate a0 - sum_{n>=2} (n^2 - 1)|c_n|
>= eps, a lower bound on rho; the dense grid of rho with a proven bound
between and at its samples (`_rho_grid`); and `min_curvature_radius`, a
vectorized search for the minimum of rho, which also supplies the minimum
a rejection reports.

A body keeps its nonzero harmonics as sorted arrays, which every spectral
sum reads as one array expression.  The extremal bodies of interest
(parallels of astroids, Steiner curves, five-cusped hypocycloids and their
Minkowski sums) have one to three harmonics, so the sparse form keeps every
downstream spectral sum exact.  `astroid_parallel`,
`deltoid_parallel` and `hypocycloid_parallel` build those parallels,
`random_body` draws reproducible test bodies, and `HypocycloidSpec` names
the cusped curve itself, which is drawn but is not a body.

Conventions: angles in radians, positive rotation counterclockwise, a
rotation by theta maps p to p(phi - theta).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AmplitudeTooLarge,
    BadSpec,
    NonpositiveMean,
    NotStrictlyConvex,
    NotValidated,
)
from .quadrature import MAX_NODES, TWO_PI, _read_only, rounded_sum

# Relative margin by which the convexity certificate must clear eps.
_CERT_MARGIN = 1e-15
# Default eps of validate_convex, relative to a0.
_EPS = 1e-9
# Largest accepted magnitude a0 + sum n^2 |c_n| of a body (see validate_convex).
_MAX_MAGNITUDE = 1e100
# Smallest accepted mean term a0, the mirror of _MAX_MAGNITUDE (see validate_convex).
_MIN_MEAN = 1e-100
# Largest harmonic degree: grid_for_degree needs 4N + 8 <= MAX_NODES nodes.
_MAX_DEGREE = (MAX_NODES - 8) // 4
# Round-off per level of the inverse FFT allowed for by `_rho_grid`: 64u,
# over ten times the 6u of a radix-2 level.
_FFT_LEVEL_ERR = 2.0**-47
# Entries (brackets x harmonics) per block of the polish table of
# `min_curvature_radius`, so its memory stays flat in the degree.
_BLOCK_ENTRIES = 1 << 13


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


class TrigSupport:
    """Support function a0 + sum_n [a_n cos(n phi) + b_n sin(n phi)].

    It holds a0, the read-only arrays n (sorted, zero harmonics dropped), a
    and b, and `validated`, which marks that `validate_convex` certified
    strict convexity and a positive mean term.  It is built from `Harmonic`
    terms in any order and reads them out as `harmonics`.  Values are
    immutable and compare by value; every operation returns a new instance.
    """

    def __init__(self, a0: float, harmonics: Iterable[Harmonic] = (), validated: bool = False):
        hs = sorted((h for h in harmonics if h.a != 0.0 or h.b != 0.0), key=lambda h: h.n)
        seen = [h.n for h in hs]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate harmonic frequencies: {seen}")
        if seen and seen[-1] >= 2**63:  # no int64 holds it
            raise ValueError(f"harmonic degree {seen[-1]} exceeds {_MAX_DEGREE}")
        n, a, b = np.array(seen, dtype=np.int64), np.array([h.a for h in hs]), np.array([h.b for h in hs])
        vars(self).update(vars(_body(a0, *_read_only(n, a, b), validated)))  # Harmonic holds floats

    def __setattr__(self, name, value):
        raise AttributeError(f"TrigSupport is immutable: cannot set {name!r}")

    @cached_property
    def _key(self) -> tuple:
        """The values, -0.0 read as 0.0 (by + 0.0) in the bytes of the arrays."""
        return self.a0, self.validated, self.n.tobytes(), (self.a + 0.0).tobytes(), (self.b + 0.0).tobytes()

    def __eq__(self, other):
        return self._key == other._key if type(other) is TrigSupport else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"TrigSupport(a0={self.a0!r}, harmonics={self.harmonics!r}, validated={self.validated!r})"

    @property
    def harmonics(self) -> tuple[Harmonic, ...]:
        return tuple(map(Harmonic, self.n.tolist(), self.a.tolist(), self.b.tolist()))

    @property
    def max_degree(self) -> int:
        return int(self.n[-1]) if self.n.size else 0

    @cached_property
    def c_sq(self) -> np.ndarray:
        """The squared amplitudes a_n^2 + b_n^2, in the order of n: one
        read-only array, computed on first read."""
        return _read_only(self.a * self.a + self.b * self.b)[0]

    def harmonic(self, n: int) -> Harmonic:
        """The harmonic at frequency n, zero if absent; ValueError unless n is an integer >= 1."""
        zero = Harmonic(n, 0.0, 0.0)
        i = int(np.searchsorted(self.n, min(zero.n, self.max_degree)))
        return Harmonic(zero.n, self.a[i], self.b[i]) if i < self.n.size and self.n[i] == zero.n else zero


def _body(a0: float, n: np.ndarray, a: np.ndarray, b: np.ndarray, validated: bool = False) -> TrigSupport:
    """The body of the read-only arrays of sorted, distinct frequencies n and
    nonzero harmonics, which other bodies may share; no check made."""
    body = object.__new__(TrigSupport)
    vars(body).update(a0=float(a0), n=n, a=a, b=b, validated=validated)
    return body


def _nonzero(n: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """n, a and b less the zero harmonics, made read-only."""
    keep = np.logical_or(a, b)
    return _read_only(*((n, a, b) if keep.all() else (n[keep], a[keep], b[keep])))


def _coef(body: TrigSupport) -> np.ndarray:
    """The coefficients a_n - i b_n, set part by part: no complex product rounds them."""
    c = np.empty(body.n.size, dtype=complex)
    c.real, c.imag = body.a, -body.b
    return c


def _require_validated(body: TrigSupport) -> None:
    if not isinstance(body, TrigSupport) or not body.validated:
        raise NotValidated("body must pass validate_convex first")


def _derivs(body: TrigSupport, phi, orders, cs=None) -> tuple:
    """p^(k)(phi) for each order k (0 to 3) in `orders`, in one Horner pass.

    The evaluation at scattered angles (uniform grids take `_grid_derivs`;
    `functionals.generalized_area`, a test oracle, keeps off it on purpose):
    with z = e^{i phi}, p^(k)(phi) = [k=0] a0 + Re sum_n (in)^k (a_n - i b_n) z^n,
    summed by Horner over every degree N, ..., 1, with an error of about
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
    if not body.n.size:
        vals = vals + np.zeros(phi.shape)
    else:
        n = np.arange(body.max_degree + 1.0)
        a, b = np.zeros((2, n.size))
        a[body.n], b[body.n] = body.a, body.b
        turns = ((a, -b), (b, a), (-a, b), (-b, -a))  # i^k (a - ib)
        coef = np.array([[n**k * part for part in turns[k]] for k in orders])
        dre, dim = coef.transpose(1, 2, 0).reshape((2, n.size) + shape)
        re, im = dre[-1], dim[-1]
        for i in range(n.size - 2, 0, -1):
            re, im = re * c - im * s + dre[i], re * s + im * c + dim[i]
        vals = re * c - im * s + vals
    return tuple(float(v) for v in vals) if phi.ndim == 0 else tuple(vals)


def _grid_derivs(body: TrigSupport, m: int, orders) -> tuple:
    """p^(k)(2*pi*j/m), j = 0..m-1, for each order k (0 to 3) in `orders`.

    One "forward"-norm inverse real FFT, which never scales by the grid size,
    of the spectrum [k=0] a0 + (in)^k (a_n - i b_n) / 2 gives the values at
    the grid's exact angles, with round-off about u*log2(m)*sum_n n^k |c_n|
    (Higham 2002, ch. 24) against Horner's N*u*sum_n n^k |c_n|.  A grid of
    m <= 2N nodes is sampled on the smallest multiple q*m > 2N, every q-th
    value kept, so no harmonic aliases.
    """
    n, half = body.n, 0.5 * _coef(body)
    q = 2 * body.max_degree // m + 1
    spec = np.zeros((len(orders), q * m // 2 + 1), dtype=complex)
    for row, k in zip(spec, orders):
        row[0] = body.a0 if k == 0 else 0.0
        row[n] = (1, 1j, -1, -1j)[k] * n**k * half
    return tuple(np.fft.irfft(spec, q * m, norm="forward")[..., ::q])


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


def _polish_roots(f, x, neg, pos, tol, active, *args):
    """Safeguarded Newton/bisection for roots of f, vectorized over brackets.

    f(x, *args) returns a tuple whose first two entries are f and f' at the
    array x; further entries ride along.  Bracket i is labelled by the sign of
    f at its ends, f(neg[i]) <= 0 <= f(pos[i]), and neg may lie on either side
    of pos.  A Newton step is taken when f' has the sign of pos - neg and
    lands strictly inside the bracket, otherwise the bracket is bisected;
    brackets where the mask `active` (or a plain True) is false or where
    |f| <= tol stay put.  Once fewer than half are open, the open ones are
    gathered with their ends, tol and args (arrays of x's shape or scalars),
    and f sees them alone: an elementwise f keeps every bit.  Returns the
    roots and the last value of f(x), after at most 120 steps.
    """
    vals = f(x, *args)
    lo, hi, rising = np.minimum(neg, pos), np.maximum(neg, pos), pos > neg
    whole = []  # x and vals in full once the open brackets, at flat indices `at`, are gathered
    for _ in range(120):
        fx, dfx = vals[0], vals[1]
        active = active & (np.abs(fx) > tol)
        if not active.any():
            break
        if not whole and 2 * np.count_nonzero(active) < active.size:
            at, whole, active = np.flatnonzero(active), [np.array(v) for v in (x, *vals)], True
            x, lo, hi, rising, tol, fx, dfx, *args = (
                v if np.ndim(v) == 0 else v.take(at) for v in (x, lo, hi, rising, tol, fx, dfx, *args)
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / dfx
        newton = ((dfx > 0.0) == rising) & (lo < xn) & (xn < hi)  # f' of pos - neg's sign; 0 and NaN land outside
        xn = xn if newton.all() else np.where(newton, xn, 0.5 * (lo + hi))
        x = xn if active is True or active.all() else np.where(active, xn, x)
        vals = f(x, *args)
        upper = active & ((vals[0] > 0.0) == rising)  # f(x) > 0 moves pos, the upper end where f rises
        hi, lo = np.where(upper, x, hi), np.where(active ^ upper, x, lo)
    for full, part in zip(whole, (x, *vals)):
        full.put(at, part)
    return (whole[0], whole[1:]) if whole else (x, vals)


def _rho_grid(body: TrigSupport) -> tuple:
    """rho = p + p'' on a dense grid, with proven bounds between and at its samples.

    Returns (n, r, rho, dip, err):

    - n and r_n = (1 - n^2)(a_n - i b_n), the spectrum of
      rho = a0 + Re sum_n r_n e^{in phi};
    - rho at the m angles 2*pi*j/m, m the least power of two >= 16*max(N, 4)
      (so the FFT never falls back to Bluestein): a0 plus the samples of
      the body with mean 0 and spectrum r_n by `_grid_derivs`, one inverse
      real FFT.  Every n lies below m/2, and the "forward" norm never scales
      the spectrum by m, so it cannot overflow before the values do;
    - dip = M2 h^2 / 8 with M2 = sum_n n^2 |r_n| >= |rho''| and h = 2*pi/m:
      rho stays within M2 h^2 / 8 of its chord on a cell between two
      samples, so rho >= min(rho_j, rho_{j+1}) - dip there;
    - err >= |computed rho_j - rho(2*pi*j/m)|.  Higham (2002, Thm 24.2)
      bounds the 2-norm error of an FFT of L = log2(m) radix-2 levels by
      L*eta/(1 - L*eta) * ||y||_2, eta = mu + gamma_4(sqrt(2) + mu) ~ 6u for
      twiddles off by mu ~ u; the largest error is at most the 2-norm one,
      and ||y||_2 = sqrt(m/2) ||r||_2 <= sqrt(m) sum_n |r_n|.  err takes
      eta = `_FFT_LEVEL_ERR` = 64u, which leaves room for pocketfft's
      higher-radix levels and for the rounding of r_n, plus
      2u*a0 for the addition of a0.

    dip and err are rounded up past the round-off of their own sums
    (relative K*u for K < 2^18 harmonics) by the factor 1 + 2^-30.  A
    spectrum past the float range gives inf or NaN, which certify nothing.
    """
    n = body.n
    spectrum = _body(0.0, n, (1 - n * n) * body.a, (1 - n * n) * body.b)
    m = 1 << (16 * max(body.max_degree, 4) - 1).bit_length()
    rho = body.a0 + _grid_derivs(spectrum, m, (0,))[0]
    r = _coef(spectrum)
    mag = np.abs(r)
    up = 1.0 + 2.0**-30
    dip = up * float(np.sum(n * n * mag)) * (TWO_PI / m) ** 2 / 8.0
    err = up * (_FFT_LEVEL_ERR * math.log2(m) * math.sqrt(m) * float(np.sum(mag)) + 2.0**-52 * body.a0)
    return n, r, rho, dip, err


def min_curvature_radius(body: TrigSupport, *, _grid: tuple | None = None) -> tuple[float, float]:
    """Global minimum of the curvature radius rho = p + p'' and its angle.

    Everything is read off the spectrum r_n of `_rho_grid`, which also gives
    rho on its power-of-two grid; `validate_convex` hands over the grid it
    already sampled as `_grid`.  The grid's local minima x at which rho'
    changes sign between x - h and x + h are the brackets.  A bracket can
    hold the global minimum only if its cell bound rho(x) - dip reaches the
    smallest sample, within the round-off of the samples (err) and of the
    polished values, sums of K terms whose phases n*x are off by up to
    u*2*pi*n; only those brackets are polished.  `_polish_roots` finds the
    roots of rho' in all of them at once, down to |rho'| <= 1e-12 * scale
    or, at high degree, the round-off bound u * sum_n n|r_n|(1 + 2 pi n) of
    rho' itself, below which Newton only stalls; there rho, rho' and rho''
    are the real part of the product of e^{i n x} with the columns
    (in)^k r_n, k = 0, 1, 2, built `_BLOCK_ENTRIES` entries at a time.  A
    spectrum past the float range gives NaN or -inf, never a false minimum.
    """
    if not body.n.size:
        return body.a0, 0.0
    n, r, rho, dip, err = _rho_grid(body) if _grid is None else _grid
    coef = np.stack([r, 1j * n * r, -(n * n) * r], axis=1)
    phis = np.linspace(0.0, TWO_PI, rho.size, endpoint=False)
    scale = max(abs(body.a0), float(np.max(np.abs([body.a, body.b]))), 1e-300)
    rows = max(1, _BLOCK_ENTRIES // n.size)

    def slope(x):
        blocks = [np.exp(1j * np.outer(x[i : i + rows], n)) @ coef for i in range(0, x.size, rows)]
        vals, d1, d2 = np.concatenate(blocks).real.T
        return d1, d2, body.a0 + vals

    slop = 2.0 * err + 2.0**-51 * float(np.sum(np.abs(r) * (n.size + TWO_PI * n)))
    local = ~((rho > np.roll(rho, 1)) | (rho > np.roll(rho, -1)))  # NaN samples stay candidates
    x = phis[local & ~(rho - dip > np.min(rho) + slop)]
    h = TWO_PI / rho.size
    lo, hi = x - h, x + h
    ends = slope(np.concatenate([lo, hi]))[0]
    active = (ends[: x.size] <= 0.0) & (0.0 <= ends[x.size :])
    floor = 2.0**-52 * float(np.sum(n * np.abs(r) * (1.0 + TWO_PI * n)))
    x, (_, _, vals) = _polish_roots(slope, x, lo, hi, max(1e-12 * scale, floor), active)
    best = int(np.argmin(vals))
    return float(vals[best]), float(x[best] % TWO_PI)


def validate_convex(body: TrigSupport, eps: float | None = None, *, _stage: tuple | None = None) -> TrigSupport:
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
    node), far inside the float range.  The mirror bound: a0 below
    _MIN_MEAN = 1e-100 raises BadSpec, since a0 >= 1e-100 keeps a0^2 >=
    1e-200, above the underflow of every quadratic functional.

    Three stages decide, each only when the one before cannot certify:

    1. The certificate: rho(phi) >= slack = a0 - sum_{n>=2} (n^2 - 1)|c_n|
       for every phi, so slack >= eps proves strict convexity.
    2. The dense grid of `_rho_grid`: rho >= min_j rho_j - dip - err
       everywhere, the least sample less the cell bound M2 h^2 / 8 and the
       proven round-off of the samples, so that bound >= eps proves it too.
    3. `min_curvature_radius` searches from stage 2's grid, not sampled
       again, and only a minimum that is at least eps certifies: a spectrum
       past the float range gives a NaN minimum, which never does.  A
       rejected body's NotStrictlyConvex carries the searched minimum.

    Stages 1 and 2 must clear eps by _CERT_MARGIN * a0, a few ulps of a0
    that cover the round-off of their last sums (rho averages to a0, so a
    bound that clears eps lies below a0), and so never certify a body whose
    true rho_min sits at eps.  Both bound rho from below, so they certify no
    body the search would reject.
    """
    if _stage is None:
        _stage = [v.item() for v in _stage_one([body.a0], body.n, body.a[None], body.b[None])]
    finite, slack, magnitude = _stage
    if not finite:
        raise BadSpec("support coefficients must be finite")
    if body.max_degree > _MAX_DEGREE:
        raise BadSpec(f"harmonic degree {body.max_degree} exceeds {_MAX_DEGREE}")
    if body.a0 <= 0.0:
        raise NonpositiveMean(f"mean term a0={body.a0:.6g} must be positive")
    if body.a0 < _MIN_MEAN:
        raise BadSpec(f"mean term a0={body.a0:.3g} is below {_MIN_MEAN:.0e}")
    if eps is None:
        eps = _EPS * body.a0
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    floor = eps + _CERT_MARGIN * body.a0
    if slack < floor:
        grid = _rho_grid(body)
        _, _, rho, dip, err = grid
        if not float(np.min(rho)) - dip - err >= floor:
            rho_min, phi_at = min_curvature_radius(body, _grid=grid)
            if not rho_min >= eps:
                raise NotStrictlyConvex(rho_min, phi_at)
    return _bounded(_body(body.a0, body.n, body.a, body.b, validated=True), magnitude)


def _stage_one(a0, n: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1 of `validate_convex` on rows of harmonics in the form
    `_constant_width` takes: a0 one mean term per row, a and b one row per
    body and one column per frequency in n.  Per row, as three arrays
    (finite, slack, magnitude): whether every coefficient is finite; the
    certificate slack a0 - `rounded_sum` of (n^2 - 1)|c_n|, or -inf unless
    s = sum n^2 |c_n| (a running sum, left to right) < 2^1023, so it cannot
    overflow; a0 + s.  The terms are >= +0, so the +0.0 terms of the
    frequencies a row lacks move no bit and no sign of zero.  |c_n| is
    math.hypot on the nonzero entries, which np.hypot differs from in some
    last bits; the products may leave the float range (inf, or NaN for
    0*inf)."""
    a0, keep, sq = np.asarray(a0, dtype=float), np.logical_or(a, b), n * n
    amps = np.zeros(a.shape)
    amps[keep] = list(map(math.hypot, a[keep].tolist(), b[keep].tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        terms, weighted = (sq - 1) * amps, sq * amps
    sums = weighted.cumsum(1)[:, -1] if n.size else np.zeros(a0.size)
    fits = sums < 2.0**1023
    slack = np.where(fits, a0 - rounded_sum(np.where(fits[:, None], terms, 0.0)), -math.inf)
    return np.isfinite(a0) & (np.isfinite(a) & np.isfinite(b)).all(1), slack, a0 + sums


def _bounded(body: TrigSupport, magnitude: float | None = None) -> TrigSupport:
    """The body itself; raises BadSpec when it is validated and its magnitude
    a0 + sum_n n^2 |c_n| (`_stage_one`'s, unless given) exceeds _MAX_MAGNITUDE
    (see validate_convex)."""
    if body.validated:
        if magnitude is None:
            magnitude = _stage_one([body.a0], body.n, body.a[None], body.b[None])[2].item()
        if not magnitude <= _MAX_MAGNITUDE:
            raise BadSpec(f"body magnitude {magnitude:.3g} exceeds {_MAX_MAGNITUDE:.0e}")
    return body


def steiner_point(body: TrigSupport) -> np.ndarray:
    """Steiner point (a1, b1): the degree-one Fourier coefficients."""
    return np.array([body.a[0], body.b[0]]) if body.n.size and body.n[0] == 1 else np.zeros(2)


def recenter_to_steiner(body: TrigSupport) -> TrigSupport:
    """Support function with the Steiner point as origin (degree-1 term removed).

    The curvature radius is unchanged (degree-1 terms cancel in p + p''),
    so a validated body stays validated.
    """
    if not (body.n.size and body.n[0] == 1):
        return body
    return _body(body.a0, body.n[1:], body.a[1:], body.b[1:], body.validated)


def minkowski_sum(a: TrigSupport, b: TrigSupport) -> TrigSupport:
    """Coefficient-wise sum of support functions.

    Perimeter and Steiner point are additive; the sum of two validated
    bodies is again strictly convex (curvature radii add).  A validated sum
    above the magnitude bound of validate_convex raises BadSpec.
    """
    n = np.sort(np.concatenate((a.n, b.n)))  # a shared frequency's second column stays zero; _nonzero drops it
    coef = np.zeros((2, n.size))
    for body in (a, b):
        at = np.searchsorted(n, body.n)
        coef[0, at] += body.a
        coef[1, at] += body.b
    return _bounded(_body(a.a0 + b.a0, *_nonzero(n, *coef), validated=a.validated and b.validated))


def offset(body: TrigSupport, r: float) -> TrigSupport:
    """Parallel body at signed distance r: only the mean term shifts.

    Inner parallels (r < 0) may lose convexity, so the result is only kept
    validated for outward offsets of validated bodies; a validated result
    above the magnitude bound of validate_convex raises BadSpec.
    """
    return _bounded(_body(body.a0 + float(r), body.n, body.a, body.b, body.validated and r >= 0.0))


def rigid_motion(body: TrigSupport, theta: float = 0.0, v: Sequence[float] = (0.0, 0.0)) -> TrigSupport:
    """Rotate by theta (counterclockwise) then translate by v.

    Rotation shifts each harmonic phase by n*theta; translation only
    touches the degree-one harmonic, so all c_n^2 with n >= 2 are exact
    invariants.  A validated result above the magnitude bound of
    validate_convex raises BadSpec.
    """
    vx, vy = float(v[0]), float(v[1])
    turns = (body.n * theta).tolist()  # math's trig: numpy's SIMD trig depends on the CPU
    c, s = (np.array(list(map(f, turns)), dtype=float) for f in (math.cos, math.sin))
    n, a, b = body.n, body.a * c - body.b * s, body.a * s + body.b * c
    if vx != 0.0 or vy != 0.0:
        if not (n.size and n[0] == 1):
            n, a, b = np.concatenate(([1], n)), np.concatenate(([0.0], a)), np.concatenate(([0.0], b))
        a[0], b[0] = a[0] + vx, b[0] + vy
    return _bounded(_body(body.a0, *_nonzero(n, a, b), body.validated))


def wigner_support(body: TrigSupport) -> TrigSupport:
    """Generalized support of the Wigner caustic, (p(phi) - p(phi + pi)) / 2.

    Keeps exactly the odd harmonics of p.
    """
    odd = (body.n & 1) == 1
    return _body(0.0, *_read_only(body.n[odd], body.a[odd], body.b[odd]))


def is_constant_width(body: TrigSupport) -> tuple[bool, float]:
    """Whether p(phi) + p(phi + pi) is constant, and the width w = 2*a0.

    Constant width is equivalent to all even harmonics (n >= 2) vanishing;
    they are compared against tol = 1e-10 * a0.
    """
    return bool(_constant_width(body.a0, body.n, body.a, body.b)), 2.0 * body.a0


def _constant_width(a0, n, a, b):
    """The test of `is_constant_width` on the harmonics a, b at the
    frequencies n: of one body (a0 a float), or of a chunk of bodies, a0
    holding one mean term and a and b one row per body (`_dense`)."""
    tol = 1e-10 * np.maximum(abs(a0), 1e-300)
    small = np.maximum(np.abs(a), np.abs(b)) <= tol[..., None]
    return (small | (n & 1)).all(axis=-1)  # odd n pass as they are


def _dense(bodies: Sequence[TrigSupport]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean terms of a chunk of bodies and their a_n and b_n, one row per
    body and one column per frequency n = 0..N, N the largest degree among
    them; a frequency a body lacks holds 0.0."""
    n = np.concatenate([body.n for body in bodies])
    rows = np.repeat(np.arange(len(bodies)), [body.n.size for body in bodies])
    a, b = np.zeros((2, len(bodies), int(n.max(initial=0)) + 1))
    a[rows, n], b[rows, n] = (np.concatenate([getattr(body, part) for body in bodies]) for part in "ab")
    return np.array([body.a0 for body in bodies]), a, b


def chunk_body(a0: np.ndarray, a: np.ndarray, b: np.ndarray, j: int) -> TrigSupport:
    """Row j of a chunk of validated bodies in the form of `_dense` as a body."""
    n = np.flatnonzero(np.logical_or(a[j], b[j]))
    return _body(a0[j], *_read_only(n, a[j, n], b[j, n]), validated=True)


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
        if not 0.0 < self.r < math.inf:
            raise BadSpec(f"rolling radius must be positive and finite, got {self.r!r}")

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
    so sweeps are reproducible and order-independent: the draws follow
    numpy's SeedSequence(seed, spawn_key=(index,)) -> Philox4x64 stream bit
    for bit, computed in array form (`random_chunk`, of which this is the
    one-body case) without importing numpy.random.  Amplitudes are halved
    (at most 60 times) until strict convexity holds.  Seed, degree and
    index must be integers (TypeError), the degree in [1, _MAX_DEGREE] and
    seed and index non-negative (ValueError), both raised before any draw.
    """
    return random_bodies(seed, [index], [degree], [constant_width])[0]


def random_bodies(seed: int, index: Sequence[int], degree: Sequence[int], constant_width: Sequence[bool]) -> list:
    """[random_body(seed, d, cw, index=i) for i, d, cw in zip(...)], bit for
    bit: the rows of `random_chunk` as bodies."""
    a0, a, b = random_chunk(seed, index, degree, constant_width)
    return [chunk_body(a0, a, b, j) for j in range(a0.size)]


def random_chunk(seed: int, index: Sequence[int], degree: Sequence[int], constant_width: Sequence[bool]) -> tuple:
    """The validated bodies of `random_bodies` as `_dense` holds a chunk:
    their mean terms, and a_n and b_n with one row per body and one column
    per frequency up to the largest degree (so meant for one body, or for
    chunks of low degree such as sweep's), drawn in array passes.

    Each row's stream is Philox4x64-10 (Salmon et al. 2011) under the key
    numpy's SeedSequence(seed, spawn_key=(i,)).generate_state(2, uint64)
    derives, on the counters 1, 2, ...; each 64-bit output x gives the
    double (x >> 11) * 2^-53, as numpy's Generator.random.  The uniforms
    (magnitude, phase) of n = 1..degree take the stream in order; constant
    width keeps the odd n.  Stage 1 of `validate_convex` (`_stage_one`)
    runs on all rows at once, on the columns n = 1..N, and a row it does not
    certify goes through `validate_convex`, its amplitudes halved while it
    is rejected, and is written back.
    """
    seed, index, degree = operator.index(seed), [operator.index(i) for i in index], [operator.index(d) for d in degree]
    for d in degree:
        if not 1 <= d <= _MAX_DEGREE:
            raise ValueError(f"degree must lie in [1, {_MAX_DEGREE}], got {d}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if min(index, default=0) < 0:
        raise ValueError(f"index must be a non-negative integer, got {min(index)}")
    degree = np.array(degree, dtype=np.int64)
    step = np.array([2 if cw else 1 for cw in constant_width], dtype=np.int64)  # constant width: odd n only
    rows = np.arange(len(index))
    blocks = (degree + 1) // 2  # 2*degree uniforms, 4 per Philox block
    u = _uniforms(seed, index, blocks)
    count = (degree + step - 1) // step
    at = np.repeat(rows, count)
    n = 1 + step[at] * (np.arange(at.size) - (np.cumsum(count) - count)[at])
    # (magnitude, phase) of n are the uniforms 2(n - 1) and 2n - 1 of the row;
    # rng.uniform(0, h) is 0 + h*u, so h*u is the same double
    where = 4 * (np.cumsum(blocks) - blocks)[at] + 2 * (n - 1)
    mag, phase = 0.5 * u[where] / (n * n * n), (TWO_PI * u[where + 1]).tolist()
    c, s = (np.array(list(map(f, phase)), dtype=float) for f in (math.cos, math.sin))  # as in rigid_motion
    a0, dense = np.ones(rows.size), np.zeros((2, rows.size, degree.max(initial=0) + 1))
    dense[0, at, n], dense[1, at, n] = mag * c, mag * s
    n = np.arange(1, dense.shape[2])
    finite, slack, magnitude = stage = _stage_one(a0, n, dense[0, :, 1:], dense[1, :, 1:])
    floor = _EPS + _CERT_MARGIN  # validate_convex's on a0 = 1
    for j in np.flatnonzero(~(finite & (slack >= floor) & (magnitude <= _MAX_MAGNITUDE))).tolist():
        row = dense[:, j, 1:].copy()  # the body must not view the row zeroed below
        body = _convex(_body(1.0, *_nonzero(n, *row)), [v[j].item() for v in stage])
        dense[:, j] = 0.0
        dense[0, j, body.n], dense[1, j, body.n] = body.a, body.b
    return a0, dense[0], dense[1]


def _uniforms(seed: int, index: list[int], blocks: np.ndarray) -> np.ndarray:
    """The first 4*blocks[r] doubles of numpy's
    Generator(Philox(SeedSequence(seed, spawn_key=(index[r],)))).random()
    for each row r, the rows one after another."""
    at = np.repeat(np.arange(len(index)), blocks)
    counter = np.arange(at.size) - (np.cumsum(blocks) - blocks)[at] + 1
    out = _philox(counter.astype(np.uint64), np.stack(_philox_keys(seed, index))[:, at])
    return (out >> np.uint64(11)).ravel() * 2.0**-53


def _convex(body: TrigSupport, stage: tuple) -> TrigSupport:
    """The body validated, its amplitudes halved (at most 60 times) while
    `validate_convex` rejects it; stage is the body's row of `_stage_one`."""
    for _ in range(60):
        try:
            return validate_convex(body, _stage=stage)
        except NotStrictlyConvex:
            stage = None
            body = _body(body.a0, *_nonzero(body.n, 0.5 * body.a, 0.5 * body.b))
    raise AmplitudeTooLarge("random draw could not be rescaled to a convex body")


# numpy's SeedSequence (numpy/random/bit_generator.pyx) on uint32 words: the
# seeds and multipliers of its two running hash constants, its mix
# multipliers and its pool size
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# Philox4x64's round multipliers and key increments (Salmon et al. 2011), one
# row per multiplied word
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def _hash_constants(const: int, mult: int):
    """SeedSequence's running hash constant from const: the (xor, multiplier)
    pair of each hash in turn, the constant advancing by mult."""
    while True:
        xor, const = const, const * mult & _MASK32
        yield xor, const


def _columns(pairs) -> np.ndarray:
    """(xor, multiplier) pairs as the uint32 array (2, pairs, 1): one column per hash."""
    return np.array(list(pairs), dtype=np.uint32).T[:, :, None]


def _hash(value, xor, mul):
    """SeedSequence's hash of uint32 words (ints or arrays) under one (xor, multiplier) pair."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return value ^ value >> 16


def _philox_keys(seed: int, index: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 key words of Philox(SeedSequence(seed, spawn_key=(i,)))
    for each i of index.

    The entropy is seed's words, padded with zeros to the pool size, then
    i's words, least significant first.  The pool after seed's first 4
    words is the same in every row and is hashed once on ints; each later
    word then mixes into the 4 pool words of all rows at once, one group of
    rows whose i has the same number of words at a time."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 32 * _POOL), 32)]
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(w, *next(consts)) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    size = np.array([-(-i.bit_length() // 32) or 1 for i in index], dtype=np.int64)
    shifts = range(0, 32 * size.max(initial=1), 32)
    spawn = np.array([[i >> s & _MASK32 for i in index] for s in shifts], dtype=np.uint32)
    tail = _columns(itertools.islice(consts, _POOL * (len(words) - _POOL + spawn.shape[0])))
    keys = np.zeros((2, len(index)), dtype=np.uint64)
    for count in sorted(set(size.tolist())):
        rows = size == count
        mixed = np.array(pool, dtype=np.uint32)[:, None]
        for k, w in enumerate(words[_POOL:] + list(spawn[:count, rows])):
            mixed = _mix(mixed, _hash(w, *tail[:, _POOL * k : _POOL * (k + 1)]))
        # generate_state(2, uint64): 4 words, read as 2 little-endian uint64
        state = _hash(mixed, *_columns(itertools.islice(_hash_constants(_INIT_B, _MULT_B), _POOL))).astype(np.uint64)
        keys[:, rows] = state[0::2] | state[1::2] << np.uint64(32)
    return keys[0], keys[1]


def _philox(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counters (counter, 0, 0, 0) under the keys
    (key[0], key[1]): the 4 uint64 outputs of each counter, in order, as
    its row.  Words 0 and 2, which the rounds multiply, are one (2, size)
    array, and words 1 and 3 another; each 128-bit product is built from
    32-bit halves."""
    half, low = np.uint64(32), np.uint64(_MASK32)
    m, bump = (np.repeat(c, counter.size, axis=1) for c in (_PHILOX_M, _PHILOX_W))
    m_lo, m_hi = m & low, m >> half
    even, odd = np.stack([counter, np.zeros_like(counter)]), np.zeros((2, counter.size), dtype=np.uint64)
    for r in range(10):
        if r:
            key = key + bump
        x_lo, x_hi = even & low, even >> half
        lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
        carry = ((lo_lo >> half) + (lo_hi & low) + (hi_lo & low)) >> half
        hi = m_hi * x_hi + (lo_hi >> half) + (hi_lo >> half) + carry
        even, odd = hi[::-1] ^ odd ^ key, (m * even)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)


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
        "harmonics": [{"n": n, "a": a, "b": b} for n, a, b in zip(body.n.tolist(), body.a.tolist(), body.b.tolist())],
    }


def _number(value) -> float:
    """A number as a float; strings, booleans and null raise BadSpec."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadSpec(f"body values must be JSON numbers, got {value!r}")
    return float(value)


def _frequency(value) -> int:
    n = _number(value)
    if not n.is_integer():
        raise BadSpec(f"harmonic frequency must be an integer, got {value!r}")
    return int(n)


def body_from_dict(data: dict) -> TrigSupport:
    try:
        a0 = _number(data["a0"])
        hs = tuple(Harmonic(_frequency(h["n"]), _number(h["a"]), _number(h["b"])) for h in data.get("harmonics", ()))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadSpec(f"malformed body JSON: {exc}") from exc
    try:
        return TrigSupport(a0, hs)
    except ValueError as exc:
        raise BadSpec(str(exc)) from exc
