"""Scalar functionals of a convex body, computed along two independent paths.

Every quantity is available both as a closed-form sum over the squared
harmonic amplitudes c_n^2 (path "spectral") and as a periodic-quadrature
integral over one sampling of p and its first three derivatives (path
"quadrature").  The two paths share no code beyond body evaluation, so each
serves as the other's oracle.  A chunk of bodies takes the weights of the
spectral sums (`_functional_weights`) into the one weight table of its
verdicts (`verdicts`), with the bits each body gives alone.

Closed forms, with c_n^2 taken about the Steiner point where it matters:

    L    = 2*pi*a0
    F    = pi*a0^2 - (pi/2) * sum_{n>=2} (n^2-1) c_n^2
    Delta= L^2 - 4*pi*F = 2*pi^2 * sum_{n>=2} (n^2-1) c_n^2
    Fe   = -(pi/2) * sum_{n>=2} n^2 (n^2-1) c_n^2          (signed, <= 0)
    pi|Fe| - Delta = (pi^2/2) * sum_{n>=3} (n^2-1)(n^2-4) c_n^2
    A    = F + (pi/2) * sum_{n>=2} n^2 c_n^2               (pedal area)
    delta2^2 = pi * sum_{n>=2} c_n^2                       (Steiner-disk L2 gap)
    Aw   = -(pi/2) * sum_{odd n>=3} (n^2-1) c_n^2          (Wigner caustic, signed)
    Wq   = pi * sum_{n>=2} (n^2-1) c_n^2                   (Wirtinger deficit of p - L/2pi)

so Delta = 2*pi*Wq (to round-off on the quadrature path).  There Fe and Aw are
the full-period swept areas of the evolute's and the Wigner caustic's
generalized supports, read off the body's own samples; `generalized_area`,
the same area from a support's coefficients, is their test oracle.

The Wigner area convention used throughout ("full-period swept area of the
caustic's generalized support") makes Delta >= 4*pi*|Aw| an identity-backed
inequality with equality exactly at constant width.  Under this convention
A - F >= |Aw| is strict for every non-disk body, including constant-width
ones; see `verdicts` for how that residual is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bodies import TrigSupport, _derivs, _grid_derivs, _require_validated, recenter_to_steiner, steiner_point
from .quadrature import PI, TWO_PI, grid_for_degree, periodic_integral, rounded_sum


@dataclass(frozen=True)
class FunctionalSet:
    """All scalar functionals of one body, tagged with the path that made them."""

    L: float
    F: float
    Delta: float
    Fe: float
    hurwitz_deficit: float
    A: float
    AmF: float
    delta2_sq: float
    Aw: float
    Wq: float
    steiner: tuple[float, float]
    cn_sq: tuple[tuple[int, float], ...]
    path: str

    def cn_sq_map(self) -> dict[int, float]:
        return dict(self.cn_sq)

    def to_dict(self) -> dict:
        """The fields in order, path first, as JSON values."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"path": d.pop("path"), **d, "steiner": list(self.steiner),
                "cn_sq": {str(n): v for n, v in self.cn_sq}}


# the scalar functionals, in field order
FunctionalSet.FIELD_NAMES = tuple(f.name for f in fields(FunctionalSet) if f.type == "float")


def _functional_weights(n: np.ndarray) -> np.ndarray:
    """The weights w(n) of the six sums of `functionals_spectral` at the
    frequencies n, one row each: n^2 - 1, n^2 (n^2 - 1), (n^2 - 1)(n^2 - 4),
    n^2, 1 and n^2 - 1 at odd n, exact in floats while n^4 < 2^53 (n <= 9741).
    They are 0 at n <= 1, so the degree-one term, the Steiner point, adds
    exact zeros."""
    n2 = (n * n).astype(float)
    m = n2 - 1.0
    w = np.array([m, n2 * m, m * (n2 - 4.0), n2, np.ones(n.size), m * (n & 1)])
    w[:, n <= 1] = 0.0
    return w


def functionals_spectral(body: TrigSupport) -> FunctionalSet:
    """Closed-form spectral sums over the harmonic amplitudes, each
    `rounded_sum`'s: the six of `_functional_weights`, read by `_spectral_set`.
    """
    _require_validated(body)
    n, degree = body.n, body.max_degree
    sx, sy = steiner_point(body)
    dense = np.zeros(degree + 1)
    dense[n] = body.c_sq
    cn = tuple(zip(range(2, degree + 1), dense[2:].tolist()))
    sums = rounded_sum(_functional_weights(n) * body.c_sq).tolist()
    return _spectral_set(body.a0, sums, steiner=(float(sx), float(sy)), cn_sq=cn)


def _spectral_set(a0, sums, **parts) -> FunctionalSet:
    """The spectral functionals from a0 and the six sums of
    `_functional_weights`: floats for one body, or arrays over a chunk."""
    s_iso, s_evolute, s_hurwitz, s_pedal, s_gap, s_wigner = sums
    L = TWO_PI * a0
    F = PI * a0 * a0 - 0.5 * PI * s_iso
    A = F + 0.5 * PI * s_pedal
    return FunctionalSet(
        L=L, F=F, Delta=2.0 * PI * PI * s_iso, Fe=-0.5 * PI * s_evolute,
        hurwitz_deficit=0.5 * PI * PI * s_hurwitz, A=A, AmF=A - F, delta2_sq=PI * s_gap,
        Aw=-0.5 * PI * s_wigner, Wq=PI * s_iso, path="spectral", **parts,
    )


def functionals_quadrature(body: TrigSupport) -> FunctionalSet:
    """Periodic trapezoid quadrature on the samples of one inverse FFT.

    All integrands are trigonometric polynomials of degree <= 2N, and the
    grid `grid_for_degree(N)`, the only one this path samples, has
    m >= 4N + 8 nodes, so it integrates them exactly; agreement with the
    spectral path is limited only by round-off.  One `bodies._grid_derivs`
    call samples p, p', p'' and p''' and every integrand reads those
    samples.  The evolute's support p'(phi - pi/2) is p' a quarter turn on,
    and a full period does not see the shift: Fe = (1/2) int p'(p' + p''').
    The Wigner support w = (p(phi) - p(phi + pi))/2 and w'' are the same
    difference of p and p'', a half turn being an index shift of m/2.  The
    samples are those of the Steiner-centred body, so no integrand squares
    the translation (its round-off would grow like u*|v|^2); the Steiner
    point is (a1, b1) plus the centred moments, and one real FFT of p gives
    every c_n^2.
    """
    _require_validated(body)
    phis = grid_for_degree(body.max_degree)
    cs = np.cos(phis), np.sin(phis)
    p, dp, ddp, dddp = _grid_derivs(recenter_to_steiner(body), phis.size, (0, 1, 2, 3))
    a1, b1 = steiner_point(body)
    w, ddw = (0.5 * (f - np.roll(f, phis.size // 2)) for f in (p, ddp))

    L = periodic_integral(p)
    F = 0.5 * periodic_integral(p * p - dp * dp)
    Delta = L * L - 4.0 * PI * F
    Fe = 0.5 * periodic_integral(dp * (dp + dddp))
    hurwitz_deficit = PI * abs(Fe) - Delta
    A = 0.5 * periodic_integral(p * p)
    delta2_sq = periodic_integral((p - body.a0) ** 2)
    Aw = 0.5 * periodic_integral(w * (w + ddw))
    q = p - L / TWO_PI
    Wq = periodic_integral(dp * dp - q * q)
    sx = a1 + periodic_integral(p * cs[0]) / PI
    sy = b1 + periodic_integral(p * cs[1]) / PI
    # (2/m) rfft(p)[n] = a_n - i b_n, exact for n < m/2
    coef = np.fft.rfft(p)[2 : body.max_degree + 1] * (2.0 / phis.size)
    cn = zip(range(2, body.max_degree + 1), (coef.real**2 + coef.imag**2).tolist())
    return FunctionalSet(
        L=L, F=F, Delta=Delta, Fe=Fe, hurwitz_deficit=hurwitz_deficit,
        A=A, AmF=A - F, delta2_sq=delta2_sq, Aw=Aw, Wq=Wq,
        steiner=(sx, sy), cn_sq=tuple(cn), path="quadrature",
    )


def generalized_area(f: TrigSupport) -> float:
    """Signed area (with multiplicities) swept by the curve enveloping
    x*cos(t) + y*sin(t) = f(t): one half of the integral of f*(f + f'')
    over a full period.

    `f` is a TrigSupport holding the coefficients of a generalized support
    function; the periodic trapezoid rule on `grid_for_degree(N)`
    integrates the degree-2N integrand exactly.
    """
    vals, dd = _derivs(f, grid_for_degree(f.max_degree), (0, 2))
    return 0.5 * periodic_integral(vals * (vals + dd))
