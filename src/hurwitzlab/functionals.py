"""Scalar functionals of a convex body, computed along two independent paths.

Every quantity is available both as a closed-form sum over the squared
harmonic amplitudes c_n^2 (path "spectral") and as a periodic-quadrature
integral over sampled integrands (path "quadrature").  The two paths share
no code beyond body evaluation, so each serves as the other's oracle.

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
full-period `generalized_area`s of the evolute's and the Wigner caustic's
generalized supports.

The Wigner area convention used throughout ("full-period swept area of the
caustic's generalized support") makes Delta >= 4*pi*|Aw| an identity-backed
inequality with equality exactly at constant width.  Under this convention
A - F >= |Aw| is strict for every non-disk body, including constant-width
ones; see `verdicts` for how that residual is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    TrigSupport,
    _derivs,
    _require_validated,
    evolute_support,
    recenter_to_steiner,
    steiner_point,
    wigner_support,
)
from .quadrature import PI, TWO_PI, QuadratureGrid, grid_for_degree, periodic_integral


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
        return {
            "path": self.path,
            "L": self.L,
            "F": self.F,
            "Delta": self.Delta,
            "Fe": self.Fe,
            "hurwitz_deficit": self.hurwitz_deficit,
            "A": self.A,
            "AmF": self.AmF,
            "delta2_sq": self.delta2_sq,
            "Aw": self.Aw,
            "Wq": self.Wq,
            "steiner": list(self.steiner),
            "cn_sq": {str(n): v for n, v in self.cn_sq},
        }

    FIELD_NAMES = (
        "L", "F", "Delta", "Fe", "hurwitz_deficit", "A", "AmF",
        "delta2_sq", "Aw", "Wq",
    )


def _weighted_sum(body: TrigSupport, weight) -> float:
    """sum_n weight(n) * c_n^2 over harmonics, compensated, ascending n."""
    return math.fsum(weight(h.n) * h.c_sq for h in body.harmonics)


def functionals_spectral(body: TrigSupport) -> FunctionalSet:
    """Closed-form spectral sums over the harmonic amplitudes."""
    _require_validated(body)
    a0 = body.a0
    centered = recenter_to_steiner(body)

    L = TWO_PI * a0
    s_iso = _weighted_sum(centered, lambda n: float(n * n - 1) if n >= 2 else 0.0)
    F = PI * a0 * a0 - 0.5 * PI * s_iso
    Delta = 2.0 * PI * PI * s_iso
    Fe = -0.5 * PI * _weighted_sum(centered, lambda n: float(n * n) * (n * n - 1))
    hurwitz_deficit = 0.5 * PI * PI * _weighted_sum(
        centered, lambda n: float((n * n - 1) * (n * n - 4)) if n >= 3 else 0.0
    )
    s_pedal = _weighted_sum(centered, lambda n: float(n * n) if n >= 2 else 0.0)
    A = F + 0.5 * PI * s_pedal
    delta2_sq = PI * _weighted_sum(centered, lambda n: 1.0 if n >= 2 else 0.0)
    Aw = -0.5 * PI * _weighted_sum(
        centered, lambda n: float(n * n - 1) if (n >= 3 and n % 2 == 1) else 0.0
    )
    Wq = PI * s_iso
    sx, sy = steiner_point(body)
    c_sq = {h.n: h.c_sq for h in centered.harmonics}
    cn = tuple((n, c_sq.get(n, 0.0)) for n in range(2, body.max_degree + 1))
    return FunctionalSet(
        L=L, F=F, Delta=Delta, Fe=Fe, hurwitz_deficit=hurwitz_deficit,
        A=A, AmF=A - F, delta2_sq=delta2_sq, Aw=Aw, Wq=Wq,
        steiner=(float(sx), float(sy)), cn_sq=cn, path="spectral",
    )


def functionals_quadrature(body: TrigSupport, grid: QuadratureGrid | None = None) -> FunctionalSet:
    """Periodic trapezoid quadrature on sampled integrands.

    All integrands are trigonometric polynomials of degree <= 2N, so any
    grid with m >= 4N + 8 nodes integrates them exactly; agreement with
    the spectral path is limited only by round-off.  p and p' come from one
    Horner pass (`bodies._derivs`) that shares cos/sin of the grid angles
    with the centred p and the Steiner point; the Fourier projections read
    cos(n phi), sin(n phi) directly.
    """
    _require_validated(body)
    if grid is None:
        grid = grid_for_degree(body.max_degree)
    if grid.m < 4 * body.max_degree + 8:
        raise ValueError(
            f"grid with {grid.m} nodes too coarse for degree {body.max_degree}; need >= "
            f"{4 * body.max_degree + 8}"
        )
    phis = grid.phis
    cs = np.cos(phis), np.sin(phis)
    p, dp = _derivs(body, phis, (0, 1), cs)
    centered = recenter_to_steiner(body)
    (pc,) = _derivs(centered, phis, (0,), cs)

    L = periodic_integral(p)
    F = 0.5 * periodic_integral(p * p - dp * dp)
    Delta = L * L - 4.0 * PI * F
    Fe = generalized_area(evolute_support(body), grid=grid)
    hurwitz_deficit = PI * abs(Fe) - Delta
    A = 0.5 * periodic_integral(pc * pc)
    delta2_sq = periodic_integral((pc - centered.a0) ** 2)
    Aw = generalized_area(wigner_support(body), grid=grid)
    q = p - L / TWO_PI
    Wq = periodic_integral(dp * dp - q * q)
    sx = periodic_integral(p * cs[0]) / PI
    sy = periodic_integral(p * cs[1]) / PI
    cn = []
    for n in range(2, body.max_degree + 1):
        an = periodic_integral(pc * np.cos(n * phis)) / PI
        bn = periodic_integral(pc * np.sin(n * phis)) / PI
        cn.append((n, an * an + bn * bn))
    return FunctionalSet(
        L=L, F=F, Delta=Delta, Fe=Fe, hurwitz_deficit=hurwitz_deficit,
        A=A, AmF=A - F, delta2_sq=delta2_sq, Aw=Aw, Wq=Wq,
        steiner=(sx, sy), cn_sq=tuple(cn), path="quadrature",
    )


def generalized_area(f: TrigSupport, grid: QuadratureGrid | None = None) -> float:
    """Signed area (with multiplicities) swept by the curve enveloping
    x*cos(t) + y*sin(t) = f(t): one half of the integral of f*(f + f'')
    over a full period.

    `f` is a TrigSupport holding the coefficients of a generalized support
    function; the periodic trapezoid rule on `grid` (default
    `grid_for_degree`) integrates the degree-2N integrand exactly.
    """
    if grid is None:
        grid = grid_for_degree(f.max_degree)
    vals, dd = _derivs(f, grid.phis, (0, 2))
    return 0.5 * periodic_integral(vals * (vals + dd))
