"""Inequality verdicts: every reverse-isoperimetric bound on one body.

Each check is oriented as lhs >= rhs with residual = lhs - rhs, evaluated
on a spectral path (closed-form sums) and a geometric path (quadrature
functionals plus the tangent-coordinate exterior integrator).
Constant-width-only bounds are reported as inapplicable, not failed, on
general bodies.  Each inequality is one entry of THEOREMS.  One evaluator
works out a path's shared state once (constant width, functionals, scale
and each named exterior integral) and then reads it for every entry,
without knowing which theorem it is; `run_suite` calls it once per path and
`verify` is its one-theorem case.  A named integral is the kernel
`visual_angle.KERNELS[name]` integrated by `spectral_integral`, whose closed
form follows from the kernel's coefficients, or by `exterior_integral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .bodies import TrigSupport, _require_validated, is_constant_width
from .functionals import FunctionalSet, functionals_quadrature, functionals_spectral
from .quadrature import PI
from .visual_angle import KERNELS, exterior_integral, spectral_integral


class TheoremId(str, Enum):
    """Stable identifiers for the verified inequalities."""

    HURWITZ = "hurwitz"
    VISUAL = "visual_angle_bound"
    PEDAL = "pedal_bound"
    STEINER_DISK = "steiner_disk_bound"
    HURWITZ_CW = "hurwitz_cw"
    PEDAL_EVOLUTE_CW = "pedal_evolute_cw"
    VISUAL_CW = "visual_angle_bound_cw"
    PEDAL_CW = "pedal_bound_cw"
    STEINER_DISK_CW = "steiner_disk_cw"
    WIGNER_ISO = "wigner_isoperimetric"
    WIGNER_PEDAL = "wigner_pedal"
    PEDAL_DEFICIT_CW = "pedal_deficit_cw"


@dataclass(frozen=True)
class Theorem:
    """One inequality lhs >= rhs and its predicted equality case.

    lhs and rhs take the functionals and the value of the exterior integral
    named by `integral` (None when the bound needs none); `weight`, derived
    from rhs, is |d rhs / d integral|, which scales that integral's error
    bar.  Equality is predicted when the harmonic support lies in
    `equality_support` (None: any support) and, if `equality_needs_cw`, the
    body has constant width.
    `cw_notes` is appended on constant-width bodies; `companion` is a second
    bound (name, lhs, rhs) that must hold alongside the first.
    """

    lhs: Callable[[FunctionalSet, float | None], float]
    rhs: Callable[[FunctionalSet, float | None], float]
    equality_support: frozenset[int] | None
    equality_needs_cw: bool = False
    cw_only: bool = False
    integral: str | None = None
    notes: str = ""
    cw_notes: str = ""
    companion: tuple[str, Callable[[FunctionalSet], float], Callable[[FunctionalSet], float]] | None = None

    @cached_property
    def weight(self) -> float:
        """|rhs(Z, 1) - rhs(Z, 0)| on all-zero functionals Z: rhs is affine in
        the integral, so this is its slope (0 for a bound with no integral)."""
        return abs(self.rhs(_ZERO, 1.0) - self.rhs(_ZERO, 0.0))


_ZERO = FunctionalSet(
    **dict.fromkeys(FunctionalSet.FIELD_NAMES, 0.0), steiner=(0.0, 0.0), cn_sq=(), path="zero"
)


def _deficit(fs: FunctionalSet, _=None) -> float:
    """Hurwitz deficit pi|Fe| - Delta."""
    return PI * abs(fs.Fe) - fs.Delta


def _delta(fs: FunctionalSet, _=None) -> float:
    return fs.Delta


_EXTERNAL_NOTE = "uses an inequality imported from the cited literature (external)"
_WIGNER_NOTE = (
    "under the full-period Wigner area convention the constant-width "
    "equality claim A - F = |Aw| does not hold; the strictly positive "
    "residual is reported as a documented discrepancy, not a failure"
)

THEOREMS: dict[TheoremId, Theorem] = {
    TheoremId.HURWITZ: Theorem(lambda fs, _: PI * abs(fs.Fe), _delta, frozenset({2})),
    TheoremId.VISUAL: Theorem(
        _deficit, lambda fs, i: 1.25 * (fs.L * fs.L) + 5.0 * i, frozenset({2, 3}),
        integral="visual_deficit",
    ),
    TheoremId.PEDAL: Theorem(
        _deficit,
        lambda fs, i: (40.0 / 9.0) * (PI * fs.AmF + (2.0 / 3.0) * (fs.L * fs.L) - (8.0 / 9.0) * i),
        frozenset({2, 3}), integral="sin_cubed",
    ),
    TheoremId.STEINER_DISK: Theorem(
        _deficit, lambda fs, i: 20.0 * (PI * fs.delta2_sq + (fs.L * fs.L) / 3.0 - (4.0 / 9.0) * i),
        frozenset({2, 3}), integral="sin_cubed",
    ),
    TheoremId.HURWITZ_CW: Theorem(
        lambda fs, _: (4.0 / 9.0) * (PI * abs(fs.Fe)), _delta, frozenset({3}),
        equality_needs_cw=True, cw_only=True,
    ),
    TheoremId.PEDAL_EVOLUTE_CW: Theorem(
        lambda fs, _: abs(fs.Fe) / 8.0, lambda fs, _: fs.AmF, frozenset({3}),
        equality_needs_cw=True, cw_only=True, notes=_EXTERNAL_NOTE,
    ),
    TheoremId.VISUAL_CW: Theorem(
        lambda fs, _: (4.0 / 9.0) * (PI * abs(fs.Fe)) - fs.Delta, lambda fs, i: (64.0 / 9.0) * i,
        frozenset({3, 5}), equality_needs_cw=True, cw_only=True,
        integral="visual_deficit_cw",
    ),
    TheoremId.PEDAL_CW: Theorem(
        _deficit, lambda fs, _: (40.0 / 9.0) * PI * fs.AmF, frozenset({3}),
        equality_needs_cw=True, cw_only=True,
    ),
    TheoremId.STEINER_DISK_CW: Theorem(
        _deficit, lambda fs, _: 20.0 * PI * fs.delta2_sq, frozenset({3}),
        equality_needs_cw=True, cw_only=True,
        companion=("|Fe| >= 36*delta2^2", lambda fs: abs(fs.Fe), lambda fs: 36.0 * fs.delta2_sq),
    ),
    TheoremId.WIGNER_ISO: Theorem(
        _delta, lambda fs, _: 4.0 * PI * abs(fs.Aw), None, equality_needs_cw=True,
    ),
    TheoremId.WIGNER_PEDAL: Theorem(
        lambda fs, _: fs.AmF, lambda fs, _: abs(fs.Aw), frozenset(), cw_notes=_WIGNER_NOTE,
    ),
    TheoremId.PEDAL_DEFICIT_CW: Theorem(
        _delta, lambda fs, _: (32.0 / 9.0) * PI * fs.AmF, frozenset({3}),
        equality_needs_cw=True, cw_only=True, notes=_EXTERNAL_NOTE,
    ),
}


@dataclass(frozen=True)
class Verdict:
    id: TheoremId
    applicable: bool
    lhs: float
    rhs: float
    residual: float
    equality: bool
    path: str
    error_bar: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        """The fields in order, as JSON values."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"id": self.id.value}


@dataclass(frozen=True)
class EqualityClass:
    """Which extremal family the body belongs to, by its harmonic support."""

    kind: str
    components: tuple[str, ...] = ()
    support: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "components": list(self.components), "support": list(self.support)}


_COMPONENT_NAMES = {2: "astroid_parallel", 3: "steiner_parallel", 5: "hypocycloid5_parallel"}


def classify_equality(body: TrigSupport, tol: float = 1e-9) -> EqualityClass:
    """Extremal family of the body from its harmonics of degree n >= 2.

    Harmonics count as present when c_n exceeds tol * a0.  Supports
    contained in {2}, {3}, {5} name the single families; {2,3} and {3,5}
    are the Minkowski-sum equality families; anything else is "none".
    """
    _require_validated(body)
    thresh = tol * max(body.a0, 1e-300)
    support = tuple(body.n[(body.n >= 2) & (np.sqrt(body.c_sq) > thresh)].tolist())
    s = set(support)
    if not s:
        return EqualityClass("disk", (), support)
    for n in (2, 3, 5):
        if s <= {n}:
            return EqualityClass(_COMPONENT_NAMES[n], (_COMPONENT_NAMES[n],), support)
    if s <= {2, 3} or s <= {3, 5}:
        comps = tuple(_COMPONENT_NAMES[n] for n in sorted(s))
        return EqualityClass("minkowski_sum", comps, support)
    return EqualityClass("none", (), support)


def expected_equality(theorem: TheoremId, support, constant_width: bool) -> bool:
    """Equality prediction from the harmonic support alone."""
    t = THEOREMS[TheoremId(theorem)]
    support_ok = t.equality_support is None or set(support) <= t.equality_support
    return support_ok and (constant_width or not t.equality_needs_cw)


def _verdicts(body: TrigSupport, theorems, path: str, tol: float) -> tuple[FunctionalSet, list[Verdict]]:
    """The path's functionals and the verdicts of `theorems` on that path.

    The constant-width test, the functionals, the scale max(L^2, pi |Fe|)
    and each exterior integral an applicable theorem names are computed
    once; every theorem then only reads them.
    """
    _require_validated(body)
    if path not in ("spectral", "geometric"):
        raise ValueError(f"path must be 'spectral' or 'geometric', got {path!r}")
    cw, _ = is_constant_width(body)
    fs = functionals_spectral(body) if path == "spectral" else functionals_quadrature(body)
    scale = max(fs.L * fs.L, PI * abs(fs.Fe))
    integrals = {None: (None, 0.0)}  # name -> (value, error bar)
    out = []
    for theorem in theorems:
        t = THEOREMS[theorem]
        if t.cw_only and not cw:
            nan = float("nan")
            out.append(Verdict(theorem, False, nan, nan, nan, False, path, notes="requires constant width"))
            continue
        if t.integral not in integrals:
            kernel = KERNELS[t.integral]()
            res = (spectral_integral(body, kernel) if path == "spectral"
                   else exterior_integral(body, kernel))
            integrals[t.integral] = (res.value, res.error_bar)
        value, int_err = integrals[t.integral]
        rhs_err = (0.0 if path == "spectral" else 1e-12 * scale) + t.weight * int_err
        lhs, rhs = t.lhs(fs, value), t.rhs(fs, value)
        residual = lhs - rhs
        eq_tol = max(tol * scale, 3.0 * rhs_err)
        equality = abs(residual) <= eq_tol
        notes = t.notes + (t.cw_notes if cw else "")
        if t.companion:
            name, companion_lhs, companion_rhs = t.companion
            lhs2, rhs2 = companion_lhs(fs), companion_rhs(fs)
            notes = f"companion bound {name}: lhs={lhs2:.17g}, rhs={rhs2:.17g}"
            residual = min(residual, lhs2 - rhs2)
            equality = equality and abs(lhs2 - rhs2) <= eq_tol
        out.append(Verdict(
            id=theorem, applicable=True, lhs=lhs, rhs=rhs, residual=residual,
            equality=equality, path=path, error_bar=rhs_err, notes=notes,
        ))
    return fs, out


def verify(
    body: TrigSupport,
    theorem: TheoremId,
    path: str = "spectral",
    tol: float = 1e-9,
) -> Verdict:
    """Evaluate one inequality on a validated body: the one-theorem case of
    the evaluator `run_suite` uses, with bit-identical results.

    path "spectral" uses closed-form sums throughout; "geometric" uses
    quadrature functionals and, where the bound involves an exterior
    integral, the tangent-coordinate integrator.  Equality is declared
    when |residual| <= tol * scale with scale = max(L^2, pi |Fe|)
    (geometric runs widen the tolerance to three error bars).  tol must be
    finite and nonnegative (ValueError), as in SuiteConfig.
    """
    return _verdicts(body, (TheoremId(theorem),), path, SuiteConfig(tol=tol).tol)[1][0]


@dataclass(frozen=True)
class SuiteConfig:
    path: str = "spectral"  # spectral | geometric | both
    tol: float = 1e-9

    def __post_init__(self):
        if self.path not in ("spectral", "geometric", "both"):
            raise ValueError(f"path must be spectral, geometric or both, got {self.path!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol!r}")


@dataclass(frozen=True)
class SuiteReport:
    body: TrigSupport
    verdicts: tuple[Verdict, ...]
    equality_class: EqualityClass
    passed: bool

    def to_dict(self) -> dict:
        from .bodies import body_to_dict

        return {
            "body": body_to_dict(self.body),
            "equality_class": self.equality_class.to_dict(),
            "pass": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def run_suite(body: TrigSupport, config: SuiteConfig | None = None) -> SuiteReport:
    """All verdicts on one body, in a fixed theorem order.

    Each path is evaluated in one pass of the evaluator over THEOREMS; with
    path "both" the spectral and geometric verdicts of each theorem sit
    side by side.  Overall pass requires every applicable verdict to
    satisfy residual >= -max(tol*scale, 3*error_bar), with scale taken from
    the spectral functionals.
    """
    cfg = config or SuiteConfig()
    paths = ("spectral", "geometric") if cfg.path == "both" else (cfg.path,)
    results = [_verdicts(body, THEOREMS, path, cfg.tol) for path in paths]
    verdicts = tuple(v for row in zip(*(vs for _, vs in results)) for v in row)
    eq_class = classify_equality(body, tol=cfg.tol)
    fs = results[0][0] if paths[0] == "spectral" else functionals_spectral(body)
    scale = max(fs.L * fs.L, PI * abs(fs.Fe))
    passed = all(
        (not v.applicable) or v.residual >= -max(cfg.tol * scale, 3.0 * v.error_bar)
        for v in verdicts
    )
    return SuiteReport(body=body, verdicts=verdicts, equality_class=eq_class, passed=passed)
