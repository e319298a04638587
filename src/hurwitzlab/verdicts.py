"""Inequality verdicts: every reverse-isoperimetric bound on one body or a chunk.

Each check is oriented as lhs >= rhs with residual = lhs - rhs, evaluated
on a spectral path (closed-form sums) and a geometric path (quadrature
functionals plus the tangent-coordinate exterior integrator).
Constant-width-only bounds are reported as inapplicable, not failed, on
general bodies.  Each inequality is one entry of THEOREMS.  One evaluator
reads a path's shared state, worked out once (constant width, functionals
and each named exterior integral), for every entry without knowing which
theorem it is, and gives the verdicts as rows, one per theorem: on one
body the entries see floats, on a chunk of bodies arrays with one column
per body.  Residual, equality, applicability and pass then follow for all
rows in one array pass, with the same bits either way.  `run_suite` calls
it once per path, `verify` once over its one theorem, which reads its own
row alone and so gets `run_suite`'s bits, and `run_suites` is its spectral
pass over a chunk, whose every spectral sum is one `rounded_sum` call on one
weight table.  A named integral is the kernel
`visual_angle.KERNELS[name]` integrated by `spectral_integral`, whose closed
form follows from the kernel's coefficients, or by `exterior_integral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Collection, NamedTuple, Sequence

import numpy as np

from .bodies import TrigSupport, _constant_width, _dense, _require_validated, is_constant_width
from .functionals import FunctionalSet, _functional_weights, _spectral_set, functionals_quadrature, functionals_spectral
from .quadrature import PI, rounded_sum
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
    named by `integral` (None when the bound needs none), floats for one body
    or arrays over a chunk of bodies, so they use only arithmetic that works
    on both and rounds alike (+, -, *, /, abs); `weight`, derived
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
    tol must be finite and nonnegative (ValueError), as in SuiteConfig.
    """
    tol = SuiteConfig(tol=tol).tol
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


class VerdictRows(NamedTuple):
    """One path's verdicts, one row per theorem: each array has the shape
    (theorems,) for one body or (theorems, bodies) for a chunk.  An
    inapplicable entry holds NaN for lhs, rhs and residual, error bar 0.0 and
    no equality.  `passed` tells per body whether every applicable verdict
    passes at the spectral `scale`, max(L^2, pi |Fe|) of the spectral
    functionals; `companions` maps a row to its companion bound's (lhs, rhs)."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    error_bar: np.ndarray
    equality: np.ndarray
    applicable: np.ndarray
    passed: np.ndarray
    scale: np.ndarray
    companions: dict


def _scale(fs: FunctionalSet):
    """max(L^2, pi |Fe|), the scale of a body's verdicts."""
    return np.fmax(fs.L * fs.L, PI * abs(fs.Fe))


def _evaluate(fs: FunctionalSet, cw, integral, path: str, tol: float, scale=None, theorems=THEOREMS) -> VerdictRows:
    """The verdicts of `theorems` (all of THEOREMS by default) on one path, as rows.

    fs holds the path's functionals and cw the constant-width test: floats
    and a bool for one body, arrays over a chunk.  integral(name) gives the
    named exterior integral's (value, error bar) in the same form, (None,
    0.0) for no name.  Each entry's lhs and rhs are read once, and the
    constant-width-only entries are skipped when no body has constant width;
    residual, equality, applicability and pass then follow in one array
    pass.  Equality takes the path's own scale and pass the spectral
    `scale` (None: the path is spectral).
    """
    cw = np.asarray(cw)
    any_cw = cw.any()
    own_scale = _scale(fs)
    base = (0.0 if path == "spectral" else 1e-12) * own_scale  # the functionals' round-off
    nan, zero, yes = own_scale * np.nan, own_scale * 0.0, cw | True  # shaped like the bodies
    lhs, rhs, err, applicable, companions = [], [], [], [], {}
    for i, t in enumerate(theorems.values()):
        applicable.append(cw if t.cw_only else yes)
        if t.cw_only and not any_cw:
            lhs.append(nan), rhs.append(nan), err.append(zero)
            continue
        value, int_err = integral(t.integral)
        lhs.append(t.lhs(fs, value)), rhs.append(t.rhs(fs, value)), err.append(base + t.weight * int_err)
        if t.companion:
            companions[i] = t.companion[1](fs), t.companion[2](fs)
    lhs, rhs, err = np.array([lhs, rhs, err])
    applicable = np.array(applicable)
    if any_cw and not cw.all():  # a chunk that mixes both kinds of body
        lhs[~applicable], rhs[~applicable], err[~applicable] = np.nan, np.nan, 0.0
    residual = lhs - rhs
    # fmax is Python's max where the first argument is not NaN, as tol * scale never is
    eq_tol = np.fmax(tol * own_scale, 3.0 * err)
    equality = abs(residual) <= eq_tol  # False where residual is NaN
    for i, (lhs2, rhs2) in companions.items():  # a second bound that must hold alongside
        second = lhs2 - rhs2
        residual[i] = np.where(second < residual[i], second, residual[i])
        equality[i] &= abs(second) <= eq_tol[i]
    pass_tol, scale = (eq_tol, own_scale) if scale is None else (np.fmax(tol * scale, 3.0 * err), scale)
    passed = (residual >= -pass_tol).all(axis=0, where=applicable)
    return VerdictRows(lhs, rhs, residual, err, equality, applicable, passed, scale, companions)


def _verdicts(
    body: TrigSupport, path: str, tol: float, cw: bool, scale=None, theorems=THEOREMS
) -> tuple[VerdictRows, list[Verdict]]:
    """The rows and the verdicts of `theorems` on one body and path, whose
    constant-width test is cw and spectral scale `scale` (None on the
    spectral path).  The functionals and each exterior integral an
    applicable one of them names are computed once; a theorem's entries
    read its own row alone, so its verdict has the same bits in any set."""
    _require_validated(body)
    if path not in ("spectral", "geometric"):
        raise ValueError(f"path must be 'spectral' or 'geometric', got {path!r}")
    fs = functionals_spectral(body) if path == "spectral" else functionals_quadrature(body)
    integrals = {None: (None, 0.0)}  # name -> (value, error bar)

    def integral(name):
        if name not in integrals:
            kernel = KERNELS[name]()
            res = spectral_integral(body, kernel) if path == "spectral" else exterior_integral(body, kernel)
            integrals[name] = (res.value, res.error_bar)
        return integrals[name]

    rows = _evaluate(fs, cw, integral, path, tol, scale, theorems)
    out = []
    for i, ((theorem, t), app, lhs, rhs, residual, equality, err) in enumerate(zip(
        theorems.items(), *(x.tolist() for x in (rows.applicable, rows.lhs, rows.rhs, rows.residual, rows.equality, rows.error_bar))
    )):
        if not app:
            notes = "requires constant width"
        elif i in rows.companions:
            lhs2, rhs2 = rows.companions[i]
            notes = f"companion bound {t.companion[0]}: lhs={lhs2:.17g}, rhs={rhs2:.17g}"
        else:
            notes = t.notes + (t.cw_notes if cw else "")
        out.append(Verdict(theorem, app, lhs, rhs, residual, equality, path, err, notes))
    return rows, out


def verify(
    body: TrigSupport,
    theorem: TheoremId,
    path: str = "spectral",
    tol: float = 1e-9,
) -> Verdict:
    """Evaluate one inequality on a validated body: the verdict `run_suite`
    gives it, bit for bit, from the evaluator's pass over that theorem alone,
    so only the exterior integral it names is computed.

    path "spectral" uses closed-form sums throughout; "geometric" uses
    quadrature functionals and, where the bound involves an exterior
    integral, the tangent-coordinate integrator.  Equality is declared
    when |residual| <= tol * scale with scale = max(L^2, pi |Fe|)
    (geometric runs widen the tolerance to three error bars).  tol must be
    finite and nonnegative (ValueError), as in SuiteConfig.
    """
    theorem, tol = TheoremId(theorem), SuiteConfig(tol=tol).tol
    _require_validated(body)
    return _verdicts(body, path, tol, is_constant_width(body)[0], theorems={theorem: THEOREMS[theorem]})[1][0]


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

    The constant-width test runs once, and each path is one pass of the
    evaluator over THEOREMS, on floats; with path "both" the spectral and
    geometric verdicts of each theorem sit side by side.  Overall pass
    requires every applicable verdict to satisfy residual >=
    -max(tol*scale, 3*error_bar), with scale taken from the spectral
    functionals.  `run_suites` is the same evaluation over a chunk.
    """
    cfg = config or SuiteConfig()
    _require_validated(body)
    cw = is_constant_width(body)[0]
    spectral = [_verdicts(body, "spectral", cfg.tol, cw)] if cfg.path != "geometric" else []
    scale = spectral[0][0].scale if spectral else _scale(functionals_spectral(body))
    geometric = [_verdicts(body, "geometric", cfg.tol, cw, scale)] if cfg.path != "spectral" else []
    results = spectral + geometric
    verdicts = tuple(v for row in zip(*(vs for _, vs in results)) for v in row)
    passed = all(bool(rows.passed) for rows, _ in results)
    eq_class = classify_equality(body, tol=cfg.tol)
    return SuiteReport(body=body, verdicts=verdicts, equality_class=eq_class, passed=passed)


def run_suites(bodies: Sequence[TrigSupport], tol: float = 1e-9, geometric: Collection[int] = ()) -> VerdictRows:
    """`run_suite`'s verdicts on a chunk of validated bodies, in array passes:
    `chunk_rows` on their `_dense` form.

    The rows hold one column per verdict set: each body's spectral verdicts
    and, right after them for a body whose position is in `geometric`, its
    geometric ones, evaluated per body.  `passed` and `scale` hold one entry
    per body: its pass as `run_suite` gives it with path "spectral", or
    "both" for the bodies in `geometric`.  Every entry has the bits
    `run_suite` gives.  The chunk has a column per frequency up to its
    largest degree, so it is meant for chunks of low degree, such as
    `sweep`'s (2 to 8).
    """
    for body in bodies:
        _require_validated(body)
    return chunk_rows(*_dense(bodies), tol, {j: bodies[j] for j in geometric})


def _spectral_sums(a0: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[FunctionalSet, dict]:
    """The spectral functionals of a chunk of bodies in the form of
    `bodies._dense`, as arrays, and the closed form of each integral THEOREMS
    names, bit for bit each body's own.  One weight table has a row per sum
    (the six of `_functional_weights`, then each `Kernel.spectral_weights`)
    and a column for a0, weighed 0 or w(0) and then times a0 again as
    `spectral_integral` forms w(0) a0^2, and one per c_n^2.  All products,
    one column per sum and body, are one `rounded_sum` call.
    """
    names = list(dict.fromkeys(t.integral for t in THEOREMS.values() if t.integral))
    n = np.arange(a.shape[1])
    table = np.zeros((6 + len(names), n.size + 1))
    table[:6, 1:] = _functional_weights(n)
    for row, name in zip(table[6:], names):
        row[0], row[1:] = KERNELS[name]().spectral_weights(n)
    terms = table.T[:, :, None] * np.vstack([a0, (a * a + b * b).T])[:, None, :]  # (columns, sums, bodies)
    terms[0] *= a0
    sums = rounded_sum(terms.reshape(len(terms), -1).T).reshape(len(table), -1)
    return _spectral_set(a0, sums[:6], steiner=(), cn_sq=()), dict(zip(names, PI * PI * sums[6:]))


def chunk_rows(a0: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float, geometric: dict) -> VerdictRows:
    """`run_suites` on a chunk in the form of `bodies._dense` (mean terms a0,
    a_n and b_n one row per body), whose bodies are validated.  `geometric`
    maps a body's position to the body, whose geometric verdicts follow."""
    tol = SuiteConfig(tol=tol).tol
    fs, values = _spectral_sums(a0, a, b)
    integrals = {None: (None, 0.0)} | {name: (value, 0.0) for name, value in values.items()}
    cw = _constant_width(a0, np.arange(a.shape[1]), a, b)
    rows = _evaluate(fs, cw, integrals.get, "spectral", tol)
    geo = {j: _verdicts(body, "geometric", tol, bool(cw[j]), rows.scale[j])[0] for j, body in sorted(geometric.items())}
    if geo:
        passed = rows.passed.copy()
        for j, geo_rows in geo.items():
            passed[j] &= geo_rows.passed
        at = [j + 1 for j in geo]
        rows = rows._replace(passed=passed, **{
            name: np.insert(getattr(rows, name), at, np.array([getattr(g, name) for g in geo.values()]).T, axis=1)
            for name in ("lhs", "rhs", "residual", "error_bar", "equality", "applicable")
        })
    return rows
