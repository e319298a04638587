"""Sampled curves (boundary, evolute, pedal, parallels, Wigner caustic,
hypocycloids), a shoelace area oracle and a deterministic SVG writer.

Every curve is a closed polygon.  The polygons double as independent
geometric oracles: the shoelace area of a sampled boundary converges to the
body area at second order in the sample count, with no shared code with
either functional path.  The SVG writer pads the drawing by 5% of its span
and strokes every layer at 0.4% of the viewbox diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    HypocycloidSpec,
    TrigSupport,
    _derivs,
    _require_validated,
    boundary_point,
    offset,
    recenter_to_steiner,
    steiner_point,
    wigner_support,
)
from .errors import EmptyScene
from .quadrature import TWO_PI

CURVE_KINDS = ("boundary", "evolute", "pedal", "parallel", "wigner")
# Largest sample count of a curve: 2^20 vertices are 16 MiB of coordinates.
_MAX_SAMPLES = 1 << 20
# Padding of the SVG viewbox around the drawing, as a fraction of its span.
_MARGIN = 0.05


def _check_samples(m: int) -> None:
    if not 64 <= m <= _MAX_SAMPLES:
        raise ValueError(f"need 64 to {_MAX_SAMPLES} samples, got {m}")


@dataclass
class Polyline:
    """Closed polygon through the rows of `vertices`, at least 3 finite points."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must have shape (N, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if len(v) < 3:
            raise ValueError("closed polyline needs at least 3 vertices")
        self.vertices = v


def sample_curve(body: TrigSupport, kind: str, m: int = 512, r: float | None = None) -> Polyline:
    """Uniform-in-normal-angle sample of a curve attached to the body.

    boundary: gamma = p N + p' N'
    evolute:  gamma - (p + p'') N, the envelope of the normal lines
    pedal:    polar graph rho = p(phi) about the Steiner point
    parallel: offset boundary at signed distance r (may self-intersect)
    wigner:   envelope of the caustic support (p(phi) - p(phi + pi)) / 2

    The m normal angles are np.linspace(0, 2*pi, m, endpoint=False); every
    kind evaluates p and the derivatives it needs in one Horner pass
    (`bodies._derivs`).  m must lie in [64, 2^20] (ValueError, raised
    before any allocation).
    """
    _require_validated(body)
    _check_samples(m)
    phis = np.linspace(0.0, TWO_PI, m, endpoint=False)
    if kind == "boundary":
        verts = boundary_point(body, phis)
    elif kind == "evolute":
        c, s = np.cos(phis), np.sin(phis)
        dp, ddp = _derivs(body, phis, (1, 2), (c, s))
        verts = np.stack([-ddp * c - dp * s, -ddp * s + dp * c], axis=1)
    elif kind == "pedal":
        c, s = np.cos(phis), np.sin(phis)
        (p,) = _derivs(recenter_to_steiner(body), phis, (0,), (c, s))
        sx, sy = steiner_point(body)
        verts = np.stack([sx + p * c, sy + p * s], axis=1)
    elif kind == "parallel":
        if r is None:
            raise ValueError("parallel curves need the offset r")
        verts = boundary_point(offset(body, r), phis)
    elif kind == "wigner":
        verts = boundary_point(wigner_support(body), phis)
    else:
        raise ValueError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")
    return Polyline(verts)


def sample_hypocycloid(spec: HypocycloidSpec, m: int = 2048) -> Polyline:
    """Closed hypocycloid x(t) = r(k-1) sin t - r sin((k-1)t), and the
    matching y(t), over t in [0, 2*pi*n]; m must lie in [64, 2^20]."""
    _check_samples(m)
    k, r = spec.k, spec.r
    t = np.linspace(0.0, TWO_PI * spec.n, m, endpoint=False)
    x = r * (k - 1.0) * np.sin(t) - r * np.sin((k - 1.0) * t)
    y = r * (k - 1.0) * np.cos(t) + r * np.cos((k - 1.0) * t)
    return Polyline(np.stack([x, y], axis=1))


def shoelace_area(poly: Polyline) -> float:
    """Signed polygon area, positive for counterclockwise orientation."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    return 0.5 * math.fsum(cross.tolist())


def count_cusps(poly: Polyline, angle_threshold: float = 1.0) -> int:
    """Number of cusps, counted as isolated spikes of the discrete curvature.

    At a cusp the tangent direction reverses, so the exterior angle between
    consecutive polyline segments approaches pi while staying tiny along
    smooth arcs; vertices whose turn exceeds the threshold are clustered
    (the spike can straddle a couple of samples) and clusters are counted.
    """
    v = poly.vertices
    seg = np.roll(v, -1, axis=0) - v
    a = seg
    b = np.roll(seg, -1, axis=0)
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    dot = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
    turn = np.abs(np.arctan2(cross, dot))
    hits = np.nonzero(turn > angle_threshold)[0]
    if hits.size == 0:
        return 0
    n = len(v)
    clusters = 1
    for prev, cur in zip(hits[:-1], hits[1:]):
        if cur - prev > 3:
            clusters += 1
    # the scan is cyclic: merge a cluster wrapping around the seam
    if clusters > 1 and (hits[0] + n) - hits[-1] <= 3:
        clusters -= 1
    return clusters


# ---------------------------------------------------------------------------
# SVG output


@dataclass(frozen=True)
class Style:
    stroke: str = "#000000"
    dash: tuple[float, ...] | None = None


@dataclass
class Scene:
    layers: list[tuple[Polyline, Style]]

    def add(self, poly: Polyline, style: Style | None = None) -> "Scene":
        self.layers.append((poly, style or Style()))
        return self


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _points(verts: np.ndarray) -> str:
    """SVG points "x,-y x,-y ..." at 6 decimals, "-0.000000" written as "0.000000".

    One %-format over all coordinates: "%.6f" gives the text of
    f"{x:.6f}", and with exactly 6 decimals "-0.000000" can only occur as a
    whole token, so one replace on the joined text equals `_fmt` per token.
    """
    xy = np.column_stack([verts[:, 0], -verts[:, 1]])
    text = " ".join(["%.6f,%.6f"] * len(xy)) % tuple(xy.ravel().tolist())
    return text.replace("-0.000000", "0.000000")


def write_svg(scene: Scene) -> bytes:
    """Standalone SVG 1.1 document with stable attribute order and
    6-decimal coordinates, so identical scenes give identical bytes.

    Each layer's coordinates are formatted in one pass by `_points`.
    Degenerate layers (all vertices coincident, like the evolute of a
    circle) are drawn as a small dot marker.
    """
    if not scene.layers:
        raise EmptyScene("no layers to draw")
    pts = np.concatenate([poly.vertices for poly, _ in scene.layers])
    xs, ys = pts[:, 0], -pts[:, 1]  # SVG y-axis points down
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = _MARGIN * span
    x0, y0 = x0 - pad, y0 - pad
    w, h = (x1 - x0) + pad, (y1 - y0) + pad
    diag = math.hypot(w, h)
    stroke_w = 0.004 * diag

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
    ]
    for poly, style in scene.layers:
        verts = poly.vertices
        extent = float(np.max(np.abs(verts - verts[0])))
        if extent < 1e-9 * max(1.0, diag):
            cx, cy = verts[0]
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(0.01 * diag)}" '
                f'fill="{style.stroke}"/>'
            )
            continue
        coords = _points(verts)
        dash = (
            f' stroke-dasharray="{",".join(_fmt(d) for d in style.dash)}"'
            if style.dash
            else ""
        )
        lines.append(
            f'<polygon fill="none" stroke="{style.stroke}" '
            f'stroke-width="{_fmt(stroke_w)}"{dash} points="{coords}"/>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
