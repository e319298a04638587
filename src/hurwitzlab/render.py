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
from functools import lru_cache

import numpy as np

from .bodies import (
    HypocycloidSpec,
    TrigSupport,
    _grid_derivs,
    _require_validated,
    offset,
    recenter_to_steiner,
    steiner_point,
    wigner_support,
)
from .errors import EmptyScene
from .quadrature import TWO_PI, _read_only, rounded_sum

CURVE_KINDS = ("boundary", "evolute", "pedal", "parallel", "wigner")
# Largest sample count of a curve: 2^20 vertices are 16 MiB of coordinates.
_MAX_SAMPLES = 1 << 20
# Padding of the SVG viewbox around the drawing, as a fraction of its span.
_MARGIN = 0.05
# Coordinates per block of `_points`, so its word matrix stays near 0.5 MB at
# any sample count (unblocked, five 2^20-sample layers raised the render's
# peak RSS by 9%; 2^12 to 2^16 timed alike).
_BLOCK_TOKENS = 1 << 14
# Below this magnitude x * 10^6 is below 2^53, so its rounded value is an
# exact int64; a layer reaching it is one %-join of "%.6f".
_FIXED_LIMIT = 2.0**33
# Turn angle, in radians, above which `count_cusps` counts a vertex as part of a cusp.
_CUSP_TURN = 1.0


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


@lru_cache(maxsize=4)
def _normals(m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the m normal angles of `sample_curve`, read-only; cached,
    since a figure samples every curve kind on the same angles."""
    phis = np.linspace(0.0, TWO_PI, m, endpoint=False)
    return _read_only(np.cos(phis), np.sin(phis))


def sample_curve(body: TrigSupport, kind: str, m: int = 512, r: float | None = None) -> Polyline:
    """Uniform-in-normal-angle sample of a curve attached to the body.

    boundary: gamma = p N + p' N'
    evolute:  gamma - (p + p'') N, the envelope of the normal lines
    pedal:    polar graph rho = p(phi) about the Steiner point
    parallel: offset boundary at signed distance r (may self-intersect)
    wigner:   envelope of the caustic support (p(phi) - p(phi + pi)) / 2

    The m normal angles are np.linspace(0, 2*pi, m, endpoint=False); every
    kind samples p and the derivatives it needs on that grid by one inverse
    FFT (`bodies._grid_derivs`).  m must lie in [64, 2^20] (ValueError,
    raised before any allocation).
    """
    _require_validated(body)
    _check_samples(m)
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")
    if kind == "parallel" and r is None:
        raise ValueError("parallel curves need the offset r")
    c, s = _normals(m)
    if kind == "evolute":
        dp, ddp = _grid_derivs(body, m, (1, 2))
        return Polyline(np.stack([-ddp * c - dp * s, -ddp * s + dp * c], axis=1))
    if kind == "pedal":
        (p,) = _grid_derivs(recenter_to_steiner(body), m, (0,))
        sx, sy = steiner_point(body)
        return Polyline(np.stack([sx + p * c, sy + p * s], axis=1))
    # the boundary gamma = p N + p' N' of the body, its parallel or the caustic's support
    if kind == "parallel":
        body = offset(body, r)
    elif kind == "wigner":
        body = wigner_support(body)
    p, dp = _grid_derivs(body, m, (0, 1))
    return Polyline(np.stack([p * c - dp * s, p * s + dp * c], axis=1))


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
    return 0.5 * rounded_sum(cross)


def count_cusps(poly: Polyline) -> int:
    """Number of cusps, counted as isolated spikes of the discrete curvature.

    At a cusp the tangent direction reverses, so the exterior angle between
    consecutive polyline segments approaches pi while staying tiny along
    smooth arcs; vertices whose turn exceeds _CUSP_TURN are clustered
    (the spike can straddle a couple of samples) and clusters are counted.
    """
    v = poly.vertices
    seg = np.roll(v, -1, axis=0) - v
    a = seg
    b = np.roll(seg, -1, axis=0)
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    dot = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
    turn = np.abs(np.arctan2(cross, dot))
    hits = np.nonzero(turn > _CUSP_TURN)[0]
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


@lru_cache(maxsize=1)
def _words() -> np.ndarray:
    """The words of `_fixed_block`, each text NUL-padded to 4 bytes: "%03d",
    "%d" and ".%03d" of c = 0..999 at c, 1000 + c and 2000 + c, the empty
    word at 3000, and the heads " ", " -", ",", ",-" at 3001 to 3004.  Built
    on first use, since its 3000 formats cost about 2 ms."""
    texts = [f"{c:03d}" for c in range(1000)] + [str(c) for c in range(1000)]
    texts += [f".{c:03d}" for c in range(1000)] + ["", " ", " -", ",", ",-"]
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), dtype=np.uint32)


def _format_rounded(xs: np.ndarray) -> list[int]:
    """x 10^6 rounded as "%.6f" rounds it, read back from that text."""
    return [int(("%.6f" % x).replace(".", "")) for x in xs]


def _fixed_block(xy: np.ndarray) -> bytes:
    """The text " x,y x,y ..." of the (n, 2) rows, below 2^33 in magnitude."""
    y = xy * 1e6
    k = np.rint(y)
    # The product is y's half-ulp, at most |y| 2^-53, off the exact x 10^6, so
    # rint rounds as "%.6f" does (half to even, on the exact value) except
    # within that distance of a tie; those few values are formatted and read back.
    near = np.abs(np.abs(y - k) - 0.5) <= np.abs(y) * 2.0**-50
    if near.any():
        k[near] = _format_rounded(xy[near])
    k = k.astype(np.int64)
    whole, frac = np.divmod(np.abs(k), 1_000_000)
    chunks = (len(str(int(whole.max()))) + 2) // 3
    # one word per token for the head, the base-1000 chunks of the whole part
    # (the leading one "%d", those before it empty) and two for the fraction
    idx = np.empty(xy.shape + (chunks + 3,), dtype=np.intp)
    idx[..., 0] = np.array([3001, 3003]) + (k < 0)  # " " or " -" before x, "," or ",-" before y
    for col in range(1, chunks):
        w = 1000 ** (chunks - col)
        idx[..., col] = whole // w % 1000 + 1000 * (whole < 1000 * w) + 2000 * (whole < w)
    idx[..., chunks] = whole % 1000 + 1000 * (whole < 1000)  # the last is never empty
    idx[..., -2] = 2000 + frac // 1000
    idx[..., -1] = frac % 1000
    return _words()[idx].tobytes().translate(None, b"\0")


def _points(verts: np.ndarray) -> bytes:
    """SVG points "x,-y x,-y ..." at 6 decimals, "-0.000000" written as "0.000000",
    as ASCII bytes (the bytearray it is built in, not a decoded copy).

    The text equals the "%.6f" of every value.  Below 2^33 in magnitude
    (`_FIXED_LIMIT`) each value is k = x 10^6 rounded half to even on its
    exact binary value, k found by np.rint off ties and by "%.6f" itself
    within round-off of one, and written from a table of 4-byte chunk words
    (`_fixed_block`), `_BLOCK_TOKENS` coordinates at a time.  k = 0 carries
    no sign, which is the "-0.000000" rule.  A layer reaching 2^33 is one
    %-join of "%.6f", where the replace is the same rule.
    """
    if not max(-verts.min(), verts.max()) < _FIXED_LIMIT:
        xy = np.column_stack([verts[:, 0], -verts[:, 1]])
        text = " ".join(["%.6f,%.6f"] * len(xy)) % tuple(xy.ravel().tolist())
        return text.replace("-0.000000", "0.000000").encode("ascii")
    rows = _BLOCK_TOKENS // 2
    text = bytearray()
    for start in range(0, len(verts), rows):
        text += _fixed_block(verts[start : start + rows] * [1.0, -1.0])
    del text[0]
    return text


def write_svg(scene: Scene) -> bytes:
    """Standalone SVG 1.1 document with stable attribute order and
    6-decimal coordinates, so identical scenes give identical bytes.

    Each layer's coordinates are their "%.6f" text (rounded half to even on
    the exact binary value, "-0.000000" written as "0.000000") from
    `_points`: one vectorised fixed-point pass per `_BLOCK_TOKENS`
    coordinates, values within round-off of a tie formatted by "%.6f"
    itself, and one %-join for a layer reaching 2^33 in magnitude.
    Degenerate layers (all vertices coincident, like the evolute of a
    circle) are drawn as a small dot marker.  The viewbox comes from each
    layer's extremes, and the document is one join of the lines' bytes with
    every layer's points bytes, so it is held once next to those.
    """
    if not scene.layers:
        raise EmptyScene("no layers to draw")
    layers = [poly.vertices for poly, _ in scene.layers]
    x0 = min(float(np.min(v[:, 0])) for v in layers)
    x1 = max(float(np.max(v[:, 0])) for v in layers)
    y0 = -max(float(np.max(v[:, 1])) for v in layers)  # SVG y-axis points down
    y1 = -min(float(np.min(v[:, 1])) for v in layers)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = _MARGIN * span
    x0, y0 = x0 - pad, y0 - pad
    w, h = (x1 - x0) + pad, (y1 - y0) + pad
    diag = math.hypot(w, h)
    stroke_w = 0.004 * diag

    parts = [
        b'<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n'.encode("utf-8"),
    ]
    for poly, style in scene.layers:
        verts = poly.vertices
        extent = float(np.max(np.abs(verts - verts[0])))
        if extent < 1e-9 * max(1.0, diag):
            cx, cy = verts[0]
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(0.01 * diag)}" '
                f'fill="{style.stroke}"/>\n'.encode("utf-8")
            )
            continue
        dash = (
            f' stroke-dasharray="{",".join(_fmt(d) for d in style.dash)}"'
            if style.dash
            else ""
        )
        parts.append(
            f'<polygon fill="none" stroke="{style.stroke}" '
            f'stroke-width="{_fmt(stroke_w)}"{dash} points="'.encode("utf-8")
        )
        parts += [_points(verts), b'"/>\n']
    parts.append(b"</svg>\n")
    return b"".join(parts)
