#!/usr/bin/env python3
"""Render the gallery figures into out/ as deterministic SVG files.

  fig1_hypocycloids.svg     deltoid, astroid and the 5/2 hypocycloid
  fig2_parallel_curves.svg  convex parallels of an astroid and a Steiner
                            curve together with their inner cores
  fig3_curve_gallery.svg    boundary, evolute, inner parallel, pedal and
                            Wigner caustic for the two extremal bodies
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hurwitzlab import (  # noqa: E402
    AstroidParallelSpec,
    DeltoidParallelSpec,
    HypocycloidSpec,
    Polyline,
    Scene,
    Style,
    construct,
    sample_curve,
    sample_hypocycloid,
    write_svg,
)

BLACK = Style(stroke="#000000")
RED = Style(stroke="#b2182b")
BLUE = Style(stroke="#2166ac")
GREEN = Style(stroke="#1b7837")
PURPLE = Style(stroke="#762a83", dash=(0.06, 0.04))


def shifted(poly: Polyline, dx: float, dy: float = 0.0) -> Polyline:
    return Polyline(poly.vertices + np.array([dx, dy]), closed=poly.closed)


def fig1(out: pathlib.Path) -> None:
    scene = Scene(layers=[])
    curves = [
        sample_hypocycloid(HypocycloidSpec(m=3), 2048),
        sample_hypocycloid(HypocycloidSpec(m=4), 2048),
        sample_hypocycloid(HypocycloidSpec(m=5, n=2), 4096),
    ]
    for i, poly in enumerate(curves):
        scene.add(shifted(poly, 7.0 * i), BLACK)
    out.write_bytes(write_svg(scene))


def fig2(out: pathlib.Path) -> None:
    ast = construct(AstroidParallelSpec(1.0, 0.2))
    delt = construct(DeltoidParallelSpec(1.0, 0.1))
    scene = Scene(layers=[])
    for i, body in enumerate((ast, delt)):
        dx = 5.0 * i
        scene.add(shifted(sample_curve(body, "boundary", 1024), dx), BLACK)
        scene.add(shifted(sample_curve(body, "parallel", 1024, r=-1.0), dx), RED)
    out.write_bytes(write_svg(scene))


def fig3(out: pathlib.Path) -> None:
    ast = construct(AstroidParallelSpec(1.0, 0.2))
    delt = construct(DeltoidParallelSpec(1.0, 0.1))
    scene = Scene(layers=[])
    for i, body in enumerate((ast, delt)):
        dx = 6.5 * i
        scene.add(shifted(sample_curve(body, "boundary", 1024), dx), BLACK)
        scene.add(shifted(sample_curve(body, "evolute", 1024), dx), RED)
        scene.add(shifted(sample_curve(body, "parallel", 1024, r=-1.0), dx), BLUE)
        scene.add(shifted(sample_curve(body, "pedal", 1024), dx), PURPLE)
    # the Wigner caustic coincides with the inner parallel at constant width:
    # draw it only for the Steiner-parallel panel, where it overlays exactly
    scene.add(shifted(sample_curve(delt, "wigner", 1024), 6.5), GREEN)
    out.write_bytes(write_svg(scene))


def main(out_dir: pathlib.Path | None = None) -> int:
    out_dir = out_dir or pathlib.Path(__file__).resolve().parents[1] / "out"
    out_dir.mkdir(exist_ok=True)
    fig1(out_dir / "fig1_hypocycloids.svg")
    fig2(out_dir / "fig2_parallel_curves.svg")
    fig3(out_dir / "fig3_curve_gallery.svg")
    print(f"wrote 3 figures to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
