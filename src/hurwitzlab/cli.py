"""Command-line front end.

Subcommands:
  report  functionals of one body (spectral, quadrature or both paths)
  verify  run every inequality verdict; exit 1 on any violation
  render  write SVG figures of the body's attached curves
  sweep   randomized bodies (half constant width), summary statistics

Exit codes: 0 success, 1 inequality violation, 2 input/validation error.
Identical invocations with identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import bodies as B
from . import jsonio
from .errors import HurwitzLabError
from .functionals import functionals_quadrature, functionals_spectral
from .quadrature import TWO_PI, QuadratureGrid
from .render import CURVE_KINDS, Scene, Style, sample_curve, sample_hypocycloid, write_svg
from .verdicts import THEOREMS, SuiteConfig, run_suite
from .visual_angle import ExteriorConfig


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = [p for p in text.split(",") if p]
    if len(parts) != count:
        raise HurwitzLabError(f"{what} expects {count} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise HurwitzLabError(f"bad number in {text!r}: {exc}") from exc


def _parse_ratio(text: str) -> tuple[int, int]:
    if "/" in text:
        num, den = text.split("/", 1)
        return int(num), int(den)
    value = float(text)
    if not value.is_integer():
        raise HurwitzLabError(f"hypocycloid k must be an integer or m/n, got {text!r}")
    return int(value), 1


def parse_spec(text: str):
    """Parse --spec NAME:params into a validated body, or a HypocycloidSpec
    for the cusped curve `hypocycloid:m/n,r`."""
    name, _, args = text.partition(":")
    name = name.strip().lower()
    if name == "circle":
        (r,) = _parse_floats(args, 1, "circle")
        return B.validate_convex(B.TrigSupport(r))
    if name == "astroid":
        return B.astroid_parallel(*_parse_floats(args, 2, "astroid"))
    if name == "deltoid":
        return B.deltoid_parallel(*_parse_floats(args, 2, "deltoid"))
    if name == "hypocycloid":
        parts = [p for p in args.split(",") if p]
        if len(parts) == 2:
            m, n = _parse_ratio(parts[0])
            return B.HypocycloidSpec(m=m, n=n, r=float(parts[1]))
        if len(parts) == 3:
            k = float(parts[0])
            if not k.is_integer():
                raise HurwitzLabError("hypocycloid body spec needs an integer k (use k,a0,amp)")
            return B.hypocycloid_parallel(int(k), float(parts[1]), float(parts[2]))
        raise HurwitzLabError("hypocycloid spec takes 'm/n,r' (curve) or 'k,a0,amp' (body)")
    if name == "random":
        parts = [p for p in args.split(",") if p]
        cw = parts[2].lower() if len(parts) == 3 else "no"
        if len(parts) not in (2, 3) or cw not in ("cw", "1", "true", "yes", "0", "false", "no"):
            raise HurwitzLabError("random spec takes 'seed,degree[,cw]', cw one of cw|1|true|yes|0|false|no")
        return B.random_body(int(parts[0]), int(parts[1]), cw in ("cw", "1", "true", "yes"))
    raise HurwitzLabError(
        f"unknown spec {name!r}; expected circle, astroid, deltoid, hypocycloid or random"
    )


def _load_body(args) -> B.TrigSupport:
    if args.body and args.spec:
        raise HurwitzLabError("give exactly one of --body or --spec")
    if args.body:
        with open(args.body, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return B.validate_convex(B.body_from_dict(data))
    if args.spec:
        body = parse_spec(args.spec)
        if isinstance(body, B.HypocycloidSpec):
            raise HurwitzLabError("a rational hypocycloid is a curve spec; use `render --kind curve`")
        return body
    raise HurwitzLabError("a body source is required: --body FILE or --spec NAME:params")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exterior_config(args) -> ExteriorConfig:
    if not args.exterior_nodes:
        return ExteriorConfig()
    parts = [int(p) for p in args.exterior_nodes.split(",")]
    if len(parts) > 2:
        raise HurwitzLabError(f"--exterior-nodes expects N or NPHI,NDELTA, got {args.exterior_nodes!r}")
    return ExteriorConfig(nodes_phi=parts[0], nodes_delta=parts[-1])


def cmd_report(args) -> int:
    body = _load_body(args)
    grid = QuadratureGrid(args.nodes) if args.nodes is not None else None
    if args.path == "spectral":
        payload = functionals_spectral(body).to_dict()
    elif args.path in ("geometric", "quadrature"):
        payload = functionals_quadrature(body, grid=grid).to_dict()
    else:
        payload = {
            "spectral": functionals_spectral(body).to_dict(),
            "quadrature": functionals_quadrature(body, grid=grid).to_dict(),
        }
    _emit(jsonio.dumps(payload) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    body = _load_body(args)
    cfg = SuiteConfig(
        path=args.path,
        tol=args.tol,
        exterior=_exterior_config(args),
        grid=QuadratureGrid(args.nodes) if args.nodes is not None else None,
    )
    report = run_suite(body, cfg)
    header = f"{'theorem':<24} {'path':<10} {'lhs':>14} {'rhs':>14} {'residual':>12}  flags"
    print(header)
    print("-" * len(header))
    for v in report.verdicts:
        if not v.applicable:
            print(f"{v.id.value:<24} {v.path:<10} {'-':>14} {'-':>14} {'-':>12}  inapplicable")
            continue
        flags = "equality" if v.equality else ""
        print(
            f"{v.id.value:<24} {v.path:<10} {v.lhs:>14.8g} {v.rhs:>14.8g} "
            f"{v.residual:>12.4g}  {flags}"
        )
    print(f"equality class: {report.equality_class.kind} "
          f"(support {list(report.equality_class.support)})")
    print("overall:", "pass" if report.passed else "FAIL")
    if args.out:
        _emit(jsonio.dumps(report.to_dict()) + "\n", args.out)
    return 0 if report.passed else 1


def cmd_render(args) -> int:
    kinds = [k.strip() for k in args.kind.split(",") if k.strip()]
    if not kinds:
        raise HurwitzLabError("--kind needs at least one curve kind")
    palette = ["#000000", "#b2182b", "#2166ac", "#1b7837", "#762a83", "#e08214"]
    scene = Scene(layers=[])
    if kinds == ["curve"]:
        spec = parse_spec(args.spec) if args.spec else None
        if not isinstance(spec, B.HypocycloidSpec):
            raise HurwitzLabError("--kind curve needs --spec hypocycloid:m/n,r")
        scene.add(sample_hypocycloid(spec, m=args.samples), Style(stroke=palette[0]))
    else:
        body = _load_body(args)
        L = TWO_PI * body.a0
        for i, kind in enumerate(kinds):
            if kind == "curve":
                raise HurwitzLabError("--kind curve cannot be mixed with body curves")
            if kind not in CURVE_KINDS:
                raise HurwitzLabError(f"unknown kind {kind!r}; expected {CURVE_KINDS} or curve")
            r = -L / TWO_PI if kind == "parallel" else None
            style = Style(stroke=palette[i % len(palette)],
                          dash=(0.05 * body.a0, 0.05 * body.a0) if kind == "pedal" else None)
            scene.add(sample_curve(body, kind, m=args.samples, r=r), style)
    data = write_svg(scene)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_sweep(args) -> int:
    if args.count < 1:
        raise HurwitzLabError(f"--count must be >= 1, got {args.count}")
    cfg = SuiteConfig(path="spectral", tol=args.tol, exterior=_exterior_config(args))
    geo_cfg = dataclasses.replace(cfg, path="both")
    geo_stride = max(1, args.count // 8)
    stats: dict[str, dict] = {}
    violations = []
    for i in range(args.count):
        body = B.random_body(args.seed, 2 + (i % 7), constant_width=i % 2 == 1, index=i)
        report = run_suite(body, geo_cfg if (args.path == "both" and i % geo_stride == 0) else cfg)
        for v in report.verdicts:
            if not v.applicable:
                continue
            entry = stats.setdefault(
                v.id.value, {"min_residual": math.inf, "equality_hits": 0, "applicable": 0}
            )
            entry["applicable"] += 1
            entry["min_residual"] = min(entry["min_residual"], v.residual)
            entry["equality_hits"] += int(v.equality)
        if not report.passed:
            violations.append({"index": i, "body": B.body_to_dict(report.body)})
    summary = {
        "count": args.count,
        "seed": args.seed,
        "path": args.path,
        "per_theorem": {tid.value: stats.get(tid.value, None) for tid in THEOREMS},
        "violations": violations,
        "pass": not violations,
    }
    _emit(jsonio.dumps(summary) + "\n", args.out)
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzlab",
        description="Verification laboratory for reverse isoperimetric inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_body_source(p):
        p.add_argument("--body", help="JSON file with {a0, harmonics}")
        p.add_argument("--spec", help="named spec, e.g. astroid:1,0.2 or circle:1")

    p = sub.add_parser("report", help="emit the functionals of one body as JSON")
    add_body_source(p)
    p.add_argument("--path", default="both", choices=["spectral", "geometric", "quadrature", "both"])
    p.add_argument("--nodes", type=int, help="periodic quadrature node count (power of two)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run all inequality verdicts on one body")
    add_body_source(p)
    p.add_argument("--path", default="spectral", choices=["spectral", "geometric", "both"])
    p.add_argument("--nodes", type=int)
    p.add_argument("--exterior-nodes", help="N or NPHI,NDELTA for exterior integrals")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="write an SVG of curves attached to a body")
    add_body_source(p)
    p.add_argument("--kind", default="boundary",
                   help="comma list of boundary,evolute,pedal,parallel,wigner, or curve")
    p.add_argument("--samples", type=int, default=1024, help="samples per curve, 64 to 2^20")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("sweep", help="randomized verification sweep")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--path", default="spectral", choices=["spectral", "both"])
    p.add_argument("--exterior-nodes")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HurwitzLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
