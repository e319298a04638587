#!/usr/bin/env python3
"""End-to-end demonstration: verdict tables for the extremal bodies.

Runs the full inequality suite (spectral and geometric paths) on the disk,
the astroid parallel, the Steiner-curve parallel, the two-harmonic
constant-width body and a generic body, then prints a compact summary of
residuals and detected equality cases.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hurwitzlab import (  # noqa: E402
    AstroidParallelSpec,
    CircleSpec,
    DeltoidParallelSpec,
    Harmonic,
    SuiteConfig,
    TrigSupport,
    construct,
    run_suite,
    validate_convex,
)


FIXTURES = {
    "disk": construct(CircleSpec(1.0)),
    "astroid parallel": construct(AstroidParallelSpec(1.0, 0.2)),
    "steiner parallel": construct(DeltoidParallelSpec(1.0, 0.1)),
    "constant width 3+5": validate_convex(
        TrigSupport(1.0, (Harmonic(3, 0.05, 0.0), Harmonic(5, 0.0, 0.01)))
    ),
    "generic 2+5": validate_convex(
        TrigSupport(1.0, (Harmonic(2, 0.0, 0.1), Harmonic(5, 0.02, 0.0)))
    ),
}


def main() -> int:
    cfg = SuiteConfig(path="both")
    ok = True
    for name, body in FIXTURES.items():
        report = run_suite(body, cfg)
        ok = ok and report.passed
        print(f"\n=== {name}  (class: {report.equality_class.kind}) ===")
        for v in report.verdicts:
            if v.path != "spectral":
                continue
            if not v.applicable:
                print(f"  {v.id.value:<24} inapplicable")
                continue
            geo = next(g for g in report.verdicts if g.id == v.id and g.path == "geometric")
            geo_res = f"{geo.residual:+.3e}" if geo.applicable else "     -    "
            tag = "equality" if v.equality else ""
            print(
                f"  {v.id.value:<24} residual {v.residual:+.3e} "
                f"(geometric {geo_res})  {tag}"
            )
        print("  overall:", "pass" if report.passed else "FAIL")
    print("\nall suites:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
