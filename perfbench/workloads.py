"""Inputs, units of work and correctness checks of the four benchmark workloads.

A workload is a fixed batch of *units*, generated from the benchmark seed.
A unit is the work done for one body (or, for ``sweep_spectral``, one sweep
call over SWEEP_COUNT bodies).  Running a unit returns the byte streams the
program produced (stdout, ``--out`` files, SVG) and a record the checks read
after the timed loop.

Input generators use the standard library and numpy, never the program under
test, so the inputs do not change when the program does.  Each workload
function takes the imported ``hurwitzlab`` package (with ``hurwitzlab.cli``
loaded) and calls the program through its module attributes, so that spans
installed on them see every call.  Bodies are dicts
``{"a0": .., "harmonics": [..]}`` in the JSON form the CLI reads.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi

SWEEP_CALLS = 8             # sweep calls per repetition, each with its own seed
SWEEP_COUNT = 250           # bodies per sweep call
VERIFY_RANDOM = 27          # random bodies after the five fixtures
ORACLE_DEGREES = (7, 10)    # random bodies after the five fixtures
ORACLE_NODES_PHI = 96       # the oracle cross-check config of test_10
NEAR_CONVEX_BODIES = 48
RENDER_KINDS = "boundary,evolute,pedal,parallel,wigner"

# The five equality-case fixture bodies of the test suite.
FIXTURES = (
    {"a0": 1.0, "harmonics": []},
    {"a0": 1.0, "harmonics": [{"n": 2, "a": 0.0, "b": 0.2}]},
    {"a0": 1.0, "harmonics": [{"n": 3, "a": 0.1, "b": 0.0}]},
    {"a0": 1.0, "harmonics": [{"n": 3, "a": 0.05, "b": 0.0}, {"n": 5, "a": 0.0, "b": 0.01}]},
    {"a0": 1.0, "harmonics": [{"n": 2, "a": 0.0, "b": 0.1}, {"n": 5, "a": 0.02, "b": 0.0}]},
)


# ---------------------------------------------------------------------------
# Body generators and input properties


def random_body(rng: random.Random, degree: int, constant_width: bool) -> dict:
    """Body with |c_n| <= 0.5 n^-3 and a0 = 1, the decay of `sweep`.

    sum_{n>=2} (n^2 - 1) * 0.5 / n^3 < 1 for every degree up to 10, so the
    convexity certificate holds for every draw.
    """
    hs = []
    for n in range(1, degree + 1):
        mag = rng.uniform(0.0, 0.5) / n**3
        phase = rng.uniform(0.0, TWO_PI)
        if constant_width and n >= 2 and n % 2 == 0:
            continue
        hs.append({"n": n, "a": mag * math.cos(phase), "b": mag * math.sin(phase)})
    return {"a0": 1.0, "harmonics": hs}


def _rho_offset_min(hs: list[dict], samples: int) -> float:
    """min over a uniform grid of rho(phi) - a0 = sum (1 - n^2)(a cos n phi + b sin n phi)."""
    phi = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    vals = sum(
        (1 - h["n"] ** 2) * (h["a"] * np.cos(h["n"] * phi) + h["b"] * np.sin(h["n"] * phi))
        for h in hs
    )
    return float(np.min(vals))


def near_convex_body(rng: random.Random, degree: int) -> dict:
    """Body of the given degree whose curvature radius dips to a small share of a0.

    Harmonics are drawn with |c_n| ~ n^-2; a0 is then set so that the sampled
    minimum of rho is a fraction f in [0.02, 0.1] of a0.  Draws on which the
    certificate would still hold are redrawn, so every body needs the search.
    """
    while True:
        hs = []
        for n in range(1, degree + 1):
            mag = rng.uniform(0.2, 1.0) / n**2
            phase = rng.uniform(0.0, TWO_PI)
            hs.append({"n": n, "a": mag * math.cos(phase), "b": mag * math.sin(phase)})
        frac = rng.uniform(0.02, 0.1)
        a0 = -_rho_offset_min(hs, 256 * degree) / (1.0 - frac)
        body = {"a0": a0, "harmonics": hs}
        if not certificate_holds(body):
            return body


def certificate_holds(body: dict) -> bool:
    """a0 - sum_{n>=2} (n^2 - 1)|c_n| >= 1e-9 a0, the sufficient convexity test."""
    a0 = body["a0"]
    slack = a0 - math.fsum(
        (h["n"] ** 2 - 1) * math.hypot(h["a"], h["b"]) for h in body["harmonics"] if h["n"] >= 2
    )
    return slack >= 1e-9 * a0


def degree(body: dict) -> int:
    return max((h["n"] for h in body["harmonics"] if h["a"] or h["b"]), default=0)


def constant_width(body: dict) -> bool:
    return not any(
        h["a"] or h["b"] for h in body["harmonics"] if h["n"] >= 2 and h["n"] % 2 == 0
    )


def input_properties(bodies: list[dict]) -> dict:
    """Shares the program's fast paths depend on, with their base count."""
    n = len(bodies)
    return {
        "inputs.bodies": n,
        "bodies.cert_share": sum(map(certificate_holds, bodies)) / n,
        "inputs.degree_min": min(map(degree, bodies)),
        "inputs.degree_max": max(map(degree, bodies)),
        "inputs.cw_share": sum(map(constant_width, bodies)) / n,
    }


# ---------------------------------------------------------------------------
# Units


@dataclass
class Unit:
    bodies: int
    run: Callable[[], tuple[list[bytes], object]]


@dataclass
class Batch:
    units: list[Unit]
    inputs: Callable[[], list[dict]]   # the bodies the batch processes, for input properties
    check: Callable[[list], "CheckResult"]


@dataclass
class CheckResult:
    failed: list[bool]                 # one flag per unit
    geo_rel_err_max: float | None      # None when the workload has no geometric result
    bar_honesty_max: float = 0.0
    bar_rel_max: float = 0.0
    polar_nodes: int = 0


def call_cli(cli, argv: list[str]) -> tuple[int, bytes]:
    """cli.main(argv) in-process; returns the exit code and the stdout bytes.

    An exception escaping main() gives exit code 1, as it would for the
    installed command, and its traceback joins the output.
    """
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc = 1
            out.write(traceback.format_exc())
    return rc, out.getvalue().encode("utf-8")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_bodies(workdir: str, bodies: list[dict]) -> list[str]:
    paths = []
    for i, body in enumerate(bodies):
        path = os.path.join(workdir, f"body{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        paths.append(path)
    return paths


def _closed_forms(fs) -> dict[str, float]:
    """Exterior integrals in closed form, from the `verdicts` docstring."""
    cn = fs.cn_sq_map()
    c2, c3 = cn.get(2, 0.0), cn.get(3, 0.0)
    L2 = fs.L * fs.L
    return {
        "crofton": 0.5 * L2 - PI * fs.F,
        "sin_cubed": 0.75 * (L2 + 3.0 * PI * PI * c2),
        "visual_deficit": -PI * fs.F - 1.5 * PI * PI * c2,
        "visual_deficit_cw": 0.25 * L2 - PI * fs.F - 2.25 * PI * PI * c2 - 4.0 * PI * PI * c3,
    }


def _scale(fs) -> float:
    """max(L^2, pi |Fe|), the scale `verify` measures residuals against."""
    return max(fs.L * fs.L, PI * abs(fs.Fe))


def _spectral(hl, body: dict):
    return hl.functionals_spectral(hl.validate_convex(hl.body_from_dict(body)))


def sweep_spectral(hl, seed: int, workdir: str) -> Batch:
    seeds = [seed * SWEEP_CALLS + j for j in range(SWEEP_CALLS)]

    def unit(call_seed):
        argv = ["sweep", "--count", str(SWEEP_COUNT), "--seed", str(call_seed)]

        def run():
            rc, out = call_cli(hl.cli, argv)
            return [out], (rc, out)
        return Unit(SWEEP_COUNT, run)

    def inputs():
        # the bodies `sweep` draws: degree 2 + i % 7, odd indices constant width
        return [
            hl.bodies.body_to_dict(
                hl.bodies.random_body(s, 2 + i % 7, constant_width=i % 2 == 1, index=i)
            )
            for s in seeds for i in range(SWEEP_COUNT)
        ]

    def check(records):
        failed = []
        for rc, out in records:
            try:
                ok = rc == 0 and json.loads(out)["pass"] is True
            except (ValueError, KeyError):
                ok = False
            failed.append(not ok)
        return CheckResult(failed, None)

    return Batch([unit(s) for s in seeds], inputs, check)


def verify_geometric(hl, seed: int, workdir: str) -> Batch:
    rng = random.Random(f"verify_geometric:{seed}")
    bodies = list(FIXTURES) + [
        random_body(rng, 2 + i % 7, constant_width=i % 2 == 1) for i in range(VERIFY_RANDOM)
    ]
    paths = _write_bodies(workdir, bodies)
    out_path = os.path.join(workdir, "report.json")

    def unit(path):
        def run():
            rc, out = call_cli(
                hl.cli, ["verify", "--path", "both", "--body", path, "--out", out_path]
            )
            report = _read(out_path) if rc in (0, 1) else b""
            return [out, report], (rc, report)
        return Unit(1, run)

    def check(records):
        failed, worst, honesty, bar_rel = [], 0.0, 0.0, 0.0
        for body, (rc, report) in zip(bodies, records):
            try:
                verdicts = json.loads(report)["verdicts"]
            except (ValueError, KeyError):
                failed.append(True)
                continue
            scale = _scale(_spectral(hl, body))
            spec = {v["id"]: v for v in verdicts if v["path"] == "spectral"}
            bad = rc != 0
            for v in verdicts:
                if v["path"] != "geometric" or not v["applicable"]:
                    continue
                err = abs(v["rhs"] - spec[v["id"]]["rhs"])
                bad |= err > v["error_bar"]
                worst = max(worst, err / scale)
                honesty = max(honesty, err / v["error_bar"])
                bar_rel = max(bar_rel, v["error_bar"] / scale)
            failed.append(bool(bad))
        return CheckResult(failed, worst, honesty, bar_rel)

    return Batch([unit(p) for p in paths], lambda: bodies, check)


def oracle_crosscheck(hl, seed: int, workdir: str) -> Batch:
    rng = random.Random(f"oracle_crosscheck:{seed}")
    bodies = list(FIXTURES) + [random_body(rng, d, constant_width=False) for d in ORACLE_DEGREES]
    va = hl.visual_angle
    cfg = va.ExteriorConfig(nodes_phi=ORACLE_NODES_PHI)
    kernels = sorted(va.KERNELS)

    def unit(body):
        def run():
            try:
                support = hl.bodies.validate_convex(hl.bodies.body_from_dict(body))
                rows = []
                for name in kernels:
                    kernel = va.KERNELS[name]()
                    tan = va.exterior_integral(support, kernel, cfg)
                    pol = va.exterior_integral_grid(support, kernel, cfg)
                    rows.append((name, tan, pol))
            except Exception:  # a crash is a failed operation, not a benchmark error
                return [traceback.format_exc().encode("utf-8")], None
            text = "".join(
                f"{name} {r.method} {r.value!r} {r.error_bar!r} {r.nodes}\n"
                for name, tan, pol in rows for r in (tan, pol)
            )
            return [text.encode("utf-8")], rows
        return Unit(1, run)

    def check(records):
        failed, worst, honesty, bar_rel, nodes = [], 0.0, 0.0, 0.0, 0
        for body, rows in zip(bodies, records):
            if rows is None:
                failed.append(True)
                continue
            fs = _spectral(hl, body)
            scale = _scale(fs)
            closed = _closed_forms(fs)
            bad = False
            for name, tan, pol in rows:
                err = abs(tan.value - closed[name])
                bad |= abs(tan.value - pol.value) > tan.error_bar + pol.error_bar
                bad |= err > tan.error_bar
                worst = max(worst, err / scale)
                honesty = max(honesty, err / tan.error_bar)
                bar_rel = max(bar_rel, tan.error_bar / scale)
            nodes += rows[0][2].nodes  # one polar field per body, shared by the kernels
            failed.append(bool(bad))
        return CheckResult(failed, worst, honesty, bar_rel, nodes)

    return Batch([unit(b) for b in bodies], lambda: bodies, check)


def near_convex_render(hl, seed: int, workdir: str) -> Batch:
    rng = random.Random(f"near_convex_render:{seed}")
    bodies = [near_convex_body(rng, 8 + (7 * i) % 25) for i in range(NEAR_CONVEX_BODIES)]
    paths = _write_bodies(workdir, bodies)
    svg_path = os.path.join(workdir, "figure.svg")

    def unit(path):
        def run():
            rc1, report = call_cli(hl.cli, ["report", "--path", "both", "--body", path])
            rc2, out = call_cli(
                hl.cli, ["render", "--kind", RENDER_KINDS, "--body", path, "--out", svg_path]
            )
            svg = _read(svg_path) if rc2 == 0 else b""
            return [report, out, svg], (rc1, report, rc2, svg)
        return Unit(1, run)

    def check(records):
        failed = []
        layers = len(RENDER_KINDS.split(","))
        for rc1, report, rc2, svg in records:
            bad = rc1 != 0 or rc2 != 0
            bad |= not svg.endswith(b"</svg>\n") or svg.count(b"<polygon ") != layers
            try:
                both = json.loads(report)
                spec, quad = both["spectral"], both["quadrature"]
                scale = max(spec["L"] ** 2, PI * abs(spec["Fe"]))
                # quadrature is exact on trig polynomials: the paths agree to round-off
                bad |= any(abs(quad[k] - spec[k]) > 1e-10 * scale for k in ("F", "Delta", "Fe", "A"))
            except (ValueError, KeyError, TypeError):
                bad = True
            failed.append(bool(bad))
        return CheckResult(failed, None)

    return Batch([unit(p) for p in paths], lambda: bodies, check)


WORKLOADS = {
    "sweep_spectral": sweep_spectral,
    "verify_geometric": verify_geometric,
    "oracle_crosscheck": oracle_crosscheck,
    "near_convex_render": near_convex_render,
}
