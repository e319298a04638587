"""One repetition of one workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED TRACED WORKDIR

Imports ``hurwitzlab.cli`` first and times that import, builds the workload's
batch from SEED, runs every unit once (under spans when TRACED is 1), then
checks the outputs and prints one JSON object.  Reference-loop samples
(calibrate.py) are taken around the import and between units, at most every
REF_EVERY_S seconds.  `run.py` starts this script; ``src`` must be on
PYTHONPATH.
"""

import time

import calibrate

IMPORT_S, IMPORT_REF = calibrate.timed_import("hurwitzlab.cli")  # the set-up every CLI call pays

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import hurwitzlab  # noqa: E402

import spantrace  # noqa: E402
import workloads  # noqa: E402

GRID = "visual_angle.exterior_integral_grid"
TANGENT = "visual_angle.exterior_integral"
REF_EVERY_S = 0.25


def scaled_units(unit_s: list[float], refs: list[float], ref_at: list[int]) -> list[float]:
    """Each unit time scaled by the reference samples just before and after it."""
    out, j = [], 0
    for i, t in enumerate(unit_s):
        while ref_at[j + 1] <= i:
            j += 1
        out.append(t * calibrate.scale(refs[j : j + 2]))
    return out


def layer_metrics(tracer: spantrace.Tracer, check: workloads.CheckResult) -> dict:
    st = tracer.stats()

    def get(name, key):
        return st[name][key] if name in st else 0

    def per_call(name, unit):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * unit if calls else 0.0

    m = {}
    for name in (
        "bodies.validate_convex", "functionals.functionals_quadrature", "quadrature.periodic_integral",
        "quadrature.gauss_panels", TANGENT, "visual_angle.support_line_angles",
        "verdicts.run_suite", "render.sample_curve", "cli.main",
    ):
        m[f"{name}.calls"] = get(name, "calls")
    for name in (
        "bodies.random_body", "bodies.min_curvature_radius", "functionals.functionals_spectral",
        "functionals.functionals_quadrature", "functionals.generalized_area", "quadrature.gauss_panels",
        TANGENT, GRID, "verdicts.run_suite", "render.sample_curve", "render.write_svg", "cli.main",
        "jsonio.dumps",
    ):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["bodies.validate_convex.us_per_call"] = per_call("bodies.validate_convex", 1e6)
    m[f"{TANGENT}.ms_per_call"] = per_call(TANGENT, 1e3)
    m["visual_angle.support_line_angles.us_per_call"] = per_call("visual_angle.support_line_angles", 1e6)
    m[f"{TANGENT}.nodes"] = sum(r.nodes for r in tracer.results(TANGENT) if r is not None)
    scans = tracer.count_under("visual_angle.support_line_angles", GRID)
    m["visual_angle.polar_scan_per_node"] = scans / check.polar_nodes if check.polar_nodes else 0.0
    m["visual_angle.bar_honesty_max"] = check.bar_honesty_max
    m["visual_angle.bar_rel_max"] = check.bar_rel_max
    m["render.svg_bytes"] = sum(len(r) for r in tracer.results("render.write_svg") if r is not None)
    for layer in spantrace.LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in st.items() if k.startswith(layer + "."))
    return m


def main(argv: list[str]) -> int:
    name, seed, traced, workdir = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    batch = workloads.WORKLOADS[name](hurwitzlab, seed, workdir)
    tracer = spantrace.Tracer(keep_results=(TANGENT, "render.write_svg")) if traced else None

    unit_s, digests, records = [], [], []
    if tracer:
        tracer.install()
    try:
        # refs[j] is the reference sample taken before unit ref_at[j]
        refs, ref_at = [calibrate.reference_s()], [0]
        last_ref = time.perf_counter()
        for i, unit in enumerate(batch.units):
            t = time.perf_counter()
            streams, record = unit.run()
            unit_s.append(time.perf_counter() - t)
            if time.perf_counter() - last_ref > REF_EVERY_S or i == len(batch.units) - 1:
                refs.append(calibrate.reference_s())
                ref_at.append(i + 1)
                last_ref = time.perf_counter()
            digests.append([hashlib.sha256(s).hexdigest() for s in streams])
            records.append(record)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = batch.check(records)
    result = {
        "import_s": IMPORT_S,
        "import_ref_s": IMPORT_REF,
        "ref_s": refs,
        "unit_s": unit_s,
        "unit_scaled_s": scaled_units(unit_s, refs, ref_at),
        "unit_bodies": [u.bodies for u in batch.units],
        "digests": digests,
        "failed": check.failed,
        "geo_rel_err_max": check.geo_rel_err_max,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, check)
        result["inputs"] = workloads.input_properties(batch.inputs())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
