"""hurwitzlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
Workloads (see BENCHMARK.json and workloads.py): sweep_spectral,
verify_geometric, oracle_crosscheck, near_convex_render.

A run has two phases.

* Set-up: SETUP_SAMPLES fresh interpreters each time ``import hurwitzlab.cli``.
  With ``--trace 1`` one more interpreter runs under ``-X importtime`` for
  the import split by top-level package (import.*_s, the self times of its
  modules summed per package).
* Repetitions: each repetition is a fresh interpreter (worker.py) that runs
  the workload's whole batch once, one client, no threads, with
  HURWITZLAB_WORKERS unset.  Repetitions continue while that ends nearer
  to S seconds, at least two.  With ``--trace 1`` they alternate untraced and
  traced; per-layer metrics come from the traced ones.

Every repetition checks its outputs.  A unit (the work for one body, or one
sweep call) fails when a call exits non-zero, a check on its output fails,
or its output bytes differ from the first repetition's.

End-to-end metrics (``--trace 0``):

* setup_s: median time of ``import hurwitzlab.cli`` over the set-up
  interpreters and every repetition's own import.
* bodies_per_s: bodies processed over the untraced repetitions' unit time.
* body_ms_p50: median over the batch's units of the unit's time per body,
  itself the median over the untraced repetitions; a sweep call's time per
  body is its time / its body count.
* geo_rel_err_max: max |geometric - closed form| / max(L^2, pi|Fe|) over the
  applicable geometric verdicts (verify_geometric) or the tangent integrals
  (oracle_crosscheck); NO_GEOMETRIC_ERR on workloads with no geometric result.
* peak_rss_mb: median ru_maxrss of the repetition processes.

Times are scaled by calibrate.scale() to a machine of fixed speed: a
repetition times a reference loop between its units (at most every
REF_EVERY_S seconds) and scales each unit by the samples just before and
after it; each import is bracketed by two interpreter-only reference samples
on either side.  Per-layer span
times are scaled by their repetition's overall factor.  The unscaled
end-to-end values are in the info line.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it (info) records the output digest, sample
counts, unscaled times and input properties.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep_spectral", "verify_geometric", "oracle_crosscheck", "near_convex_render")
SETUP_SAMPLES = 2
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
# Reported on workloads that compute no geometric result (spectral sweep,
# report + render): 2**-52, the relative round-off unit of a double.
NO_GEOMETRIC_ERR = 2.0**-52
IMPORT_GROUPS = ("numpy", "scipy", "hurwitzlab")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HURWITZLAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable] + argv, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child timed out: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {argv}\n{proc.stderr[-2000:]}")
    return proc


# imports nothing before the timed import but calibrate (math, sys, time)
IMPORT_SNIPPET = "import calibrate; t, r = calibrate.timed_import('hurwitzlab.cli'); print(t, *r)"


def measure_setup() -> list[tuple[float, list[float]]]:
    """(import seconds, reference samples around it) from fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t, *refs = map(float, run_child(["-c", IMPORT_SNIPPET]).stdout.split())
        samples.append((t, refs))
    return samples


IMPORTTIME_SNIPPET = (
    "import sys, calibrate; r = [calibrate.python_reference_s() for _ in range(2)]; "
    "sys.stderr.write('@@start\\n'); import hurwitzlab.cli; sys.stderr.write('@@end\\n'); "
    "r += [calibrate.python_reference_s() for _ in range(2)]; print(*r)"
)


def import_split() -> dict[str, float]:
    """Self import time summed by top-level package, from ``-X importtime``, scaled."""
    proc = run_child(["-X", "importtime", "-c", IMPORTTIME_SNIPPET])
    factor = calibrate.scale([float(x) for x in proc.stdout.split()])
    sums = dict.fromkeys(IMPORT_GROUPS + ("other",), 0.0)
    lines = proc.stderr.split("@@start\n", 1)[-1].split("@@end\n", 1)[0].splitlines()
    for line in lines:
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            sums[top if top in sums else "other"] += int(m.group(1)) * 1e-6 * factor
    return {f"import.{k}_s": v for k, v in sums.items()}


def run_rep(workload: str, seed: int, traced: bool, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    proc = run_child([os.path.join(HERE, "worker.py"), workload, str(seed), str(int(traced)), workdir])
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def declared(kind: str) -> dict[str, str]:
    """{metric name: unit} of one metric list of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def metrics_of(kind: str, values: dict) -> dict:
    missing = set(declared(kind)) - set(values)
    if missing:
        raise BenchError(f"no value for declared metrics {sorted(missing)}")
    return {name: metric(values[name], unit) for name, unit in declared(kind).items()}


def run(args) -> dict:
    if not os.path.isdir(os.path.join(SRC, "hurwitzlab")):
        raise BenchError(f"no hurwitzlab package under {SRC}; run from the repository root")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = measure_setup()
        imports = import_split() if args.trace else {}
        reps = []
        start = time.perf_counter()
        # stop at the repetition boundary nearest to the time budget
        while len(reps) < MIN_REPS or (
            (time.perf_counter() - start) * (1.0 + 0.5 / len(reps)) < args.seconds
        ):
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = run_rep(args.workload, args.seed, traced, os.path.join(workdir, str(len(reps))))
            rep["traced"] = traced
            reps.append(rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    # a unit fails on its own checks or when its bytes differ from the first repetition
    first = reps[0]["digests"]
    attempted = failed = 0
    for rep in reps:
        for bodies, bad, digest, ref in zip(rep["unit_bodies"], rep["failed"], rep["digests"], first):
            attempted += bodies
            failed += bodies if (bad or digest != ref) else 0
    digest = hashlib.sha256("".join(d for unit in first for d in unit).encode()).hexdigest()

    setup_raw = setup + [(r["import_s"], r["import_ref_s"]) for r in reps]
    setup_s = [t * calibrate.scale(refs) for t, refs in setup_raw]
    plain = [r for r in reps if not r["traced"]]
    bodies = sum(sum(r["unit_bodies"]) for r in plain)

    def per_body_ms(key):
        """Per unit of the batch: median over untraced repetitions of time / bodies."""
        return [
            1e3 * statistics.median(r[key][i] for r in plain) / b
            for i, b in enumerate(plain[0]["unit_bodies"])
        ]

    unit_ms = per_body_ms("unit_scaled_s")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "digest": digest,
        "repetitions": len(reps), "setup_samples": len(setup_s),
        "body_ms_samples": len(unit_ms) * len(plain),
        "rep_loop_s": [round(sum(r["unit_s"]), 4) for r in reps],
        "rep_scaled_s": [round(sum(r["unit_scaled_s"]), 4) for r in reps],
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup_raw),
            "bodies_per_s": bodies / sum(sum(r["unit_s"]) for r in plain),
            "body_ms_p50": statistics.median(per_body_ms("unit_s")),
        },
    }
    geo = reps[0]["geo_rel_err_max"]  # equal on every repetition when the digests are
    if not args.trace:
        metrics = metrics_of("end_to_end", {
            "setup_s": statistics.median(setup_s),
            "bodies_per_s": bodies / sum(sum(r["unit_scaled_s"]) for r in plain),
            "body_ms_p50": statistics.median(unit_ms),
            "geo_rel_err_max": NO_GEOMETRIC_ERR if geo is None else geo,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        })
    else:
        traced = [r for r in reps if r["traced"]]
        for r in traced:  # span times scaled like the units that contain them
            factor = sum(r["unit_scaled_s"]) / sum(r["unit_s"])
            r["layers"] = {
                k: v * factor if k.endswith(("self_s", "_per_call")) else v
                for k, v in r["layers"].items()
            }
        layers = {
            k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]
        }
        layers.update(traced[0]["inputs"])
        layers.update(imports)
        layers["import.total_s"] = sum(imports.values())
        layers["trace.overhead_frac"] = (
            statistics.median(sum(r["unit_scaled_s"]) for r in traced)
            / statistics.median(sum(r["unit_scaled_s"]) for r in plain) - 1.0
        )
        metrics = metrics_of("per_layer", layers)
        info["inputs"] = traced[0]["inputs"]
        info["setup_s"] = statistics.median(setup_s)
    print(json.dumps(info))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
