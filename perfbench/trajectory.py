"""Append one entry to trajectory.json from the output of `spread.py --json`.

    python3 perfbench/trajectory.py --label seed --commit 9591691 \\
        --runs end_to_end.json [--runs per_layer.json]

An entry holds, per workload, each metric's median and quartiles over the
seeds run, the output digest of every seed (which must agree between the
runs given), the operations attempted and failed, and a description of
the machine: nproc, CPU model, and the Python, numpy and scipy versions.
Times are the scaled ones (calibrate.py); unscaled_median keeps the medians
of the raw end-to-end times for reference.
Compare entries of a parent and a change only when both used the same
seeds, run_seconds and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--runs", action="append", required=True, help="spread.py --json output")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]

    workloads: dict[str, dict] = {}
    unscaled: dict[str, dict] = {}
    for path in args.runs:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        for name, data in report.items():
            entry = workloads.setdefault(name, {"metrics": {}, "digests": {}})
            entry["metrics"].update(data["summary"])
            for run in data["runs"]:
                info, result = run["info"], run["result"]
                seed = str(info["seed"])
                if entry["digests"].setdefault(seed, info["digest"]) != info["digest"]:
                    raise SystemExit(f"{name} seed {seed}: output digests differ between runs")
                entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
                entry["failed"] = entry.get("failed", 0) + result["failed"]
                if not info["trace"]:
                    for key, value in info["unscaled"].items():
                        unscaled.setdefault(name, {}).setdefault(key, []).append(value)
    for name, values in unscaled.items():
        workloads[name]["unscaled_median"] = {k: statistics.median(v) for k, v in values.items()}

    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append({
        "label": args.label, "commit": args.commit, "run_seconds": run_seconds,
        "machine": machine(), "workloads": workloads,
    })
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
