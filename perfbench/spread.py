"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep_spectral,verify_geometric \\
        --seeds 1-10 [--trace 0] [--seconds 20] [--json OUT]

For every metric prints the median, the quartiles (statistics.quantiles,
n=4) and the interquartile distance as a share of the median, next to the
bound BENCHMARK.json gives it.  Runs are sequential, one at a time.
``--json`` writes every run's result and the summary, the form
`trajectory.py` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        start = time.perf_counter()
        runs = [run_once(workload, s, args.seconds, args.trace) for s in parse_seeds(args.seeds)]
        elapsed = time.perf_counter() - start
        summary = summarize(runs)
        bad = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs in {elapsed:.0f} s, failed operations {bad}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<48} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} bound {bound}{flag}")
        report[workload] = {"runs": runs, "summary": summary}
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
