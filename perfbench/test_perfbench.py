"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

The last test runs the whole benchmark once on a short setting (about 30 s).
"""

import inspect
import json
import os
import random
import re
import subprocess
import sys
import pytest

import hurwitzlab
import hurwitzlab.cli
from hurwitzlab import bodies

import spantrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

FILE_WORKLOADS = ("verify_geometric", "oracle_crosscheck", "near_convex_render")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", FILE_WORKLOADS)
def test_generators_repeat_for_a_seed(name, tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        return workloads.WORKLOADS[name](hurwitzlab, seed, str(tmp_path / sub)).inputs()

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


def test_sweep_units(tmp_path):
    batch = workloads.sweep_spectral(hurwitzlab, 5, str(tmp_path))
    assert [u.bodies for u in batch.units] == [workloads.SWEEP_COUNT] * workloads.SWEEP_CALLS


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_near_convex_bodies_need_the_search(seed):
    rng = random.Random(f"near_convex_render:{seed}")
    for i in range(workloads.NEAR_CONVEX_BODIES):
        body = workloads.near_convex_body(rng, 8 + (7 * i) % 25)
        assert not workloads.certificate_holds(body)
        support = bodies.validate_convex(bodies.body_from_dict(body))
        rho_min, _ = bodies.min_curvature_radius(support)
        assert 0.0 < rho_min < 0.2 * body["a0"]


def test_random_bodies_pass_the_certificate():
    rng = random.Random("certificate")
    for i in range(200):
        body = workloads.random_body(rng, 2 + i % 9, constant_width=i % 2 == 1)
        assert workloads.certificate_holds(body)


def test_metric_names():
    bench = load_benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _snapshot():
    mods = [hurwitzlab] + [
        __import__(f"hurwitzlab.{layer}", fromlist=["_"]) for layer in spantrace.LAYERS
    ]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if inspect.isfunction(v)}


def test_span_wrappers_restore_the_originals():
    before = _snapshot()
    tracer = spantrace.Tracer()
    with tracer:
        during = _snapshot()
        assert during["hurwitzlab.bodies", "validate_convex"] is not before["hurwitzlab.bodies", "validate_convex"]
        assert during["hurwitzlab.cli", "run_suite"] is not before["hurwitzlab.cli", "run_suite"]
        assert during["hurwitzlab", "validate_convex"] is during["hurwitzlab.bodies", "validate_convex"]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_time_excludes_children():
    tracer = spantrace.Tracer(keep_results=("bodies.random_body",))
    with tracer:
        body = hurwitzlab.bodies.random_body(3, 6, index=1)
    stats = tracer.stats()
    assert stats["bodies.random_body"]["calls"] == 1
    assert stats["bodies.validate_convex"]["calls"] >= 1
    assert tracer.count_under("bodies.min_curvature_radius", "bodies.random_body") >= 1
    outer = stats["bodies.random_body"]
    assert 0.0 <= outer["self_s"] < outer["total_s"]
    assert tracer.results("bodies.random_body") == [body]


def test_units_scale_by_the_reference_samples_around_them():
    import calibrate
    import worker

    ref = calibrate.REFERENCE_S
    # samples before unit 0, before unit 2 and after the last unit
    scaled = worker.scaled_units([1.0, 1.0, 1.0], [ref, ref / 2, ref / 4], [0, 2, 3])
    assert scaled == pytest.approx([1 / 0.75, 1 / 0.75, 1 / 0.375])


def test_benchmark_end_to_end():
    """One short run per trace mode: every declared metric, with its unit, and no failure."""
    bench = load_benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "near_convex_render",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared
