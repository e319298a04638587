"""Tooling: the test configuration reports a failing property test instead of
crashing, and the oracle and sum timing scripts print their tables."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_reported(tmp_path):
    # On a failure hypothesis imports libcst to write its patch, and that
    # import warns (mypy_extensions' TypedDict DeprecationWarning); under
    # filterwarnings = ["error"] the warning must not abort the session.
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = [
        sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
        "-p", "no:cacheprovider", "-q", "test_probe.py",
    ]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr


def test_oracle_timing_prints_one_row_per_degree():
    # the CI step: cold field time, table cells, the float32 and float64
    # evaluations of g_H (about 3 and 2 per root: 96 * 96 * 2 roots), the
    # roots finished on Horner's g, and err/bar per kernel
    script = ROOT / "scripts" / "oracle_timing.py"
    out = subprocess.run([sys.executable, str(script), "8", "32"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == [
        "N", "field_s", "m", "g32", "g64", "horner", "crofton", "sin_cubed", "visual_deficit", "visual_deficit_cw"
    ]
    cells = [row.split() for row in rows]
    assert [(c[0], c[2], c[5]) for c in cells] == [("8", "1024", "0"), ("32", "4096", "0")]
    roots = 96 * 96 * 2
    assert all(roots <= int(c[3]) <= 4 * roots and roots <= int(c[4]) <= 3 * roots for c in cells)
    assert all(0.0 <= float(ratio) < 1.0 for c in cells for ratio in c[6:])


def test_oracle_timing_exits_1_on_a_missed_root(monkeypatch, capsys):
    # roots moved off the tangent solve's contract are printed as MISS and fail the run
    spec = importlib.util.spec_from_file_location("oracle_timing", ROOT / "scripts" / "oracle_timing.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    solve = script.va._tangent_solve
    monkeypatch.setattr(script.va, "_tangent_solve", lambda *args: tuple(v + 1e-9 for v in solve(*args)))
    try:
        assert script.main([8]) == 1
    finally:  # the field cache holds the moved roots
        script.va._polar_field.cache_clear()
    assert capsys.readouterr().out.count("MISS") >= 1


def test_sum_timing_prints_one_row_per_shape_and_kind():
    # shapes just below the small-array rule (1920 entries) and at it
    script = ROOT / "scripts" / "sum_timing.py"
    out = subprocess.run([sys.executable, str(script), "128x15", "1x2048"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["shape", "data", "sum_us", "extract_us", "fsum_us", "ratio", "bits"]
    cells = [row.split() for row in rows]
    assert [(c[0], c[1]) for c in cells] == [(s, k) for s in ("128x15", "1x2048") for k in ("positive", "signed")]
    assert all(c[-1] == "same" and all(float(v) > 0.0 for v in c[2:6]) for c in cells)


def test_sum_timing_exits_1_on_differ(monkeypatch, capsys):
    # a sum that is not math.fsum's (a plain numpy sum) prints DIFFER and fails the run
    spec = importlib.util.spec_from_file_location("sum_timing", ROOT / "scripts" / "sum_timing.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script.quadrature, "rounded_sum", lambda x: np.sum(x, axis=-1))
    assert script.main(["1x2048"]) == 1
    assert capsys.readouterr().out.count("DIFFER") >= 1
