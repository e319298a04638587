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
    # the CI smoke step: cold field time, table cells and err/bar per kernel
    script = ROOT / "scripts" / "oracle_timing.py"
    out = subprocess.run([sys.executable, str(script), "8", "32"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["N", "field_s", "m", "crofton", "sin_cubed", "visual_deficit", "visual_deficit_cw"]
    cells = [row.split() for row in rows]
    assert [(c[0], c[2]) for c in cells] == [("8", "1024"), ("32", "4096")]
    assert all(0.0 <= float(ratio) < 1.0 for c in cells for ratio in c[3:])


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
