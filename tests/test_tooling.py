"""The test configuration reports a failing property test instead of crashing."""

import pathlib
import subprocess
import sys

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
