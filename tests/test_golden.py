"""Byte-for-byte gate on CLI output and on the gallery figures.

tests/golden/ holds, for each fixture body of conftest.py, the body JSON and
the bytes of `report`, `verify --path both --out`, `verify --path both`
stdout and the five-kind `render --out` SVG.  `hd17` is the one fixture of
degree 17 whose convexity the certificate does not decide.  The figures are
gated against the committed out/*.svg.  Regenerate the golden files only for
a change that alters numbers on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib.util
import io
import json
import pathlib

import pytest

from hurwitzlab import body_to_dict
from hurwitzlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ("circle", "ast", "delt", "cw35", "mix", "hd17")
OUTPUTS = ("report.json", "verify.json", "verify.txt", "render.svg")
RENDER_KINDS = "boundary,evolute,pedal,parallel,wigner"


def cli_outputs(body_file: pathlib.Path, workdir: pathlib.Path) -> dict[str, bytes]:
    """{suffix: bytes} of the golden CLI outputs for one body file."""
    report, verify, render = (workdir / name for name in ("report.json", "verify.json", "render.svg"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["report", "--body", str(body_file), "--out", str(report)]) == 0
        code = main(["verify", "--path", "both", "--body", str(body_file), "--out", str(verify)])
    assert code == 0
    verify_txt = stdout.getvalue().encode("utf-8")
    assert main(["render", "--kind", RENDER_KINDS, "--body", str(body_file), "--out", str(render)]) == 0
    return {
        "report.json": report.read_bytes(),
        "verify.json": verify.read_bytes(),
        "verify.txt": verify_txt,
        "render.svg": render.read_bytes(),
    }


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_body_is_fixture(request, name):
    data = json.loads((GOLDEN / f"{name}.body.json").read_text())
    assert data == body_to_dict(request.getfixturevalue(f"{name}_body"))


@pytest.mark.parametrize("name", FIXTURES)
def test_cli_output_matches_golden(tmp_path, name):
    fresh = cli_outputs(GOLDEN / f"{name}.body.json", tmp_path)
    for suffix in OUTPUTS:
        assert fresh[suffix] == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix


def test_make_figures_reproduces_out(tmp_path):
    spec = importlib.util.spec_from_file_location("make_figures", ROOT / "scripts" / "make_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        assert module.main(tmp_path) == 0
    committed = sorted(p.name for p in (ROOT / "out").glob("*.svg"))
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    for name in FIXTURES:
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in cli_outputs(GOLDEN / f"{name}.body.json", pathlib.Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    print(f"wrote golden outputs to {GOLDEN}")
