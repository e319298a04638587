"""Byte-for-byte gate on CLI output and on the gallery figures.

tests/golden/ holds, for each fixture body of conftest.py, the body JSON and
the bytes of `report`, `verify --path both --out`, `verify --path both`
stdout and the five-kind `render --out` SVG.  `hd17` is the one fixture of
degree 17 whose convexity the certificate does not decide.  It also holds
the stdout of three `sweep` runs (SWEEPS), one of them with violations and
one across the edge of a chunk of bodies.  The figures are gated against
the committed out/*.svg.  Regenerate the golden files only for a change
that alters numbers on purpose:

    PYTHONPATH=src python tests/test_golden.py

The regeneration prints what moved, and `--diff` prints the same table
without writing (exit 1 when anything moved): flag moves first (`equality`,
`applicable`, `pass`, the equality class, any text), then one row per moved
value with its file, JSON path or verify.txt row, old and new value,
|d|/scale with scale = max(L^2, pi|Fe|) of the body's spectral functionals,
and |d|/error_bar on verdict rows; an SVG reports how many coordinates moved
and the largest move, and a sweep one row per moved least residual.  The diff explains a failure of the byte gate; it
never passes one.
"""

import contextlib
import importlib.util
import io
import json
import math
import pathlib
import re

import pytest

from hurwitzlab import body_from_dict, body_to_dict, functionals_spectral, validate_convex
from hurwitzlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ("circle", "ast", "delt", "cw35", "mix", "hd17")
OUTPUTS = ("report.json", "verify.json", "verify.txt", "render.svg")
RENDER_KINDS = "boundary,evolute,pedal,parallel,wigner"
FLAGS = {"equality", "applicable", "pass", "equality_class"}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# golden name -> `sweep` arguments; 257 bodies straddle the edge of a chunk
SWEEPS = {
    "sweep.count300.seed3": ["--count", "300", "--seed", "3"],
    "sweep.count200.both.seed1": ["--count", "200", "--path", "both", "--seed", "1"],
    "sweep.count257.seed2.tol0": ["--count", "257", "--seed", "2", "--tol", "0"],
}


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


def sweep_output(name: str) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of the golden sweep `name`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["sweep", *SWEEPS[name]])
    return code, stdout.getvalue().encode("utf-8")


def committed(name: str) -> dict[str, bytes]:
    return {suffix: (GOLDEN / f"{name}.{suffix}").read_bytes() for suffix in OUTPUTS}


def make_figures(outdir: pathlib.Path) -> None:
    spec = importlib.util.spec_from_file_location("make_figures", ROOT / "scripts" / "make_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        assert module.main(outdir) == 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(node, path=()):
    """(path, value) of every JSON leaf, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        yield path, node
    for key, child in items or ():
        yield from _leaves(child, path + (key,))


def _move(where, old, new, scale, bar=None) -> str:
    d = abs(new - old)
    row = f"{where}  {old!r} -> {new!r}  |d|/scale={d / scale:.2g}"
    return row + (f"  |d|/bar={d / bar:.2g}" if bar else "")


def text_moves(where: str, old: str, new: str, scale, bar, flags: list, values: list) -> None:
    """A text whose numbers alone moved gives one value row per moved number
    ("[k]": its index among the text's numbers); any other edit is a flag."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        flags.append(f"FLAG {where}  {old!r} -> {new!r}")
        return
    for k, (x, y) in enumerate(zip(NUMBER.findall(old), NUMBER.findall(new))):
        if x != y:
            values.append(_move(f"{where}[{k}]", float(x), float(y), scale, bar))


def svg_moves(where: str, old: bytes, new: bytes, flags: list, values: list) -> None:
    """An SVG gives one row: how many coordinates moved, and the largest move."""
    old, new = old.decode("utf-8"), new.decode("utf-8")
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        flags.append(f"FLAG {where}  drawing changed")
        return
    moved = [abs(float(y) - float(x)) for x, y in zip(NUMBER.findall(old), NUMBER.findall(new)) if x != y]
    if moved:
        values.append(f"{where}  {len(moved)} moved coordinates, largest move {max(moved):.6g}")


def golden_diff(name: str, old: dict[str, bytes], new: dict[str, bytes]) -> tuple[list[str], list[str]]:
    """(flag moves, value moves) between two sets of one fixture's outputs."""
    spectral = functionals_spectral(validate_convex(body_from_dict(json.loads((GOLDEN / f"{name}.body.json").read_text()))))
    scale = max(spectral.L**2, math.pi * abs(spectral.Fe))
    flags, values = [], []
    verify = json.loads(new["verify.json"])
    bars = {(row["id"], row["path"]): row["error_bar"] for row in verify["verdicts"]}
    for suffix in ("report.json", "verify.json"):
        docs = [json.loads(files[suffix]) for files in (old, new)]
        (paths_a, a), (paths_b, b) = (zip(*_leaves(doc)) for doc in docs)
        if paths_a != paths_b:
            flags.append(f"FLAG {name}.{suffix}  structure changed")
            continue
        for path, x, y in zip(paths_a, a, b):
            if x == y:
                continue
            where = f"{name}.{suffix}  " + ".".join(map(str, path))
            row = docs[1]["verdicts"][path[1]] if path[0] == "verdicts" and len(path) > 2 else None
            if row is not None:
                where += f" ({row['id']}/{row['path']})"
            bar = row and row["error_bar"]
            if isinstance(x, str) and isinstance(y, str) and not FLAGS & set(path):
                text_moves(where, x, y, scale, bar, flags, values)
            elif FLAGS & set(path) or not (_is_number(x) and _is_number(y)):
                flags.append(f"FLAG {where}  {x!r} -> {y!r}")
            else:
                values.append(_move(where, x, y, scale, bar))
    lines = [files["verify.txt"].decode("utf-8").splitlines() for files in (old, new)]
    if len(lines[0]) != len(lines[1]):
        flags.append(f"FLAG {name}.verify.txt  {len(lines[0])} -> {len(lines[1])} lines")
    for x_line, y_line in zip(*lines):
        x_line, y_line = " ".join(x_line.split()), " ".join(y_line.split())  # columns are padded
        if x_line != y_line:
            key = tuple(y_line.split()[:2])  # theorem, path; [k] is the row's k-th number: lhs, rhs, residual
            text_moves(f"{name}.verify.txt  {' '.join(key)}", x_line, y_line, scale, bars.get(key), flags, values)
    svg_moves(f"{name}.render.svg", old["render.svg"], new["render.svg"], flags, values)
    return flags, values


def sweep_diff(name: str, old: bytes, new: bytes) -> tuple[list[str], list[str]]:
    """(flag moves, value moves) between two outputs of one golden sweep: a
    moved least residual is a value row with its |d|, any other move a flag."""
    docs = [json.loads(text) for text in (old, new)]
    (paths_a, a), (paths_b, b) = (zip(*_leaves(doc)) for doc in docs)
    if paths_a != paths_b:
        return [f"FLAG {name}.json  structure changed"], []
    flags, values = [], []
    for path, x, y in zip(paths_a, a, b):
        if repr(x) == repr(y):
            continue
        where = f"{name}.json  " + ".".join(map(str, path))
        if path[-1] == "min_residual" and _is_number(x) and _is_number(y):
            values.append(f"{where}  {x!r} -> {y!r}  |d|={abs(y - x):.2g}")
        else:
            flags.append(f"FLAG {where}  {x!r} -> {y!r}")
    return flags, values


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_body_is_fixture(request, name):
    data = json.loads((GOLDEN / f"{name}.body.json").read_text())
    assert data == body_to_dict(request.getfixturevalue(f"{name}_body"))


@pytest.mark.parametrize("name", FIXTURES)
def test_cli_output_matches_golden(tmp_path, name):
    fresh = cli_outputs(GOLDEN / f"{name}.body.json", tmp_path)
    for suffix in OUTPUTS:
        assert fresh[suffix] == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_output_matches_golden(name):
    code, out = sweep_output(name)
    assert out == (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if json.loads(out)["pass"] else 1)


def test_sweep_diff_lists_a_moved_residual_and_flags_the_rest():
    name = "sweep.count257.seed2.tol0"
    old = (GOLDEN / f"{name}.json").read_bytes()
    assert sweep_diff(name, old, old) == ([], [])
    doc = json.loads(old)
    doc["per_theorem"]["hurwitz"]["min_residual"] *= 1.0 + 1e-15
    doc["per_theorem"]["hurwitz"]["equality_hits"] += 1
    flags, values = sweep_diff(name, old, json.dumps(doc).encode("utf-8"))
    assert flags == [f"FLAG {name}.json  per_theorem.hurwitz.equality_hits  30 -> 31"]
    assert len(values) == 1 and values[0].startswith(f"{name}.json  per_theorem.hurwitz.min_residual  ")
    doc["violations"].pop()
    assert sweep_diff(name, old, json.dumps(doc).encode("utf-8")) == ([f"FLAG {name}.json  structure changed"], [])


def test_make_figures_reproduces_out(tmp_path):
    make_figures(tmp_path)
    committed_svgs = sorted(p.name for p in (ROOT / "out").glob("*.svg"))
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == committed_svgs
    for name in committed_svgs:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


@pytest.mark.parametrize("name", FIXTURES)
def test_diff_of_committed_files_is_empty(name):
    assert golden_diff(name, committed(name), committed(name)) == ([], [])


def _edited(name: str, suffix: str, edit) -> dict[str, bytes]:
    files = committed(name)
    doc = json.loads(files[suffix])
    edit(doc)
    return {**files, suffix: json.dumps(doc, indent=2).encode("utf-8")}


def test_diff_lists_exactly_the_perturbed_leaf():
    def edit(doc):
        doc["quadrature"]["F"] *= 1.0 + 1e-15
    flags, values = golden_diff("mix", committed("mix"), _edited("mix", "report.json", edit))
    assert flags == [] and len(values) == 1
    assert values[0].startswith("mix.report.json  quadrature.F  ") and "|d|/scale=" in values[0]


def test_diff_reports_a_moved_verdict_against_its_bar():
    def edit(doc):
        doc["verdicts"][3]["rhs"] += 1e-12
    flags, values = golden_diff("mix", committed("mix"), _edited("mix", "verify.json", edit))
    assert flags == [] and len(values) == 1
    assert values[0].startswith("mix.verify.json  verdicts.3.rhs (visual_angle_bound/geometric)  ")
    assert "|d|/bar=" in values[0]


def test_diff_prints_a_flipped_equality_as_a_flag():
    def edit(doc):
        doc["verdicts"][1]["equality"] = not doc["verdicts"][1]["equality"]
    flags, values = golden_diff("mix", committed("mix"), _edited("mix", "verify.json", edit))
    assert flags == ["FLAG mix.verify.json  verdicts.1.equality (hurwitz/geometric)  False -> True"]
    assert values == []
    files = committed("mix")
    row = next(line for line in files["verify.txt"].splitlines(keepends=True) if line.startswith(b"hurwitz "))
    txt = files["verify.txt"].replace(row, row.rstrip() + b"  equality\n", 1)
    flags, values = golden_diff("mix", files, {**files, "verify.txt": txt})
    assert len(flags) == 1 and flags[0].startswith("FLAG mix.verify.txt  hurwitz spectral  ") and values == []


def test_diff_counts_moved_svg_coordinates():
    files = committed("ast")
    svg = files["render.svg"].replace(b"1.000000,-0.400000", b"1.000003,-0.400000", 1)
    flags, values = golden_diff("ast", files, {**files, "render.svg": svg})
    assert flags == [] and values == ["ast.render.svg  1 moved coordinates, largest move 3e-06"]


if __name__ == "__main__":
    import sys
    import tempfile

    flags, values, fresh = [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIXTURES:
            (pathlib.Path(tmp) / name).mkdir()
            fresh[name] = cli_outputs(GOLDEN / f"{name}.body.json", pathlib.Path(tmp) / name)
            f, v = golden_diff(name, committed(name), fresh[name])
            flags, values = flags + f, values + v
        for name in SWEEPS:
            fresh[name] = {"json": sweep_output(name)[1]}
            f, v = sweep_diff(name, (GOLDEN / f"{name}.json").read_bytes(), fresh[name]["json"])
            flags, values = flags + f, values + v
        make_figures(pathlib.Path(tmp))
        for path in sorted((ROOT / "out").glob("*.svg")):
            svg_moves(f"out/{path.name}", path.read_bytes(), (pathlib.Path(tmp) / path.name).read_bytes(), flags, values)
    print("\n".join(flags + values) or "no value moved")
    if "--diff" in sys.argv[1:]:
        sys.exit(1 if flags or values else 0)
    for name, outputs in fresh.items():
        for suffix, data in outputs.items():
            (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    print(f"wrote golden outputs to {GOLDEN}")
