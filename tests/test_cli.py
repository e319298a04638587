import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import hurwitzlab
from hurwitzlab import FunctionalSet
from hurwitzlab import bodies as B
from hurwitzlab.bodies import random_body
from hurwitzlab.cli import build_parser, main, parse_spec
from hurwitzlab.errors import HurwitzLabError

PI = math.pi


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReport:
    def test_astroid_spectral(self, capsys):
        code, out, _ = run(capsys, "report", "--spec", "astroid:1,0.2", "--path", "spectral")
        assert code == 0
        data = json.loads(out)
        assert data["L"] == pytest.approx(6.2831853, rel=1e-6)
        assert data["Delta"] == pytest.approx(2.3687052, rel=1e-6)

    def test_circle(self, capsys):
        code, out, _ = run(capsys, "report", "--spec", "circle:1", "--path", "spectral")
        data = json.loads(out)
        assert code == 0
        assert data["F"] == pytest.approx(3.1415927, rel=1e-6)
        assert data["Fe"] == 0.0

    def test_both_paths(self, capsys):
        code, out, _ = run(capsys, "report", "--spec", "deltoid:1,0.1")
        data = json.loads(out)
        assert code == 0
        assert data["spectral"]["path"] == "spectral"
        assert data["quadrature"]["path"] == "quadrature"
        assert data["spectral"]["Fe"] == pytest.approx(data["quadrature"]["Fe"], rel=1e-12)

    def test_bad_body_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a0": 1.0, "harmonics": [{"n": 2, "a": 0.0, "b": 0.5}]}')
        code, _, err = run(capsys, "report", "--body", str(bad))
        assert code == 2
        assert "NotStrictlyConvex" in err

    def test_missing_source_exit_2(self, capsys):
        code, _, err = run(capsys, "report")
        assert code == 2 and "body source" in err

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "report", "--spec", "circle:2", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["spectral"]["L"] == pytest.approx(4 * PI)


class TestVerify:
    def test_deltoid_passes_with_cw_equality(self, capsys):
        code, out, _ = run(capsys, "verify", "--spec", "deltoid:1,0.1")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("hurwitz_cw"))
        assert "equality" in line
        assert "overall: pass" in out

    def test_amplitude_bound_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--spec", "astroid:1,0.4")
        assert code == 2
        assert "AmplitudeTooLarge" in err

    def test_both_paths_json_out(self, capsys, tmp_path):
        out_file = tmp_path / "suite.json"
        code, _, _ = run(
            capsys, "verify", "--body", str(_write_cw35(tmp_path)), "--path", "both",
            "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["pass"] is True
        cw = [v for v in report["verdicts"] if v["id"] == "visual_angle_bound_cw"]
        assert {v["path"] for v in cw} == {"spectral", "geometric"}
        assert all(v["equality"] for v in cw)

    def test_unknown_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--spec", "pentagon:1")
        assert code == 2 and "unknown spec" in err


class TestRender:
    def test_hypocycloid_curve(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "render", "--spec", "hypocycloid:5/2,1",
                         "--kind", "curve", "--out", str(out_file))
        assert code == 0
        data = out_file.read_bytes()
        assert data.startswith(b'<?xml version="1.0"')
        assert b"<polygon" in data

    def test_curve_gallery(self, capsys, tmp_path):
        out_file = tmp_path / "ast.svg"
        code, _, _ = run(capsys, "render", "--spec", "astroid:1,0.2",
                         "--kind", "boundary,evolute,pedal,parallel", "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes().count(b"<polygon") == 4

    def test_circle_evolute_marker(self, capsys, tmp_path):
        out_file = tmp_path / "dot.svg"
        code, _, _ = run(capsys, "render", "--spec", "circle:1", "--kind", "evolute",
                         "--out", str(out_file))
        assert code == 0
        assert b"<circle" in out_file.read_bytes()

    def test_bad_kind_exit_2(self, capsys):
        code, _, err = run(capsys, "render", "--spec", "circle:1", "--kind", "spline")
        assert code == 2 and "unknown kind" in err

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", "--spec", "deltoid:1,0.1", "--kind", "boundary,wigner", "--out", str(a))
        run(capsys, "render", "--spec", "deltoid:1,0.1", "--kind", "boundary,wigner", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "sweep", "--count", "10", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["per_theorem"]["hurwitz"]["min_residual"] >= -1e-12

    def test_zero_count_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--count", "0")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "sweep", "--count", "8", "--seed", "42")
        _, out2, _ = run(capsys, "sweep", "--count", "8", "--seed", "42")
        assert out1 == out2

    def test_worker_env_override(self, capsys, monkeypatch):
        _, out1, _ = run(capsys, "sweep", "--count", "8", "--seed", "3")
        monkeypatch.setenv("HURWITZLAB_WORKERS", "4")
        _, out2, _ = run(capsys, "sweep", "--count", "8", "--seed", "3")
        assert out1 == out2  # reduction in seed order regardless of workers


def _write_cw35(tmp_path):
    path = tmp_path / "cw35.json"
    path.write_text(json.dumps({
        "a0": 1.0,
        "harmonics": [
            {"n": 3, "a": 0.05, "b": 0.0},
            {"n": 5, "a": 0.0, "b": 0.01},
        ],
    }))
    return path


NON_FINITE_BODIES = {
    "nan_a0": '{"a0": NaN}',
    "nan_harmonic": '{"a0": 1, "harmonics": [{"n": 2, "a": NaN, "b": 0}]}',
    "inf_a0": '{"a0": Infinity}',
    "inf_harmonic": '{"a0": 1, "harmonics": [{"n": 2, "a": Infinity, "b": 0}]}',
}


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize(
    "source",
    [f"body:{name}" for name in NON_FINITE_BODIES]
    + ["spec:circle:nan", "spec:astroid:inf,0.1", "spec:hypocycloid:5,1,nan"],
)
def test_non_finite_input_exit_2(capsys, tmp_path, command, source):
    kind, _, value = source.partition(":")
    if kind == "body":
        path = tmp_path / "body.json"
        path.write_text(NON_FINITE_BODIES[value])
        value = str(path)
    code, out, err = run(capsys, command, f"--{kind}", value)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv", [("verify", "--spec", "astroid:1,0.2"), ("sweep", "--count", "5")]
)
def test_invalid_tol_exit_2(capsys, argv, tol):
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--spec", "random:1,3,bogus"),
        ("report", "--spec", "random:1,3,cw,7"),
    ],
)
def test_malformed_random_spec_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--count", "3", "--seed", "-1"),
        ("verify", "--spec", "random:-1,4"),
    ],
)
def test_negative_seed_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "ValueError: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "argv, n", [(("render",), 10**9), (("verify", "--path", "spectral"), 262143), (("verify",), 1e30)]
)
def test_harmonic_degree_above_bound_exit_2(capsys, tmp_path, argv, n):
    # the certificate passes these bodies; without the degree bound render
    # ran out of memory and the spectral sums ran for minutes.  1e30 fits no
    # integer array, and is rejected the same way, not by an OverflowError
    # the command does not catch
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"a0": 1.0, "harmonics": [{"n": n, "a": 1e-20, "b": 0.0}]}))
    code, out, err = run(capsys, *argv, "--body", str(path))
    assert code == 2
    assert out == ""
    assert err == f"BadSpec: harmonic degree {int(n)} exceeds 262142\n"


def test_report_both_paths_at_the_largest_degree(capsys, tmp_path):
    # one harmonic at _MAX_DEGREE: the quadrature path samples its grid of
    # 2^20 nodes by one inverse FFT and agrees with the spectral sums
    body, out = tmp_path / "body.json", tmp_path / "report.json"
    body.write_text(json.dumps({"a0": 1, "harmonics": [{"n": B._MAX_DEGREE, "a": 1e-20, "b": 0}]}))
    code, _, err = run(capsys, "report", "--path", "both", "--body", str(body), "--out", str(out))
    assert (code, err) == (0, "")
    data = json.loads(out.read_text())
    spectral, quadrature = data["spectral"], data["quadrature"]
    scale = max(spectral["L"] ** 2, PI * abs(spectral["Fe"]))
    for name in FunctionalSet.FIELD_NAMES:
        assert abs(quadrature[name] - spectral[name]) <= 1e-12 * scale, name
    assert len(quadrature["cn_sq"]) == len(spectral["cn_sq"]) == B._MAX_DEGREE - 1


@pytest.mark.parametrize("samples",["100000000000", "1048577", "63"])
@pytest.mark.parametrize(
    "argv",
    [
        ("render", "--spec", "astroid:1,0.2", "--kind", "boundary"),
        ("render", "--spec", "astroid:1,0.2", "--kind", "boundary,evolute,pedal,parallel,wigner"),
        ("render", "--spec", "hypocycloid:5/2,1", "--kind", "curve"),
    ],
)
def test_render_samples_out_of_range_exit_2(capsys, argv, samples):
    # rejected before any array is allocated: no MemoryError traceback
    code, out, err = run(capsys, *argv, "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.startswith("ValueError") and "samples" in err


@pytest.mark.parametrize("flag, cw", [("", False), (",no", False), (",0", False), (",cw", True), (",YES", True)])
def test_random_spec_constant_width_flag(flag, cw):
    assert parse_spec(f"random:1,3{flag}") == random_body(1, 3, cw)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("circle:2", lambda: B.validate_convex(B.TrigSupport(2.0))),
        ("astroid:1,0.2", lambda: B.astroid_parallel(1.0, 0.2)),
        (" Deltoid :1,0.1", lambda: B.deltoid_parallel(1.0, 0.1)),
        ("hypocycloid:5,1,0.02", lambda: B.hypocycloid_parallel(5, 1.0, 0.02)),
        ("hypocycloid:5.0,1,0.02", lambda: B.hypocycloid_parallel(5, 1.0, 0.02)),
        ("hypocycloid:5/2,1", lambda: B.HypocycloidSpec(m=5, n=2, r=1.0)),
    ],
)
def test_parse_spec_families(text, expected):
    # each family parses to its validated body; only the cusped curve stays a spec
    assert parse_spec(text) == expected()


@pytest.mark.parametrize(
    "text",
    ["hypocycloid:4.5,1,0.01", "hypocycloid:2,1,0.01", "hypocycloid:5", "astroid:1", "circle:1,2", "ellipse:1,2"],
)
def test_parse_spec_rejects(text):
    with pytest.raises(HurwitzLabError):
        parse_spec(text)


@pytest.mark.parametrize("n", ["2.7", "Infinity"])
@pytest.mark.parametrize("command", ["verify", "report"])
def test_non_integral_frequency_exit_2(capsys, tmp_path, command, n):
    path = tmp_path / "body.json"
    path.write_text('{"a0": 1, "harmonics": [{"n": %s, "a": 0, "b": 0.1}]}' % n)
    code, out, err = run(capsys, command, "--body", str(path))
    assert code == 2
    assert out == ""
    assert "BadSpec" in err and "integer" in err


@pytest.mark.parametrize(
    "body",
    [
        {"a0": "1.5"},
        {"a0": True},
        {"a0": None},
        {"a0": 1, "harmonics": [{"n": True, "a": 0.1, "b": 0}]},
        {"a0": 1, "harmonics": [{"n": "2", "a": 0.1, "b": 0}]},
        {"a0": 1, "harmonics": [{"n": 2, "a": "0.1", "b": 0}]},
        {"a0": 1, "harmonics": [{"n": 2, "a": 0.1, "b": False}]},
        {"a0": 1, "harmonics": [{"n": 2, "a": [0.1], "b": 0}]},
    ],
    ids=["a0-string", "a0-bool", "a0-null", "n-bool", "n-string", "a-string", "b-bool", "a-list"],
)
@pytest.mark.parametrize("command", ["verify", "report"])
def test_body_values_must_be_json_numbers(capsys, tmp_path, command, body):
    # a string or a boolean is not read as the number it spells
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, command, "--body", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("BadSpec")


@pytest.mark.parametrize(
    "argv",
    [("report",), ("verify",), ("verify", "--path", "both"), ("render", "--kind", "boundary,evolute")],
)
def test_body_near_float_range_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "body.json"
    path.write_text('{"a0": 1.7e308, "harmonics": [{"n": 2, "a": 1e300, "b": 0}]}')
    code, out, err = run(capsys, *argv, "--body", str(path))
    assert code == 2
    assert out == ""
    assert "BadSpec" in err and "magnitude" in err


def test_body_below_magnitude_bound_stays_finite(capsys, tmp_path):
    path = tmp_path / "body.json"
    path.write_text('{"a0": 9e99, "harmonics": [{"n": 2, "a": 1e98, "b": 0}, {"n": 3, "a": 0, "b": 1e97}]}')
    code, out, _ = run(capsys, "report", "--body", str(path))
    assert code == 0
    report = json.loads(out)
    assert all(math.isfinite(report[p][k]) for p in report for k in FunctionalSet.FIELD_NAMES)
    code, _, _ = run(capsys, "verify", "--path", "both", "--body", str(path), "--out", str(tmp_path / "v.json"))
    assert code == 0
    verdicts = json.loads((tmp_path / "v.json").read_text())["verdicts"]
    assert {v["path"] for v in verdicts} == {"spectral", "geometric"}
    for v in verdicts:
        if v["applicable"]:
            assert all(math.isfinite(v[k]) for k in ("lhs", "rhs", "residual", "error_bar"))


@pytest.mark.parametrize("a0", ["1e-160", "1e-200", "1e-320"])
def test_body_below_smallest_mean_exit_2(capsys, tmp_path, a0):
    # below a0 ~ 1e-155 the quadratic functionals underflow: these astroid
    # parallels used to FAIL (1e-160), pass as disks with a strict Wigner
    # row at equality (1e-200) or die on eps = 1e-9 * a0 = 0 (1e-320)
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"a0": float(a0), "harmonics": [{"n": 2, "a": 0.0, "b": 0.2 * float(a0)}]}))
    code, out, err = run(capsys, "verify", "--path", "both", "--body", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("BadSpec") and "1e-100" in err


def test_smallest_mean_keeps_unit_flags(capsys, tmp_path):
    reports = []
    for a0 in (1.0, 1e-100):
        path, out = tmp_path / f"{a0}.body.json", tmp_path / f"{a0}.verify.json"
        path.write_text(json.dumps({"a0": a0, "harmonics": [{"n": 2, "a": 0.0, "b": 0.2 * a0}]}))
        code, _, _ = run(capsys, "verify", "--path", "both", "--body", str(path), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        rows = [(v["id"], v["path"], v["applicable"], v["equality"]) for v in report["verdicts"]]
        reports.append((rows, report["equality_class"], report["pass"]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("report", "--spec", "circle:abc"), "bad number"),
        (("render", "--kind", "curve", "--spec", "hypocycloid:2.5,1"), "integer or m/n"),
        (("report", "--body", "F", "--spec", "S"), "exactly one"),
        (("verify", "--spec", "hypocycloid:5/2,1"), "curve spec"),
        (("render", "--kind", ",", "--spec", "circle:1"), "at least one"),
        (("render", "--kind", "curve", "--spec", "circle:1"), "needs --spec hypocycloid"),
        (("render", "--kind", "curve,boundary", "--spec", "circle:1"), "cannot be mixed"),
    ],
)
def test_rejected_command_lines_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("HurwitzLabError: ") and message in err


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_hypocycloid_curve_radius_must_be_finite(capsys, radius):
    # r <= 0 let NaN through to the vertex check, and inf into numpy warnings
    code, out, err = run(capsys, "render", "--kind", "curve", "--spec", f"hypocycloid:5/2,{radius}")
    assert code == 2
    assert out == ""
    assert "BadSpec" in err


def test_integer_hypocycloid_curve(capsys, tmp_path):
    out = tmp_path / "curve.svg"
    code, _, _ = run(capsys, "render", "--kind", "curve", "--spec", "hypocycloid:5,1", "--out", str(out))
    assert code == 0
    assert b"<polygon" in out.read_bytes()


@pytest.mark.parametrize("path", ["quadrature", "geometric"])
def test_report_single_geometric_path_is_member_of_both(capsys, path):
    _, both, _ = run(capsys, "report", "--spec", "random:2,9")
    code, single, _ = run(capsys, "report", "--spec", "random:2,9", "--path", path)
    assert code == 0
    assert json.loads(single) == json.loads(both)["quadrature"]


def test_render_to_stdout_matches_out_file(capsysbinary, tmp_path):
    argv = ["render", "--spec", "deltoid:1,0.1", "--kind", "boundary,evolute"]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "fig.svg")]) == 0
    assert stdout == (tmp_path / "fig.svg").read_bytes()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_emits_what_a_fresh_one_does(capsysbinary):
    # each command line run in turn on the one parser, then each on a parser of
    # its own: the same exit codes and bytes, the rejected line included
    argvs = [
        ["report", "--spec", "astroid:1,0.2"],
        ["verify", "--spec", "deltoid:1,0.1", "--path", "both"],
        ["render", "--spec", "circle:1", "--kind", "boundary,pedal", "--samples", "64"],
        ["sweep", "--count", "3", "--seed", "2"],
        ["verify", "--spec", "circle:1", "--path", "sideways"],
    ]

    def run_bytes(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsysbinary.readouterr()
        return code, out.out, out.err

    in_turn = [run_bytes(argv) for argv in argvs]
    alone = []
    for argv in argvs:
        build_parser.cache_clear()
        alone.append(run_bytes(argv))
    assert [code for code, _, _ in in_turn] == [0, 0, 0, 0, 2]
    assert in_turn == alone


def test_cli_imports_numpy_only():
    # a fresh interpreter: which top-level packages do `import hurwitzlab.cli`
    # and a run of `verify --path both` and `report` load?  A lazy import of a
    # test-only package in library code shows up here.  Modules without a spec,
    # such as the `cython_runtime` that numpy's compiled extensions register,
    # come from no import and are not counted.
    src = str(pathlib.Path(hurwitzlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import hurwitzlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for cmd in ('verify --path both', 'report'):\n"
        "        assert hurwitzlab.cli.main([*cmd.split(), '--spec', 'random:3,6,cw']) == 0, cmd\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before "
        "if not m.startswith('_') and sys.modules[m].__spec__} - set(sys.stdlib_module_names))))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["hurwitzlab", "numpy"]


def test_draws_leave_numpy_random_unimported(tmp_path):
    # random bodies follow numpy's SeedSequence -> Philox stream, computed in
    # array form: neither a sweep nor a random spec imports numpy.random.  No
    # command, nor the body algebra, calls numpy's set routines either, whose
    # np.ma.is_masked check would import numpy.ma on first use.
    src = str(pathlib.Path(hurwitzlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    svg = str(tmp_path / "curves.svg")
    probe = (
        "import contextlib, io, sys\n"
        "import hurwitzlab.cli\n"
        "from hurwitzlab.bodies import minkowski_sum, random_body\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for cmd in ('sweep --count 300', 'sweep --count 200 --path both', 'report --spec random:3,8',\n"
        "                'verify --path both --spec random:3,6,cw', 'sweep --count 300 --seed ' + str(2**100),\n"
        f"                'render --spec random:3,8 --kind boundary,evolute,pedal,parallel,wigner --out {svg}'):\n"
        "        assert hurwitzlab.cli.main(cmd.split()) == 0, cmd\n"
        "assert minkowski_sum(random_body(1, 8, index=0), random_body(1, 5, True, 1)).n.size > 0\n"
        "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
