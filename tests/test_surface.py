"""The library surface: every name `hurwitzlab` exports has a caller.

A public name must be used in `src/`, `scripts/` or the benchmark code
(`perfbench/*.py`, its own tests excluded) outside its own definition, or
be one of the reference oracles and model entries that tests compare
against.  Options that were removed stay removed, and the option inventory
is pinned: each subcommand's options, the config fields, and every flag
README.md names.
"""

import argparse
import ast
import dataclasses
import pathlib
import re
import types

import pytest

import hurwitzlab
from hurwitzlab.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parents[1]

ORACLES = {
    "count_cusps",  # cusps of sampled curves, against the hypocycloid model
    "eval_support",  # p and its derivatives at given angles
    "expected_equality",  # the paper's equality cases from the harmonic support
    "exterior_point",  # one corner of the tangent-coordinate parametrization
    "generalized_area",  # swept area of a support, against the quadrature Fe and Aw
    "minkowski_sum",  # the equality bodies' Minkowski sums
    "moment_kernel",  # the moment kernels of the closed-form integrals
    "rigid_motion",  # rotations and translations: the invariances, and the evolute's support
    "run_suites",  # a chunk's verdicts from its bodies, which sweep's arrays must equal
    "shoelace_area",  # polygon area, independent of both functional paths
    "verify",  # one theorem on one body
}
# The one-point tangent solve: the benchmark traces it by name
# ("visual_angle.support_line_angles"), not by a call.
MEASURED = {"support_line_angles"}


def _callers() -> set[str]:
    """Names read (as a name or an attribute) outside a definition of that name."""
    files = [*ROOT.glob("src/hurwitzlab/*.py"), *ROOT.glob("scripts/*.py")]
    files += [p for p in ROOT.glob("perfbench/*.py") if not p.name.startswith("test_")]
    used = set()

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    for path in files:
        walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def test_every_export_has_a_caller():
    exported = {
        name for name, obj in vars(hurwitzlab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert ORACLES | MEASURED <= exported
    assert sorted(exported - _callers() - ORACLES - MEASURED) == []


VERIFY, SWEEP = ["verify", "--spec", "circle:1"], ["sweep", "--count", "1"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (VERIFY, ["--collar", "1e-3"]),
        (SWEEP, ["--collar", "1e-3"]),
        (["report", "--spec", "circle:1"], ["--nodes", "64"]),
        (VERIFY, ["--nodes", "64"]),
        (VERIFY, ["--exterior-nodes", "96,256"]),
        (SWEEP, ["--exterior-nodes", "96,256"]),
        (VERIFY, ["--exterior-nodes", "256"]),
        (SWEEP, ["--exterior-nodes", "64"]),
        (VERIFY, ["--exterior-nodes", "64,64,64"]),
        (SWEEP, ["--exterior-nodes", "64,abc"]),
        ([*VERIFY, "--path", "both"], ["--exterior-nodes", "100000000000"]),
        ([*SWEEP, "--path", "both"], ["--exterior-nodes", "2097152"]),
    ],
    ids=["collar-verify", "collar-sweep", "nodes-report", "nodes-verify",
         "exterior-nodes-pair-verify", "exterior-nodes-pair-sweep",
         "exterior-nodes-verify", "exterior-nodes-sweep",
         "exterior-nodes-triple-verify", "exterior-nodes-malformed-sweep",
         "exterior-nodes-huge-verify-both", "exterior-nodes-huge-sweep-both"],
)
def test_removed_option_exits_2(capsys, argv, option):
    # the near-boundary collar is a fixed 1e-4, the quadrature grid and the
    # tangent integrator's nodes follow the degree and the CLI sets no
    # polar-oracle direction count; the same commands without the option
    # succeed
    with pytest.raises(SystemExit) as exc:
        main([*argv, *option])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and option[0] in out.err
    assert main(argv) == 0


OPTIONS = {
    "report": {"--body", "--spec", "--path", "--out"},
    "verify": {"--body", "--spec", "--path", "--tol", "--out"},
    "render": {"--body", "--spec", "--kind", "--samples", "--out"},
    "sweep": {"--count", "--seed", "--path", "--tol", "--out"},
}
# flags README.md names that belong to other tools
FOREIGN_FLAGS = {"--no-build-isolation"}  # pip's


def _subcommand_options() -> dict[str, set[str]]:
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_option_inventory():
    # no option or config field appears without this inventory changing
    assert _subcommand_options() == OPTIONS
    assert {f.name for f in dataclasses.fields(hurwitzlab.ExteriorConfig)} == {"nodes_phi"}
    assert {f.name for f in dataclasses.fields(hurwitzlab.SuiteConfig)} == {"path", "tol"}


def test_readme_flags_exist():
    # a command line `hurwitzlab SUB ...` uses SUB's options; a flag named in
    # prose exists on some subcommand
    options = _subcommand_options()
    named, commands = set(), set()
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
        command = re.match(r"\s*hurwitzlab (\w+)", line)
        if command:
            commands.add(command.group(1))
            assert flags <= options[command.group(1)], line
        named |= flags
    assert commands == set(OPTIONS)
    assert named - FOREIGN_FLAGS <= set().union(*options.values())
