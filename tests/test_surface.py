"""The library surface: every name `hurwitzlab` exports has a caller.

A public name must be used in `src/`, `scripts/` or the benchmark code
(`perfbench/*.py`, its own tests excluded) outside its own definition, or
be one of the reference oracles and model entries that tests compare
against.  Options that were removed stay removed.
"""

import ast
import pathlib
import types

import pytest

import hurwitzlab
from hurwitzlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

ORACLES = {
    "count_cusps",  # cusps of sampled curves, against the hypocycloid model
    "eval_support",  # p and its derivatives at given angles
    "expected_equality",  # the paper's equality cases from the harmonic support
    "exterior_point",  # one corner of the tangent-coordinate parametrization
    "minkowski_sum",  # the equality bodies' Minkowski sums
    "moment_kernel",  # the moment kernels of the closed-form integrals
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


@pytest.mark.parametrize(
    "argv", [["verify", "--spec", "circle:1"], ["sweep", "--count", "1"]], ids=["verify", "sweep"]
)
def test_collar_flag_is_gone(capsys, argv):
    # the near-boundary collar is a fixed 1e-4; the same commands without the
    # flag succeed
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--collar", "1e-3"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and "--collar" in out.err
    assert main(argv) == 0
