"""The Gram buffer stays behind `tensormp.gram`: the modules that run
replicas reach it only through its public functions."""

import ast
from pathlib import Path

import pytest

import tensormp

PACKAGE = Path(tensormp.__file__).resolve().parent
ALLOWED_PRIVATE = {"_row_panels"}  # the sphere experiment's panel-wise Gram comparison


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("gram", "tensormp.gram"):
            if node.module == "gram" and node.level != 1:
                continue
            found += [
                f"line {node.lineno}: imports gram.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and alias.name not in ALLOWED_PRIVATE
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gram":
            if node.attr.startswith("_") and node.attr not in ALLOWED_PRIVATE:
                found.append(f"line {node.lineno}: reads gram.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags":
            found.append(f"line {node.lineno}: calls setflags")
    return found


@pytest.mark.parametrize("module", ["experiments.py", "cli.py"])
def test_replica_runners_use_only_the_public_gram_surface(module):
    assert _violations(PACKAGE / module) == []


def test_the_boundary_check_sees_each_kind_of_violation(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .gram import _row_panels, _scale_to_covariance, eigenvalues\n"
        "from . import gram\n"
        "gram._PANEL_ROWS\n"
        "array.setflags(write=True)\n"
    )
    assert _violations(source) == [
        "line 1: imports gram._scale_to_covariance",
        "line 3: reads gram._PANEL_ROWS",
        "line 4: calls setflags",
    ]
