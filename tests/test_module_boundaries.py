"""The Gram buffer stays behind `tensormp.gram`: the modules that run
replicas reach it, and the one pass/fail rule in `tensormp.checks`, only
through their public names. `tensormp.checks` sits below every other module,
so it imports nothing from the package."""

import ast
from pathlib import Path

import pytest

import tensormp

PACKAGE = Path(tensormp.__file__).resolve().parent
ALLOWED_PRIVATE = {"_row_panels"}  # the sphere experiment's panel-wise Gram comparison
GUARDED = ("gram", "checks")


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            name = node.module.removeprefix("tensormp.")
            if name not in GUARDED or (node.module == name and node.level != 1):
                continue
            found += [
                f"line {node.lineno}: imports {name}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and alias.name not in ALLOWED_PRIVATE
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in GUARDED:
            if node.attr.startswith("_") and node.attr not in ALLOWED_PRIVATE:
                found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags":
            found.append(f"line {node.lineno}: calls setflags")
    return found


def _package_imports(path: Path) -> list[str]:
    """Every import of path that names the package or a module beside it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "tensormp"):
            found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "tensormp"]
    return found


@pytest.mark.parametrize("module", ["experiments.py", "cli.py"])
def test_replica_runners_use_only_the_public_gram_surface(module):
    assert _violations(PACKAGE / module) == []


def test_the_boundary_check_sees_each_kind_of_violation(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .gram import _row_panels, _scale_to_covariance, eigenvalues\n"
        "from .checks import Check, _private\n"
        "from . import gram\n"
        "gram._PANEL_ROWS\n"
        "array.setflags(write=True)\n"
    )
    assert _violations(source) == [
        "line 1: imports gram._scale_to_covariance",
        "line 2: imports checks._private",
        "line 4: reads gram._PANEL_ROWS",
        "line 5: calls setflags",
    ]


def test_checks_imports_nothing_from_the_package(tmp_path):
    assert _package_imports(PACKAGE / "checks.py") == []
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\nfrom . import gram\nfrom .config import ModelKind\nimport tensormp.mp\n")
    assert _package_imports(source) == ["line 2: from . import", "line 3: from .config import", "line 4: import tensormp.mp"]
