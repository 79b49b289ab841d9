"""Every module of the package stays behind its public names: no module
imports or reads a private name of another, with no exception. So the draw
stage is reached only through `tensormp.sampling`'s keyed draws
(`sample_base`, `stream_uniforms`, `stream_entries`), the Gram stage only
through `tensormp.gram`'s buffer, panels and solves, and so on for the
pass/fail rule of `tensormp.checks`, the input reader of `tensormp.config`,
the limit law of `tensormp.mp`, the distances of `tensormp.metrics`, the
replica pipeline of `tensormp.experiments` and the CLI. The modules that run
replicas (`experiments`, `cli`) freeze no array: only the layer that makes
an array (`sampling`, `gram`) makes it read-only.
`tensormp.checks` sits below every other module, so it imports nothing from
the package, `tensormp.gram` holds the one ctypes binding to numpy's
OpenBLAS, so no other module imports ctypes, and every draw runs the
package's own keyed Philox, so no module uses numpy's random module."""

import ast
from pathlib import Path

import pytest

import tensormp

PACKAGE = Path(tensormp.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _violations(path: Path) -> list[str]:
    """Every import or read, in path, of a private name of a package module,
    and every setflags call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            name = node.module.removeprefix("tensormp.")
            if name not in MODULES or (node.module == name and node.level != 1):
                continue
            found += [
                f"line {node.lineno}: imports {name}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            if node.attr.startswith("_"):
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


def _ctypes_imports(path: Path) -> list[str]:
    """Every import of path that names ctypes or a module inside it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        found += [f"line {node.lineno}: imports {name}" for name in names if name.split(".")[0] == "ctypes"]
    return found


def _numpy_random_uses(path: Path) -> list[str]:
    """Every import of numpy's random module in path, and every read of it
    as an attribute of np or numpy, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
            names = [f"numpy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            names = [f"numpy.{node.attr}"]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[:2] == ["numpy", "random"]]
    return [f"line {line}: uses {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("module", ["experiments.py", "cli.py"])
def test_replica_runners_use_only_the_public_gram_surface(module):
    assert _violations(PACKAGE / module) == []


def test_no_module_reaches_a_private_name_of_another_module():
    # sampling and gram freeze the arrays they make, so only the private names count here
    found = {path.name: [v for v in _violations(path) if "setflags" not in v] for path in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_boundary_check_sees_each_kind_of_violation(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .gram import _row_panels, _scale_to_covariance, eigenvalues\n"
        "from .checks import Check, _private\n"
        "from .experiments import run_replicas, _evaluate_replica\n"
        "from .config import SweepPlan, _check_keys\n"
        "from .metrics import levy_distance, _levy_estimate\n"
        "from .sampling import _raw_draws, stream_entries\n"
        "from .mp import _quadrature, cdf\n"
        "from . import gram\n"
        "gram._PANEL_ROWS\n"
        "array.setflags(write=True)\n"
        "experiments._check_levy_models\n"
        "config._json_number\n"
        "metrics._canonical\n"
        "sampling._transform\n"
        "cli._write, mp.cdf\n"
    )
    assert _violations(source) == [
        "line 1: imports gram._row_panels",
        "line 1: imports gram._scale_to_covariance",
        "line 2: imports checks._private",
        "line 3: imports experiments._evaluate_replica",
        "line 4: imports config._check_keys",
        "line 5: imports metrics._levy_estimate",
        "line 6: imports sampling._raw_draws",
        "line 7: imports mp._quadrature",
        "line 9: reads gram._PANEL_ROWS",
        "line 10: calls setflags",
        "line 11: reads experiments._check_levy_models",
        "line 12: reads config._json_number",
        "line 13: reads metrics._canonical",
        "line 14: reads sampling._transform",
        "line 15: reads cli._write",
    ]


def test_checks_imports_nothing_from_the_package(tmp_path):
    assert _package_imports(PACKAGE / "checks.py") == []
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\nfrom . import gram\nfrom .config import ModelKind\nimport tensormp.mp\n")
    assert _package_imports(source) == ["line 2: from . import", "line 3: from .config import", "line 4: import tensormp.mp"]


def test_only_gram_imports_ctypes(tmp_path):
    assert {path.name for path in PACKAGE.glob("*.py") if _ctypes_imports(path)} == {"gram.py"}
    source = tmp_path / "probe.py"
    source.write_text("import numpy, ctypes\nfrom ctypes import CDLL\nimport ctypes.util as u\nfrom .ctypes import x\n")
    assert _ctypes_imports(source) == ["line 1: imports ctypes", "line 2: imports ctypes", "line 3: imports ctypes.util"]


def test_no_module_names_the_test_plugin_that_switches_the_binding_off():
    # tests/no_openblas.py makes gram._openblas return None for one test run; the package never loads it
    assert {path.name for path in PACKAGE.glob("*.py") if "no_openblas" in path.read_text()} == set()


def test_no_module_uses_numpy_random(tmp_path):
    assert {path.name for path in PACKAGE.glob("*.py") if _numpy_random_uses(path)} == set()
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy.random\n"
        "import numpy, numpy.random.bit_generator as bits\n"
        "from numpy import random\n"
        "from numpy import linalg, random as rand\n"
        "from numpy.random import Generator\n"
        "np.random.default_rng(0)\n"
        "numpy.random\n"
        "np.randomize, numpy.linalg, rng.random(), from_numpy.random\n"
        "from .numpy import random\n"
    )
    assert _numpy_random_uses(source) == [
        "line 1: uses numpy.random",
        "line 2: uses numpy.random.bit_generator",
        "line 3: uses numpy.random",
        "line 4: uses numpy.random",
        "line 5: uses numpy.random",
        "line 6: uses numpy.random",
        "line 7: uses numpy.random",
    ]
