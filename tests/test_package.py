"""The package namespace and ``noisy_euler.__all__`` agree, importing the
package loads numpy but not scipy, and no module imports a name it does not
use."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import noisy_euler
from noisy_euler import gates, noise

# The Kraus oracle and its helpers, which live in tests/reference.py.
ORACLE_NAMES = ("noisy_gate_stepwise", "apply_channel_kraus", "amplitude_damping_kraus",
                "phase_damping_kraus", "rx", "rz", "validate_density_matrix")


def test_public_surface_is_consistent():
    """Every name in __all__ resolves and is listed once, every public
    non-module name the package binds is listed, a star import works, and
    no oracle name is back in the package, so a half-finished removal or
    addition fails here."""
    listed = noisy_euler.__all__
    assert len(listed) == len(set(listed))
    assert [name for name in listed if not hasattr(noisy_euler, name)] == []
    bound = {name for name, value in vars(noisy_euler).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound - set(listed) == set()
    namespace = {}
    exec("from noisy_euler import *", namespace)
    assert set(listed) <= namespace.keys()
    assert [(m.__name__, n) for m in (noisy_euler, gates, noise) for n in ORACLE_NAMES
            if hasattr(m, n)] == []


def test_cli_run_imports_no_scipy(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter runs an rb
    command, decay fit included, without loading any scipy module."""
    src = Path(noisy_euler.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from noisy_euler import cli\n"
        f"rc = cli.main(['--output-dir', {str(tmp_path)!r}, 'rb', '--lambda', '0.01',\n"
        "               '--circuits', '1', '--gates', '6', '--depths', '1,3,6'])\n"
        "assert rc == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "rb_summary.json").read_text())["fits"]["unopt"]["a"] > 0


def unused_imports(source: str) -> list[str]:
    """The names that import statements in ``source`` bind (``__future__``
    aside) and that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, listed = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            listed |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - listed)


def test_unused_import_check_finds_stale_names():
    """The check sees a module import, a from-import and an alias that
    nothing reads, and passes a name read as an attribute root, one read in
    an annotation and one listed in __all__."""
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp, numpy as np\n"
        "from math import pi, tau, e as euler\n"
        "from .optimize import optimize_gate\n"
        "__all__ = ['pi']\n"
        "def f(x: tau):\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == ["euler", "optimize_gate", "os", "osp"]


@pytest.mark.parametrize("path", sorted(Path(noisy_euler.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    """Every name a package module imports is used in it or listed in its
    __all__ (no linter is a test dependency, so the stdlib parser checks)."""
    assert unused_imports(path.read_text()) == []
