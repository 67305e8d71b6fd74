"""The package namespace and ``noisy_euler.__all__`` agree, importing the
package loads numpy but not scipy, no module imports a name it does not
use, the package defines no module-level name that nothing reads, and every
``module.name`` its docstrings and comments cite exists."""

import ast
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tokenize
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


@pytest.mark.parametrize("path", sorted(Path(noisy_euler.__file__).parent.glob("*.py"))
                         + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    """Every name a package or test module imports is used in it or listed
    in its __all__ (no linter is a test dependency, so the stdlib parser
    checks)."""
    assert unused_imports(path.read_text()) == []


def dead_names(sources: dict[str, str]) -> list[str]:
    """The module-level functions, classes and constants (dunder names
    aside) defined in ``sources``, a map of module name to source, that no
    module reads, by a Name or an Attribute load or an import, and no
    __all__ lists, as sorted "module.name" strings."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


def test_dead_name_check_finds_unread_definitions():
    """The check sees a function, a class and a constant that no module
    reads, a helper kept beside the code that replaced it among them, and
    passes names read in another module as a plain name, as an attribute or
    through an import, one read in its own module and one listed in
    __all__."""
    sources = {
        "a": (
            "__all__ = ['public']\n"
            "LIMIT = 3\n"
            "SPARE: int = 4\n"
            "def public():\n"
            "    return LIMIT\n"
            "def helper():\n"
            "    return 1\n"
            "def _replaced_path():\n"
            "    return 2\n"
            "class Unused:\n"
            "    pass\n"
        ),
        "b": (
            "from . import c\n"
            "from .a import helper\n"
            "def main():\n"
            "    return helper() + c.by_attribute()\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        ),
        "c": "def by_attribute():\n    return 0\n",
    }
    assert dead_names(sources) == ["a.SPARE", "a.Unused", "a._replaced_path"]


def test_every_module_level_name_is_read():
    """Every module-level function, class and constant of the package is
    read somewhere in the package or listed in an __all__, so code that only
    the tests call, or nothing does, fails here."""
    package = Path(noisy_euler.__file__).parent
    assert dead_names({path.stem: path.read_text()
                       for path in sorted(package.glob("*.py"))}) == []


PACKAGE_MODULES = sorted(path.stem for path in Path(noisy_euler.__file__).parent.glob("*.py")
                         if path.stem != "__init__")


def stale_references(source: str) -> list[str]:
    """The ``module.name`` citations in the string literals and comments of
    ``source``, read up to the first attribute, whose module is one of the
    package's and has no attribute of that name, as "module.name"
    strings."""
    cited = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.STRING, tokenize.COMMENT):
            cited += re.findall(r"``(\w+)\.(\w+)", token.string)
    return [f"{module}.{name}" for module, name in cited if module in PACKAGE_MODULES
            and not hasattr(importlib.import_module(f"noisy_euler.{module}"), name)]


def test_reference_check_finds_stale_citations():
    """The check sees a cited name that its module lacks, in a docstring
    and in a comment, and passes a name that exists, one cited with a
    call, a name of a module outside the package and code that is not a
    citation."""
    source = (
        'def f():\n'
        '    """Runs ``optimize._optimize_rows`` and ``optimize._gone``, then\n'
        '    ``noise._apply_all(...)`` and ``Generator.uniform``."""\n'
        '    return optimize.also_gone  # as ``gates._renamed`` did\n'
    )
    assert stale_references(source) == ["optimize._gone", "gates._renamed"]


@pytest.mark.parametrize("path", sorted(Path(noisy_euler.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_cited_names_exist(path):
    """Every ``module.name`` that a package module's docstrings and comments
    cite is an attribute of that package module, so a rename or a removal
    cannot leave a stale citation behind."""
    assert stale_references(path.read_text()) == []
