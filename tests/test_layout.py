"""The package's layout: every public helper has a caller, and the runtime needs no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "privcell"


def uncalled(paths, package):
    """Sorted "module.name" of each public module-level function defined in a file under package
    that no file of paths loads, as a name or as an attribute, outside the function's own body."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    defined = {}  # name -> (module, its def node)
    for path, tree in trees.items():
        if path.parent == package:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    defined[node.name] = (path.stem, node)
    loaded = {}  # name -> ids of the top-level statements that load it
    for tree in trees.values():
        for stmt in tree.body:
            for n in ast.walk(stmt):
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                    loaded.setdefault(n.id if isinstance(n, ast.Name) else n.attr, set()).add(id(stmt))
    return sorted(f"{mod}.{name}" for name, (mod, node) in defined.items() if not loaded.get(name, set()) - {id(node)})


def test_every_public_helper_has_a_caller():
    """A public function of src/privcell that no module of the package or script under scripts/
    calls, or passes on, outside its own body is dead code; tests do not count as callers."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert uncalled(paths, PACKAGE) == []


def test_a_helper_only_its_own_body_calls_is_flagged(tmp_path):
    """A recursive call is no caller; a call as a name or through its module is one."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used(n):\n    return 0\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def _private():\n    return 1\n"
    )
    (package / "b.py").write_text("from . import a\n\n\ndef run():\n    return a.used(3)\n")
    (tmp_path / "script.py").write_text("from pkg.b import run\n\nrun()\n")
    paths = [package / "a.py", package / "b.py", tmp_path / "script.py"]
    assert uncalled(paths, package) == ["a.recursive"]


def test_the_runtime_imports_no_scipy():
    """FW's ?heevr is bound through ctypes on numpy's own LAPACK so that no run pays scipy's
    import time and memory; scipy is a test dependency only.  Run in a fresh interpreter,
    since this one has loaded scipy for other tests."""
    code = (
        "import sys\n"
        "import privcell.harness, privcell.fw, privcell.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
