"""Each module of the package imports alone, in a fresh interpreter, and loads only what it uses."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
MODULES = ("errors", "exactpoly", "rootcomb", "invgen", "checker", "orbitlab", "cli")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    result = _python("-c", f"import nilinv.{module}")
    assert result.returncode == 0, result.stderr


def test_rootcomb_loads_neither_checker_nor_orbitlab():
    code = "import json, sys, nilinv.rootcomb; print(json.dumps(sorted(m for m in sys.modules if m.startswith('nilinv'))))"
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "nilinv.rootcomb" in loaded
    assert "nilinv.checker" not in loaded and "nilinv.orbitlab" not in loaded, loaded


def test_python_m_nilinv_help():
    result = _python("-m", "nilinv", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def _unread_imports(path):
    """The names a module binds by import but never reads, with the line of each import."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({(alias.asname or alias.name.split(".")[0]): node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({(alias.asname or alias.name): node.lineno for alias in node.names if alias.name != "*"})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for folder in ("src/nilinv", "tests", "scripts") for p in sorted((ROOT / folder).glob("*.py"))]
    assert len(paths) > 20
    unread = {str(p.relative_to(ROOT)): names for p in paths if (names := _unread_imports(p))}
    assert unread == {}
