"""Each module of the package imports alone, in a fresh interpreter, and loads only what it uses."""

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
