"""Each module of the package imports alone, in a fresh interpreter, and loads only what it uses."""

import ast
import importlib
import inspect
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


# the signatures that keep a type beside its base or generators, each checking that the two agree
TYPE_GIVEN_TWICE_ALLOWED = {"rootcomb.admissible_pairs", "orbitlab.verify_unique_intersection"}


def _functions(module):
    """Every function and method defined in a module, by its name under the package, unwrapped from caches."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(f"{name}.{attr}", m) for attr, m in vars(obj).items()] if inspect.isclass(obj) else [(name, obj)]
        for qualname, member in members:
            for attr in ("__func__", "func", "fget"):  # staticmethod, classmethod, cached_property, property
                member = getattr(member, attr, member)
            if inspect.isfunction(fn := inspect.unwrap(member)):
                yield f"{module.__name__.removeprefix('nilinv.')}.{qualname}", fn


def test_no_signature_takes_the_type_beside_a_base_or_generators():
    found = {}
    for module in MODULES:
        for name, fn in _functions(importlib.import_module(f"nilinv.{module}")):
            found[name] = set(inspect.signature(fn).parameters)
    assert {"invgen.minor_form", "invgen.GeneratorSet.__init__", "invgen.GeneratorSet.forms", "rootcomb.dims"} <= set(found)
    twice = sorted(name for name, params in found.items() if "ptype" in params and params & {"base", "gens"})
    assert [name for name in twice if name not in TYPE_GIVEN_TWICE_ALLOWED] == []
    # pairs beside a base could be of another type; a GeneratorSet holds both
    assert sorted(name for name, params in found.items() if {"base", "pairs"} <= params) == []
    assert found["rootcomb.dims"] == {"gens"}
