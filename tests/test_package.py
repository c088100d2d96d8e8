"""The package's public names."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import neontrap

SRC = Path(__file__).resolve().parent.parent / "src" / "neontrap"


def test_every_exported_name_resolves_once():
    names = neontrap.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(neontrap, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from neontrap import *", namespace)
    assert set(neontrap.__all__) <= set(namespace)


def test_no_function_takes_a_loose_layer_parameter():
    # the neon layer, its field included, reaches every function on its
    # DielectricStack, and the growth data are module constants: checked on
    # every public function of every module, exported or not
    loose = {"L", "eps_neon", "barrier_height", "cutoff_zc", "field", "material"}
    modules = [importlib.import_module(f"neontrap.{p.stem}")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    functions = {f"{m.__name__}.{name}": obj for m in modules
                 for name, obj in vars(m).items()
                 if not name.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == m.__name__}
    assert "neontrap.dielectric.cached_perpendicular_potential" in functions
    taken = {name: sorted(loose & set(inspect.signature(obj).parameters))
             for name, obj in functions.items()}
    assert {name: params for name, params in taken.items() if params} == {}


def _unused_imports(path: Path) -> list[str]:
    """Names path imports but never reads, from `from __future__` aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


ROOT = SRC.parent.parent
LINTED = sorted([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
                + list((ROOT / "demos").glob("*.py")) + list((ROOT / "tests").glob("*.py")))


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert _unused_imports(path) == []


def test_config_imports_nothing_from_tables():
    # config states the whole config text format, and tables only table text
    tree = ast.parse((SRC / "config.py").read_text())
    named = set()  # last dotted part of every module and name an import statement gives
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            named |= {part.rpartition(".")[2] for part in parts}
    assert "tables" not in named
