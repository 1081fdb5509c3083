"""The package's public names: every export is defined where it is listed,
in the layer that is its one import path."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qlaplace

MODULES = sorted(info.name for info in pkgutil.iter_modules(qlaplace.__path__))


def _exported(name):
    return getattr(importlib.import_module(f"qlaplace.{name}"), "__all__", None)


def _top_level_definitions(module) -> set:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_layer_declares_its_exports():
    listed = [name for name in MODULES if _exported(name) is not None]
    assert listed == ["asc", "fockoracle", "laplace", "lattice", "qcore",
                      "spectral", "verify"]


@pytest.mark.parametrize("name", [m for m in MODULES if _exported(m) is not None])
def test_all_names_resolve_to_definitions_of_the_module(name):
    module = importlib.import_module(f"qlaplace.{name}")
    defined = _top_level_definitions(module)
    assert len(set(module.__all__)) == len(module.__all__)
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export} does not resolve"
        assert export in defined, f"{name}.{export} is not defined in {name}"


def test_package_binds_no_public_name_but_its_layers():
    public = [k for k, v in vars(qlaplace).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)]
    assert public == []


def _loaded_by(layer: str):
    """The qlaplace layers and whether numpy are loaded, in a fresh
    interpreter, by importing ``qlaplace.<layer>`` alone."""
    src = str(Path(qlaplace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (f"import json, sys, qlaplace.{layer}; print(json.dumps(["
             "sorted(k[9:] for k in sys.modules if k.startswith('qlaplace.')), "
             "'numpy' in sys.modules]))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    return json.loads(res.stdout)


def test_qcore_import_loads_no_other_layer_and_no_numpy():
    assert _loaded_by("qcore") == [["qcore"], False]


@pytest.mark.parametrize("layer,below", [("lattice", ["qcore"]),
                                         ("asc", ["qcore"]),
                                         ("laplace", ["lattice", "qcore"])])
def test_layer_import_loads_only_the_layers_below_it(layer, below):
    assert _loaded_by(layer)[0] == sorted([layer, *below])


def _unused_imports(module) -> list:
    """Names a module binds by a top-level import and never reads; a name
    listed in ``__all__`` counts as read, ``__future__`` imports do not count."""
    tree = ast.parse(inspect.getsource(module))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported
            if name not in read and name not in getattr(module, "__all__", ())]


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    """A kernel moved behind its owner leaves no dead import behind."""
    assert _unused_imports(importlib.import_module(f"qlaplace.{name}")) == []
