"""The package's public names: every export is defined where it is listed."""

import ast
import importlib
import inspect
import pkgutil
import types

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


def test_package_exports_are_listed_by_a_layer():
    listed = set()
    for name in MODULES:
        listed.update(_exported(name) or ())
    public = [k for k, v in vars(qlaplace).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)]
    assert public
    assert sorted(set(public) - listed) == []
