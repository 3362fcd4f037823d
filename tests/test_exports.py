"""Every name a ``qbacktrack`` module exports resolves and star-imports, and every import is used."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qbacktrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(qbacktrack.__path__))

# (module, name) imported but never read by the module itself
UNUSED_IMPORT_ALLOWED = {
    ("experiments", "simulate_descent"),  # perfbench's tracer wraps it there
}


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_star_import(name):
    module = importlib.import_module(f"qbacktrack.{name}")
    namespace = {}
    exec(f"from qbacktrack.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert namespace[export] is getattr(module, export)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    source = pathlib.Path(qbacktrack.__path__[0], f"{name}.py").read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {n for n in imported - read if (name, n) not in UNUSED_IMPORT_ALLOWED}
    assert not unused, f"{name} imports {sorted(unused)} but never reads them"
