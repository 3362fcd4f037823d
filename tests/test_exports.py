"""Every name a ``qbacktrack`` module exports resolves and star-imports, and every import is used."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import qbacktrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(qbacktrack.__path__))

# (module, name) imported but never read by the module itself: perfbench's
# tracer wraps each of them there
UNUSED_IMPORT_ALLOWED = {
    ("experiments", "simulate_descent"),
    ("experiments", "spectral_decomposition"),
    ("descent", "build_walk_operator"),
    ("descent", "spectral_decomposition"),
    ("descent", "pe_distribution"),
}
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


def test_unused_imports_allowed_are_trace_sites():
    # a benchmark change that drops a trace site must also drop its import
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run

    run.use_source_tree()
    import workloads

    sites = {
        (owner.__name__.removeprefix("qbacktrack."), attr)
        for owner, attr, _, _ in workloads.trace_sites()
        if isinstance(owner, type(qbacktrack))
    }
    assert UNUSED_IMPORT_ALLOWED <= sites, sorted(UNUSED_IMPORT_ALLOWED - sites)
