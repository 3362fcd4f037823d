"""Every name a ``qbacktrack`` module exports resolves and star-imports."""

import importlib
import pkgutil

import pytest

import qbacktrack


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(qbacktrack.__path__)))
def test_exports_resolve_and_star_import(name):
    module = importlib.import_module(f"qbacktrack.{name}")
    namespace = {}
    exec(f"from qbacktrack.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert namespace[export] is getattr(module, export)
