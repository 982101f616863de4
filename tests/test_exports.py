"""Every exported name resolves: each module's `__all__` and the package's imports."""

import ast
import importlib
from pathlib import Path

import pytest

import k3cert

MODULES = ("arith", "weilpoly", "qform", "k3lattice", "condition", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"k3cert.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"k3cert.{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from k3cert.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(k3cert.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(k3cert, name), f"k3cert.{name} (from .{module}) does not resolve"
        assert getattr(k3cert, name) is getattr(importlib.import_module(f"k3cert.{module}"), name)
