"""The package's public names: every exported name resolves, and no more."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polyschro

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(polyschro.__path__))


def _package_imports() -> list:
    """The names ``polyschro/__init__.py`` imports from its submodules."""
    tree = ast.parse(Path(polyschro.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"polyschro.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_package_import_resolves():
    names = _package_imports()
    assert "propagate" in names and "HamiltonianHandle" in names
    assert [attr for attr in names if not hasattr(polyschro, attr)] == []


@pytest.mark.parametrize("name", [
    "apply_hamiltonian", "apply_mollified", "apply_rho_derivative",
    "energy_estimate_check", "exchange_asymmetry", "propagate_two_particle",
])
def test_wrappers_of_handle_methods_are_not_exported(name):
    """Each restated a handle method or ``propagate``; call those instead."""
    with pytest.raises(ImportError):
        exec(f"from polyschro import {name}", {})
