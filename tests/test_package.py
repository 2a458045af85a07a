"""Guards on the package surface that code outside it relies on.

The benchmark under ``perfbench/`` wraps package functions by module
attribute and reports a wrapped name that no longer exists as missing,
which zeroes that layer's metric instead of failing. These tests read its
sources, without running them, so removing such a name fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import watermpc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_tuple(path: Path, name: str) -> tuple:
    """The literal value assigned to ``name`` at the top of a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _package_attributes() -> set[tuple[str, str]]:
    """Every ``alias.attr`` that a perfbench module reads from a watermpc
    module it imported as ``from watermpc import module [as alias]``."""
    used = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name: f"watermpc.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "watermpc"
            for alias in node.names
        }
        used |= {
            (aliases[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
    return used


def test_every_export_resolves():
    missing = [name for name in watermpc.__all__ if not hasattr(watermpc, name)]
    assert missing == []


@pytest.mark.parametrize("table", ["SOLVE_SITES", "TRACED"])
def test_every_wrapped_site_exists(table):
    sites = _module_tuple(PERFBENCH / "instrument.py", table)
    assert sites
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in sites
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_called_function_exists():
    used = _package_attributes()
    assert ("watermpc.solver", "dual_gradient") in used
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(used)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
