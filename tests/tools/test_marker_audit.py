"""Marker hygiene audit: chaos-injecting tests must be marked ``chaos``.

Integration tests that inject faults — constructing a ``FaultyChannel``
or simulating a SIGKILL-style crash — belong to the chaos tier so CI
can schedule them separately (and so ``-m "not chaos"`` reliably
excludes them). This meta-test walks ``tests/integration/`` statically
and fails when a fault-injecting module is missing the marker.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

INTEGRATION_DIR = pathlib.Path(__file__).resolve().parents[1] / "integration"


def _collect_markers(tree: ast.Module) -> frozenset[str]:
    """Pytest marker names applied in a module: ``pytestmark``
    assignments plus ``@pytest.mark.X`` decorators."""

    def _marker_name(node: ast.AST) -> str | None:
        # pytest.mark.chaos or pytest.mark.chaos(...)
        if isinstance(node, ast.Call):
            node = node.func
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "mark"
        ):
            return node.attr
        return None

    markers: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "pytestmark"
            for target in node.targets
        ):
            values = (
                node.value.elts
                if isinstance(node.value, (ast.List, ast.Tuple))
                else [node.value]
            )
            for value in values:
                name = _marker_name(value)
                if name:
                    markers.add(name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                name = _marker_name(decorator)
                if name:
                    markers.add(name)
    return frozenset(markers)


def _integration_modules():
    return sorted(INTEGRATION_DIR.glob("test_*.py"))


def _constructs_faulty_channel(tree: ast.AST) -> bool:
    """True when the module names FaultyChannel anywhere in code.

    Covers direct construction, ``from ... import FaultyChannel``, and
    attribute access like ``faults.FaultyChannel`` — an import alone is
    enough to count the module as fault-injecting.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "FaultyChannel":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "FaultyChannel":
            return True
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "FaultyChannel" for alias in node.names
        ):
            return True
    return False


def _simulates_sigkill(source: str) -> bool:
    # Crashes in this repo are simulated (drop the object, skip close/
    # flush) rather than delivered via os.kill, so the convention is
    # documented in comments/docstrings — scan source text, not AST.
    return "SIGKILL" in source


@pytest.mark.parametrize(
    "path", _integration_modules(), ids=lambda p: p.name,
)
def test_fault_injecting_modules_carry_chaos_marker(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    injects = _constructs_faulty_channel(tree) or _simulates_sigkill(source)
    if not injects:
        pytest.skip(f"{path.name} injects no faults")
    markers = _collect_markers(tree)
    assert "chaos" in markers, (
        f"{path.name} constructs FaultyChannel or simulates SIGKILL but "
        f"is not marked chaos; add `pytestmark = pytest.mark.chaos` so "
        f'the chaos tier owns it and `-m "not chaos"` excludes it'
    )


def test_audit_actually_sees_fault_injectors():
    # Guard against the audit silently auditing nothing (e.g. after a
    # directory rename or a FaultyChannel rename).
    injecting = [
        path.name for path in _integration_modules()
        if _constructs_faulty_channel(ast.parse(path.read_text(encoding="utf-8")))
        or _simulates_sigkill(path.read_text(encoding="utf-8"))
    ]
    assert len(injecting) >= 3, injecting
