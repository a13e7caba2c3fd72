"""The public names of ``repro.nn`` are the ones the rest of the project uses.

Every name in ``repro.nn.__all__`` and ``repro.nn.functional.__all__`` must
be imported from ``repro.nn`` (or read as an attribute of an imported
``repro.nn`` module) somewhere outside ``src/repro/nn`` and ``tests/``: in
the models, attacks, defenses and FL code, the benchmarks, the examples or
``perfbench``.  A name only the package itself or its tests need stays in
its module and out of ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import nn
from repro.nn import functional as F

REPO_ROOT = Path(__file__).resolve().parents[1]
NN_ROOT = REPO_ROOT / "src" / "repro" / "nn"
CALLER_ROOTS = ("src/repro", "benchmarks", "examples", "perfbench")


def _import_source(node: ast.ImportFrom, path: Path) -> str:
    """Absolute dotted module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    package = list(path.relative_to(REPO_ROOT / "src").parent.parts)
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _is_nn(dotted: str) -> bool:
    return dotted == "repro.nn" or dotted.startswith("repro.nn.")


def _names_used_outside_nn() -> set:
    """Names imported from ``repro.nn`` or read off an imported nn module."""
    used = set()
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if NN_ROOT in path.parents:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            modules = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    source = _import_source(node, path)
                    for alias in node.names:
                        full = f"{source}.{alias.name}"
                        if _is_nn(source):
                            used.add(alias.name)
                        if _is_nn(full):
                            modules.add(alias.asname or alias.name)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if _is_nn(alias.name) and alias.asname:
                            modules.add(alias.asname)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    used.add(node.attr)
    return used


@pytest.fixture(scope="module")
def used_outside_nn():
    return _names_used_outside_nn()


@pytest.mark.parametrize("module", [nn, F], ids=["repro.nn", "repro.nn.functional"])
def test_every_public_name_has_a_caller_outside_the_package(module, used_outside_nn):
    unused = sorted(set(module.__all__) - used_outside_nn)
    assert unused == [], f"{module.__name__}.__all__ names without an outside caller"


def test_the_scan_sees_the_known_callers(used_outside_nn):
    # The models build on nn.Conv2d, DFA-R on F.soft_cross_entropy and
    # perfbench on the trace counters.
    assert {"Conv2d", "soft_cross_entropy", "trace_counters"} <= used_outside_nn
