"""The subpackages of ``repro`` import each other without a cycle.

Every module under ``src/repro`` is parsed with :mod:`ast`; the
``repro.*`` imports it runs at import time become edges between
subpackages (``repro.zoo.oracle`` belongs to ``zoo``, ``repro.cli`` to
``cli``).  Imports inside functions and under ``if TYPE_CHECKING:`` run
later or never, so they are not edges; ``repro/__init__.py`` is the
re-export surface and sits above every subpackage, so it is skipped.
That root imports what it re-exports lazily, on first access, which the
last test checks in a fresh interpreter.

Every import, function bodies included, must also name the stdlib,
``repro`` or a package ``setup.py`` declares in ``install_requires``: an
undeclared one fails ``import repro.*`` wherever it is not installed.
"""

from __future__ import annotations

import ast
import graphlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _unit(module: str) -> str | None:
    """The subpackage a dotted ``repro.*`` module name belongs to."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


def _is_type_checking(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    name = getattr(test, "id", None) or getattr(test, "attr", None)
    return name == "TYPE_CHECKING"


def _runtime_imports(body: list[ast.stmt]):
    """``(lineno, module)`` for each import executed when ``body`` runs."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                yield node.lineno, node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _runtime_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _runtime_imports(getattr(node, field, []))


def import_graph() -> dict[str, dict[str, list[str]]]:
    """``graph[a][b]``: the ``file:line`` sites where subpackage ``a``
    imports subpackage ``b`` at module level."""
    graph: dict[str, dict[str, list[str]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == Path("__init__.py"):
            continue
        unit = rel.parts[0].removesuffix(".py")
        deps = graph.setdefault(unit, {})  # a node even with no edges
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _runtime_imports(tree.body):
            target = _unit(module)
            if target is not None and target != unit:
                deps.setdefault(target, []).append(f"{rel}:{lineno}")
    return graph


def test_collector_sees_the_graph():
    graph = import_graph()
    # a few edges that must exist, so an empty graph cannot pass
    assert "zoo" in graph["core"]
    assert "scheduling" in graph["engine"]
    assert "engine" in graph["serving"]
    # TYPE_CHECKING-only imports are not edges
    assert "rl" not in graph["scheduling"]


def test_subpackage_graph_is_acyclic():
    graph = import_graph()
    sorter = graphlib.TopologicalSorter(
        {unit: set(deps) for unit, deps in graph.items()}
    )
    try:
        order = list(sorter.static_order())
    except graphlib.CycleError as exc:
        # each node of the reported cycle is imported by the next one
        cycle = exc.args[1]
        sites = [
            f"{b} -> {a}: {', '.join(graph[b][a])}"
            for a, b in zip(cycle, cycle[1:])
        ]
        raise AssertionError(
            "import cycle between repro subpackages:\n" + "\n".join(sites)
        ) from None
    assert set(order) == set(graph)


def _declared_requirements() -> set[str]:
    """Top-level names in ``setup.py``'s ``install_requires``, specifiers
    stripped (``"numpy>=1.24"`` -> ``"numpy"``)."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        for keyword in getattr(node, "keywords", ()):
            if keyword.arg == "install_requires":
                requires = ast.literal_eval(keyword.value)
                return {re.split(r"[\s<>=!~;\[]", req)[0] for req in requires}
    raise AssertionError("setup.py declares no install_requires")


def test_every_third_party_import_is_declared():
    allowed = _declared_requirements() | set(sys.stdlib_module_names) | {"repro"}
    assert "numpy" in allowed
    undeclared = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):  # module level and inside functions
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            undeclared += [
                f"repro/{path.relative_to(SRC)}:{node.lineno} ({module})"
                for module in modules
                if module.split(".")[0] not in allowed
            ]
    assert undeclared == [], "imports missing from install_requires"


@pytest.mark.parametrize(
    "module, heavy_prefixes, heavy_names, expected",
    [
        (
            "repro.experiments.runner",
            ("repro.serving", "repro.durability", "repro.engine"),
            ("sqlite3", "asyncio", "socket"),
            "repro.experiments.grid",
        ),
        # the event loop stays inside the gateway subpackage
        (
            "repro.serving",
            ("repro.serving.gateway",),
            ("asyncio",),
            "repro.serving.service",
        ),
    ],
    ids=["runner", "serving"],
)
def test_experiment_runner_loads_no_serving_stack(
    module, heavy_prefixes, heavy_names, expected
):
    probe = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    heavy = [
        name
        for name in loaded
        if name.startswith(heavy_prefixes) or name in heavy_names
    ]
    assert heavy == []
    assert expected in loaded
