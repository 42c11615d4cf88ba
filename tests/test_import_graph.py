"""The ``repro.<package>`` import graph is acyclic, and the simulation
kernel imports nothing of the project outside ``repro.sim``.

Every import statement counts, function-level ones included: a lazy
import still couples the packages.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _package_graph():
    graph = {}
    for path in ROOT.rglob("*.py"):
        parts = path.relative_to(ROOT).parts
        if len(parts) == 1:
            continue  # repro/__init__.py and friends sit above the packages
        deps = graph.setdefault(parts[0], set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            deps.update(name.split(".")[1] for name in names
                        if name.startswith("repro."))
        deps.discard(parts[0])
    return graph


def test_package_graph_is_acyclic():
    graph = _package_graph()
    done, on_path = set(), []

    def visit(pkg):
        assert pkg not in on_path, \
            f"import cycle: {' -> '.join(on_path[on_path.index(pkg):])} -> {pkg}"
        if pkg in done:
            return
        on_path.append(pkg)
        for dep in sorted(graph.get(pkg, ())):
            visit(dep)
        on_path.pop()
        done.add(pkg)

    for pkg in sorted(graph):
        visit(pkg)


def test_kernel_imports_nothing_outside_itself():
    assert _package_graph()["sim"] == set()
