"""Guard: no counter under ``src/repro`` outlives the run that advances it.

A run must depend only on its inputs: a second identical run in the same
interpreter gives the same bytes.  Request ids and default load-generator
names are numbered by the run's :class:`~repro.sim.Simulation`
(``sim.request_ids``, ``sim.client_ids``).  A counter held by a module or
a class would number a second run differently from the first.  The scan
fails on

* an ``itertools.count(...)`` call outside a function body (at module
  level or in a class body), and
* a ``global`` statement or an augmented assignment to a class
  attribute (``<Class>.<attr> += ...``).

Findings kept on purpose go in ``ALLOWED`` with the reason, and the list
must stay exact: an entry that no longer matches a finding fails too.
"""

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Process-wide run state kept on purpose: "path: statement" -> why.
ALLOWED = {}


def _count_names(tree):
    """The names ``itertools.count`` is reachable by in one module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "count"}
    return names


def _is_count(node, names):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in names
    return (
        isinstance(func, ast.Attribute) and func.attr == "count"
        and isinstance(func.value, ast.Name) and func.value.id == "itertools"
    )


def _outside_functions(body):
    """Every node under ``body`` that no function body encloses."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        yield from _outside_functions(ast.iter_child_nodes(node))


@cache
def _findings():
    """{"path: statement"} for every process-wide counter under ``SRC``."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    classes = {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = set()
    for path, tree in trees.items():
        where = path.relative_to(SRC)
        names = _count_names(tree)
        for node in _outside_functions(tree.body):
            if isinstance(node, ast.Call) and _is_count(node, names):
                found.add(f"{where}: {ast.unparse(node)}")
        for node in ast.walk(tree):
            class_write = (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id in classes
            )
            if class_write or isinstance(node, ast.Global):
                found.add(f"{where}: {ast.unparse(node)}")
    return frozenset(found)


def test_no_counter_outlives_its_run():
    kept = {finding for finding in _findings() if finding not in ALLOWED}
    assert not kept, f"process-wide run state (hold it on the Simulation): {sorted(kept)}"


def test_allowlist_holds_only_current_findings():
    stale = sorted(set(ALLOWED) - _findings())
    assert not stale, f"ALLOWED entries that no longer match a finding: {stale}"
