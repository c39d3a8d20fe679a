"""Dead-telemetry guard: every series the hub is asked to keep has a reader.

A ``telemetry.record(name, ...)`` or ``telemetry.incr(name, ...)`` call
under ``src/repro`` writes a histogram or counter series that the run
carries to its end, in memory or in the spill stream.  The series' name —
a string literal, the literal head of an f-string (``"midtier_latency:"``
for ``f"midtier_latency:{name}"``) or a module-level string constant —
must appear somewhere other than its write sites: in ``src/repro``,
``tests``, ``examples`` or ``benchmarks``.  A series nothing names is
recorded on every run and read by no one; it gets a reader or is deleted.

One level up, every probe family (a row of
``repro.telemetry.probes.FAMILIES``) must have a writer: a public
``Telemetry`` method that stores into the family is called somewhere
under ``src/repro`` outside ``probes.py``.  A family nothing writes is
still reset, flushed, folded and summarized on every run.
"""

import ast
from collections import defaultdict
from pathlib import Path

from repro.telemetry.probes import FAMILIES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SEARCHED = [SRC, ROOT / "tests", ROOT / "examples", ROOT / "benchmarks"]
WRITERS = {"record", "incr"}
PROBES = SRC / "telemetry" / "probes.py"


def _is_telemetry(node) -> bool:
    """True for ``telemetry`` and ``<anything>.telemetry`` receivers."""
    return (isinstance(node, ast.Name) and node.id == "telemetry") or (
        isinstance(node, ast.Attribute) and node.attr == "telemetry"
    )


def _constants(tree):
    """Module-level ``NAME = "text"`` assignments: name -> (text, line)."""
    out = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = (node.value.value, node.lineno)
    return out


def _series_writes():
    """({names of a series: {(path, line) of a write or of its constant's
    definition}}, [unresolvable write sites])."""
    writes = defaultdict(set)
    unresolved = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        constants = _constants(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in WRITERS
                and _is_telemetry(node.func.value)
                and node.args
            ):
                continue
            arg = node.args[0]
            # Every line of the call: its name may sit below the callee.
            sites = {(path, n) for n in range(node.lineno, node.end_lineno + 1)}
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                writes[(arg.value,)].update(sites)
            elif (
                isinstance(arg, ast.JoinedStr)
                and arg.values
                and isinstance(arg.values[0], ast.Constant)
            ):
                writes[(arg.values[0].value,)].update(sites)
            elif isinstance(arg, ast.Name) and arg.id in constants:
                # A reader may name the constant or its text.
                text, defined = constants[arg.id]
                writes[(arg.id, text)].update(sites | {(path, defined)})
            else:
                unresolved.append(_where((path, node.lineno)))
    return writes, unresolved


def _where(site) -> str:
    path, line = site
    return f"{path.relative_to(ROOT)}:{line}"


def _searched_lines():
    """Every (path, line number, text) of the searched trees but this file."""
    own = Path(__file__).resolve()
    return [
        (path, number, text)
        for root in SEARCHED
        for path in sorted(root.rglob("*.py"))
        if path.resolve() != own
        for number, text in enumerate(path.read_text().splitlines(), 1)
    ]


def test_every_series_name_is_resolvable():
    _, unresolved = _series_writes()
    assert not unresolved, (
        "series written under a name this guard cannot read (use a literal, "
        f"an f-string with a literal head, or a module constant): {unresolved}"
    )


def test_every_recorded_series_is_read():
    writes, _ = _series_writes()
    lines = _searched_lines()
    unread = {
        names[-1]: _where(min(sites))
        for names, sites in sorted(writes.items())
        if not any(
            name in text and (path, number) not in sites
            for name in names
            for path, number, text in lines
        )
    }
    assert not unread, f"series recorded under src/repro that nothing reads: {unread}"


def _self_attr(node):
    """``X`` for ``self.X`` (or ``self.X[...]``), else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _family_probes():
    """{hub attribute: public ``Telemetry`` methods that store into it}."""
    tree = ast.parse(PROBES.read_text())
    hub = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Telemetry"
    )
    probes = defaultdict(set)
    for method in hub.body:
        if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                stored = [_self_attr(target) for target in node.targets]
            elif isinstance(node, ast.AugAssign):
                stored = [_self_attr(node.target)]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"append", "extend", "setdefault"}
            ):
                stored = [_self_attr(node.func.value)]
            else:
                continue
            for attr in filter(None, stored):
                probes[attr].add(method.name)
    return probes


def _called_outside_probes():
    """Names of the methods called under ``src/repro`` outside ``probes.py``."""
    return {
        node.func.attr
        for path in sorted(SRC.rglob("*.py"))
        if path != PROBES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def test_every_probe_family_has_a_writer():
    probes = _family_probes()
    called = _called_outside_probes()
    unwritten = {
        family.attr: sorted(probes[family.attr])
        for family in FAMILIES
        if not probes[family.attr] & called
    }
    assert not unwritten, (
        f"probe families no code under src/repro writes (family: its probes): {unwritten}"
    )
