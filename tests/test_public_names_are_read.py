"""Dead-code guard: every public top-level name and method under ``src/repro`` is read.

A public (no leading underscore) top-level ``def`` or ``class``, or a
public method of a top-level class, that no code under ``src/repro``
names is code nothing in the package runs: it is exercised, at most, by
a test written for it.  Such a name either gets a reader or is deleted.

A read is an identifier in code: a name (``attribute(...)``) or an
attribute (``policy.decide``).  Mentions that run nothing do not count:
definition lines, docstrings and comments, the string entries of
``__all__`` and of ``repro._EXPORTS``, and ``from ... import`` lines,
such as a package ``__init__.py``'s re-exports (a name re-exported and
never called is still dead).  Names are pooled across the package.  A
top-level name is read by either kind of identifier (``critpath.attribute``
reads it too); a method only by an attribute, so a local variable that
shares a method's name does not keep the method alive.

The few kept on purpose are listed in ``ALLOWED`` with the reason, and
the list must stay exact: an entry whose name gains a reader under
``src/repro``, or is no longer defined, fails too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Unread-under-src names kept on purpose: name -> why.
ALLOWED = {
    "adaptive_tracks_best": "§VII claim helper; benchmarks/test_ablation_adaptive.py asserts it",
    "inline_wins_at_low_load": (
        "§VII claim helper; benchmarks/test_ablation_inline_dispatch.py asserts it"
    ),
    "best_pool_size": "§VII claim helper; benchmarks/test_ablation_poolsize.py reports it",
    "compression_ratio": (
        "Set Algebra's posting-list codecs are measured by it in tests/test_compression.py"
    ),
    "tail_share_of": "benchmarks/test_fig15_18_overheads.py asserts the §VI tail shares with it",
    "dominant_syscall": "benchmarks/test_fig11_14_syscalls.py asserts the §VI syscall mix with it",
    "alive": "benchmarks/perf/micro.py checks no micro thread is left running",
    "Timeout": "benchmarks/perf/micro.py times the engine's process resume with it",
    "Process": "benchmarks/perf/micro.py times the engine's process resume with it",
    "merged_syscalls": "benchmarks/perf/endtoend.py reads the syscalls per query through it",
    "record_irq": (
        "benchmarks/perf/micro.py times the probe path with it; the simulator binds "
        "irq_recorder instead"
    ),
    "matching_documents": "examples/document_search.py checks answers against it",
    "intersect_skip": "examples/document_search.py compares it with the linear merge",
    "candidate_count": "examples/image_search_accuracy.py reports LSH candidates with it",
    "mark_leaf_down": "examples/kv_routing_failover.py fails a Router leaf with it",
    "mark_leaf_up": "examples/kv_routing_failover.py brings the Router leaf back with it",
    "inflight_keys": (
        "tests/test_midcache_properties.py observes that no single-flight key leaks"
    ),
    "backlog_depth": (
        "tests/test_loadbalance_drain.py observes the balancer's backlog during a drain"
    ),
    "broadcast": (
        "tests/test_kernel_invariants.py drives the futex wake-all path through it"
    ),
    "step": (
        "tests/test_sim_core.py observes the calendar's pop order and past-entry check "
        "one entry at a time"
    ),
    "events": (
        "ReplicaSecondsAccount's log; tests/test_control_properties.py checks the "
        "integral against a reference built from it"
    ),
    "expected_sent": (
        "tests/test_loadgen_traffic.py gates a variable-rate generator's sent count "
        "against it"
    ),
    "ok": "tests/test_sim_core.py observes an event's success through it",
    "true_rating": (
        "tests/test_recommend.py measures the recommender's error against the planted "
        "ratings"
    ),
    "ConstantRate": (
        "tests/test_loadgen_traffic.py observes that a constant curve draws Poisson "
        "arrivals (KS test)"
    ),
    "split_node": (
        "graph granularity transform (repro._EXPORTS); tests/test_granularity.py "
        "observes that it conserves work per query"
    ),
    "monolith": (
        "graph granularity transform (repro._EXPORTS); tests/test_granularity.py "
        "observes that it conserves work per query and cores"
    ),
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """``(name, line, is_method)`` of each top-level def/class and each
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]):
                    yield item.name, item.lineno, True


def _reads(tree, names, attributes):
    """Add the identifiers the module's code reads to ``names`` (bare) and
    ``attributes``.  Imports are not reads: the importing module's use of
    the name is."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)


def _unread():
    """({unread public name: ("path:line", is_method)}, every public name)."""
    where = {}
    names, attributes = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for name, line, is_method in _definitions(tree):
            if not name.startswith("_"):
                where.setdefault(name, (f"{path.relative_to(SRC)}:{line}", is_method))
        _reads(tree, names, attributes)
    unread = {
        name: (at, is_method)
        for name, (at, is_method) in where.items()
        if name not in attributes and (is_method or name not in names)
    }
    return unread, set(where)


def _dead(methods):
    unread, _ = _unread()
    return {
        name: where
        for name, (where, is_method) in unread.items()
        if is_method == methods and name not in ALLOWED
    }


def test_every_public_top_level_name_is_read_under_src():
    dead = _dead(methods=False)
    assert not dead, f"named nowhere under src/repro but their definition: {dead}"


def test_every_public_method_is_read_under_src():
    dead = _dead(methods=True)
    assert not dead, f"methods no code under src/repro reads: {dead}"


def test_allowlist_holds_only_defined_unread_names():
    unread, defined = _unread()
    stale = sorted(name for name in ALLOWED if name not in defined or name not in unread)
    assert not stale, f"ALLOWED entries that are read under src/repro or gone: {stale}"
