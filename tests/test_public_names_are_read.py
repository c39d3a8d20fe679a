"""Dead-code guard: every public top-level name under ``src/repro`` is read.

A public (no leading underscore) top-level ``def`` or ``class`` that no
file under ``src/repro`` names, apart from its own definition line, is
code nothing in the package runs: it is exercised, at most, by a test
written for it.  Such a name either gets a reader or is deleted.  The few
kept on purpose are listed in ``ALLOWED`` with the reason, and the list
must stay exact: an entry whose name gains a reader under ``src/repro``,
or is no longer defined, fails too.
"""

import ast
import re
from collections import Counter
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
}

_WORD = re.compile(r"\w+")


def _unread():
    """({unread name: "path:line"}, every public top-level name)."""
    where = {}
    own = Counter()  # a name's occurrences on its definition lines
    words = Counter()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        words.update(_WORD.findall(text))
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    where[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
                    own[node.name] += _WORD.findall(lines[node.lineno - 1]).count(node.name)
    unread = {name: at for name, at in where.items() if words[name] == own[name]}
    return unread, set(where)


def test_every_public_top_level_name_is_read_under_src():
    unread, _ = _unread()
    dead = {name: where for name, where in unread.items() if name not in ALLOWED}
    assert not dead, f"named nowhere under src/repro but their definition: {dead}"


def test_allowlist_holds_only_defined_unread_names():
    unread, defined = _unread()
    stale = sorted(name for name in ALLOWED if name not in defined or name not in unread)
    assert not stale, f"ALLOWED entries that are read under src/repro or gone: {stale}"
