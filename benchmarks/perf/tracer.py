"""Pass 3: one profiled rep per workload, for per-layer self time.

The hook is installed from here with ``sys.setprofile`` — nothing under
``src/`` is edited.  Every function belongs to a bucket (its package
under ``src/repro``; ``kernel``, ``rpc`` and ``telemetry`` split by
module; builtins, numpy and everything else are ``host.other``).  A span
opens whenever a call crosses from one bucket into another and closes
when that call returns, so at every instant exactly one span is
innermost and its bucket owns the time: a bucket's self time is its
spans' duration minus the part their child spans cover, and the shares
sum to one by construction.

Spans of one engine event share the event's dispatch sequence number
(host work is per event; attributing host time to a *request* needs
tracing inside the program and is left to a later change).  Aggregates
cover every dispatch; full spans are kept in memory for the first
``DETAIL_DISPATCHES`` dispatches after the measured window opens and
written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import repro
from benchmarks.perf.endtoend import run_rep
from benchmarks.perf.metrics import (
    BUCKETS,
    HOST_BUCKET,
    PACKAGES,
    SPLIT_MODULES,
    summarize,
    trace_metric_units,
)
from repro.sim import Simulation
from repro.telemetry import StreamingTelemetry, Telemetry

DETAIL_DISPATCHES = 2000

_SRC_ROOT = Path(repro.__file__).resolve().parent
_BUCKET_INDEX = {name: i for i, name in enumerate(BUCKETS)}
_HOST = _BUCKET_INDEX[HOST_BUCKET]
_PACKAGE_OF = [name.split(".")[0] for name in BUCKETS]

_RUN_CODE = Simulation.run.__code__
_WINDOW_CODES = frozenset(
    (Telemetry.open_window.__code__, StreamingTelemetry.open_window.__code__)
)


def bucket_of_file(filename: str) -> int:
    """Bucket index for a source file (``host.other`` outside the repo)."""
    try:
        parts = Path(filename).resolve().relative_to(_SRC_ROOT).with_suffix("").parts
    except ValueError:
        return _HOST
    package = parts[0]
    if package not in PACKAGES:
        return _HOST
    split = SPLIT_MODULES.get(package)
    if split is None:
        return _BUCKET_INDEX[package]
    module = parts[1] if len(parts) > 1 else ""
    return _BUCKET_INDEX[f"{package}.{module if module in split else 'other'}"]


class BoundaryTracer:
    """A ``sys.setprofile`` hook recording spans at bucket boundaries."""

    def __init__(self) -> None:
        self.self_s: List[float] = [0.0] * len(BUCKETS)
        # Boundary crossings into each package from another one.
        self.package_entries: Dict[str, int] = {p: 0 for p in PACKAGES}
        self.dispatch_s: List[float] = []
        self.spans: List[list] = []
        self.traced_s = 0.0
        self._hook = self._make_hook()

    def run(self, fn: Callable):
        """Call ``fn()`` under the hook and return its result."""
        self._start()
        sys.setprofile(self._hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            self._close()

    def _make_hook(self):
        perf = time.perf_counter
        self_s = self.self_s
        package_entries = self.package_entries
        package_of = _PACKAGE_OF
        dispatch_s = self.dispatch_s
        spans = self.spans
        code_bucket: Dict[object, int] = {}
        host = _HOST
        run_code = _RUN_CODE
        window_codes = _WINDOW_CODES

        # Bucket in force before each open call (Python and C alike).
        stack: List[int] = []
        # Span id in force before each open *span* (boundary calls only).
        span_stack: List[int] = []
        cur = host
        cur_span = -1
        origin = last = 0.0  # set by start()
        dispatch_depth = -1
        dispatch_seq = 0
        dispatch_t0 = 0.0
        # Dispatch number at which full-span capture stops; 0 = not yet
        # armed (the window has not opened), -1 = finished.
        detail_until = 0

        def enter(bucket: int, callee) -> None:
            nonlocal cur, cur_span, last
            now = perf()
            self_s[cur] += now - last
            last = now
            if package_of[bucket] != package_of[cur]:
                package = package_of[bucket]
                if package in package_entries:
                    package_entries[package] += 1
            cur = bucket
            if 0 < detail_until and dispatch_seq <= detail_until:
                span_stack.append(cur_span)
                spans.append([
                    len(spans), cur_span, BUCKETS[bucket], _describe(callee),
                    now - origin, None, dispatch_seq,
                ])
                cur_span = len(spans) - 1
            else:
                span_stack.append(-2)

        def leave(previous: int) -> None:
            nonlocal cur, cur_span, last
            now = perf()
            self_s[cur] += now - last
            last = now
            cur = previous
            parent = span_stack.pop()
            if parent != -2:
                spans[cur_span][5] = now - origin
                cur_span = parent

        def hook(frame, event, arg):
            nonlocal dispatch_depth, dispatch_seq, dispatch_t0, detail_until
            if event == "call":
                code = frame.f_code
                bucket = code_bucket.get(code)
                if bucket is None:
                    bucket = code_bucket[code] = bucket_of_file(code.co_filename)
                stack.append(cur)
                if len(stack) == dispatch_depth:
                    dispatch_seq += 1
                    dispatch_t0 = perf()
                    if dispatch_seq > detail_until > 0:
                        detail_until = -1
                if bucket != cur:
                    enter(bucket, code)
                    if code is run_code:
                        dispatch_depth = len(stack) + 1
                    elif code in window_codes and detail_until == 0:
                        detail_until = dispatch_seq + DETAIL_DISPATCHES
            elif event == "return":
                if not stack:
                    return  # a frame entered before the hook was installed
                if len(stack) == dispatch_depth:
                    dispatch_s.append(perf() - dispatch_t0)
                previous = stack.pop()
                if previous != cur:
                    leave(previous)
                    if frame.f_code is run_code:
                        # Calls at this depth outside the event loop (the
                        # fold, the drain bookkeeping) are not dispatches.
                        dispatch_depth = -1
            elif event == "c_call":
                stack.append(cur)
                if cur != host:
                    enter(host, arg)
            elif stack:  # c_return, c_exception
                previous = stack.pop()
                if previous != cur:
                    leave(previous)

        def start() -> None:
            nonlocal origin, last
            origin = last = perf()

        def close() -> None:
            now = perf()
            self_s[cur] += now - last
            self.traced_s = now - origin

        self._start = start
        self._close = close
        return hook

    # -- read-out ------------------------------------------------------------
    def shares(self) -> Dict[str, float]:
        total = sum(self.self_s)
        return {name: self.self_s[i] / total for i, name in enumerate(BUCKETS)}

    def write_spans(self, path: Path) -> None:
        """Spans as JSONL: id, parent, bucket, function, start, end (seconds
        from the start of the trace) and the dispatch they belong to."""
        keys = ("id", "parent", "bucket", "function", "start_s", "end_s", "dispatch")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _describe(callee) -> str:
    """Qualified name of a code object or of a builtin."""
    if hasattr(callee, "co_filename"):
        name = getattr(callee, "co_qualname", callee.co_name)
        return f"{Path(callee.co_filename).stem}.{name}"
    return getattr(callee, "__qualname__", repr(callee))


def trace_workload(workload, seed: int, cluster_seed: int, workdir: Path) -> dict:
    """One untraced and one traced rep at a third of the workload's size.

    Returns ``{"per_layer": {...}, "problems": [...]}``; the spans of the
    traced rep are written to ``workdir/trace-<workload>.jsonl``.
    """
    third = workload.sized(1.0 / 3.0)
    untraced = run_rep(third, seed, cluster_seed, workdir)
    tracer = BoundaryTracer()
    traced = run_rep(third, seed, cluster_seed, workdir, around_drive=tracer.run)
    tracer.write_spans(workdir / f"trace-{workload.name}.jsonl")

    answered = max(traced.drive.completed, 1)
    dispatch_us = sorted(1e6 * s for s in tracer.dispatch_s)
    values: Dict[str, float] = {
        f"trace.{bucket}.self_share": share
        for bucket, share in tracer.shares().items()
    }
    for package, entries in tracer.package_entries.items():
        values[f"trace.{package}.calls_per_query"] = entries / answered
    values["trace.dispatch_us_p50"] = dispatch_us[len(dispatch_us) // 2]
    values["trace.dispatch_us_p99"] = dispatch_us[len(dispatch_us) * 99 // 100]
    values["trace.overhead_ratio"] = (
        traced.wall_s_per_kquery / untraced.wall_s_per_kquery
    )
    per_layer = {}
    for name, (unit, exact) in trace_metric_units().items():
        per_layer[name] = summarize([values[name]], unit, exact)
        if name.startswith("trace.dispatch_us"):
            per_layer[name]["n"] = len(dispatch_us)

    problems = []
    if traced.digest != untraced.digest:
        problems.append("tracing changed the model outcome (digest differs)")
    accounted = sum(tracer.self_s) / tracer.traced_s
    if abs(accounted - 1.0) > 0.01:
        problems.append(f"trace self-time shares sum to {accounted:.4f}, not 1")
    if len(dispatch_us) != traced.drive.events:
        problems.append(
            f"tracer saw {len(dispatch_us)} dispatches, engine ran "
            f"{traced.drive.events} events"
        )
    return {"per_layer": per_layer, "problems": problems}
