"""In-simulator observability, mirroring the paper's measurement tooling.

The paper instruments its testbed with eBPF tools (``syscount``,
``runqlat``, ``hardirqs``, ``softirqs``, ``tcpretrans``), ``perf`` context-
switch counts, and Intel HITM PEBS events.  Each probe family of the
:class:`Telemetry` hub measures the same quantity at the equivalent place
in the simulated kernel; the families and the tool each mirrors are one
table, :data:`repro.telemetry.probes.FAMILIES` (DESIGN.md §13).

:class:`TelemetryConfig` selects how the hub stores what the probes
write: buffered aggregates in memory (the default), while
:class:`StreamingTelemetry` keeps one window of raw values, spills it to
a JSONL stream and folds the stream back post-mortem
(:func:`fold_stream`) — bit-identical aggregates at O(windows retained)
resident memory.
"""

from repro.telemetry.aggregate import StreamError, fold_stream
from repro.telemetry.config import TELEMETRY_MODES, TelemetryConfig
from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.probes import IRQ_KINDS, Telemetry
from repro.telemetry.stream import StreamingTelemetry
from repro.telemetry.windows import MetricWindow, WindowedMetrics

__all__ = [
    "IRQ_KINDS",
    "LatencyHistogram",
    "MetricWindow",
    "StreamError",
    "StreamingTelemetry",
    "TELEMETRY_MODES",
    "Telemetry",
    "TelemetryConfig",
    "WindowedMetrics",
    "fold_stream",
]
