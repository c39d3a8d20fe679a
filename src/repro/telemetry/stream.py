"""Streaming telemetry: the hub's unsealed storage mode and its lifecycle.

:class:`StreamingTelemetry` is the :class:`~repro.telemetry.probes.Telemetry`
hub with bounded memory.  The base class's probes fill one pending
window of raw values; each time the simulation clock crosses a
``window_us`` boundary the window is appended to an on-disk JSONL stream
(the Prometheus-style collect/ingest split) and emptied, so resident
telemetry is O(windows retained), not O(requests).  ``finalized()``
seals the hub and folds the stream back into it, so every post-run
reader of ``cluster.telemetry`` works unchanged in both modes.  The
determinism contract with the buffered hub is stated beside the family
table in :mod:`repro.telemetry.probes`.

Stream version 1 is one JSON object per line: a ``header`` (``version``,
``window_us``, ``reservoir_size``); then, as they happened, ``w`` records
(``i``, ``start_us``, ``end_us`` and one key per non-empty family, in
table order) and ``open`` markers (``start``); then an ``end`` footer
with the ``windows`` and ``samples`` written, which the fold checks.
"""

from __future__ import annotations

import json
import os
import tempfile
from math import inf
from typing import Optional

from repro.telemetry.probes import COUNT, EVENTS, FAMILIES, Telemetry

#: Stream format version, recorded in the header.
STREAM_VERSION = 1


def _dumps(record: dict) -> str:
    # Compact separators; float repr round-trips every IEEE double
    # exactly, so the fold sees bit-equal values.
    return json.dumps(record, separators=(",", ":"))


def _raw_values(family, pending) -> int:
    """Raw values (not tallies) one family's pending container holds."""
    if family.kind == COUNT:
        return 0
    if family.kind == EVENTS:
        return len(pending)
    return sum(map(len, pending.values()))


class StreamingTelemetry(Telemetry):
    """Bounded-memory telemetry spilling windowed deltas to JSONL."""

    def __init__(
        self,
        reservoir_size: int = 100_000,
        window_us: float = 10_000.0,
        spill_path: Optional[str] = None,
    ):
        super().__init__(reservoir_size=reservoir_size)
        if not window_us > 0:
            raise ValueError(f"window_us must be positive: {window_us}")
        self.window_us = float(window_us)
        self._owns_spill = spill_path is None
        if spill_path is None:
            fd, path = tempfile.mkstemp(
                suffix=".jsonl", prefix="telemetry-stream-"
            )
            self.spill_path = path
            self._file = os.fdopen(fd, "w", encoding="utf-8")
        else:
            self.spill_path = str(spill_path)
            self._file = open(self.spill_path, "w", encoding="utf-8")
        self._file.write(_dumps({
            "t": "header",
            "version": STREAM_VERSION,
            "window_us": self.window_us,
            "reservoir_size": self.reservoir_size,
        }) + "\n")
        self._sealed = False
        # No window is pending, so the first probe rolls into its own.
        self._roll_at = -inf
        self._pending_index = 0  # set by _roll before anything is pending
        self._windows_flushed = 0
        self._samples_streamed = 0
        #: Most raw values one pending window held — the probe the
        #: bounded-memory regression test asserts on.  Pending only grows
        #: inside a window, so its peak is its size when flushed.
        self.high_water_samples = 0

    def _roll(self, now: float) -> None:
        """The clock left the pending window: flush it and start the one
        holding ``now``.  The simulation clock is monotone, so a flushed
        window never receives another sample."""
        self._flush()
        idx = int(now // self.window_us)
        if (idx + 1) * self.window_us <= now:
            # For widths that are not exactly representable the rounded
            # product can sit one ulp below the true edge; ``now`` in that
            # sliver belongs to the next window, as ``end_us`` will say.
            idx += 1
        self._pending_index = idx
        self._roll_at = (idx + 1) * self.window_us

    def _flush(self) -> None:
        """Append the pending window to the stream as one ``w`` record and
        empty it.  An empty window writes no record."""
        body = {}
        samples = 0
        for family in FAMILIES:
            pending = getattr(self, family.attr)
            if pending:
                samples += _raw_values(family, pending)
                if family.paired:  # {(a, b): leaf} -> {a: {b: leaf}}
                    nested: dict = {}
                    for (outer, inner), leaf in pending.items():
                        nested.setdefault(outer, {})[inner] = leaf
                    pending = nested
                body[family.wire] = pending
        if not body:
            return
        idx = self._pending_index
        self._file.write(_dumps({
            "t": "w",
            "i": idx,
            "start_us": idx * self.window_us,
            "end_us": (idx + 1) * self.window_us,
            **body,
        }) + "\n")
        self._windows_flushed += 1
        self._samples_streamed += samples
        self.high_water_samples = max(self.high_water_samples, samples)
        self._reset()

    def open_window(self, start: float) -> None:
        """Warm-up trim: flush what was recorded so far, then mark the
        stream so the fold discards it — everything recorded *before
        this call*, regardless of timestamp, exactly like the buffered
        ``open_window`` (a timestamp-based gate would misclassify samples
        stamped exactly ``start``)."""
        if not self._sealed:
            self._flush()
            self._roll_at = -inf
            self._file.write(_dumps({"t": "open", "start": start}) + "\n")
        super().open_window(start)

    def finalized(self) -> Telemetry:
        """Flush, footer, seal, and fold the stream back into ``self``.

        Returns ``self`` so existing post-run readers of
        ``cluster.telemetry`` see exactly the buffered structures.
        """
        if self._sealed:
            return self
        from repro.telemetry.aggregate import fold_into

        self._flush()
        self._file.write(_dumps({
            "t": "end",
            "windows": self._windows_flushed,
            "samples": self._samples_streamed,
        }) + "\n")
        self._file.close()
        self._sealed = True
        self._roll_at = inf
        fold_into(self, self.spill_path, self.reservoir_size)
        if self._owns_spill:
            os.unlink(self.spill_path)
        return self

    def close(self) -> None:
        """Idempotent cleanup for runs abandoned before ``finalized()``
        (a truncated stream: no footer, rejected by the aggregator)."""
        if not self._file.closed:
            self._file.close()
            if self._owns_spill and os.path.exists(self.spill_path):
                os.unlink(self.spill_path)

    def retained_samples(self) -> int:
        """Pending raw samples plus the bounded live tee; once sealed, the
        base accounting (which includes the tee) applies."""
        if self._sealed:
            return super().retained_samples()
        retained = sum(_raw_values(f, getattr(self, f.attr)) for f in FAMILIES)
        if self.windows is not None:
            retained += self.windows.retained_samples()
        return retained


__all__ = ["STREAM_VERSION", "StreamingTelemetry"]
