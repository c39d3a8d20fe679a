"""Post-mortem aggregation of a telemetry JSONL stream.

:func:`fold_stream` replays a stream written by
:class:`~repro.telemetry.stream.StreamingTelemetry` into a fresh
buffered :class:`~repro.telemetry.probes.Telemetry`, reproducing the
in-memory structures bit-for-bit (the determinism contract is stated in
:mod:`repro.telemetry.probes`; the record grammar in
:mod:`repro.telemetry.stream`).

Streams are validated structurally: a header must come first, every
line must parse, every family payload must have the shape its row of the
family table declares, and the ``end`` footer must be present with
matching window/sample counts — a truncated or tampered stream raises
:class:`StreamError` instead of folding to silently wrong aggregates.

Run as ``python -m repro.telemetry.aggregate STREAM`` to fold a stream
and print its summary JSON; exit code 2 flags a malformed stream.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.probes import COUNT, FAMILIES, SAMPLES, Family, Telemetry
from repro.telemetry.stream import STREAM_VERSION

#: Every key a ``w`` record may hold: its own four, then one per family.
_WINDOW_KEYS = {"t", "i", "start_us", "end_us"} | {f.wire for f in FAMILIES}


class StreamError(ValueError):
    """The stream is malformed, truncated, or fails integrity checks."""


def _records(stream) -> Iterator[Tuple[int, dict]]:
    """``(line number, record)`` for each line of an open stream."""
    for line_no, line in enumerate(stream, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise StreamError(f"line {line_no}: malformed JSON: {err}") from None
        if not isinstance(record, dict) or "t" not in record:
            raise StreamError(
                f"line {line_no}: record is not an object with a 't' kind"
            )
        yield line_no, record


def _numbers(values) -> bool:
    """True for a list of finite ints and floats (``true`` is not one)."""
    return (
        isinstance(values, list)
        and {*map(type, values)} <= {int, float}
        and all(map(math.isfinite, values))
    )


def _leaves(payload, depth: int, key: tuple = ()):
    """``(key tuple, leaf)`` under a payload nested ``depth`` objects deep."""
    if not depth:
        yield key, payload
    elif not isinstance(payload, dict):
        raise ValueError(f"expected an object, got {payload!r}")
    else:
        for name, inner in payload.items():
            yield from _leaves(inner, depth - 1, key + (name,))


def _replay(out: Telemetry, family: Family, key: tuple, leaf) -> int:
    """Check one leaf against its family's row and apply it to the sealed
    hub ``out``; returns the raw values it carried (what the footer's
    ``samples`` counts)."""
    if family.inner and key[-1] not in family.inner:
        raise ValueError(f"unknown {family.wire} kind {key[-1]!r}")
    held = getattr(out, family.attr)
    if family.kind == COUNT:
        if type(leaf) is not int:
            raise ValueError(f"count {leaf!r} is not an integer")
        if not key:
            setattr(out, family.attr, held + leaf)
            return 0
        for name in key[:-1]:  # a COUNT keeps the wire's nesting in the hub
            held = held.setdefault(name, Counter())
        held[key[-1]] += leaf
        return 0
    if not _numbers(leaf):
        raise ValueError(f"expected a list of finite numbers, got {leaf!r}")
    hub_key = key if family.paired else key[0]
    if family.kind == SAMPLES:
        # Samples re-enter the same seeded reservoir in record order.
        sink = held.get(hub_key)
        if sink is None:
            sink = held[hub_key] = LatencyHistogram(out.reservoir_size)
        sink.extend(leaf)
    else:
        counts = getattr(out, family.attr + "_counts")
        for us in leaf:
            # One addition per recorded value, in record order: float
            # addition is not associative, so folding a subtotal first
            # would drift from the buffered sum.
            held[hub_key] = held.get(hub_key, 0.0) + us
            counts[hub_key] += 1
    return len(leaf)


def _apply(out: Telemetry, record: dict) -> int:
    """Replay one ``open`` or ``w`` record; returns its raw values."""
    kind = record["t"]
    if kind == "open":
        if not _numbers([record.get("start")]):
            raise ValueError(f"'open' marker without a numeric start: {record}")
        out.open_window(float(record["start"]))
        return 0
    if kind != "w":
        raise ValueError(f"unknown record kind {kind!r}")
    stray = record.keys() - _WINDOW_KEYS
    if stray:
        raise ValueError(f"unknown family {min(stray)!r}")
    samples = 0
    for family in FAMILIES:
        if family.wire in record:
            try:
                for key, leaf in _leaves(record[family.wire], family.depth):
                    samples += _replay(out, family, key, leaf)
            except (ValueError, OverflowError) as err:  # isfinite(10**400)
                raise ValueError(f"{family.wire}: {err}") from None
    return samples


def fold_into(
    out: Telemetry, path: str, reservoir_size: Optional[int] = None
) -> Telemetry:
    """Replay one JSONL stream into the sealed, empty hub ``out``.

    The file is folded as it is read, a record at a time — never held
    whole — so the only thing checked late is that the ``end`` footer is
    the last record.
    """
    with open(path, "r", encoding="utf-8") as stream:
        records = _records(stream)
        _, header = next(records, (0, None))
        if header is None:
            raise StreamError("empty stream: missing header")
        if header["t"] != "header":
            raise StreamError(
                f"line 1: expected header record, got {header['t']!r}"
            )
        if header.get("version") != STREAM_VERSION:
            raise StreamError(
                f"line 1: unsupported stream version: {header.get('version')!r}"
            )
        if reservoir_size is None:
            reservoir_size = header.get("reservoir_size")
            if type(reservoir_size) is not int or reservoir_size <= 0:
                raise StreamError(
                    "line 1: header without a positive integer "
                    f"reservoir_size: {reservoir_size!r}"
                )
        out.reservoir_size = reservoir_size
        footer, footer_line = None, 0
        windows_seen = samples_seen = 0
        for line_no, record in records:
            if footer is not None:
                raise StreamError(
                    f"line {footer_line}: 'end' footer before the last line"
                )
            if record["t"] == "end":
                footer, footer_line = record, line_no
                continue
            try:
                samples_seen += _apply(out, record)
            except ValueError as err:
                raise StreamError(f"line {line_no}: {err}") from None
            if record["t"] == "w":
                windows_seen += 1
    if footer is None:
        raise StreamError(
            "truncated stream: missing 'end' footer (the run did not "
            "reach finalized())"
        )
    for field, seen in (("windows", windows_seen), ("samples", samples_seen)):
        if footer.get(field) != seen:
            raise StreamError(
                f"integrity: footer says {footer.get(field)} {field}, "
                f"stream holds {seen}"
            )
    return out


def fold_stream(
    path: str, reservoir_size: Optional[int] = None
) -> Telemetry:
    """Fold one JSONL stream back into a buffered :class:`Telemetry`.

    ``reservoir_size`` overrides the header's recorded size (callers
    replaying into a differently-sized reservoir lose bit-identity, so
    the default — the header value — is almost always right).
    """
    return fold_into(Telemetry(), path, reservoir_size)


def summarize(telemetry: Telemetry) -> Dict[str, object]:
    """A JSON-ready whole-run summary of a folded stream, keyed by hub
    attribute: counts as they are, a percentile summary per histogram,
    pair keys joined as ``machine:kind``."""
    summary: Dict[str, object] = {"window_start": telemetry.window_start}
    for family in FAMILIES:
        held = getattr(telemetry, family.attr)
        if family.depth == 2 and not family.paired:
            held = {
                name: dict(sorted(inner.items()))
                for name, inner in sorted(held.items())
            }
        elif family.depth:
            held = {
                ":".join(key) if family.paired else key:
                    leaf.summary() if family.kind == SAMPLES else leaf
                for key, leaf in sorted(held.items())
            }
        summary[family.attr] = held
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.aggregate",
        description="Fold a streaming-telemetry JSONL stream into the "
        "whole-run summary the buffered pipeline would have produced.",
    )
    parser.add_argument("stream", help="path to the JSONL telemetry stream")
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the summary JSON here instead of stdout",
    )
    args = parser.parse_args(argv)
    try:
        telemetry = fold_stream(args.stream)
    except OSError as err:
        print(f"aggregate: error: cannot read {args.stream}: {err}")
        return 2
    except StreamError as err:
        print(f"aggregate: error: {args.stream}: {err}")
        return 2
    text = json.dumps(summarize(telemetry), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text + "\n")
        print(f"folded {args.stream} -> {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    import sys

    sys.exit(main())


__all__ = ["StreamError", "fold_into", "fold_stream", "main", "summarize"]
