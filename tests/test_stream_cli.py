"""The stream aggregator CLI must reject bad streams loudly (exit 2).

A truncated or tampered spill stream folding into silently wrong
aggregates would defeat the whole determinism contract, so
``python -m repro.telemetry.aggregate`` validates structure and
integrity counts before trusting a single record.

The second half pins the stream itself, driven by the family table
(``repro.telemetry.probes.FAMILIES``): every family round-trips through
its one public probe, ``open_window`` empties every family in both
storage modes, and the version-1 bytes of a scripted run are literal.
"""

import json

import pytest

from repro.telemetry import LatencyHistogram, StreamingTelemetry, Telemetry, fold_stream
from repro.telemetry.aggregate import main
from repro.telemetry.probes import FAMILIES
from repro.telemetry.stream import STREAM_VERSION


def _valid_stream(tmp_path, name="stream.jsonl"):
    spill = tmp_path / name
    streaming = StreamingTelemetry(window_us=100.0, spill_path=str(spill))
    clock = {"now": 0.0}
    streaming.attach_clock(lambda: clock["now"])
    for i in range(30):
        clock["now"] = i * 40.0
        streaming.record("e2e_latency", float(i))
        streaming.count_syscall("mid", "futex")
    streaming.finalized()
    return spill


def test_happy_path_exit_zero_and_summary(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    assert main([str(spill)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["histograms"]["e2e_latency"]["count"] == 30
    assert summary["syscalls"]["mid"]["futex"] == 30


def test_output_flag_writes_summary_file(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    out = tmp_path / "summary.json"
    assert main([str(spill), "--output", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads(out.read_text())
    assert summary["histograms"]["e2e_latency"]["count"] == 30


def _expect_reject(path, capsys, needle):
    assert main([str(path)]) == 2
    assert needle in capsys.readouterr().out


def test_unreadable_path_exit_two(tmp_path, capsys):
    _expect_reject(tmp_path / "nope.jsonl", capsys, "cannot read")


def test_empty_stream_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    _expect_reject(empty, capsys, "missing header")


def test_malformed_json_line_rejected(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    lines[1] = lines[1][:-5] + "{oops"
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, "malformed JSON")


def test_missing_header_rejected(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    spill.write_text("\n".join(lines[1:]) + "\n")
    _expect_reject(spill, capsys, "expected header")


def test_wrong_version_rejected(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = STREAM_VERSION + 1
    lines[0] = json.dumps(header, separators=(",", ":"))
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, "unsupported stream version")


def test_truncated_stream_rejected(tmp_path, capsys):
    # Chop the 'end' footer: the run never reached finalized(), so the
    # stream must not fold to a silently partial summary.
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    assert json.loads(lines[-1])["t"] == "end"
    spill.write_text("\n".join(lines[:-1]) + "\n")
    _expect_reject(spill, capsys, "truncated stream")


@pytest.mark.parametrize("field", ["windows", "samples"])
def test_tampered_integrity_counts_rejected(tmp_path, capsys, field):
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    footer = json.loads(lines[-1])
    footer[field] += 1
    lines[-1] = json.dumps(footer, separators=(",", ":"))
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, "integrity")


def test_dropped_window_record_rejected(tmp_path, capsys):
    # Deleting one window record mid-stream breaks the footer counts.
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    kills = [i for i, line in enumerate(lines)
             if json.loads(line)["t"] == "w"]
    del lines[kills[len(kills) // 2]]
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, "integrity")


def test_unknown_record_kind_rejected(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    lines.insert(2, json.dumps({"t": "mystery"}, separators=(",", ":")))
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, "unknown record kind")


def _edit_header(lines):
    header = json.loads(lines[0])
    del header["reservoir_size"]
    lines[0] = json.dumps(header)


def _edit_window(**payload):
    def edit(lines):
        assert json.loads(lines[1])["t"] == "w"
        lines[1] = json.dumps({**json.loads(lines[1]), **payload})
    return edit


MALFORMED = [
    (_edit_header, "line 1: header without a positive integer reservoir_size"),
    (lambda lines: lines.insert(2, '{"t":"open"}'), "line 3: 'open' marker"),
    (_edit_window(runqlat=5), "line 2: runqlat: expected an object"),
    (_edit_window(syscalls=[1]), "line 2: syscalls: expected an object"),
    (_edit_window(hist={"h": ["x", "y"]}), "line 2: hist: expected a list of finite"),
    (_edit_window(hist={"h": [float("nan")]}), "line 2: hist: expected a list of finite"),
    (_edit_window(ctx={"mid": 1.5}), "line 2: ctx: count 1.5 is not an integer"),
    (_edit_window(irq={"mid": {"nmi": [1.0]}}), "line 2: irq: unknown irq kind 'nmi'"),
    (_edit_window(events=[[1.0]]), "line 2: events: expected [time, label] pairs"),
    (_edit_window(mystery={}), "line 2: unknown family 'mystery'"),
]


@pytest.mark.parametrize(
    "edit, needle", MALFORMED, ids=[needle for _, needle in MALFORMED]
)
def test_malformed_shapes_rejected_by_line(tmp_path, capsys, edit, needle):
    # One generic shape check per family row: an object nested to the
    # family's depth, integer counts, finite numeric samples, no key
    # outside the table.  Each used to be a bare KeyError/AttributeError
    # traceback (or, for the string samples, a silent fold).
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    edit(lines)
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, needle)


def test_footer_before_last_line_rejected(tmp_path, capsys):
    spill = _valid_stream(tmp_path)
    lines = spill.read_text().splitlines()
    lines.insert(2, lines[-1])
    spill.write_text("\n".join(lines) + "\n")
    _expect_reject(spill, capsys, "line 3: 'end' footer before the last line")


# -- the family table drives the stream --------------------------------------

#: The one public probe that writes each family (``attr`` -> call).
PROBE = {
    "syscalls": lambda t: t.count_syscall("mid", "futex"),
    "runqlat": lambda t: t.record_runqlat("mid", 3.25),
    "irq_latency": lambda t: t.record_irq("mid", "net_rx", 4.0),
    "context_switches": lambda t: t.count_context_switch("mid"),
    "hitm": lambda t: t.count_hitm("mid", 2),
    "hitm_remote": lambda t: t.count_hitm("leaf0", 3, remote=True),
    "retransmissions": lambda t: t.count_retransmission(),
    "futex_contended_wakes": lambda t: t.count_contended_wake("mid"),
    "attributed": lambda t: t.record_attributed("mid", "active_exe", 0.1),
    "histograms": lambda t: t.record("e2e_latency", 250.0),
    "counters": lambda t: t.incr("queries", 2),
    "events": lambda t: t.mark("checkpoint"),
}


def _plain(value):
    """A family container in comparable form (histograms by content)."""
    if isinstance(value, LatencyHistogram):
        return (value.count, value.total, value.min, value.max, value.samples())
    if isinstance(value, dict):
        return {key: _plain(inner) for key, inner in value.items()}
    return value


def test_every_family_has_a_probe_row():
    assert set(PROBE) == {family.attr for family in FAMILIES}
    assert len({family.wire for family in FAMILIES}) == len(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.attr)
def test_one_sample_per_family_folds_equal(family, tmp_path):
    buffered = Telemetry()
    PROBE[family.attr](buffered)
    expected = _plain(getattr(buffered, family.attr))
    assert expected  # the probe wrote this family

    spill = tmp_path / "one.jsonl"
    streaming = StreamingTelemetry(spill_path=str(spill))
    PROBE[family.attr](streaming)
    assert _plain(getattr(streaming.finalized(), family.attr)) == expected
    assert _plain(getattr(fold_stream(str(spill)), family.attr)) == expected
    window = json.loads(spill.read_text().splitlines()[1])
    assert family.wire in window


@pytest.mark.parametrize("make", [Telemetry, StreamingTelemetry])
def test_open_window_leaves_every_family_empty(make):
    telemetry = make()
    try:
        for probe in PROBE.values():
            probe(telemetry)
        telemetry.open_window(0.0)
        live = {f.attr: getattr(telemetry, f.attr) for f in FAMILIES}
        assert not any(live.values()), live
        assert not telemetry.attributed_counts
        folded = telemetry.finalized()
        assert not any(getattr(folded, f.attr) for f in FAMILIES)
    finally:
        telemetry.close()


#: Stream version 1, byte for byte, captured from the commit before the
#: family table existed: header fields, ``w`` key order, families nested
#: in first-seen order, the ``open`` marker after the flushed warm-up
#: window, no record for the empty window 3, footer counts.
PINNED_STREAM = """\
{"t":"header","version":1,"window_us":100.0,"reservoir_size":64}
{"t":"w","i":0,"start_us":0.0,"end_us":100.0,"syscalls":{"mid":{"futex":1}},"hist":{"e2e_latency":[1.5]}}
{"t":"w","i":1,"start_us":100.0,"end_us":200.0,"runqlat":{"mid":[2.0]}}
{"t":"open","start":150.0}
{"t":"w","i":1,"start_us":100.0,"end_us":200.0,"syscalls":{"mid":{"epoll_wait":2},"leaf0":{"futex":1}},"runqlat":{"mid":[3.25],"leaf0":[0.5]},"irq":{"mid":{"net_rx":[4.0],"hardirq":[1.0]},"leaf0":{"net_rx":[2.0]}},"ctx":{"mid":1},"hitm":{"mid":2,"leaf0":3},"hitm_remote":{"leaf0":3},"retrans":1,"futex":{"mid":1},"attributed":{"mid":{"active_exe":[0.1,0.2]},"leaf0":{"net":[7.0]}}}
{"t":"w","i":2,"start_us":200.0,"end_us":300.0,"hist":{"e2e_latency":[250.0],"batch_occupancy:mid":[3]},"counters":{"queries":2},"events":[[205.0,"checkpoint"]]}
{"t":"w","i":4,"start_us":400.0,"end_us":500.0,"counters":{"queries":1}}
{"t":"end","windows":5,"samples":13}
"""


def test_stream_v1_wire_format_is_pinned(tmp_path):
    spill = tmp_path / "pinned.jsonl"
    t = StreamingTelemetry(reservoir_size=64, window_us=100.0, spill_path=str(spill))
    clock = {"now": 10.0}
    t.attach_clock(lambda: clock["now"])
    t.count_syscall("mid", "futex")
    t.record("e2e_latency", 1.5)
    clock["now"] = 120.0
    t.record_runqlat("mid", 2.0)
    clock["now"] = 150.0
    t.open_window(150.0)  # warm-up ends mid-window: window 1 is split
    t.count_syscall("mid", "epoll_wait")
    t.count_syscall("leaf0", "futex")
    t.count_syscall("mid", "epoll_wait")
    t.record_runqlat("mid", 3.25)
    t.record_runqlat("leaf0", 0.5)
    t.record_irq("mid", "net_rx", 4.0)
    t.record_irq("leaf0", "net_rx", 2.0)
    t.record_irq("mid", "hardirq", 1.0)
    t.count_context_switch("mid")
    t.count_hitm("mid", 2)
    t.count_hitm("leaf0", 3, remote=True)
    t.count_retransmission()
    t.count_contended_wake("mid")
    t.record_attributed("mid", "active_exe", 0.1)
    t.record_attributed("leaf0", "net", 7.0)
    t.record_attributed("mid", "active_exe", 0.2)
    clock["now"] = 205.0
    t.record("e2e_latency", 250.0)
    t.record("batch_occupancy:mid", 3)  # an integer sample stays one
    t.incr("queries", 2)
    t.mark("checkpoint")
    clock["now"] = 450.0
    t.incr("queries")
    t.finalized()
    assert spill.read_text() == PINNED_STREAM
