"""The :class:`Telemetry` hub every simulated subsystem records into, and
the one table (:data:`FAMILIES`) naming the probe families it is made of.

Everything that walks "every family" — the hub's reset, the streaming
flush (:mod:`repro.telemetry.stream`), the stream fold and the summary
(:mod:`repro.telemetry.aggregate`) — is a loop over that table, and each
family is written by exactly one probe method below, in both storage
modes.

**Storage modes.**  A *sealed* hub (the buffered default) aggregates in
place: sample families feed one reservoir :class:`LatencyHistogram` per
key and ``attributed`` is a running float sum.  An *unsealed* hub
(:class:`~repro.telemetry.stream.StreamingTelemetry` until its
``finalized()``) holds one window of raw values in the same attributes —
a plain list per key — and flushes them to the spill stream whenever the
clock reaches ``_roll_at``; the fold replays the stream into sealed
structures.  Bit-identity between the two rests on:

* **Raw values, never subtotals.**  A window record carries every raw
  sample.  The fold re-adds ``attributed`` one float addition per
  recorded value and feeds histogram samples to the same seeded
  reservoir, both in record order, so sums and RNG draws repeat exactly.
* **Order preservation.**  The simulation clock is monotone: window *k*
  is flushed before any sample of window *k+1*, so concatenating the
  window lists is the original record order.  An empty pending window
  writes no record.
* **Marker-based warm-up trim.**  ``open_window`` flushes the pending
  window *then* writes an ``open`` marker; the fold resets at the
  marker, discarding what was recorded before the call whatever its
  timestamp, exactly like the sealed hub.  The windows tee sits before
  the warm-up gate in both modes (the controller must see warm-up load).

Writes after ``finalized()`` land in the sealed structures.
"""

from __future__ import annotations

from collections import Counter
from math import inf
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.telemetry.histogram import LatencyHistogram

# Interrupt categories reported by the paper's Figs. 15-18, in their order.
IRQ_KINDS: Tuple[str, ...] = ("hardirq", "net_tx", "net_rx", "block", "sched", "rcu")

# Family kinds: what one leaf of a family's container is.
COUNT = "count"  # an integer tally
SAMPLES = "raw samples"  # latency samples (sealed: a LatencyHistogram)
SUM = "ordered float sum"  # addends are replayed one by one (sealed: a float)


class Family(NamedTuple):
    """One row of the probe vocabulary.

    ``depth`` is the number of string keys between the family and a
    leaf: 0 (one value per hub), 1 (per machine or name) or 2.  On the
    wire depth 2 is an object of objects; in the hub a COUNT keeps that
    nesting (``syscalls[machine][name]``) while SAMPLES and SUM key one
    flat dict by the pair (``irq_latency[machine, kind]``).
    """

    attr: str  # public hub attribute
    wire: str  # key inside a stream-v1 ``w`` record
    kind: str
    depth: int
    inner: Tuple[str, ...] = ()  # closed vocabulary of the last key, if any

    @property
    def paired(self) -> bool:
        """True when the hub keys this family by ``(outer, inner)`` tuples."""
        return self.depth == 2 and self.kind != COUNT

    def empty(self):
        """A fresh hub container for this family."""
        if self.kind == COUNT and self.depth < 2:
            return Counter() if self.depth else 0
        return {}


#: The probe vocabulary, in stream-v1 wire order.
FAMILIES: Tuple[Family, ...] = (
    Family("syscalls", "syscalls", COUNT, 2),  # eBPF syscount
    Family("runqlat", "runqlat", SAMPLES, 1),  # eBPF runqlat (Active→Exe)
    Family("irq_latency", "irq", SAMPLES, 2, IRQ_KINDS),  # hardirqs / softirqs
    Family("context_switches", "ctx", COUNT, 1),  # perf context switches
    Family("hitm", "hitm", COUNT, 1),  # Intel HITM PEBS
    # Cross-socket (UPI-hop) subset of the HITM events above.
    Family("hitm_remote", "hitm_remote", COUNT, 1),
    Family("retransmissions", "retrans", COUNT, 0),  # eBPF tcpretrans
    Family("futex_contended_wakes", "futex", COUNT, 1),  # wakes that found waiters
    # Microseconds stamped onto sampled traces per (machine, category) by
    # the critical-path instrumentation (repro.telemetry.critpath), at the
    # same sites as the trace segments, so aggregate cross-checks compare
    # against an exact-by-construction total.  The number of addends per
    # key sits beside it in ``attributed_counts``.
    Family("attributed", "attributed", SUM, 2),
    # Free-form extension points used by the RPC / loadgen layers.
    Family("histograms", "hist", SAMPLES, 1),
    Family("counters", "counters", COUNT, 1),
)


class RawSamples(list):
    """One window of raw samples for one key of an unsealed hub: a list
    (so it spills as a JSON array) that takes a histogram's ``record``."""

    __slots__ = ()
    record = list.append


class Telemetry:
    """Aggregates every probe for one simulation run.

    Counters and histograms are keyed by *machine name* so that experiments
    can isolate the mid-tier (the paper's object of study) from leaves.
    A ``window_start`` can be set after warm-up so that only steady-state
    activity is counted.  The public attributes are the ``attr`` column of
    :data:`FAMILIES`.
    """

    def __init__(self, reservoir_size: int = 100_000):
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        self.reservoir_size = reservoir_size
        self.window_start: float = 0.0
        self._clock = lambda: 0.0  # replaced via attach_clock
        self._sim = None  # fast clock: set when attach_clock receives a Simulation
        # Storage mode (module docstring).  This class is always sealed
        # and never rolls: the probes' ``now >= _roll_at`` is one float
        # compare that is never true, so ``_roll`` (StreamingTelemetry's)
        # is never looked up.
        self._sealed = True
        self._roll_at = inf
        self._reset()
        # Opt-in fixed-width metric windows (repro.telemetry.windows),
        # created by enable_windows() and fed the series named in
        # ``_teed`` only. None keeps the probe hot paths unchanged — the
        # off path is a single identity test.
        self.windows = None
        self._teed = set()
        self._irq_recorders: Dict[Tuple[str, str], Callable[[float], None]] = {}

    def _reset(self) -> None:
        """Empty every family: at construction, at the warm-up trim, and
        after a streamed window has been flushed."""
        for family in FAMILIES:
            setattr(self, family.attr, family.empty())
            if family.kind == SUM:
                setattr(self, family.attr + "_counts", Counter())

    def _new_sink(self):
        """A SAMPLES family's per-key container; both kinds take
        ``record(value)`` and ``extend(values)``."""
        if self._sealed:
            return LatencyHistogram(self.reservoir_size)
        return RawSamples()

    # -- wiring ----------------------------------------------------------
    def attach_clock(self, clock, sim=None) -> None:
        """Attach a zero-arg callable returning current simulation time.

        Passing the :class:`~repro.sim.core.Simulation` as ``sim`` lets the
        hot probes read the clock attribute directly instead of through a
        callable — probes fire once per scheduler event, so the indirection
        is measurable."""
        self._clock = clock
        self._sim = sim

    def enable_windows(self, width_us: float, series) -> None:
        """Tee the named ``record`` series into fixed-width metric windows:
        the ones a controller reads, nothing else.  A later call (another
        controlled tier on the cluster, same width) adds its series.

        Unlike the whole-run aggregates, the windows ignore
        ``window_start`` (controllers must see warm-up load) and survive
        :meth:`open_window`.  Both storage modes keep the last
        ``RETAIN_TEE_WINDOWS`` windows per series.
        """
        from repro.telemetry.windows import RETAIN_TEE_WINDOWS, WindowedMetrics

        if self.windows is None:
            self.windows = WindowedMetrics(
                width_us, retain_windows=RETAIN_TEE_WINDOWS
            )
        self._teed.update(series)

    def finalized(self) -> "Telemetry":
        """The telemetry to read whole-run summaries from: ``self``.  Run
        helpers call it unconditionally; only the streaming subclass does
        work here (fold the spill stream back into these structures)."""
        return self

    def close(self) -> None:
        """Release run-scoped resources (no-op for the buffered hub)."""

    def retained_samples(self) -> int:
        """Raw samples currently resident: histogram reservoirs and the
        windows tee.  This is the telemetry-internal high-water
        probe the bounded-memory regression test reads — deliberately
        not RSS, which a one-core runner cannot measure cleanly."""
        retained = sum(
            len(hist._samples)
            for family in FAMILIES if family.kind == SAMPLES
            for hist in getattr(self, family.attr).values()
        )
        if self.windows is not None:
            retained += self.windows.retained_samples()
        return retained

    def _recording(self) -> bool:
        """True when a probe firing now is inside the measurement window;
        an unsealed hub first rolls its pending window forward to now."""
        sim = self._sim
        now = sim._now if sim is not None else self._clock()
        if now < self.window_start:
            return False
        if now >= self._roll_at:
            self._roll(now)
        return True

    def open_window(self, start: float) -> None:
        """Discard everything recorded before ``start`` (warm-up trim)."""
        self.window_start = start
        self._reset()

    # -- kernel probes ----------------------------------------------------
    def count_syscall(self, machine: str, name: str) -> None:
        """eBPF ``syscount`` equivalent."""
        sim = self._sim
        now = sim._now if sim is not None else self._clock()
        if now < self.window_start:
            return
        if now >= self._roll_at:
            self._roll(now)
        per_machine = self.syscalls.get(machine)
        if per_machine is None:
            per_machine = Counter()
            self.syscalls[machine] = per_machine
        per_machine[name] += 1

    def record_runqlat(self, machine: str, latency_us: float) -> None:
        """eBPF ``runqlat`` equivalent: Active→Exe scheduler wait."""
        sim = self._sim
        now = sim._now if sim is not None else self._clock()
        if now < self.window_start:
            return
        if now >= self._roll_at:
            self._roll(now)
        sink = self.runqlat.get(machine)
        if sink is None:
            sink = self.runqlat[machine] = self._new_sink()
        sink.record(latency_us)

    def irq_recorder(self, machine: str, kind: str) -> Callable[[float], None]:
        """eBPF ``hardirqs``/``softirqs`` equivalent: the hub's one recorder
        for ``(machine, kind)``, made and its kind checked on first use, so
        an interrupt costs one call.  It looks the sink up per sample: the
        warm-up trim and a streamed flush replace the dict."""
        key = (machine, kind)
        record = self._irq_recorders.get(key)
        if record is not None:
            return record
        if kind not in IRQ_KINDS:
            raise ValueError(f"unknown irq kind: {kind}")

        def record(latency_us: float) -> None:
            sim = self._sim
            now = sim._now if sim is not None else self._clock()
            if now < self.window_start:
                return
            if now >= self._roll_at:
                self._roll(now)
            sink = self.irq_latency.get(key)
            if sink is None:
                sink = self.irq_latency[key] = self._new_sink()
            sink.record(latency_us)

        self._irq_recorders[key] = record
        return record

    def record_irq(self, machine: str, kind: str, latency_us: float) -> None:
        """One sample through :meth:`irq_recorder`'s recorder for the key."""
        record = self._irq_recorders.get((machine, kind)) or self.irq_recorder(machine, kind)
        record(latency_us)

    def count_context_switch(self, machine: str) -> None:
        """``perf`` context-switch count equivalent."""
        if self._recording():
            self.context_switches[machine] += 1

    def count_hitm(self, machine: str, n: int = 1, remote: bool = False) -> None:
        """Intel HITM PEBS equivalent: cross-core contended cacheline hits.

        ``remote`` marks cross-socket transfers (PEBS distinguishes local
        vs remote HITM); they count toward the total *and* the remote
        counter."""
        sim = self._sim
        now = sim._now if sim is not None else self._clock()
        if now >= self.window_start:
            if now >= self._roll_at:
                self._roll(now)
            self.hitm[machine] += n
            if remote:
                self.hitm_remote[machine] += n

    def count_retransmission(self) -> None:
        """eBPF ``tcpretrans`` equivalent."""
        if self._recording():
            self.retransmissions += 1

    def count_contended_wake(self, machine: str) -> None:
        """Futex wakes that found waiters (lock handoffs)."""
        if self._recording():
            self.futex_contended_wakes[machine] += 1

    def record_attributed(self, machine: str, category: str, us: float) -> None:
        """Count microseconds stamped onto a traced request's segments."""
        if not self._recording():
            return
        key = (machine, category)
        if self._sealed:
            self.attributed[key] = self.attributed.get(key, 0.0) + us
            self.attributed_counts[key] += 1
        else:  # keep the addends: the fold re-adds them one by one
            self.attributed.setdefault(key, []).append(us)

    # -- generic extension probes ----------------------------------------
    def hist(self, name: str) -> LatencyHistogram:
        """Named histogram, created on first use (e.g. e2e latency); on a
        streaming hub, read it after ``finalized()``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = self._new_sink()
        return hist

    def record(self, name: str, value: float) -> None:
        """Record into the named histogram if inside the window."""
        sim = self._sim
        now = sim._now if sim is not None else self._clock()
        if self.windows is not None and name in self._teed:
            self.windows.observe(name, now, value)
        if now >= self.window_start:
            if now >= self._roll_at:
                self._roll(now)
            sink = self.histograms.get(name)
            if sink is None:
                sink = self.histograms[name] = self._new_sink()
            sink.record(value)

    def incr(self, name: str, n: int = 1) -> None:
        """Increment a named counter if inside the window."""
        if self._recording():
            self.counters[name] += n

    # -- summaries ---------------------------------------------------------
    def syscall_counts(self, machine: str) -> Counter:
        """All syscall counts for a machine (empty Counter if none)."""
        return self.syscalls.get(machine, Counter())

    def irq_hist(self, machine: str, kind: str) -> LatencyHistogram:
        """IRQ latency histogram (empty if never recorded)."""
        return self.irq_latency.get((machine, kind), LatencyHistogram(1))

    def runqlat_hist(self, machine: str) -> LatencyHistogram:
        """Runqueue-wait histogram (empty if never recorded)."""
        return self.runqlat.get(machine, LatencyHistogram(1))

    def attributed_total(self, machine: str, category: str) -> float:
        """Microseconds stamped onto traces for one machine + category."""
        return self.attributed.get((machine, category), 0.0)

    # -- replica roll-ups (scale-out topologies) ---------------------------
    def merged_syscalls(self, machines: List[str]) -> Counter:
        """Syscall counts summed across the named machines."""
        merged: Counter = Counter()
        for name in machines:
            merged.update(self.syscalls.get(name, Counter()))
        return merged

    # -- batching / caching roll-ups (repro.rpc.batching, repro.midcache) --
    def cache_summary(self, machines: List[str]) -> Dict[str, float]:
        """Hit/miss/single-flight counters summed across mid-tier replicas."""
        hits = sum(self.counters.get(f"midcache_hits:{m}", 0) for m in machines)
        misses = sum(self.counters.get(f"midcache_misses:{m}", 0) for m in machines)
        lookups = hits + misses
        return {
            "hits": float(hits),
            "misses": float(misses),
            "lookups": float(lookups),
            "hit_rate": hits / lookups if lookups else 0.0,
            "coalesced": float(sum(
                self.counters.get(f"midcache_coalesced:{m}", 0) for m in machines
            )),
            "invalidations": float(sum(
                self.counters.get(f"midcache_invalidations:{m}", 0) for m in machines
            )),
        }

    def batch_summary(self, machines: List[str]) -> Dict[str, float]:
        """Coalescer counters + occupancy summed across mid-tier replicas."""
        batches = sum(self.counters.get(f"batches_sent:{m}", 0) for m in machines)
        subs = sum(
            self.counters.get(f"batched_subrequests:{m}", 0) for m in machines
        )
        occupancy = LatencyHistogram.merged([
            self.histograms[f"batch_occupancy:{m}"]
            for m in machines
            if f"batch_occupancy:{m}" in self.histograms
        ])
        return {
            "batches_sent": float(batches),
            "subrequests_batched": float(subs),
            "mean_occupancy": subs / batches if batches else 0.0,
            "occupancy_p99": occupancy.percentile(99) if occupancy.count else 0.0,
        }

    def replica_breakdown(self, machines: List[str]) -> Dict[str, Dict[str, float]]:
        """Per-replica runqlat percentiles and syscall/context-switch totals
        — the scale-out analogue of the paper's per-machine eBPF tables."""
        breakdown: Dict[str, Dict[str, float]] = {}
        for name in machines:
            runqlat = self.runqlat.get(name)
            breakdown[name] = {
                "runqlat_p50_us": runqlat.percentile(50) if runqlat else 0.0,
                "runqlat_p99_us": runqlat.percentile(99) if runqlat else 0.0,
                "runqlat_samples": float(runqlat.count) if runqlat else 0.0,
                "syscalls": float(sum(self.syscalls.get(name, Counter()).values())),
                "context_switches": float(self.context_switches.get(name, 0)),
            }
        return breakdown

