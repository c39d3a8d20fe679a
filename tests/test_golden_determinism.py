"""Golden-value determinism guard for the figure experiments.

Engine optimizations must be *behavior-preserving*: for a fixed seed the
simulation must consume randomness in the same order, pop events in the
same order, and therefore reproduce every figure metric bit-for-bit.
These values were captured from the pre-optimization engine; any drift
here means an "optimization" changed simulated behavior, not just speed.

A cell's load generator is the first its simulation builds, so it is
``client1`` and draws the same arrival stream whatever ran before it.
The cells use short windows so the guard stays cheap enough for tier 1.
"""

from dataclasses import asdict, replace

import pytest

from repro.experiments.cache_sweep import measure_cache_point, sweep_scale
from repro.experiments.characterize import characterize
from repro.experiments.scale_sweep import measure_load_point
from repro.suite import SCALES
from repro.suite.config import LbConfig


def _characterize_cell(service: str, qps: float):
    return characterize(
        service, qps, scale="small", seed=0,
        duration_us=120_000.0, warmup_us=60_000.0,
    )


@pytest.fixture(scope="module")
def hdsearch_1k():
    return _characterize_cell("hdsearch", 1000.0)


def test_hdsearch_counts_bit_identical(hdsearch_1k):
    r = hdsearch_1k
    assert r.sent == 109
    assert r.completed == 109
    assert r.context_switches == 5104
    assert r.hitm == 13981
    assert r.retransmissions == 0


def test_hdsearch_latency_metrics_bit_identical(hdsearch_1k):
    r = hdsearch_1k
    assert r.e2e.count == 109
    assert r.e2e.mean == 689.4066756064559
    assert r.e2e.percentile(50) == 686.799181362243
    assert r.e2e.percentile(99) == 903.6021952644992


def test_hdsearch_overhead_metrics_bit_identical(hdsearch_1k):
    r = hdsearch_1k
    assert r.overheads["active_exe"].percentile(99) == 86.60000000000582
    assert r.overheads["sched"].percentile(50) == 1.1926782919078014
    assert r.syscalls_per_query["futex"] == 45.4954128440367


def test_router_metrics_bit_identical():
    r = _characterize_cell("router", 1000.0)
    assert r.sent == 109
    assert r.completed == 109
    assert r.context_switches == 2225
    assert r.hitm == 5904
    assert r.e2e.mean == 428.02994470279106
    assert r.e2e.percentile(50) == 418.5020823094965
    assert r.e2e.percentile(99) == 545.5744019678131


# -- streaming telemetry ----------------------------------------------------
# The goldens above were captured with the buffered hub.  Streaming mode
# spills windowed deltas and folds them back post-run; its determinism
# contract says the folded aggregates are bit-identical — so the *same*
# golden numbers must fall out of a streaming cell, with no re-capture.

def test_hdsearch_goldens_hold_through_streaming_telemetry():
    from repro.telemetry import TelemetryConfig

    r = characterize(
        "hdsearch", 1000.0, scale="small", seed=0,
        duration_us=120_000.0, warmup_us=60_000.0,
        scale_overrides={"telemetry": TelemetryConfig(mode="streaming")},
    )
    assert r.sent == 109
    assert r.completed == 109
    assert r.context_switches == 5104
    assert r.hitm == 13981
    assert r.retransmissions == 0
    assert r.e2e.count == 109
    assert r.e2e.mean == 689.4066756064559
    assert r.e2e.percentile(50) == 686.799181362243
    assert r.e2e.percentile(99) == 903.6021952644992
    assert r.overheads["active_exe"].percentile(99) == 86.60000000000582
    assert r.overheads["sched"].percentile(50) == 1.1926782919078014
    assert r.syscalls_per_query["futex"] == 45.4954128440367


# -- scale-out topologies ---------------------------------------------------
# Replicated mid-tiers add a balancer endpoint, per-replica machines, and
# (for the stochastic policies) an extra named RNG stream — all of which
# must stay inside the determinism contract: same seed, same metrics,
# bit for bit.  measure_load_point pins the load-generator instance
# counter itself, so each call is a hermetic cell.

def _scaleout_point(policy: str):
    scale = SCALES["unit"].with_overrides(
        topology=replace(SCALES["unit"].topology, midtier_replicas=3),
        lb=LbConfig(policy=policy),
    )
    return measure_load_point(
        "hdsearch", scale, qps=1500.0, seed=0,
        duration_us=150_000.0, warmup_us=100_000.0,
    )


def test_scaleout_same_seed_bit_identical():
    first = _scaleout_point("round-robin")
    second = _scaleout_point("round-robin")
    assert first.completed > 0
    assert asdict(first) == asdict(second)


def test_scaleout_policies_produce_different_goldens():
    rr = _scaleout_point("round-robin")
    p2c = _scaleout_point("power-of-two")
    assert rr.completed > 0 and p2c.completed > 0
    # Round-robin splits a 3-replica cell evenly; power-of-two's sampled
    # choices cannot — so the balancing decisions, and through queueing
    # the latency metrics, must genuinely differ between policies.
    assert rr.per_replica_forwarded != p2c.per_replica_forwarded
    assert asdict(rr) != asdict(p2c)


# -- leaf-request batching + query-result cache -----------------------------
# Both features are off by default; the unbatched/uncached goldens above
# already pin the off path bit-for-bit.  These cells pin the *on* paths:
# the batch timers and cache probes are themselves deterministic, so for
# a fixed seed each configuration has its own exact golden.

def _cache_point(batch_max: int, cache_capacity: int):
    scale = sweep_scale(batch_max, cache_capacity, scale="unit")
    return measure_cache_point(
        "hdsearch", scale, qps=1500.0, seed=0,
        duration_us=150_000.0, warmup_us=100_000.0,
    )


def test_batch_cache_point_same_seed_bit_identical():
    first = _cache_point(8, 1024)
    second = _cache_point(8, 1024)
    assert first.completed > 0
    assert asdict(first) == asdict(second)


def test_batch_on_golden_bit_identical():
    p = _cache_point(8, 0)
    assert p.sent == 208
    assert p.completed == 207
    assert p.p50_us == 987.4218493704539
    assert p.p99_us == 1371.3004240561168
    assert p.mean_us == 959.1757781700609
    assert p.futex_per_query == 7.5893719806763285
    assert p.batch == {
        "batches_sent": 352.0,
        "subrequests_batched": 416.0,
        "mean_occupancy": 1.1818181818181819,
        "occupancy_p99": 2.0,
    }


def test_cache_on_golden_bit_identical():
    p = _cache_point(0, 1024)
    assert p.sent == 208
    assert p.completed == 208
    assert p.p50_us == 682.0405059588666
    assert p.p99_us == 1060.489482548393
    assert p.mean_us == 591.7027280423334
    assert p.futex_per_query == 6.668269230769231
    assert p.cache == {
        "hits": 62.0,
        "misses": 146.0,
        "lookups": 208.0,
        "hit_rate": 0.2980769230769231,
        "coalesced": 0.0,
        "invalidations": 0.0,
    }


def test_batch_cache_on_golden_bit_identical():
    p = _cache_point(8, 1024)
    assert p.sent == 208
    assert p.completed == 208
    assert p.p50_us == 847.3254003793845
    assert p.p99_us == 1345.7206733071594
    assert p.futex_per_query == 6.216346153846154
    assert p.cache["hits"] == 62.0
    assert p.batch["batches_sent"] == 244.0
    assert p.batch["subrequests_batched"] == 292.0


def test_batching_diverges_from_off_path():
    # Sanity that the on-path goldens are not vacuously equal to the off
    # path: coalescing genuinely changes timing, so the metrics differ.
    off = _cache_point(0, 0)
    on = _cache_point(8, 0)
    assert off.completed > 0 and on.completed > 0
    assert asdict(off) != asdict(on)
    assert on.futex_per_query < off.futex_per_query


# -- closed-loop control plane ----------------------------------------------
# The controller is off by default; every golden above already pins the
# off path bit-for-bit (enabled=False constructs no windows, no warm
# replicas, no timers).  This cell pins the *on* path: a threshold
# controller that genuinely actuates (two scale-ups) has its own exact
# golden, and diverges from the equivalent static cluster.

def _controlled_point():
    from dataclasses import replace

    from repro.control import ControlConfig
    from repro.experiments.runner import build_cluster
    from repro.suite.cluster import run_open_loop

    base = SCALES["unit"]
    scale = base.with_overrides(
        topology=replace(base.topology, midtier_replicas=1),
        lb=replace(base.lb, policy="round-robin"),
        control=ControlConfig(
            enabled=True, policy="threshold", tick_us=10_000.0,
            window_us=10_000.0, min_replicas=1, max_replicas=3,
            initial_replicas=1, p99_high_us=400.0, p99_low_us=100.0,
            cooldown_us=20_000.0,
        ),
    )
    cluster, service = build_cluster("hdsearch", scale, seed=0)
    result = run_open_loop(
        cluster, service, qps=1500.0,
        duration_us=150_000.0, warmup_us=100_000.0,
    )
    stats = cluster.controllers[0].stats()
    point = (
        result.sent, result.completed,
        result.e2e.percentile(50), result.e2e.percentile(99),
        result.e2e.mean, result.e2e.samples(),
    )
    cluster.shutdown()
    return point, stats


def test_controller_on_same_seed_bit_identical():
    first = _controlled_point()
    second = _controlled_point()
    assert first == second


def test_controller_on_golden_bit_identical():
    (sent, completed, p50, p99, mean, _samples), stats = _controlled_point()
    assert sent == 208
    assert completed == 207
    assert p50 == 865.400222228418
    assert p99 == 1181.8920531452386
    assert mean == 871.676572472116
    assert stats["ticks"] == 30
    assert stats["scale_ups"] == 2
    assert stats["scale_downs"] == 0
    assert stats["mode"] == "overload"
    assert stats["scale_events"] == [[10000.0, "up", 2], [30000.0, "up", 3]]
    assert stats["replica_seconds"] == 0.86


def _scaleout_samples():
    from dataclasses import replace

    from repro.experiments.runner import build_cluster
    from repro.suite.cluster import run_open_loop

    base = SCALES["unit"]
    scale = base.with_overrides(
        topology=replace(base.topology, midtier_replicas=3),
        lb=replace(base.lb, policy="round-robin"),
    )
    cluster, service = build_cluster("hdsearch", scale, seed=0)
    result = run_open_loop(
        cluster, service, qps=1500.0,
        duration_us=150_000.0, warmup_us=100_000.0,
    )
    samples = result.e2e.samples()
    cluster.shutdown()
    return samples


def test_controller_on_diverges_from_static_cluster():
    # Same seed, same 3 machines behind the same balancer — but the
    # controller starts at 1 admitting replica and scales out, so the
    # latency trajectory must genuinely differ from the all-admitting
    # static cluster.  (If these ever match, the controller stopped
    # actuating and the golden above is vacuous.)
    (_, _, _, _, _, on_samples), stats = _controlled_point()
    off_samples = _scaleout_samples()
    assert stats["scale_ups"] > 0
    assert on_samples and off_samples
    assert on_samples != off_samples
