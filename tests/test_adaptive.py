"""Tests for the §VII adaptive runtime (dynamic block/poll + pool sizing)."""

from dataclasses import replace

from repro.rpc import adaptive
from repro.rpc.adaptive import AdaptiveMidTierRuntime
from repro.rpc.server import MidTierRuntime
from repro.suite import SCALES, SimCluster, build_service
from repro.suite.cluster import run_open_loop


def _adaptive_scale():
    scale = SCALES["unit"]
    runtime = replace(scale.midtier_runtime, adaptive=True)
    return scale.with_overrides(midtier_runtime=runtime)


def test_factory_builds_plain_runtime_by_default():
    cluster = SimCluster(seed=0)
    service = build_service("hdsearch", cluster, SCALES["unit"])
    assert type(service.midtier) is MidTierRuntime


def test_factory_builds_adaptive_runtime_when_configured():
    cluster = SimCluster(seed=0)
    service = build_service("hdsearch", cluster, _adaptive_scale())
    assert isinstance(service.midtier, AdaptiveMidTierRuntime)


def test_adaptive_switches_to_polling_at_low_load():
    cluster = SimCluster(seed=1)
    service = build_service("hdsearch", cluster, _adaptive_scale())
    runtime = service.midtier
    assert runtime.config.reception_mode == "blocking"
    run_open_loop(cluster, service, qps=100.0, duration_us=400_000,
                  warmup_us=100_000)
    assert runtime.config.reception_mode == "polling"
    assert runtime.mode_switches >= 1
    assert runtime.mode_history[0][1] == "polling"


def test_adaptive_switches_back_to_blocking_at_high_load():
    cluster = SimCluster(seed=2)
    service = build_service("hdsearch", cluster, _adaptive_scale())
    runtime = service.midtier
    # Low load first: adapt to polling...
    run_open_loop(cluster, service, qps=100.0, duration_us=300_000,
                  warmup_us=100_000)
    assert runtime.config.reception_mode == "polling"
    # ...then a load spike: adapt back to blocking.  (The generator stops
    # during the run's drain phase, so the monitor may legitimately flip
    # back to polling afterwards — check the history, not the final state.)
    spike_start = cluster.sim.now
    run_open_loop(cluster, service, qps=3_000.0, duration_us=300_000,
                  warmup_us=100_000)
    spike_modes = [mode for t, mode in runtime.mode_history if t >= spike_start]
    assert "blocking" in spike_modes


def test_adaptive_resizes_worker_pool_with_load():
    cluster = SimCluster(seed=3)
    service = build_service("hdsearch", cluster, _adaptive_scale())
    runtime = service.midtier
    max_workers = runtime.config.worker_threads
    run_open_loop(cluster, service, qps=100.0, duration_us=400_000,
                  warmup_us=100_000)
    low_active = runtime.active_workers
    assert low_active < max_workers
    assert low_active >= adaptive.MIN_WORKERS
    spike_start = cluster.sim.now
    run_open_loop(cluster, service, qps=3_000.0, duration_us=300_000,
                  warmup_us=100_000)
    spike_sizes = [n for t, n in runtime.resize_history if t >= spike_start]
    assert spike_sizes and max(spike_sizes) > low_active
    assert runtime.resizes >= 2


def test_adaptive_still_serves_correctly_through_transitions():
    cluster = SimCluster(seed=4)
    service = build_service("hdsearch", cluster, _adaptive_scale())
    total = 0
    for qps in (150.0, 2_500.0, 150.0):
        result = run_open_loop(cluster, service, qps=qps, duration_us=250_000,
                               warmup_us=80_000)
        assert result.completed > 0
        total += result.completed
    assert total > 400
    # No requests may leak in the pending table across transitions.
    assert not service.midtier.pending


def test_adaptive_policy_hysteresis_thresholds_sane():
    assert adaptive.POLL_BELOW_QPS < adaptive.BLOCK_ABOVE_QPS
    assert adaptive.MIN_WORKERS >= 1
