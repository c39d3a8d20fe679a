"""Tests for the experiment harness (fast, unit scale, low loads)."""

from dataclasses import asdict, replace
from importlib import import_module

import pytest

from repro.experiments import characterize, drift, figures, registry, runner
from repro.experiments.characterize import OVERHEAD_KINDS, default_duration_us
from repro.experiments.figures import (
    FIGURES,
    REPORTED_SYSCALLS,
    active_exe_dominates,
    default_sweep_loads,
    dominant_syscall,
    format_fig09,
    format_overheads,
    format_syscall_profile,
    knee_load,
    low_load_median_inflation,
    rates_per_second,
    render,
    run_figure,
    saturation_throughput,
)
from repro.experiments.sched_policy_ab import (
    POLICY_FACTORIES,
    free_scheduler_costs,
    run_policy_ab,
    tail_degradation,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.schema import load_schema
from repro.experiments.tables import render_table
from repro.suite import SCALES


@pytest.fixture(scope="module")
def cell_low():
    """One shared characterization at low load, unit scale."""
    return characterize("hdsearch", 200.0, scale="unit", duration_us=400_000,
                        warmup_us=100_000)


@pytest.fixture(scope="module")
def cell_mid():
    """One shared characterization at moderate load, unit scale."""
    return characterize("hdsearch", 1_500.0, scale="unit", duration_us=400_000,
                        warmup_us=100_000)


def test_characterize_populates_all_probes(cell_low):
    assert cell_low.completed > 30
    # The e2e histogram also captures queries completing in the drain
    # period just past the window, so it may exceed `completed` slightly.
    assert cell_low.completed <= cell_low.e2e.count <= cell_low.completed + 10
    assert set(cell_low.overheads) == set(OVERHEAD_KINDS)
    assert cell_low.context_switches > 0
    assert cell_low.hitm > 0
    assert cell_low.midtier_latency.count > 0
    assert cell_low.syscalls_per_query["futex"] > 0


def test_futex_dominates_and_decreases_with_load(cell_low, cell_mid):
    assert dominant_syscall(cell_low) == "futex"
    assert dominant_syscall(cell_mid) == "futex"
    assert (
        cell_low.syscalls_per_query["futex"] > cell_mid.syscalls_per_query["futex"]
    )


def test_active_exe_dominates_os_categories(cell_low, cell_mid):
    assert active_exe_dominates(cell_low)
    assert active_exe_dominates(cell_mid)


def test_contention_grows_with_load(cell_low, cell_mid):
    cs_low, hitm_low = rates_per_second(cell_low)
    cs_mid, hitm_mid = rates_per_second(cell_mid)
    assert cs_mid > cs_low
    assert hitm_mid > hitm_low
    assert hitm_low > cs_low  # HITM > CS (Fig. 19)
    assert hitm_mid > cs_mid


def test_tail_grows_with_load(cell_low, cell_mid):
    assert cell_mid.e2e.percentile(99.9) > cell_low.e2e.percentile(99.9) * 0.8


def test_default_duration_scales_with_load():
    assert default_duration_us(100.0, 600) == 6_000_000.0
    assert default_duration_us(10_000.0, 600) == 500_000.0


def test_saturation_measurement_reasonable():
    qps = saturation_throughput("hdsearch", scale="unit", n_clients=64,
                                duration_us=200_000, warmup_us=100_000)
    # Unit scale: 2 leaves x 2 cores, ~326us/leaf-request over 2-leaf fanout.
    assert 2_000 < qps < 12_000


def test_format_helpers_render(cell_low, cell_mid):
    by_load = {200.0: cell_low, 1_500.0: cell_mid}
    assert "service" in render(FIGURES["fig10"], {"hdsearch": by_load})
    table = format_syscall_profile("hdsearch", by_load)
    assert "futex" in table and "Fig. 11" in table
    table = format_overheads("hdsearch", by_load)
    assert "active_exe" in table and "retransmissions" in table
    assert "HITM/s" in render(FIGURES["fig19"], {"hdsearch": by_load})
    assert "ratio" in format_fig09({"hdsearch": 11_000.0})
    for syscall in ("futex", "sendmsg"):
        assert syscall in REPORTED_SYSCALLS


def test_low_load_median_inflation_helper(cell_low, cell_mid):
    by_load = {100.0: cell_low, 1_000.0: cell_mid}
    ratio = low_load_median_inflation(by_load)
    assert ratio == cell_low.e2e.median / cell_mid.e2e.median
    assert ratio > 1.0  # the paper's low-load inflation effect


def test_policy_ab_inflates_runqueue_waits():
    results = run_policy_ab("hdsearch", qps=1_500.0, scale="unit",
                            min_queries=300)
    good = results["wake-affinity"].overheads["active_exe"].percentile(99)
    bad = results["worst-fit"].overheads["active_exe"].percentile(99)
    assert bad > good
    assert isinstance(tail_degradation(results), float)


def test_free_scheduler_costs_zeroes_everything():
    costs = free_scheduler_costs()
    assert costs.context_switch_us == 0.0
    assert costs.wakeup_ipi_us == 0.0
    assert costs.cstate_exit_latency(1e9) == (0.0, "C0")


def test_policy_factories_construct():
    for name, factory in POLICY_FACTORIES.items():
        policy = factory()
        assert hasattr(policy, "choose_core")


def test_render_table_alignment():
    table = render_table(("a", "bb"), [(1, 2.5), (10, 300000.0)])
    lines = table.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1  # all same width


COMMANDS = (
    "fig9", "fig10", "syscalls", "overheads", "fig19", "headline",
    "block-poll", "inline-dispatch", "poolsize", "adaptive", "compression",
    "sweep", "trace", "faults", "scale", "cache", "autoscale",
    "graph", "energy", "figure-smoke", "all",
)


def test_registry_lists_every_command_once():
    assert tuple(exp.name for exp in registry.EXPERIMENTS) == COMMANDS


@pytest.mark.parametrize("experiment", registry.EXPERIMENTS, ids=lambda e: e.name)
def test_registered_experiment_is_complete(experiment):
    # A subparser that parses with no arguments ...
    args = build_parser().parse_args([experiment.name])
    assert args.command == experiment.name
    assert experiment.help
    # ... and a committed artifact comes with its schema and drift cell.
    if experiment.bench_path is not None:
        assert load_schema(experiment.schema)
        assert experiment.pinned is not None
        assert drift.PINNED[experiment.bench_path] is experiment


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_exits_1_when_the_acceptance_gate_fails(name, monkeypatch, capsys):
    # The runner reads the verdict where the document carries it.
    failing = replace(
        registry.BY_NAME[name],
        run=lambda **params: {"acceptance": {"pass": False}},
        format=lambda report, **options: "",
        acceptance=lambda doc: doc["acceptance"],
    )
    monkeypatch.setitem(registry.BY_NAME, name, failing)
    assert main([name]) == 1
    assert "acceptance: FAIL" in capsys.readouterr().out


ABLATION_ROWS = ("block-poll", "inline-dispatch", "poolsize", "adaptive")


@pytest.mark.parametrize("row", ABLATION_ROWS)
@pytest.mark.parametrize("service, field", [
    ("hdsearch", "midtier_runtime"), ("router", "router_midtier_runtime"),
])
def test_ablation_rows_override_the_runtime_the_service_is_built_from(
    row, service, field, monkeypatch
):
    # Router builds its mid-tier from ``router_midtier_runtime``; a row that
    # overrode ``midtier_runtime`` for it compared identical configurations.
    seen = {}
    monkeypatch.setattr(
        figures, "characterize_grid",
        lambda variants, *args: seen.update(variants) or {},
    )
    run_figure(FIGURES[row], service, scale="unit")
    runtimes = [getattr(scale, field) for _service, scale in seen.values()]
    assert len(runtimes) == len(FIGURES[row].runtimes)
    assert all(a != b for i, a in enumerate(runtimes) for b in runtimes[:i])


def test_router_block_poll_rows_differ():
    # Parent: two identical rows (p50, p99, futex and epoll per query).
    grid = run_figure(FIGURES["block-poll"], "router", loads=1_000.0,
                      scale="unit", min_queries=60)
    blocking, polling = grid["blocking"][1_000.0], grid["polling"][1_000.0]
    assert polling.syscalls_per_query["epoll_pwait"] > 5 * (
        blocking.syscalls_per_query["epoll_pwait"]
    )
    assert blocking.e2e.median != polling.e2e.median


def test_cli_rejects_unknown_service():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig10", "--services", "nope"])


def test_load_sweep_helpers(cell_low, cell_mid):
    loads = default_sweep_loads("hdsearch")
    assert loads[0] < loads[-1] <= 11_500
    # Reuse the two shared characterizations as a two-point sweep.
    sweep = {200.0: cell_low, 1_500.0: cell_mid}
    text = render(FIGURES["sweep"], {"hdsearch": sweep})
    assert "p99 vs load" in text and "Active-Exe" in text
    assert knee_load(sweep, factor=0.5) in sweep
    assert knee_load(sweep, factor=1e9) == 1_500.0  # never exceeds -> last


def test_cli_sweep_and_trace_commands_parse():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--service", "router", "--loads", "100", "500"])
    assert args.command == "sweep" and args.loads == [100.0, 500.0]
    args = parser.parse_args(["trace", "--sample-every", "7"])
    assert args.command == "trace" and args.sample_every == 7


def test_saturation_closed_mode_and_bad_mode():
    qps = saturation_throughput("hdsearch", scale="unit", mode="closed",
                                n_clients=32, duration_us=150_000,
                                warmup_us=80_000)
    assert qps > 1_000
    with pytest.raises(ValueError):
        saturation_throughput("hdsearch", scale="unit", mode="bogus")


def test_compression_ablation_unit_scale():
    from repro.experiments.ablation_compression import (
        format_compression_ablation, run_compression_ablation,
    )

    results = run_compression_ablation(scale="unit", n_queries=40)
    assert set(results) == {"uncompressed", "varint-delta", "pfor-delta"}
    for name, cell in results.items():
        assert cell.correct, f"{name} returned wrong answers"
    # Both codecs shrink the index materially.
    assert results["varint-delta"].memory_ratio < 0.5
    assert results["pfor-delta"].memory_ratio < 0.5
    table = format_compression_ablation(results)
    assert "decode us/query" in table and "varint-delta" in table


#: sweep -> (tiny run keywords, module constants to patch, the grid's
#: record of the pinned cell or None where the grid does not measure that
#: cell itself).  The patches shorten saturation and session cells, which
#: are not the pinned cell; the cache capacity is one the cell overflows.
MAPPING = {
    "scale": (
        dict(scale="unit", replica_counts=[1, 2], policies=["round-robin"],
             loads=[800.0], duration_us=60_000.0),
        dict(WARMUP_US=20_000.0, SATURATION_DURATION_US=30_000.0),
        lambda module, doc: runner.find_row(
            module.find_cell(doc, 2, "round-robin")["loads"], qps=800.0,
        ),
    ),
    "cache": (
        dict(services=["router"], loads=[2_000.0], scale="unit",
             duration_us=60_000.0, saturation_duration_us=30_000.0, axes=False,
             cache_policy="fifo"),
        dict(WARMUP_US=20_000.0, DEFAULT_CAPACITY=16),
        lambda module, doc: runner.find_row(
            doc["cells"], service="router", batch_max=module.DEFAULT_BATCH_MAX,
            cache_capacity=module.DEFAULT_CAPACITY,
        )["loads"][-1],
    ),
    "trace": (
        dict(services=["hdsearch"], loads=[1_000.0], scale="unit", queries=150),
        {},
        lambda module, doc: runner.find_row(
            doc["cells"], service="hdsearch", qps=module.CROSSCHECK_QPS,
        ),
    ),
    "graph": (
        dict(queries=100),
        dict(WARMUP_US=10_000.0, SESSION_DURATION_US=50_000.0),
        None,
    ),
    "autoscale": (
        dict(scale="unit", static_replicas=[1, 2], duration_us=60_000.0,
             base_qps=1_500.0, tick_us=15_000.0, window_us=15_000.0),
        {},
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(MAPPING))
def test_one_document_to_cell_mapping_per_sweep(name, monkeypatch):
    """The double run and the drift gate run one ``pinned(doc)``: it
    reproduces ``reproducibility.first``, and so does the grid's own
    measurement of that cell.  The cache run records fifo at a capacity
    the cell overflows, so a re-run under LRU would show in the record."""
    kwargs, patches, grid_record = MAPPING[name]
    module = import_module(f"repro.experiments.{name}_sweep")
    for attr, value in patches.items():
        monkeypatch.setattr(module, attr, value)
    doc = getattr(module, f"run_{name}_sweep")(**kwargs)
    first = doc["reproducibility"]["first"]
    assert doc["reproducibility"]["bit_identical"]
    assert asdict(module.pinned(doc)) == first
    if grid_record is not None:
        assert grid_record(module, doc) == first
    if name == "cache":
        assert doc["defaults"]["cache_policy"] == "fifo"
        assert "capacity=16 fifo" in doc["benchmark"]
        lru = {**doc, "defaults": {**doc["defaults"], "cache_policy": "lru"}}
        assert asdict(module.pinned(lru)) != first, "policies agree: the check is vacuous"


@pytest.mark.parametrize("name", ["scale", "cache", "trace", "autoscale"])
def test_sweeps_take_the_scale_by_name(name):
    """The document records the scale's name, so a ServiceScale object —
    which ``pinned(doc)`` could not rebuild — is a usage error."""
    module = import_module(f"repro.experiments.{name}_sweep")
    with pytest.raises(runner.UsageError, match="registry name"):
        getattr(module, f"run_{name}_sweep")(scale=SCALES["unit"])
