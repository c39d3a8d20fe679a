"""The ``usuite energy`` sweep: gates, guards, and the artifact shape.

One reduced-size sweep (3 ladder rungs, short windows) runs once per
module; every assertion about the tradeoffs, the equivalence re-runs,
and the document schema reads from that shared document — the sweep
*is* its JSON artifact (the CLI run at similar sizes is pinned byte for
byte in ``tests/test_artifact_experiments.py``).
"""

import pytest

from repro.experiments import energy_sweep
from repro.experiments.runner import UsageError
from repro.experiments.schema import load_schema, validate
from repro.graph import pipeline_graph, work_per_query


@pytest.fixture(scope="module")
def doc():
    return energy_sweep.run_energy_sweep(
        qps=600.0, queries=150, tiers=3,
        lowload_qps=100.0, lowload_queries=100, workload_queries=100,
    )


# -- input guards ------------------------------------------------------------

def test_rejects_nonpositive_qps():
    with pytest.raises(UsageError, match="qps must be positive"):
        energy_sweep.run_energy_sweep(qps=0.0)


def test_rejects_tiny_query_counts():
    with pytest.raises(UsageError, match="queries must be >= 100"):
        energy_sweep.run_energy_sweep(queries=50)


def test_rejects_short_ladders():
    with pytest.raises(UsageError, match="tiers must be >= 3"):
        energy_sweep.run_energy_sweep(tiers=2)


def test_rejects_empty_workload():
    with pytest.raises(UsageError, match="workload-queries"):
        energy_sweep.run_energy_sweep(workload_queries=0)


# -- the granularity ladder --------------------------------------------------

def test_ladder_spans_monolith_to_pipeline():
    rungs = energy_sweep.granularity_ladder(tiers=4, workload_queries=100)
    assert [len(rung.nodes) for rung in rungs] == [1, 2, 3, 4]
    fine = pipeline_graph(4, n_queries=100)
    work = work_per_query(fine)
    for rung in rungs:
        assert work_per_query(rung) == pytest.approx(work)
        assert sum(node.cores for node in rung.nodes) == 8


def test_shallow_costs_disable_deep_states():
    costs = energy_sweep.shallow_costs()
    assert tuple(point.name for point in costs.cstates) == ("C1",)


# -- acceptance gates on the reduced sweep -----------------------------------

def test_energy_monotone_with_tier_count(doc):
    tradeoff = energy_sweep.granularity_tradeoff(doc)
    assert tradeoff == doc["granularity_tradeoff"]
    assert tradeoff["tiers"] == [1, 2, 3]
    assert tradeoff["monotone_nondecreasing"] is True
    assert tradeoff["energy_ratio_fine_vs_monolith"] > 1.0
    # More hops also means more wakeup transitions, strictly.
    wakes = tradeoff["wakes_total"]
    assert wakes[0] < wakes[-1]


def test_lowload_deep_sleep_tension(doc):
    tradeoff = energy_sweep.lowload_tradeoff(doc)
    assert tradeoff == doc["lowload_tradeoff"]
    # C1-only cuts tail latency (no deep exits on the wake path) ...
    assert tradeoff["p99_us_shallow"] < tradeoff["p99_us_deep"]
    # ... and pays for it in idle joules (1.5 W floor vs 0.1 W C6).
    assert tradeoff["idle_uj_shallow"] > tradeoff["idle_uj_deep"]


def test_reruns_are_equivalent(doc):
    repro = doc["reproducibility"]
    assert repro["bit_identical"] is True and repro["first"] == repro["second"]
    # The deepest rung is measured once: the ladder's last cell is the
    # double run's first record.
    assert doc["ladder"][-1] == repro["first"]
    assert doc["streaming"]["identical"] is True
    assert doc["streaming"]["energy"] == repro["first"]["energy"]


def test_acceptance_passes(doc):
    checks = energy_sweep.acceptance(doc)
    assert checks == doc["acceptance"]
    assert checks["pass"] is True
    assert checks["ladder_points"] == 3


def test_format_names_the_verdicts(doc):
    text = energy_sweep.format_energy_sweep(doc)
    assert "energy vs. granularity" in text
    assert "bit-identical" in text
    assert "identical" in text
    assert "NOT monotone" not in text


def test_document_validates_against_committed_schema(doc):
    validate(doc, load_schema("bench_energy.schema.json"))
    assert doc["acceptance"]["pass"] is True
    # The artifact pins everything the drift probe needs to re-run the
    # deepest rung: its tier count, workload size, seed, and load.
    first = doc["reproducibility"]["first"]
    assert first["tiers"] == 3
    assert doc["workload_queries"] == 100
    assert doc["qps"] == 600.0
