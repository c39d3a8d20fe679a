"""uSuite reproduction: microservice benchmarks on a simulated OS.

A from-scratch reproduction of *uSuite: A Benchmark Suite for
Microservices* (Sriraman & Wenisch, IISWC 2018).  The stable package API
is re-exported here (lazily, so ``import repro`` stays cheap)::

    from repro import build_cluster, run_open_loop

    cluster, service = build_cluster("hdsearch", scale="small", seed=0)
    result = run_open_loop(cluster, service, qps=1_000.0, duration_us=1_000_000)
    print(result.e2e.summary())

Three layers, top to bottom:

* **experiments** — :func:`build_cluster` / :func:`run_experiment` and
  the :class:`Experiment` spec (:mod:`repro.experiments.runner`), plus
  :func:`characterize` for one fully instrumented cell;
* **suite** — :class:`SimCluster`, :func:`build_service`, the typed
  :class:`ServiceScale` config tree (:class:`TopologyConfig`,
  :class:`LbConfig`, :class:`BatchConfig`, :class:`CacheConfig`) and the
  :data:`SCALES` registry;
* **telemetry** — the :class:`Tracer` request sampler and the critical-path
  attribution engine (:func:`attribute`, :func:`tail_exemplars`,
  :func:`crosscheck` in :mod:`repro.telemetry.critpath`).

Cross-cutting axes: :mod:`repro.energy` (the :class:`EnergyConfig` power
model, per-core :class:`EnergyAccount` and windowed :class:`EnergyReport`)
and the :mod:`repro.graph` granularity transforms (:func:`merge_edge`,
:func:`split_node`, :func:`monolith`, :func:`work_per_query`,
:func:`pipeline_graph`).

Anything not re-exported here is internal and may change between
versions.  See README.md for the architecture map, DESIGN.md for the
paper-to-substitute inventory, and EXPERIMENTS.md for paper-vs-measured
results on every figure.
"""

from __future__ import annotations

__version__ = "1.1.0"
__paper__ = (
    "Akshitha Sriraman and Thomas F. Wenisch. "
    "uSuite: A Benchmark Suite for Microservices. IISWC 2018."
)

#: Public name -> defining module, resolved lazily (PEP 562) so that
#: ``import repro`` does not drag in the whole experiment stack.
_EXPORTS = {
    # experiments: the shared runner API
    "Experiment": "repro.experiments.runner",
    "ExperimentOutcome": "repro.experiments.runner",
    "UsageError": "repro.experiments.runner",
    "build_cluster": "repro.experiments.runner",
    "run_experiment": "repro.experiments.runner",
    "write_artifact": "repro.experiments.runner",
    "characterize": "repro.experiments.characterize",
    "OVERHEAD_KINDS": "repro.experiments.characterize",
    # suite: cluster building and the typed config tree
    "SCALES": "repro.suite",
    "SERVICE_NAMES": "repro.suite",
    "ServiceHandle": "repro.suite",
    "ServiceScale": "repro.suite",
    "SimCluster": "repro.suite",
    "TopologyConfig": "repro.suite",
    "LbConfig": "repro.suite",
    "BatchConfig": "repro.suite",
    "CacheConfig": "repro.suite",
    "RunResult": "repro.suite",
    "build_service": "repro.suite",
    "drive": "repro.suite.cluster",
    "run_open_loop": "repro.suite.cluster",
    "run_closed_loop": "repro.suite.cluster",
    # energy: the per-core power model, account, and windowed report
    "EnergyAccount": "repro.energy",
    "EnergyConfig": "repro.energy",
    "EnergyReport": "repro.energy",
    # graph: declarative service-graph DAGs (repro.graph)
    "GraphConfig": "repro.graph",
    "GraphEdge": "repro.graph",
    "GraphError": "repro.graph",
    "GraphNode": "repro.graph",
    "build_graph": "repro.graph",
    "exemplar_graph": "repro.graph",
    "onehop_graph": "repro.graph",
    "pipeline_graph": "repro.graph",
    # graph granularity: tier merge/split transforms (repro.graph)
    "merge_edge": "repro.graph",
    "split_node": "repro.graph",
    "monolith": "repro.graph",
    "work_per_query": "repro.graph",
    # loadgen: the end-to-end latency histogram name, plus the traffic
    # models (rate curves, variable-rate open loop, session mixes)
    "E2E_HIST": "repro.loadgen.client",
    "ConstantRate": "repro.loadgen.traffic",
    "DiurnalRate": "repro.loadgen.traffic",
    "FlashCrowd": "repro.loadgen.traffic",
    "SessionClass": "repro.loadgen.traffic",
    "SessionLoadGen": "repro.loadgen.traffic",
    "VariableRateLoadGen": "repro.loadgen.traffic",
    # telemetry: sampled traces and critical-path attribution
    "Trace": "repro.telemetry.tracing",
    "Tracer": "repro.telemetry.tracing",
    "Attribution": "repro.telemetry.critpath",
    "CATEGORIES": "repro.telemetry.critpath",
    "attribute": "repro.telemetry.critpath",
    "aggregate": "repro.telemetry.critpath",
    "tail_exemplars": "repro.telemetry.critpath",
    "crosscheck": "repro.telemetry.critpath",
}

__all__ = sorted(_EXPORTS) + ["__paper__", "__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
