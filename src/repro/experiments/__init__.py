"""Experiment layer: every ``usuite`` command, built from one mechanism.

Bottom to top (DESIGN.md §4 has the long form):

==============================  ==============================================
Mechanism                       Where
==============================  ==============================================
drive — the one warm-up /       ``repro.suite.cluster.drive`` (plus the
window / drain loop             ``run_open_loop`` / ``run_closed_loop``
                                constructors over it)
cell — seeded cluster + service ``runner.build_cluster`` (context manager),
or graph, pinned arrivals,      ``runner.loadgen``, ``runner.measure_saturation``,
shared extractions              ``characterize`` / ``characterize_grid``
``Experiment`` — run, format,   ``runner.Experiment`` + ``runner.Flag``;
gate, record, flags, pinned     one ``EXPERIMENT`` value per command, defined
drift cell                      in the module that implements it (below)
registry — the one table        ``registry.EXPERIMENTS``
front ends derived from it      ``cli`` (parser + dispatch), ``drift``
                                (artifact gate); CI runs both
==============================  ==============================================

Command modules, each exporting ``EXPERIMENT``:

* paper figures — ``fig09_saturation``, ``fig10_latency``,
  ``fig11_14_syscalls``, ``fig15_18_os_overheads``, ``fig19_contention``,
  ``sched_policy_ab`` (§VI headline), ``load_sweep``;
* §VII ablations — ``ablation_block_poll``, ``ablation_inline_dispatch``,
  ``ablation_poolsize``, ``ablation_adaptive``, ``ablation_compression``;
* sweeps with a committed ``BENCH_*.json`` — ``fault_sweep``,
  ``scale_sweep``, ``cache_sweep``, ``trace_sweep``, ``graph_sweep``,
  ``autoscale_sweep``, ``energy_sweep``; plus ``perf_engine``
  (wall-clock, drift-exempt) and ``figure_smoke`` (CI shape gate).

Support: ``schema`` (artifact validation), ``tables`` / ``plots`` (text
rendering).
"""

from repro.experiments.characterize import CharacterizationResult, characterize

__all__ = ["CharacterizationResult", "characterize"]
