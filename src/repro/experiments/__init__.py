"""Experiment layer: every ``usuite`` command, built from one mechanism.

Bottom to top (DESIGN.md §4 has the long form):

==============================  ==============================================
Mechanism                       Where
==============================  ==============================================
drive — the one warm-up /       ``repro.suite.cluster.drive`` (plus the
window / drain loop             ``run_open_loop`` / ``run_closed_loop``
                                constructors over it)
cell — seeded cluster + service ``runner.open_loop_cell`` (the one open-loop
or graph, pinned arrivals,      cell, over ``runner.build_cluster``);
shared extractions              ``runner.loadgen`` for custom generators;
                                ``runner.measure_saturation``,
                                ``characterize`` / ``characterize_grid``
``Experiment`` — run, format,   ``runner.Experiment`` + ``runner.Flag``;
gate, record, flags, pinned     one value per command, defined in the
drift cell                      module that implements it (below)
artifact experiment — a sweep   ``run`` returns the JSON document it records;
is its document                 ``acceptance(doc)`` / ``format(doc)`` are pure,
                                so they also serve ``json.load(BENCH_x.json)``;
                                ``runner.double_run`` builds ``reproducibility``
figure — a paper figure or      one row of ``figures.FIGURES``: variants,
§VII ablation as a *view* over  loads, columns, footer; ``run_figure`` /
one characterization grid       ``render`` / ``experiment`` serve every row
registry — the one table        ``registry.EXPERIMENTS``
front ends derived from it      ``cli`` (parser + dispatch), ``drift``
                                (offline gate re-check + pinned-cell re-run);
                                CI runs both
==============================  ==============================================

Command modules:

* ``figures`` — the paper's Figs. 9-19, the §VII block/poll,
  in-line/dispatch, pool-size and adaptive ablations and the load sweep,
  as ``figures.EXPERIMENTS`` (one entry per ``FIGURES`` row), plus the
  paper-claim measures those figures own;
* one ``EXPERIMENT`` each — ``sched_policy_ab`` (§VI headline),
  ``ablation_compression``, the sweeps with a committed ``BENCH_*.json``
  (``fault_sweep``, ``scale_sweep``, ``cache_sweep``, ``trace_sweep``,
  ``graph_sweep``, ``autoscale_sweep``, ``energy_sweep``) and
  ``figure_smoke`` (CI shape gate).

Support: ``schema`` (artifact validation), ``tables`` / ``plots`` (text
rendering).
"""

from repro.experiments.characterize import CharacterizationResult, characterize

__all__ = ["CharacterizationResult", "characterize"]
