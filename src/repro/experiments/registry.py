"""The one table of ``usuite`` commands.

Every command is an :class:`~repro.experiments.runner.Experiment` value
defined beside the code it runs — the paper-figure commands as rows of
:data:`repro.experiments.figures.FIGURES` — and this module only lists
them.  The CLI parser and dispatch (:mod:`repro.experiments.cli`) and the
artifact-drift gate (:mod:`repro.experiments.drift`) are derived from
:data:`EXPERIMENTS`, so adding a command is one ``Experiment`` (or one
``FIGURES`` row) plus one line here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import (
    ablation_compression,
    autoscale_sweep,
    cache_sweep,
    energy_sweep,
    fault_sweep,
    figure_smoke,
    figures,
    graph_sweep,
    runner,
    scale_sweep,
    sched_policy_ab,
    trace_sweep,
)

FIG = figures.EXPERIMENTS

#: What ``usuite all`` regenerates, in order: the paper's figures, the
#: headline A/B, and the §VII ablations.
PAPER_ARTIFACTS: Tuple[runner.Experiment, ...] = (
    FIG["fig9"], FIG["fig10"], FIG["syscalls"], FIG["overheads"], FIG["fig19"],
    sched_policy_ab.EXPERIMENT,
    FIG["block-poll"], FIG["inline-dispatch"], FIG["poolsize"], FIG["adaptive"],
)


def run_all(scale: str = "small", seed: int = 0) -> None:
    """Every paper artifact in sequence, each with its CLI defaults."""
    from repro.experiments.cli import main  # the table's own front end

    for experiment in PAPER_ARTIFACTS:
        main([experiment.name, "--scale", scale, "--seed", str(seed)])
        print()


EXPERIMENTS: Tuple[runner.Experiment, ...] = PAPER_ARTIFACTS + (
    ablation_compression.EXPERIMENT,
    FIG["sweep"],
    trace_sweep.EXPERIMENT,
    fault_sweep.EXPERIMENT,
    scale_sweep.EXPERIMENT,
    cache_sweep.EXPERIMENT,
    autoscale_sweep.EXPERIMENT,
    graph_sweep.EXPERIMENT,
    energy_sweep.EXPERIMENT,
    figure_smoke.EXPERIMENT,
    runner.Experiment(
        name="all",
        help="every artifact in sequence (slow)",
        run=run_all,
        flags=(runner.SCALE, runner.SEED),
    ),
)

BY_NAME: Dict[str, runner.Experiment] = {exp.name: exp for exp in EXPERIMENTS}

__all__ = ["BY_NAME", "EXPERIMENTS", "PAPER_ARTIFACTS", "run_all"]
