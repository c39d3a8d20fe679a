"""The one table of ``usuite`` commands.

Every command is an :class:`~repro.experiments.runner.Experiment` value
defined beside the code it runs; this module only lists them.  The CLI
parser and dispatch (:mod:`repro.experiments.cli`) and the artifact-drift
gate (:mod:`repro.experiments.drift`) are derived from :data:`EXPERIMENTS`,
so adding a command is one ``Experiment`` plus one line here.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import (
    ablation_adaptive,
    ablation_block_poll,
    ablation_compression,
    ablation_inline_dispatch,
    ablation_poolsize,
    autoscale_sweep,
    cache_sweep,
    energy_sweep,
    fault_sweep,
    fig09_saturation,
    fig10_latency,
    fig11_14_syscalls,
    fig15_18_os_overheads,
    fig19_contention,
    figure_smoke,
    graph_sweep,
    load_sweep,
    perf_engine,
    runner,
    scale_sweep,
    sched_policy_ab,
    trace_sweep,
)

#: What ``usuite all`` regenerates, in order: the paper's figures, the
#: headline A/B, and the §VII ablations.
PAPER_ARTIFACTS: Tuple[runner.Experiment, ...] = (
    fig09_saturation.EXPERIMENT,
    fig10_latency.EXPERIMENT,
    fig11_14_syscalls.EXPERIMENT,
    fig15_18_os_overheads.EXPERIMENT,
    fig19_contention.EXPERIMENT,
    sched_policy_ab.EXPERIMENT,
    ablation_block_poll.EXPERIMENT,
    ablation_inline_dispatch.EXPERIMENT,
    ablation_poolsize.EXPERIMENT,
    ablation_adaptive.EXPERIMENT,
)


def run_all(scale: str = "small", seed: int = 0) -> None:
    """Every paper artifact in sequence, each with its CLI defaults."""
    from repro.experiments.cli import main  # the table's own front end

    for experiment in PAPER_ARTIFACTS:
        main([experiment.name, "--scale", scale, "--seed", str(seed)])
        print()


EXPERIMENTS: Tuple[runner.Experiment, ...] = PAPER_ARTIFACTS + (
    ablation_compression.EXPERIMENT,
    load_sweep.EXPERIMENT,
    trace_sweep.EXPERIMENT,
    perf_engine.EXPERIMENT,
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
