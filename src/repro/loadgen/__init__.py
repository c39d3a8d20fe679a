"""Load generation and latency measurement (paper §V).

The paper's methodology is explicit about measurement hygiene, and so are
we:

* **closed-loop** mode establishes peak sustainable throughput (Fig. 9);
* **open-loop** mode draws inter-arrival times from a Poisson process and
  timestamps every query at its *scheduled* arrival, so queue buildup in
  the service cannot suppress load — avoiding the coordinated-omission
  problem the paper criticizes YCSB/Faban for;
* load generators are ideal fabric endpoints on "separate hardware": they
  consume no simulated server CPU, matching the paper's validation that
  the load generator is never the bottleneck.
"""

from repro.loadgen.client import OpenLoopLoadGen
from repro.loadgen.source import CyclingSource, QuerySource
from repro.loadgen.traffic import (
    ConstantRate,
    DiurnalRate,
    FlashCrowd,
    RateCurve,
    SessionClass,
    SessionLoadGen,
    VariableRateLoadGen,
)

__all__ = [
    "ConstantRate",
    "CyclingSource",
    "DiurnalRate",
    "FlashCrowd",
    "OpenLoopLoadGen",
    "QuerySource",
    "RateCurve",
    "SessionClass",
    "SessionLoadGen",
    "VariableRateLoadGen",
]
