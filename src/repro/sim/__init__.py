"""Discrete-event simulation kernel underpinning the simulated OS and network.

The simulator models time in microseconds (floats).  All higher layers —
the simulated OS kernel (:mod:`repro.kernel`), the network fabric
(:mod:`repro.net`), and the RPC framework (:mod:`repro.rpc`) — are built on
the primitives exported here:

* :class:`Simulation` — the event loop and clock.
* :class:`Lane` — one machine's share of the calendar, with its own clock.
* :class:`Event` — a one-shot occurrence that callbacks / processes wait on.
* :class:`Process` — a generator-based coroutine driven by the event loop.
* :class:`RngStreams` — named, deterministic random-number streams.
"""

from repro.sim.core import Event, Lane, Process, ScheduledCall, Simulation, Timeout
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "Lane",
    "Process",
    "RngStreams",
    "ScheduledCall",
    "Simulation",
    "Timeout",
]
