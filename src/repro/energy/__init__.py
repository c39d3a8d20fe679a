"""Deterministic per-core energy accounting (config, account, report).

The account integrates each core's busy/idle timeline exactly as the
scheduler walks it; the report prices those durations with a frozen
power model.  Disabled by default — with :class:`EnergyConfig.enabled`
false, nothing here is constructed and the simulator's committed
goldens stay byte-identical.
"""

from repro.energy.account import EnergyAccount, MachineEnergy, idle_portions
from repro.energy.config import EnergyConfig
from repro.energy.report import EnergyReport

__all__ = [
    "EnergyAccount",
    "EnergyConfig",
    "EnergyReport",
    "MachineEnergy",
    "idle_portions",
]
