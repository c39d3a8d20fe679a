"""Shared builders for kernel-level tests."""

from __future__ import annotations

from repro.kernel import Machine, MachineSpec, OsCosts
from repro.kernel.scheduler import PlacementPolicy
from repro.net import Fabric, LinkSpec
from repro.sim import RngStreams, Simulation
from repro.telemetry import Telemetry


class Rig:
    """A simulation + fabric + telemetry bundle for unit tests."""

    def __init__(self, seed: int = 0, link: LinkSpec | None = None):
        self.sim = Simulation()
        self.telemetry = Telemetry()
        self.telemetry.attach_clock(lambda: self.sim.now, sim=self.sim)
        self.rng = RngStreams(seed)
        self.fabric = Fabric(self.sim, self.telemetry, self.rng, link=link)

    def machine(
        self,
        name: str,
        cores: int = 4,
        policy: PlacementPolicy | None = None,
        costs: OsCosts | None = None,
    ) -> Machine:
        spec = MachineSpec(name=name, cores=cores, costs=costs or OsCosts())
        return Machine(
            sim=self.sim,
            fabric=self.fabric,
            telemetry=self.telemetry,
            rng=self.rng,
            spec=spec,
            name=name,
            policy=policy,
        )

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)
