"""Pin what provisioning names: machines, balancers, controllers, signals.

Names key RNG streams (a machine's, a balancer's) and telemetry series
(a controller's signals), so a renamed or re-ordered endpoint changes
every number downstream — but only in combinations no golden runs:
replicated or controlled mid-tiers on each of the four services, and
replicated / controlled graph nodes.  The literals below were captured
from the two hand-written provisioning stacks ``build_tier`` replaced.
"""

from dataclasses import replace

import pytest

from repro.control.config import ControlConfig
from repro.graph import GraphConfig, GraphEdge, GraphNode, build_graph, exemplar_graph
from repro.suite import SCALES, SERVICE_NAMES, SimCluster, build_service

CONTROL = ControlConfig(enabled=True, max_replicas=3, initial_replicas=2)
UNIT = SCALES["unit"]
VARIANTS = {
    "default": UNIT,
    "replicas3": UNIT.with_overrides(
        topology=replace(UNIT.topology, midtier_replicas=3)
    ),
    "control": UNIT.with_overrides(control=CONTROL),
}
GRAPHS = {
    "socialnet": exemplar_graph(n_queries=10),
    # Replicated terminal, replicated internal node, controlled root.
    "ctl": GraphConfig(
        name="ctl", root="web", n_queries=10,
        nodes=(
            GraphNode(name="web", control=CONTROL),
            GraphNode(name="logic", replicas=2),
            GraphNode(name="db", replicas=2),
        ),
        edges=(GraphEdge(src="web", dst="logic"), GraphEdge(src="logic", dst="db")),
    ),
}

#: case -> (fabric endpoints in registration order, the balancers among
#: them, (controller, its balancer, its signals) rows, client target).
CASES = {
    "hdsearch-default": (["hds-leaf0", "hds-leaf1", "hds-mid"], [], [], ("hds-mid", 40)),
    "hdsearch-replicas3": (["hds-leaf0", "hds-leaf1", "hds-mid0", "hds-mid1", "hds-mid2",
                            "hds-lb"],
                           ["hds-lb"], [], ("hds-lb", 0)),
    "hdsearch-control": (["hds-leaf0", "hds-leaf1", "hds-mid0", "hds-mid1", "hds-mid2",
                          "hds-lb"],
                         ["hds-lb"], [("hds-ctrl", "hds-lb", ["e2e_latency"])],
                         ("hds-lb", 0)),
    "router-default": (["router-leaf0r0", "router-leaf0r1", "router-leaf1r0",
                        "router-leaf1r1", "router-mid"],
                       [], [], ("router-mid", 40)),
    "router-replicas3": (["router-leaf0r0", "router-leaf0r1", "router-leaf1r0",
                          "router-leaf1r1", "router-mid0", "router-mid1", "router-mid2",
                          "router-lb"],
                         ["router-lb"], [], ("router-lb", 0)),
    "router-control": (["router-leaf0r0", "router-leaf0r1", "router-leaf1r0",
                        "router-leaf1r1", "router-mid0", "router-mid1", "router-mid2",
                        "router-lb"],
                       ["router-lb"], [("router-ctrl", "router-lb", ["e2e_latency"])],
                       ("router-lb", 0)),
    "setalgebra-default": (["sa-leaf0", "sa-leaf1", "sa-mid"], [], [], ("sa-mid", 40)),
    "setalgebra-replicas3": (["sa-leaf0", "sa-leaf1", "sa-mid0", "sa-mid1", "sa-mid2",
                              "sa-lb"],
                             ["sa-lb"], [], ("sa-lb", 0)),
    "setalgebra-control": (["sa-leaf0", "sa-leaf1", "sa-mid0", "sa-mid1", "sa-mid2",
                            "sa-lb"],
                           ["sa-lb"], [("sa-ctrl", "sa-lb", ["e2e_latency"])],
                           ("sa-lb", 0)),
    "recommend-default": (["rec-leaf0", "rec-leaf1", "rec-mid"], [], [], ("rec-mid", 40)),
    "recommend-replicas3": (["rec-leaf0", "rec-leaf1", "rec-mid0", "rec-mid1", "rec-mid2",
                             "rec-lb"],
                            ["rec-lb"], [], ("rec-lb", 0)),
    "recommend-control": (["rec-leaf0", "rec-leaf1", "rec-mid0", "rec-mid1", "rec-mid2",
                           "rec-lb"],
                          ["rec-lb"], [("rec-ctrl", "rec-lb", ["e2e_latency"])],
                          ("rec-lb", 0)),
    "socialnet": (["socialnet-store", "socialnet-media", "socialnet-user",
                   "socialnet-analytics", "socialnet-social", "socialnet-timeline",
                   "socialnet-compose", "socialnet-frontend"],
                  [], [], ("socialnet-frontend", 40)),
    "ctl": (["ctl-db0", "ctl-db1", "ctl-db-lb", "ctl-logic0", "ctl-logic1", "ctl-logic-lb",
             "ctl-web0", "ctl-web1", "ctl-web2", "ctl-web-lb"],
            ["ctl-db-lb", "ctl-logic-lb", "ctl-web-lb"],
            [("ctl-web-ctrl", "ctl-web-lb",
              ["midtier_latency:ctl-web0", "midtier_latency:ctl-web1",
               "midtier_latency:ctl-web2"])],
            ("ctl-web-lb", 0)),
}


def _build(case):
    cluster = SimCluster(seed=0)
    if case in GRAPHS:
        return cluster, build_graph(cluster, GRAPHS[case])
    service, variant = case.split("-")
    return cluster, build_service(service, cluster, VARIANTS[variant])


def test_cases_cover_the_grid():
    assert set(CASES) == set(GRAPHS) | {
        f"{service}-{variant}" for service in SERVICE_NAMES for variant in VARIANTS
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_wiring_names_are_pinned(case):
    endpoints, balancers, controllers, target = CASES[case]
    cluster, handle = _build(case)
    try:
        assert list(cluster.fabric._endpoints) == endpoints
        assert [machine.name for machine in cluster.machines] == [
            name for name in endpoints if name not in balancers
        ]
        assert [
            (ctrl.name, ctrl.lb.name if ctrl.lb else None, ctrl.signals)
            for ctrl in cluster.controllers
        ] == controllers
        assert handle.target_address == target
        assert (handle.frontend.name if handle.frontend else None) == (
            target[0] if target[0] in balancers else None
        )
    finally:
        cluster.shutdown()
