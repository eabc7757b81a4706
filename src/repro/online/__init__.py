"""Online dynamics: cluster churn, fault injection, and live replanning.

The paper plans a placement once and serves a static cluster; this package
closes the loop for clusters that lose nodes, degrade links, and bring
spare nodes back mid-flight. :mod:`repro.online.events` is the churn
vocabulary (scripted schedules and seeded random generators);
:mod:`repro.online.controller` reacts to each event in two tiers — an
incremental :meth:`FlowGraph.reevaluate()
<repro.flow.graph.FlowGraph.reevaluate>` flow rewrite for an immediate
degraded-mode hot-swap, then a deterministic :meth:`replan()
<repro.placement.helix_milp.HelixMilpPlanner.replan>` on a freshly built
planner (the best of the degraded placement and the heuristic ones),
whose repaired placement is swapped into the scheduler's IWRR selectors.

Quickstart::

    from repro.online import NodeFailure, OnlineController

    controller = OnlineController(model, events=[NodeFailure(10.0, "l4-2")])
    sim = Simulation(cluster, model, placement, scheduler, trace,
                     seed=0, controller=controller)
    metrics = sim.run()
    print(controller.report(sim).summary())
"""

from repro.online.events import (
    ClusterEvent,
    NodeDrain,
    NodeFailure,
    NodeRecovery,
    LinkDegradation,
    LinkRecovery,
    ChurnConfig,
    random_churn,
    validate_schedule,
)
from repro.online.faults import (
    FlakyLink,
    FlakyLinkEnd,
    LinkFault,
    StragglerEnd,
    StragglerStart,
    ZombieNode,
)
from repro.online.autoscale import Autoscaler, AutoscalerConfig
from repro.online.detect import FailureDetector
from repro.online.controller import OnlineController, ReplanRecord

__all__ = [
    "ClusterEvent",
    "NodeDrain",
    "NodeFailure",
    "NodeRecovery",
    "LinkDegradation",
    "LinkRecovery",
    "ChurnConfig",
    "random_churn",
    "validate_schedule",
    "FlakyLink",
    "FlakyLinkEnd",
    "LinkFault",
    "StragglerEnd",
    "StragglerStart",
    "ZombieNode",
    "FailureDetector",
    "Autoscaler",
    "AutoscalerConfig",
    "OnlineController",
    "ReplanRecord",
]
