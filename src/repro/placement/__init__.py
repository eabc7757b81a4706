"""Model placement planners.

The paper's central contribution is the MILP-based planner
(:class:`~repro.placement.helix_milp.HelixMilpPlanner`, §4.4-4.6), which
jointly chooses how many layers each node holds and which network
connections carry traffic so that the cluster's max-flow is maximal.

The baselines the evaluation compares against are implemented alongside:

* :class:`~repro.placement.swarm.SwarmPlanner` — even layer partition into
  the fewest stages the weakest GPU can hold, devices balanced across
  stages by compute capacity (§6.2);
* :class:`~repro.placement.petals.PetalsPlanner` — each node greedily
  serves the contiguous span with the least accumulated throughput (§6.6);
* :class:`~repro.placement.separate.SeparatePipelinesPlanner` — one
  pipeline per GPU type (SP), optionally plus a mixed pipeline from
  leftover machines (SP+, §6.5).
"""

from repro.core.placement_types import ModelPlacement, StageAssignment
from repro.placement.base import PlannerResult, PlacementPlanner
from repro.placement.pruning import prune_cluster
from repro.placement.helix_milp import HelixMilpPlanner, MilpFormulation
from repro.placement.swarm import SwarmPlanner
from repro.placement.petals import PetalsPlanner
from repro.placement.separate import SeparatePipelinesPlanner

__all__ = [
    "ModelPlacement",
    "StageAssignment",
    "PlannerResult",
    "PlacementPlanner",
    "prune_cluster",
    "HelixMilpPlanner",
    "MilpFormulation",
    "SwarmPlanner",
    "PetalsPlanner",
    "SeparatePipelinesPlanner",
]
