"""Planner interface and result container."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.profiler import Profiler
from repro.core.errors import PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph, FlowSolution
from repro.milp.solution import MilpSolution
from repro.models.specs import ModelSpec


@dataclass
class PlannerResult:
    """Outcome of a placement planner.

    Attributes:
        planner_name: Which planner produced the placement.
        placement: The model placement (validated).
        flow: Max-flow solution for the placement; its value is the
            placement's maximum serving throughput in tokens/second, and
            its per-connection flows seed the IWRR scheduler weights.
        pipelines: For planners that build disjoint fixed pipelines (SP,
            SP+), the ordered node lists of each pipeline; ``None`` for
            flow-based planners.
        milp: The underlying MILP solution, for the Helix planner.
        num_variables: MILP variable count (Table 8 reproduction); 0 when
            no MILP was built.
        num_constraints: MILP constraint count (Table 8 reproduction); 0
            when no MILP was built.
        solve_time: Seconds spent planning.
    """

    planner_name: str
    placement: ModelPlacement
    flow: FlowSolution
    pipelines: list[list[str]] | None = None
    milp: MilpSolution | None = None
    num_variables: int = 0
    num_constraints: int = 0
    solve_time: float = 0.0

    @property
    def max_throughput(self) -> float:
        """The placement's max-flow serving throughput (tokens/second)."""
        return self.flow.max_flow


class PlacementPlanner(abc.ABC):
    """Base class for placement planners.

    Args:
        cluster: The target cluster (validated).
        model: The model to place.
        profiler: The performance model; defaults to a fresh
            :class:`~repro.cluster.profiler.Profiler`.
        partial_inference: Whether overlapping-interval handoffs are allowed
            when evaluating the placement's flow (paper §4.4).
    """

    name = "base"

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        profiler: Profiler | None = None,
        partial_inference: bool = True,
    ) -> None:
        cluster.validate()
        self.cluster = cluster
        self.model = model
        self.profiler = profiler or Profiler()
        self.partial_inference = partial_inference
        #: Per-cluster :class:`FlowGraph`, built once and re-targeted via
        #: :meth:`FlowGraph.reevaluate` for every later candidate.
        self._flow_evaluators: dict[int, tuple[Cluster, FlowGraph]] = {}

    @abc.abstractmethod
    def plan(self) -> PlannerResult:
        """Produce a placement and its flow solution."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def max_layers(self, node_id: str, weight_fraction: float | None = None) -> int:
        """VRAM-bounded layer capacity of a node, capped at the model size.

        Args:
            node_id: The node to bound.
            weight_fraction: Override the profiler's VRAM provisioning rule
                (used by SP when it must sacrifice KV-cache room, §6.3).
        """
        from repro.models.memory import max_layers_on_vram

        node = self.cluster.node(node_id)
        if weight_fraction is None:
            bound = self.profiler.max_layers(node, self.model)
        else:
            bound = max_layers_on_vram(self.model, node.vram_bytes, weight_fraction)
        return min(bound, self.model.num_layers)

    def per_layer_rate(self, node_id: str) -> float:
        """Single-layer token throughput ``T_1``, used to rank nodes."""
        node = self.cluster.node(node_id)
        return self.profiler.throughput(node, self.model, 1)

    def nodes_by_capacity(self) -> list[str]:
        """Node ids sorted by descending per-layer rate, then id."""
        return sorted(
            self.cluster.node_ids,
            key=lambda nid: (-self.per_layer_rate(nid), nid),
        )

    def evaluate_placement(
        self, placement: ModelPlacement, cluster: Cluster | None = None
    ) -> FlowSolution:
        """Solve a placement's max flow through the per-cluster evaluator.

        The first evaluation on a cluster builds its :class:`FlowGraph`;
        subsequent evaluations re-target it incrementally, which is the hot
        path of hint ranking and incumbent checks. The evaluator
        snapshots the cluster topology, so planners must not mutate the
        cluster mid-plan (none do). Raises :class:`PlacementError` when the
        placement cannot serve.
        """
        if cluster is None:  # not truthiness: an empty Cluster is falsy
            cluster = self.cluster
        entry = self._flow_evaluators.get(id(cluster))
        if entry is None:
            graph = FlowGraph(
                cluster, self.model, placement, self.profiler,
                self.partial_inference,
            )
            # Keep the cluster reference alive so its id stays unique.
            self._flow_evaluators[id(cluster)] = (cluster, graph)
            return graph.solve()
        return entry[1].reevaluate(placement)

    def placement_throughput(
        self, placement: ModelPlacement, cluster: Cluster | None = None
    ) -> float:
        """Max-flow value of a placement, 0 when it cannot serve at all."""
        try:
            return self.evaluate_placement(placement, cluster).max_flow
        except PlacementError:
            return 0.0

    def solve_flow(
        self, placement: ModelPlacement, weight_fraction: float | None = None
    ) -> FlowSolution:
        """Validate a placement and solve its max flow."""
        bounds = {
            nid: self.max_layers(nid, weight_fraction)
            for nid in self.cluster.node_ids
        }
        placement.validate(max_layers_per_node=bounds)
        return self.evaluate_placement(placement)

    def compute_upper_bound(self) -> float:
        """The paper's §4.5 throughput upper bound.

        Serving throughput can never exceed the sum of every node's
        token-layer capacity divided by the number of model layers.
        """
        total_token_layers = 0.0
        for node_id in self.cluster.node_ids:
            k = self.max_layers(node_id)
            if k < 1:
                continue
            node = self.cluster.node(node_id)
            best = max(
                self.profiler.throughput(node, self.model, j) * j
                for j in range(1, k + 1)
            )
            total_token_layers += best
        return total_token_layers / self.model.num_layers
