"""Scheduler base class and the cluster topology graph (paper §5.1).

The topology graph's vertices are the coordinator and all used compute
nodes; its directed edges are the network connections that are *valid*
under the current model placement. Every scheduler builds request pipelines
by walking this graph from the coordinator until the model's last layer is
reached; subclasses only decide *which* successor to take at each vertex.
"""

from __future__ import annotations

import abc

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import SchedulingError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowSolution, connection_is_valid
from repro.models.specs import ModelSpec
from repro.scheduling.kv_estimator import KVCacheEstimator
from repro.scheduling.pipelines import PipelineStage, RequestPipeline


class TopologyGraph:
    """Valid-connection graph of a placed cluster.

    Args:
        cluster: The serving cluster.
        placement: The current model placement.
        partial_inference: Whether mid-interval handoffs are valid.
    """

    def __init__(
        self,
        cluster: Cluster,
        placement: ModelPlacement,
        partial_inference: bool = True,
    ) -> None:
        self.placement = placement
        self.partial_inference = partial_inference
        self._successors: dict[str, list[str]] = {}
        vertices = [COORDINATOR] + placement.used_nodes
        for vertex in vertices:
            succ = []
            for link in cluster.links_from(vertex):
                if connection_is_valid(
                    placement, vertex, link.dst, partial_inference
                ):
                    succ.append(link.dst)
            self._successors[vertex] = succ

    def node_successors(self, vertex: str) -> list[str]:
        """Valid next compute nodes (excluding the sink edge)."""
        return [v for v in self._successors.get(vertex, []) if v != COORDINATOR]

    def reaches_sink(self, vertex: str) -> bool:
        """Whether ``vertex`` has a valid edge back to the coordinator."""
        return COORDINATOR in self._successors.get(vertex, [])


class Scheduler(abc.ABC):
    """Assigns per-request pipelines by walking the topology graph.

    Subclasses implement :meth:`_choose_next` — the routing policy at one
    vertex. KV-cache estimation/masking (paper §5.2) and outstanding-work
    accounting are handled here so every policy competes under the same
    admission rules.

    Args:
        cluster: The serving cluster.
        model: The served model.
        placement: The model placement in effect.
        profiler: Performance model (for KV capacities).
        partial_inference: Whether mid-interval handoffs are valid.
        expected_output_len: Output-length estimate for KV accounting.
    """

    name = "base"

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        placement: ModelPlacement,
        profiler: Profiler | None = None,
        partial_inference: bool = True,
        expected_output_len: float = 232.0,
    ) -> None:
        placement.validate()
        self.cluster = cluster
        self.model = model
        self.placement = placement
        self.profiler = profiler or Profiler()
        self.partial_inference = partial_inference
        self.topology = TopologyGraph(cluster, placement, partial_inference)

        capacities = {}
        for node_id in placement.used_nodes:
            node = cluster.node(node_id)
            stage = placement.interval(node_id)
            capacities[node_id] = self.profiler.kv_capacity(
                node, model, stage.num_layers
            )
        self.kv = KVCacheEstimator(
            capacities, expected_output_len=expected_output_len
        )
        self.outstanding: dict[str, int] = {nid: 0 for nid in placement.used_nodes}
        #: Nodes still pulling their assigned layers (layer residency):
        #: placed but not yet servable, masked like unavailable nodes until
        #: the simulator calls :meth:`mark_node_warm`.
        self.warming_nodes: set[str] = set()
        self._active: dict[str, RequestPipeline] = {}
        self._active_input_len: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Pipeline construction
    # ------------------------------------------------------------------
    def schedule(self, request_id: str, input_len: int) -> RequestPipeline | None:
        """Build and register a pipeline for a request.

        Returns ``None`` when no admissible pipeline exists right now (all
        candidate nodes above the KV high-water mark); callers should retry
        after :meth:`notify_finished` releases capacity.
        """
        if request_id in self._active:
            raise SchedulingError(f"request {request_id!r} is already scheduled")
        pipeline = self._build_pipeline(input_len)
        if pipeline is None:
            return None
        outstanding = self.outstanding
        node_ids = [stage.node_id for stage in pipeline.stages]
        self.kv.charge_pipeline(node_ids, input_len)
        for node_id in node_ids:
            outstanding[node_id] = outstanding.get(node_id, 0) + 1
        self._active[request_id] = pipeline
        self._active_input_len[request_id] = input_len
        return pipeline

    def _build_pipeline(self, input_len: int) -> RequestPipeline | None:
        """Walk the topology graph; nodes the cluster reports unavailable
        (failed, confirmed dead, draining or drained) are masked."""
        num_layers = self.placement.num_layers
        available = self.cluster.node_available
        stages: list[PipelineStage] = []
        current = COORDINATOR
        position = 0
        visited: set[str] = set()
        while position < num_layers:
            candidates = [
                nid
                for nid in self.topology.node_successors(current)
                if nid not in visited
                and available(nid)
                and nid not in self.warming_nodes
                and self.kv.admits(nid, input_len)
            ]
            chosen = self._choose_next(current, candidates, input_len)
            if chosen is None:
                return None
            stage_end = self.placement.interval(chosen).end
            stages.append(PipelineStage(chosen, position, stage_end))
            visited.add(chosen)
            position = stage_end
            current = chosen
        if not self.topology.reaches_sink(current):
            return None
        pipeline = RequestPipeline.from_stages(stages)
        pipeline.validate(num_layers)
        return pipeline

    @abc.abstractmethod
    def _choose_next(
        self, current: str, candidates: list[str], input_len: int
    ) -> str | None:
        """Pick the next hop among admissible ``candidates`` (or ``None``)."""

    # ------------------------------------------------------------------
    # Lifecycle callbacks (driven by the simulator)
    # ------------------------------------------------------------------
    def notify_finished(self, request_id: str) -> None:
        """Release a finished request's KV charges and queue slots."""
        pipeline = self._active.pop(request_id, None)
        if pipeline is None:
            return
        input_len = self._active_input_len.pop(request_id)
        outstanding = self.outstanding
        node_ids = [stage.node_id for stage in pipeline.stages]
        self.kv.release_pipeline(node_ids, input_len)
        for node_id in node_ids:
            outstanding[node_id] = max(0, outstanding.get(node_id, 0) - 1)

    def notify_failed(self, request_id: str) -> None:
        """Release a *failed* request's charges so it can be rescheduled.

        Same bookkeeping as :meth:`notify_finished` — the request stops
        occupying its pipeline — but named separately so online callers read
        correctly and policies can distinguish the two if they need to.
        """
        self.notify_finished(request_id)

    def notify_node_progress(
        self, node_id: str, tokens: float, elapsed: float
    ) -> None:
        """Observe a node finishing work (used by throughput-based policies)."""

    # ------------------------------------------------------------------
    # Online dynamics (driven by the controller/simulator)
    # ------------------------------------------------------------------
    def mark_node_warming(self, node_id: str) -> None:
        """Mask a node whose assigned layers are not yet resident."""
        self.warming_nodes.add(node_id)

    def mark_node_warm(self, node_id: str) -> None:
        """Lift a node's warming mask (its layers landed in VRAM)."""
        self.warming_nodes.discard(node_id)

    def apply_placement(self, placement: ModelPlacement, flow=None) -> None:
        """Hot-swap a replanned placement without dropping in-flight state.

        Rebuilds the topology graph and per-node KV capacities for the new
        placement while preserving active-request charges and outstanding
        counts — the live analogue of constructing a fresh scheduler.
        Subclasses that route from a flow solution override this to also
        rebuild their selectors (``flow`` is ignored here).
        """
        placement.validate()
        self.placement = placement
        self.topology = TopologyGraph(
            self.cluster, placement, self.partial_inference
        )
        for node_id in placement.used_nodes:
            node = self.cluster.node(node_id)
            stage = placement.interval(node_id)
            self.kv.set_capacity(
                node_id,
                self.profiler.kv_capacity(node, self.model, stage.num_layers),
            )
            self.outstanding.setdefault(node_id, 0)

    @property
    def active_requests(self) -> int:
        """Number of requests currently holding pipelines."""
        return len(self._active)

    def pipeline_of(self, request_id: str) -> RequestPipeline:
        """The pipeline assigned to an active request."""
        try:
            return self._active[request_id]
        except KeyError:
            raise SchedulingError(f"request {request_id!r} is not active") from None
