"""Graph abstraction of a cluster with a given model placement (paper §4.3).

Each compute node ``c_i`` becomes two vertices ``c_i^in -> c_i^out`` whose
connecting edge carries the node's profiled token throughput ``T_j`` for the
``j`` layers it holds. The coordinator becomes ``source`` and ``sink``.
Network connections become edges whose capacity is bandwidth divided by the
per-token message size — 4-byte token ids on coordinator links, hidden-state
activations on compute-to-compute links.

A connection is *valid* (paper's three criteria) when:

1. ``source -> c_i`` and ``c_i`` holds the first layer;
2. ``c_j -> sink`` and ``c_j`` holds the last layer;
3. ``c_i -> c_j`` and ``c_j`` holds the layers needed right after ``c_i``
   finishes — with partial inference (§4.4), ``s_j <= e_i < e_j``; without
   it, exactly ``e_i == s_j``.

Criteria 1 and 2 are criterion 3 with the coordinator given a
pseudo-interval: as a source it has finished everything before layer 0,
and as a sink it holds the virtual layer ``L`` right after the model's
last one. :func:`_handoff_valid` is the one implementation of the rule.

The max flow of the resulting graph is the placement's maximum serving
throughput in tokens/second.

Because one cluster sees many candidate placements (§4.5's warm starts,
incumbent checks, the online controller's flow rewrites, the testkit's
enumeration oracle), a :class:`FlowGraph` is built *once* per cluster and
re-targeted cheaply:

* The flow network contains every node edge and every physical link as a
  permanent edge; placement only decides each edge's capacity (zero for
  invalid connections and unused nodes). The underlying flat-array kernel
  skips zero-capacity edges entirely, so solves stay as fast as on a graph
  containing only the valid edges.
* Link token capacities are computed once per graph; ``T_j`` only for
  nodes whose stage size changed.
* :meth:`FlowGraph.reevaluate` diffs the new placement against the current
  one and rewrites capacities only for node edges whose interval changed
  and link edges incident to a changed node — no vertex, edge, or registry
  reconstruction. Re-evaluating an unchanged placement returns the cached
  solution without re-solving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.maxflow import FlowNetwork
from repro.models.specs import ModelSpec

SOURCE = "source"
SINK = "sink"

_Span = tuple[int, int]

#: The coordinator's pseudo-interval as a connection's source: it hands
#: off at layer 0. As a sink it is ``_sink_span(num_layers)``.
_SOURCE_SPAN: _Span = (0, 0)


def _sink_span(num_layers: int) -> _Span:
    """The coordinator's pseudo-interval as a sink: the virtual layer ``L``."""
    return (num_layers, num_layers + 1)


def _handoff_valid(
    src: _Span | None, dst: _Span | None, partial_inference: bool
) -> bool:
    """The validity rule on ``(start, end)`` spans; ``None`` holds nothing."""
    if src is None or dst is None:
        return False
    if partial_inference:
        return dst[0] <= src[1] < dst[1]
    return src[1] == dst[0]


def _placement_span(
    placement: ModelPlacement, endpoint: str, coordinator: _Span
) -> _Span | None:
    if endpoint == COORDINATOR:
        return coordinator
    stage = placement.assignments.get(endpoint)
    return None if stage is None else (stage.start, stage.end)


def connection_is_valid(
    placement: ModelPlacement,
    src: str,
    dst: str,
    partial_inference: bool = True,
) -> bool:
    """Whether a directed network connection is usable under ``placement``.

    ``src``/``dst`` may be node ids or :data:`~repro.cluster.node.COORDINATOR`.
    """
    return _handoff_valid(
        _placement_span(placement, src, _SOURCE_SPAN),
        _placement_span(placement, dst, _sink_span(placement.num_layers)),
        partial_inference,
    )


@dataclass(frozen=True)
class FlowSolution:
    """A solved max-flow over the cluster graph.

    Attributes:
        max_flow: Maximum serving throughput in tokens/second.
        connection_flows: Flow per valid network connection, keyed by
            ``(src, dst)`` where endpoints are node ids or ``COORDINATOR``.
        node_flows: Flow through each node's internal capacity edge.
        node_capacities: The ``T_j`` capacity of each used node.
        connection_capacities: Token capacity per valid connection.
    """

    max_flow: float
    connection_flows: dict[tuple[str, str], float]
    node_flows: dict[str, float]
    node_capacities: dict[str, float]
    connection_capacities: dict[tuple[str, str], float]

    def node_utilization(self, node_id: str) -> float:
        """Fraction of the node's token throughput used by the max flow."""
        capacity = self.node_capacities.get(node_id, 0.0)
        if capacity <= 0:
            return 0.0
        return self.node_flows.get(node_id, 0.0) / capacity

    def outgoing_flows(self, src: str) -> dict[str, float]:
        """Positive flows leaving ``src`` keyed by destination."""
        return {
            dst: flow
            for (s, dst), flow in self.connection_flows.items()
            if s == src and flow > 0.0
        }


class FlowGraph:
    """Builds and solves the paper's graph abstraction, reusably.

    Args:
        cluster: The serving cluster.
        model: The served model.
        placement: A validated model placement.
        profiler: Source of the node throughputs ``T_j``.
        partial_inference: Whether overlapping intervals may hand off
            mid-interval (paper §4.4's partial inference).
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        placement: ModelPlacement,
        profiler: Profiler | None = None,
        partial_inference: bool = True,
    ) -> None:
        self.cluster = cluster
        self.model = model
        self.placement = placement
        self.profiler = profiler or Profiler()
        self.partial_inference = partial_inference
        # Per-token message size, indexed by "carries activations": token
        # ids on coordinator links, hidden states between compute nodes
        # (the sizes Profiler.link_token_capacity divides by).
        self._per_token = (
            float(model.token_bytes), model.activation_bytes_per_token
        )
        self._network = FlowNetwork()
        # Static structure, built once per cluster.
        self._node_edge_ids: dict[str, int] = {}
        self._link_edge_ids: dict[tuple[str, str], int] = {}
        self._link_caps: dict[tuple[str, str], float] = {}
        self._links_by_node: dict[str, list[tuple[str, str]]] = {}
        # Placement-dependent state, updated incrementally.
        self._intervals: dict[str, _Span | None] = {}
        self._link_valid: dict[tuple[str, str], bool] = {}
        self._node_capacities: dict[str, float] = {}
        self._connection_capacities: dict[tuple[str, str], float] = {}
        self._solution: FlowSolution | None = None
        self._build_network()
        self._apply_placement(placement)

    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        """Create every vertex and edge once; capacities start at zero."""
        net = self._network
        add_edge = net.add_edge
        net.add_node(SOURCE)
        net.add_node(SINK)

        node_edge_ids = self._node_edge_ids
        intervals = self._intervals
        links_by_node = self._links_by_node
        in_vertex: dict[str, str] = {}
        out_vertex: dict[str, str] = {}
        for node_id in self.cluster.node_ids:
            u = in_vertex[node_id] = f"{node_id}::in"
            v = out_vertex[node_id] = f"{node_id}::out"
            node_edge_ids[node_id] = add_edge(u, v, 0.0)
            intervals[node_id] = None
            links_by_node[node_id] = []

        token_bytes, activation_bytes = self._per_token
        link_edge_ids = self._link_edge_ids
        link_caps = self._link_caps
        link_valid = self._link_valid
        for key, link in self.cluster.links.items():
            src, dst = key
            if src == COORDINATOR:
                u, v, per_token = SOURCE, in_vertex[dst], token_bytes
                links_by_node[dst].append(key)
            elif dst == COORDINATOR:
                u, v, per_token = out_vertex[src], SINK, token_bytes
                links_by_node[src].append(key)
            else:
                u, v = out_vertex[src], in_vertex[dst]
                per_token = activation_bytes
                links_by_node[src].append(key)
                links_by_node[dst].append(key)
            link_edge_ids[key] = add_edge(u, v, 0.0)
            link_caps[key] = link.bandwidth / per_token
            link_valid[key] = False

    def _apply_placement(self, placement: ModelPlacement) -> None:
        """Point the network at ``placement``, rewriting only changed edges."""
        if not placement.first_layer_holders():
            raise PlacementError("no node holds the first layer")
        if not placement.last_layer_holders():
            raise PlacementError("no node holds the last layer")
        for node_id in placement.assignments:
            if node_id not in self._node_edge_ids:
                self.cluster.node(node_id)  # raises ClusterError

        net = self._network
        assignments = placement.assignments
        intervals = self._intervals
        changed: list[str] = []
        for node_id, previous in intervals.items():
            stage = assignments.get(node_id)
            current = (stage.start, stage.end) if stage is not None else None
            if current == previous:
                continue
            changed.append(node_id)
            intervals[node_id] = current
            if current is None:
                capacity = 0.0
                self._node_capacities.pop(node_id, None)
            else:
                capacity = self.profiler.throughput(
                    self.cluster.node(node_id), self.model, stage.num_layers
                )
                self._node_capacities[node_id] = capacity
            net.set_capacity(self._node_edge_ids[node_id], capacity)

        # Sink-side validity compares interval ends against num_layers, so a
        # different model length invalidates every link, not just those at
        # changed nodes.
        if placement.num_layers != self.placement.num_layers:
            recheck = list(self._link_valid)
        else:
            seen: set[tuple[str, str]] = set()
            recheck = []
            for node_id in changed:
                for key in self._links_by_node[node_id]:
                    if key not in seen:
                        seen.add(key)
                        recheck.append(key)

        flipped = False
        partial = self.partial_inference
        sink = _sink_span(placement.num_layers)
        link_valid = self._link_valid
        for key in recheck:
            src, dst = key
            valid = _handoff_valid(
                _SOURCE_SPAN if src == COORDINATOR else intervals[src],
                sink if dst == COORDINATOR else intervals[dst],
                partial,
            )
            if valid == link_valid[key]:
                continue
            flipped = True
            link_valid[key] = valid
            if valid:
                capacity = self._link_caps[key]
                self._connection_capacities[key] = capacity
            else:
                capacity = 0.0
                self._connection_capacities.pop(key, None)
            net.set_capacity(self._link_edge_ids[key], capacity)

        if changed or flipped:
            self._solution = None
        self.placement = placement

    # ------------------------------------------------------------------
    @property
    def network(self) -> FlowNetwork:
        """The underlying flow network (for inspection and tests)."""
        return self._network

    def valid_connections(self) -> list[tuple[str, str]]:
        """All valid network connections under the placement."""
        return list(self._connection_capacities)

    def solve(self) -> FlowSolution:
        """Solve the max flow and aggregate per-connection and per-node flow.

        The solution is cached until the placement changes, so repeated
        value queries on the same placement (common in the planner's
        incumbent checks) cost a dict lookup.
        """
        if self._solution is not None:
            return self._solution
        result = self._network.max_flow(SOURCE, SINK)
        edge_flows = result.edge_flows
        node_flows = {
            node_id: edge_flows[edge_id]
            for node_id, edge_id in self._node_edge_ids.items()
            if node_id in self._node_capacities
        }
        connection_flows = {
            key: edge_flows[self._link_edge_ids[key]]
            for key in self._connection_capacities
        }
        self._solution = FlowSolution(
            max_flow=result.value,
            connection_flows=connection_flows,
            node_flows=node_flows,
            node_capacities=dict(self._node_capacities),
            connection_capacities=dict(self._connection_capacities),
        )
        return self._solution

    def reevaluate(self, placement: ModelPlacement) -> FlowSolution:
        """Re-solve for a new placement without rebuilding the graph.

        Only capacities of edges whose validity or stage size changed are
        rewritten; everything else — vertices, edges, profiler lookups,
        registries — is reused. Raises :class:`PlacementError` (leaving the
        evaluator pointed at the previous placement) when the new placement
        cannot serve at all.
        """
        self._apply_placement(placement)
        return self.solve()

    def refresh_links(
        self, keys: list[tuple[str, str]] | None = None
    ) -> list[tuple[str, str]]:
        """Re-read link bandwidths from the cluster after in-place changes.

        The online controller degrades and repairs links mid-serving by
        swapping the cluster's :class:`~repro.cluster.network.Link` objects;
        this re-derives the affected token capacities and rewrites the
        corresponding edge capacities (for currently-valid connections)
        without touching graph structure.

        Args:
            keys: The ``(src, dst)`` connections to refresh; ``None``
                refreshes every known link.

        Returns:
            The connections whose capacity actually changed.
        """
        cluster_links = self.cluster.links
        changed: list[tuple[str, str]] = []
        for key in keys if keys is not None else list(self._link_caps):
            link = cluster_links.get(key)
            if link is None or key not in self._link_edge_ids:
                continue
            carries_activations = (
                key[0] != COORDINATOR and key[1] != COORDINATOR
            )
            capacity = link.bandwidth / self._per_token[carries_activations]
            if capacity == self._link_caps[key]:
                continue
            changed.append(key)
            self._link_caps[key] = capacity
            if self._link_valid[key]:
                self._connection_capacities[key] = capacity
                self._network.set_capacity(self._link_edge_ids[key], capacity)
        if changed:
            self._solution = None
        return changed


def placement_max_flow(
    cluster: Cluster,
    model: ModelSpec,
    placement: ModelPlacement,
    profiler: Profiler | None = None,
    partial_inference: bool = True,
) -> float:
    """Convenience: the maximum serving throughput of a placement."""
    graph = FlowGraph(cluster, model, placement, profiler, partial_inference)
    return graph.solve().max_flow
