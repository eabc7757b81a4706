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

The graph holds every node edge and every physical link as a permanent
edge; the placement only decides each edge's capacity (zero for unused
nodes and invalid connections), and the max-flow kernel skips
zero-capacity edges. :meth:`FlowGraph.reevaluate` points the graph at
another placement by rewriting every capacity, which the online
controller does after each churn event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.network import Link
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


class FlowGraph:
    """Builds and solves the paper's graph abstraction.

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
        self._network = FlowNetwork()
        self._node_edge_ids: dict[str, int] = {}
        self._link_edge_ids: dict[tuple[str, str], int] = {}
        self._link_caps: dict[tuple[str, str], float] = {}
        self._node_capacities: dict[str, float] = {}
        self._connection_capacities: dict[tuple[str, str], float] = {}
        self._check_serves(placement)
        self._build_network()
        self._apply_placement(placement)

    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        """Create every vertex and edge once; capacities start at zero."""
        net = self._network
        net.add_node(SOURCE)
        net.add_node(SINK)
        for node_id in self.cluster.node_ids:
            self._node_edge_ids[node_id] = net.add_edge(
                f"{node_id}::in", f"{node_id}::out", 0.0
            )
        for key, link in self.cluster.links.items():
            src, dst = key
            u = SOURCE if src == COORDINATOR else f"{src}::out"
            v = SINK if dst == COORDINATOR else f"{dst}::in"
            self._link_edge_ids[key] = net.add_edge(u, v, 0.0)
            self._link_caps[key] = self._link_capacity(key, link)

    def _link_capacity(self, key: tuple[str, str], link: Link) -> float:
        """Tokens/second: ids on coordinator links, activations between
        compute nodes."""
        return self.profiler.link_token_capacity(
            link, self.model, COORDINATOR not in key
        )

    def _check_serves(self, placement: ModelPlacement) -> None:
        """Raise unless ``placement`` covers both ends of the model on
        nodes of the cluster."""
        if not placement.first_layer_holders():
            raise PlacementError("no node holds the first layer")
        if not placement.last_layer_holders():
            raise PlacementError("no node holds the last layer")
        for node_id in placement.assignments:
            self.cluster.node(node_id)  # raises ClusterError if unknown

    def _apply_placement(self, placement: ModelPlacement) -> None:
        """Rewrite every node and link capacity from ``placement``."""
        net = self._network
        self._node_capacities = {}
        for node_id, edge_id in self._node_edge_ids.items():
            stage = placement.assignments.get(node_id)
            capacity = 0.0
            if stage is not None:
                capacity = self.profiler.throughput(
                    self.cluster.node(node_id), self.model, stage.num_layers
                )
                self._node_capacities[node_id] = capacity
            net.set_capacity(edge_id, capacity)

        self._connection_capacities = {}
        for key, edge_id in self._link_edge_ids.items():
            capacity = 0.0
            if connection_is_valid(placement, *key, self.partial_inference):
                capacity = self._link_caps[key]
                self._connection_capacities[key] = capacity
            net.set_capacity(edge_id, capacity)
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
        """Solve the max flow and aggregate per-connection and per-node flow."""
        result = self._network.max_flow(SOURCE, SINK)
        edge_flows = result.edge_flows
        return FlowSolution(
            max_flow=result.value,
            connection_flows={
                key: edge_flows[self._link_edge_ids[key]]
                for key in self._connection_capacities
            },
            node_flows={
                node_id: edge_flows[self._node_edge_ids[node_id]]
                for node_id in self._node_capacities
            },
            node_capacities=dict(self._node_capacities),
            connection_capacities=dict(self._connection_capacities),
        )

    def reevaluate(self, placement: ModelPlacement) -> FlowSolution:
        """Point the graph at another placement and solve it.

        Raises :class:`PlacementError` (leaving the graph pointed at the
        previous placement) when the new placement cannot serve at all.
        """
        self._check_serves(placement)
        self._apply_placement(placement)
        return self.solve()

    def refresh_links(self) -> list[tuple[str, str]]:
        """Re-read link bandwidths from the cluster after in-place changes.

        The online controller degrades and repairs links mid-serving by
        swapping the cluster's :class:`~repro.cluster.network.Link`
        objects; this re-derives their token capacities and rewrites the
        edge capacities of the current placement.

        Returns:
            The connections whose capacity changed.
        """
        changed = []
        for key, link in self.cluster.links.items():
            capacity = self._link_capacity(key, link)
            if capacity != self._link_caps[key]:
                changed.append(key)
                self._link_caps[key] = capacity
        if changed:
            self._apply_placement(self.placement)
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
