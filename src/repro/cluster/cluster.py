"""The :class:`Cluster` container: nodes + coordinator + directed links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.errors import ClusterError
from repro.cluster.gpus import GPUSpec
from repro.cluster.network import Link
from repro.cluster.node import COORDINATOR, ComputeNode


@dataclass
class Cluster:
    """A heterogeneous serving cluster.

    The coordinator is implicit (id :data:`~repro.cluster.node.COORDINATOR`);
    compute nodes and directed links are added through the builder methods.
    The class enforces referential integrity (links only between known nodes,
    no duplicate ids) so downstream layers can trust the topology.

    Nodes additionally carry an up/down *availability* state for online
    dynamics: a node that failed mid-serving stays part of the topology (its
    links, profiles, and identity survive so it can recover) but is reported
    unavailable until marked up again. Planning against only the live part of
    the cluster goes through :meth:`subcluster`.

    Attributes:
        name: Human-readable cluster label used in reports.
    """

    name: str = "cluster"
    _nodes: dict[str, ComputeNode] = field(default_factory=dict)
    _links: dict[tuple[str, str], Link] = field(default_factory=dict)
    _down: set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        gpu: GPUSpec,
        num_gpus: int = 1,
        region: str = "default",
    ) -> ComputeNode:
        """Add a compute node; returns the created node."""
        if node_id in self._nodes:
            raise ClusterError(f"duplicate node id {node_id!r}")
        node = ComputeNode(node_id=node_id, gpu=gpu, num_gpus=num_gpus, region=region)
        self._nodes[node_id] = node
        return node

    def connect(
        self,
        src: str,
        dst: str,
        bandwidth: float,
        latency: float = 0.0,
        bidirectional: bool = True,
    ) -> None:
        """Add a directed link (and its reverse unless ``bidirectional`` is
        false). Re-connecting an existing pair replaces the old link."""
        for endpoint in (src, dst):
            if endpoint != COORDINATOR and endpoint not in self._nodes:
                raise ClusterError(f"link endpoint {endpoint!r} is not a known node")
        self._links[(src, dst)] = Link(src, dst, bandwidth, latency)
        if bidirectional:
            self._links[(dst, src)] = Link(dst, src, bandwidth, latency)

    def connect_full_mesh(
        self,
        node_ids: Iterable[str],
        bandwidth: float,
        latency: float = 0.0,
        include_coordinator: bool = True,
    ) -> None:
        """Connect every pair among ``node_ids`` (and optionally the
        coordinator) with symmetric links of the given bandwidth/latency."""
        ids = list(node_ids)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                self.connect(a, b, bandwidth, latency)
        if include_coordinator:
            for a in ids:
                self.connect(COORDINATOR, a, bandwidth, latency)

    def remove_link(self, src: str, dst: str) -> None:
        """Remove one directed link; raises if absent."""
        try:
            del self._links[(src, dst)]
        except KeyError:
            raise ClusterError(f"no link {src!r}->{dst!r}") from None

    def remove_node(self, node_id: str) -> ComputeNode:
        """Remove a compute node and every link incident to it.

        Dropping the incident links keeps the referential integrity that
        :meth:`validate` checks — no dangling link may reference the removed
        node. Returns the removed node; raises if unknown.
        """
        try:
            node = self._nodes.pop(node_id)
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None
        for key in [k for k in self._links if node_id in k]:
            del self._links[key]
        self._down.discard(node_id)
        return node

    def set_link_bandwidth(self, src: str, dst: str, bandwidth: float) -> Link:
        """Replace the ``src -> dst`` link with one at ``bandwidth``.

        Links are frozen (subclusters share them), so changing a
        live link's bandwidth — degradation or repair — swaps in a
        fresh :class:`Link` with the same latency. Returns the new link.
        """
        old = self.link(src, dst)
        new = Link(src, dst, bandwidth, old.latency)
        self._links[(src, dst)] = new
        return new

    # ------------------------------------------------------------------
    # Availability (online dynamics)
    # ------------------------------------------------------------------
    def set_node_available(self, node_id: str, available: bool) -> None:
        """Mark a node up or down; raises if the node is unknown."""
        self.node(node_id)  # referential check
        if available:
            self._down.discard(node_id)
        else:
            self._down.add(node_id)

    def node_available(self, node_id: str) -> bool:
        """Whether a node is currently up; raises if unknown."""
        self.node(node_id)
        return node_id not in self._down

    @property
    def available_node_ids(self) -> list[str]:
        """Ids of nodes currently up, in insertion order."""
        return [nid for nid in self._nodes if nid not in self._down]

    @property
    def down_node_ids(self) -> list[str]:
        """Ids of nodes currently down, in insertion order."""
        return [nid for nid in self._nodes if nid in self._down]

    def subcluster(self, node_ids: Iterable[str] | None = None,
                   name: str | None = None) -> "Cluster":
        """A new cluster over ``node_ids`` (default: the available nodes).

        Keeps the selected nodes, every link between them, and their
        coordinator links; node and link objects are shared (both are
        frozen). All kept nodes start available. This is what online
        replanning hands to a planner after failures.
        """
        keep = set(self.available_node_ids if node_ids is None else node_ids)
        unknown = keep - set(self._nodes)
        if unknown:
            raise ClusterError(f"unknown nodes {sorted(unknown)!r}")
        sub = Cluster(name=name or f"{self.name}-sub{len(keep)}")
        for nid, node in self._nodes.items():
            if nid in keep:
                sub._nodes[nid] = node
        for (src, dst), link in self._links.items():
            if (src in keep or src == COORDINATOR) and (
                dst in keep or dst == COORDINATOR
            ):
                sub._links[(src, dst)] = link
        return sub

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> dict[str, ComputeNode]:
        """Mapping of node id to node (excluding the coordinator)."""
        return dict(self._nodes)

    @property
    def node_ids(self) -> list[str]:
        """Node ids in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> dict[tuple[str, str], Link]:
        """All directed links keyed by ``(src, dst)``."""
        return dict(self._links)

    def node(self, node_id: str) -> ComputeNode:
        """Fetch a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None

    def link(self, src: str, dst: str) -> Link:
        """Fetch the directed link ``src -> dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ClusterError(f"no link {src!r}->{dst!r}") from None

    def has_link(self, src: str, dst: str) -> bool:
        """Whether a directed link ``src -> dst`` exists."""
        return (src, dst) in self._links

    def links_from(self, src: str) -> list[Link]:
        """All outgoing links of ``src`` (which may be the coordinator)."""
        return [l for (s, _), l in self._links.items() if s == src]

    def links_to(self, dst: str) -> list[Link]:
        """All incoming links of ``dst`` (which may be the coordinator)."""
        return [l for (_, d), l in self._links.items() if d == dst]

    def regions(self) -> list[str]:
        """Distinct region labels, in first-appearance order."""
        seen: dict[str, None] = {}
        for node in self._nodes.values():
            seen.setdefault(node.region, None)
        return list(seen)

    def nodes_in_region(self, region: str) -> list[ComputeNode]:
        """All compute nodes whose region label matches."""
        return [n for n in self._nodes.values() if n.region == region]

    def gpu_type_counts(self) -> dict[str, int]:
        """Histogram of node GPU labels (``"T4"``, ``"2xL4"``, ...)."""
        counts: dict[str, int] = {}
        for node in self._nodes.values():
            counts[node.gpu_label] = counts.get(node.gpu_label, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ComputeNode]:
        return iter(self._nodes.values())

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants needed by placement and simulation.

        Raises:
            ClusterError: If the cluster has no nodes, the coordinator is
                disconnected, or a link references a missing node.
        """
        if not self._nodes:
            raise ClusterError("cluster has no compute nodes")
        for (src, dst), _ in self._links.items():
            for endpoint in (src, dst):
                if endpoint != COORDINATOR and endpoint not in self._nodes:
                    raise ClusterError(
                        f"link {src!r}->{dst!r} references unknown node"
                    )
        stale = self._down - set(self._nodes)
        if stale:
            raise ClusterError(
                f"availability state references unknown nodes {sorted(stale)!r}"
            )
        if not self.links_from(COORDINATOR):
            raise ClusterError("coordinator has no outgoing links")
        if not self.links_to(COORDINATOR):
            raise ClusterError("coordinator has no incoming links")

    def describe(self) -> str:
        """One-line summary, e.g. ``single-24: 24 nodes (4xA100-40G, ...)``."""
        parts = [f"{count}x{label}" for label, count in self.gpu_type_counts().items()]
        return f"{self.name}: {len(self)} nodes ({', '.join(parts)})"
