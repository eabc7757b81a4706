"""Flat-array maximum-flow kernel for the cluster graph abstraction.

The paper computes a placement's serving throughput by running a max-flow
algorithm (preflow-push in their implementation, §4.3) on the cluster's
graph abstraction. The optimum is algorithm-independent; we use Dinic's
blocking-flow algorithm because it terminates with a genuine *flow* (not a
preflow), which the scheduler needs intact for deriving IWRR weights from
per-edge flows (§5.1). Results are cross-checked against networkx's
preflow-push in the test suite.

The kernel keeps the network in flat arrays and can be re-solved after
capacity changes:

* Arcs live in parallel flat arrays (``_arc_to`` / ``_arc_cap`` /
  ``_arc_flow``) rather than per-arc objects. Arc ``2*i`` is edge ``i``'s
  forward arc and arc ``2*i + 1`` its residual twin, so the reverse of arc
  ``a`` is always ``a ^ 1``.
* Adjacency is a CSR index (``_csr_start`` / ``_csr_arcs``) over the
  *active* arcs — those whose edge currently has positive capacity — and is
  rebuilt lazily only when the active set changes. Zero-capacity edges
  (e.g. connections invalidated by the current placement) cost nothing
  during a solve.
* The blocking-flow search is iterative (advance/retreat with an explicit
  path stack), so chain networks thousands of vertices deep solve without
  touching Python's recursion limit.
* :meth:`FlowNetwork.set_capacity` retunes an edge in O(1) and
  :meth:`FlowNetwork.max_flow` may be called repeatedly on the same
  network; each call resets flows and solves the current capacities.

Capacities are floats (tokens/second); a relative epsilon guards
comparisons. Parallel edges are supported and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

EPSILON = 1e-9


@dataclass(frozen=True)
class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes:
        value: The maximum flow value from source to sink.
        edge_flows: Flow on each caller-added edge, keyed by the edge id
            returned from :meth:`FlowNetwork.add_edge`.
        min_cut_source_side: Vertex names reachable from the source in the
            residual graph (the source side of a minimum cut).
    """

    value: float
    edge_flows: dict[int, float]
    min_cut_source_side: frozenset[str]


class FlowNetwork:
    """A directed flow network over named vertices, solvable repeatedly.

    Example:
        >>> net = FlowNetwork()
        >>> eid = net.add_edge("s", "a", 5.0)
        >>> _ = net.add_edge("a", "t", 3.0)
        >>> net.max_flow("s", "t").value
        3.0
        >>> net.set_capacity(eid, 1.0)
        >>> net.max_flow("s", "t").value
        1.0
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        # Parallel arc arrays; arc 2i is edge i's forward arc, 2i+1 its
        # residual twin (rev(a) == a ^ 1; tail(a) == _arc_to[a ^ 1]).
        self._arc_to: list[int] = []
        self._arc_cap: list[float] = []
        self._arc_flow: list[float] = []
        # CSR adjacency over active arcs, rebuilt lazily.
        self._csr_start: list[int] = []
        self._csr_arcs: list[int] = []
        self._csr_dirty = True

    # ------------------------------------------------------------------
    # Construction and reuse
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> int:
        """Ensure a vertex exists; returns its internal index."""
        if name in self._index:
            return self._index[name]
        idx = len(self._names)
        self._index[name] = idx
        self._names.append(name)
        self._csr_dirty = True
        return idx

    def add_edge(self, src: str, dst: str, capacity: float) -> int:
        """Add a directed edge; returns an edge id usable to query flow.

        Parallel edges between the same vertices are kept distinct.
        """
        if capacity < 0:
            raise ValueError(f"negative capacity on {src!r}->{dst!r}")
        if src == dst:
            raise ValueError(f"self-loop on {src!r}")
        index = self._index
        u = index.get(src)
        if u is None:
            u = self.add_node(src)
        v = index.get(dst)
        if v is None:
            v = self.add_node(dst)
        edge_id = len(self._arc_to) // 2
        self._arc_to.extend((v, u))
        self._arc_cap.extend((capacity, 0.0))
        self._arc_flow.extend((0.0, 0.0))
        self._csr_dirty = True
        return edge_id

    def set_capacity(self, edge_id: int, capacity: float) -> None:
        """Retune a caller-added edge's capacity in place.

        The next :meth:`max_flow` call solves with the new capacities; no
        rebuild is needed. Setting a capacity to zero removes the edge from
        the active adjacency, so it costs nothing during solves.
        """
        if capacity < 0:
            raise ValueError(f"negative capacity on edge {edge_id}")
        arc = 2 * edge_id
        if not 0 <= arc < len(self._arc_to):
            raise ValueError(f"unknown edge id {edge_id}")
        old = self._arc_cap[arc]
        if old == capacity:
            return
        self._arc_cap[arc] = capacity
        if (old > 0.0) != (capacity > 0.0):
            self._csr_dirty = True

    def reset_flow(self) -> None:
        """Zero all arc flows (done automatically by :meth:`max_flow`)."""
        self._arc_flow = [0.0] * len(self._arc_flow)

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    @property
    def num_edges(self) -> int:
        return len(self._arc_to) // 2

    def edge_endpoints(self, edge_id: int) -> tuple[str, str, float]:
        """``(src, dst, capacity)`` of a caller-added edge (current values)."""
        arc = 2 * edge_id
        if not 0 <= arc < len(self._arc_to):
            raise ValueError(f"unknown edge id {edge_id}")
        return (
            self._names[self._arc_to[arc ^ 1]],
            self._names[self._arc_to[arc]],
            self._arc_cap[arc],
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _ensure_csr(self) -> None:
        """Rebuild the active-arc CSR adjacency if it is stale."""
        if not self._csr_dirty:
            return
        n = len(self._names)
        arc_to = self._arc_to
        arc_cap = self._arc_cap
        buckets: list[list[int]] = [[] for _ in range(n)]
        for arc in range(0, len(arc_to), 2):
            if arc_cap[arc] > 0.0:
                buckets[arc_to[arc ^ 1]].append(arc)
                buckets[arc_to[arc]].append(arc ^ 1)
        start = [0] * (n + 1)
        arcs: list[int] = []
        for u in range(n):
            arcs.extend(buckets[u])
            start[u + 1] = len(arcs)
        self._csr_start = start
        self._csr_arcs = arcs
        self._csr_dirty = False

    def _epsilon(self) -> float:
        """Solve epsilon, scaled to the largest original capacity."""
        return EPSILON * max(max(self._arc_cap[0::2], default=0.0), 1.0)

    # ------------------------------------------------------------------
    # Max flow (Dinic's blocking-flow algorithm, iterative)
    # ------------------------------------------------------------------
    def max_flow(self, source: str, sink: str) -> MaxFlowResult:
        """Compute max flow from ``source`` to ``sink``.

        Flows are reset first, so repeated calls — with capacities retuned
        via :meth:`set_capacity` in between — behave exactly like solving a
        freshly built network.
        """
        if source not in self._index or sink not in self._index:
            raise ValueError("source or sink vertex not present in the network")
        if source == sink:
            raise ValueError("source and sink must differ")
        s = self._index[source]
        t = self._index[sink]
        self.reset_flow()
        self._ensure_csr()
        eps = self._epsilon()

        n = len(self._names)
        arc_to = self._arc_to
        arc_cap = self._arc_cap
        arc_flow = self._arc_flow
        csr_start = self._csr_start
        csr_arcs = self._csr_arcs

        total = 0.0
        level = [-1] * n

        while True:
            # --- BFS: build the level graph over active residual arcs.
            for i in range(n):
                level[i] = -1
            level[s] = 0
            queue = [s]
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                lvl = level[u] + 1
                for k in range(csr_start[u], csr_start[u + 1]):
                    a = csr_arcs[k]
                    v = arc_to[a]
                    if level[v] < 0 and arc_cap[a] - arc_flow[a] > eps:
                        level[v] = lvl
                        queue.append(v)
            if level[t] < 0:
                break

            # --- Blocking flow: iterative advance/retreat along the level
            # graph, augmenting whenever the sink is reached.
            it = csr_start[:-1].copy()
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(arc_cap[a] - arc_flow[a] for a in path)
                    total += push
                    cut = 0
                    for i, a in enumerate(path):
                        arc_flow[a] += push
                        arc_flow[a ^ 1] -= push
                        if cut == 0 and arc_cap[a] - arc_flow[a] <= eps:
                            cut = i + 1
                    # Retreat to the tail of the first saturated arc.
                    first = path[cut - 1]
                    del path[cut - 1 :]
                    u = arc_to[first ^ 1]
                    continue
                advanced = False
                pos = it[u]
                end = csr_start[u + 1]
                while pos < end:
                    a = csr_arcs[pos]
                    v = arc_to[a]
                    if level[v] == level[u] + 1 and arc_cap[a] - arc_flow[a] > eps:
                        it[u] = pos
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    pos += 1
                if advanced:
                    continue
                it[u] = pos
                if u == s:
                    break
                # Dead end: prune the vertex and back out of the last arc.
                level[u] = -1
                a = path.pop()
                u = arc_to[a ^ 1]
                it[u] += 1

        edge_flows = {}
        for edge_id in range(len(arc_to) // 2):
            flow = arc_flow[2 * edge_id]
            edge_flows[edge_id] = flow if flow > 0.0 else 0.0
        cut_names = frozenset(
            self._names[v] for v in self._residual_reachable(s, eps)
        )
        return MaxFlowResult(
            value=total, edge_flows=edge_flows, min_cut_source_side=cut_names
        )

    def _residual_reachable(self, s: int, eps: float) -> set[int]:
        """Vertices reachable from ``s`` in the residual graph."""
        self._ensure_csr()
        arc_to = self._arc_to
        arc_cap = self._arc_cap
        arc_flow = self._arc_flow
        csr_start = self._csr_start
        csr_arcs = self._csr_arcs
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for k in range(csr_start[u], csr_start[u + 1]):
                a = csr_arcs[k]
                v = arc_to[a]
                if v not in seen and arc_cap[a] - arc_flow[a] > eps:
                    seen.add(v)
                    stack.append(v)
        return seen
