"""Layer residency: which model layers actually live in each node's VRAM.

Recovery is not free. A node that rejoins after a crash (or a spare pulled
in by the autoscaler) holds *nothing*: before it can serve its assigned
stage it must download those layer weights through the same network the
inference traffic uses. This module is the bookkeeping half of that story:

* :class:`ResidencyConfig` — the one per-run switch: which nodes start
  pre-warmed (a standby replica that already staged weights). Every
  pulled layer moves the served model's own ``layer_bytes``.
* :class:`ResidencyManager` — the live ledger the simulator owns when
  residency is enabled. It tracks the resident layer set per node, the
  in-progress *warming* pulls (with generation tokens so a crash mid-pull
  cancels the landing), VRAM-budget evictions, and an append-only
  ``warmup_log`` / ``eviction_log`` for tests and benchmarks.

The simulator calls the manager at three node-lifecycle sites, passing
itself as ``sim``: :meth:`ResidencyManager.node_lost`,
:meth:`~ResidencyManager.node_restored` and
:meth:`~ResidencyManager.placement_applied` (a silent crash only
:meth:`~ResidencyManager.flush`-es the node's VRAM). Warm-up pulls are
issued through the simulation's real
:class:`~repro.sim.network_sim.LinkChannel` queues, so weight pulls
contend with inference activations — rejoining a node visibly dips
serving goodput, which is exactly the effect the benchmarks measure.
The planner never reads the ledger: a replan picks its placement by max
flow alone, and residency decides only how long the chosen nodes warm.
With ``residency=None`` (the default) none of this exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.node import COORDINATOR
from repro.core.errors import SimulationError


@dataclass(frozen=True)
class ResidencyConfig:
    """The switch of one residency-enabled run.

    Attributes:
        warm: Pre-warmed nodes: ``node_id -> (start, end)`` layer interval
            already staged in VRAM at t=0 (on top of the initial
            placement, whose serving nodes are always resident). This is
            how a standby spare differs from a cold one.
    """

    warm: Mapping[str, tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class WarmupRecord:
    """One completed layer pull: a node went from cold to schedulable."""

    node_id: str
    started: float
    completed: float
    layers: tuple[int, ...]
    bytes_pulled: float
    sources: tuple[str, ...]

    @property
    def duration(self) -> float:
        """The warm-up window: seconds the node was unschedulable."""
        return self.completed - self.started


@dataclass(frozen=True)
class _Warmup:
    """One in-progress warm-up pull."""

    token: int  # generation: a newer pull or a flush supersedes it
    layers: tuple[int, ...]
    started: float
    bytes_pulled: float
    sources: tuple[str, ...]


@dataclass(frozen=True)
class EvictionRecord:
    """Layers dropped from a node's VRAM to make room for new ones."""

    node_id: str
    time: float
    layers: tuple[int, ...]


class ResidencyManager:
    """The live layer-residency ledger of one simulation.

    Built by :class:`~repro.sim.simulator.Simulation` when a
    :class:`ResidencyConfig` is passed; never constructed on the default
    path. The node-lifecycle hooks take the simulation as ``sim``.
    """

    def __init__(self, config: ResidencyConfig, model, placement) -> None:
        self.config = config
        self.model = model
        #: node_id -> set of resident layer indices.
        self.resident: dict[str, set[int]] = {}
        for node_id in placement.used_nodes:
            stage = placement.interval(node_id)
            self.resident[node_id] = set(range(stage.start, stage.end))
        for node_id, (start, end) in config.warm.items():
            self.resident.setdefault(node_id, set()).update(range(start, end))
        #: node_id -> its in-progress warm-up.
        self._warming: dict[str, _Warmup] = {}
        self._token = 0
        #: Every completed warm-up, in completion order.
        self.warmup_log: list[WarmupRecord] = []
        #: Every VRAM eviction, in order.
        self.eviction_log: list[EvictionRecord] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def layers_of(self, node_id: str) -> set[int]:
        """The node's resident layer set (empty when cold)."""
        return self.resident.get(node_id, set())

    def is_resident(self, node_id: str, start: int, end: int) -> bool:
        """Whether layers ``[start, end)`` are all in the node's VRAM."""
        have = self.resident.get(node_id)
        if have is None:
            return False
        return all(layer in have for layer in range(start, end))

    def is_warming(self, node_id: str) -> bool:
        """Whether the node has an in-progress weight pull."""
        return node_id in self._warming

    @property
    def warming_nodes(self) -> set[str]:
        """Nodes currently pulling weights (unschedulable)."""
        return set(self._warming)

    def pending_layers(self, node_id: str) -> tuple[int, ...]:
        """Layers the node's in-progress warm-up is pulling."""
        warmup = self._warming.get(node_id)
        return () if warmup is None else warmup.layers

    # ------------------------------------------------------------------
    # Mutation (driven by the simulator)
    # ------------------------------------------------------------------
    def flush(self, node_id: str) -> None:
        """A crash wipes the node's VRAM and cancels any warm-up."""
        self.resident.pop(node_id, None)
        self.cancel(node_id)

    def cancel(self, node_id: str) -> None:
        """Abandon an in-progress warm-up (the landing becomes a no-op)."""
        self._warming.pop(node_id, None)

    def begin(
        self,
        node_id: str,
        layers: tuple[int, ...],
        now: float,
        total_bytes: float,
        sources: tuple[str, ...],
    ) -> int:
        """Start a warm-up pulling ``layers``; returns its generation token.

        A later :meth:`begin`/:meth:`flush` for the same node invalidates
        the token, so a landing scheduled against a superseded pull
        quietly drops.
        """
        self._token += 1
        self._warming[node_id] = _Warmup(
            self._token, tuple(layers), now, total_bytes, tuple(sources)
        )
        return self._token

    def still_valid(self, node_id: str, token: int) -> bool:
        """Whether a warm-up landing still corresponds to the live pull."""
        warmup = self._warming.get(node_id)
        return warmup is not None and warmup.token == token

    def complete(self, node_id: str, now: float) -> WarmupRecord:
        """The node's in-progress pull landed: its layers become
        resident, the node warm."""
        warmup = self._warming.pop(node_id)
        self.resident.setdefault(node_id, set()).update(warmup.layers)
        record = WarmupRecord(
            node_id, warmup.started, now, warmup.layers, warmup.bytes_pulled,
            warmup.sources,
        )
        self.warmup_log.append(record)
        return record

    def evict_for(
        self, node_id: str, needed: set[int], budget: int, now: float
    ) -> tuple[int, ...]:
        """Free VRAM so ``needed`` fits within ``budget`` total layers.

        Layers the new assignment reuses are kept (that is the point of
        preferring warm nodes); surplus layers outside ``needed`` are
        evicted highest-index first until the union fits. Returns the
        evicted layers.
        """
        have = self.resident.get(node_id)
        if not have:
            return ()
        overflow = len(have | needed) - budget
        if overflow <= 0:
            return ()
        extras = sorted(have - needed, reverse=True)
        evicted = tuple(extras[:overflow])
        have.difference_update(evicted)
        if evicted:
            self.eviction_log.append(EvictionRecord(node_id, now, evicted))
        return evicted

    # ------------------------------------------------------------------
    # Node-lifecycle hooks (called by the simulation)
    # ------------------------------------------------------------------
    def node_lost(self, sim, node_id: str) -> None:
        """A node was taken down: its VRAM is gone and the scheduler's
        warming mask is lifted (the failure mask replaces it)."""
        self.flush(node_id)
        sim.scheduler.mark_node_warm(node_id)

    def node_restored(self, sim, node_id: str) -> None:
        """A failed node rejoined. Recovery is not free: it must pull its
        assigned layers before it can serve (no-op if they are still
        resident — a drained warm spare rejoins instantly)."""
        if sim.placement.holds_layers(node_id):
            self.warm(sim, node_id)

    def placement_applied(self, sim) -> None:
        """Reconcile residency with a just-applied placement.

        Warming pulls for nodes that lost their assignment are abandoned;
        every in-service node the new placement uses warms toward its
        assigned interval — instantly schedulable when already resident.
        """
        placement = sim.placement
        for node_id in sorted(self._warming):
            if not placement.holds_layers(node_id):
                self.cancel(node_id)
                sim.scheduler.mark_node_warm(node_id)
        for node_id in placement.used_nodes:
            if sim.node_state(node_id) == "serving":
                self.warm(sim, node_id)

    def warm(self, sim, node_id: str) -> None:
        """Pull the node's missing assigned layers through the network.

        Each missing layer is one weight transfer on a real link channel
        — from a peer that holds the layer resident when one is reachable,
        else from the coordinator (the weight store) — so warm-up traffic
        queues behind (and delays) inference activations on shared links.
        The node is masked ``warming`` until the last transfer lands.
        Already-resident layers cost nothing; surplus layers are evicted
        when the VRAM layer budget would overflow.
        """
        stage = sim.placement.interval(node_id)
        needed = set(range(stage.start, stage.end))
        missing = sorted(needed - self.layers_of(node_id))
        if not missing:
            if self.is_warming(node_id):
                self.cancel(node_id)
            sim.scheduler.mark_node_warm(node_id)
            return
        if self.is_warming(node_id) and self.pending_layers(node_id) == tuple(
            missing
        ):
            return  # the in-flight pull already covers exactly this need
        now = sim.now
        budget = sim.profiler.max_layers(sim.cluster.node(node_id), sim.model)
        self.evict_for(node_id, needed, budget, now)
        layer_bytes = self.model.layer_bytes
        sources: list[str] = []
        latest = now
        for layer in missing:
            src, channel = self._weight_source(sim, node_id, layer)
            sources.append(src)
            arrival = channel.transmit(now, layer_bytes)
            if arrival > latest:
                latest = arrival
        token = self.begin(
            node_id, tuple(missing), now,
            layer_bytes * len(missing), tuple(sorted(set(sources))),
        )
        sim.scheduler.mark_node_warming(node_id)
        sim.schedule_event(
            latest,
            lambda s, nid=node_id, tok=token: self._land(s, nid, tok),
        )

    def _weight_source(self, sim, node_id: str, layer: int):
        """Pick where one layer is pulled from: an in-service resident
        peer, else the coordinator (which stands in for the persistent
        weight store)."""
        for src in sorted(self.resident):
            if src == node_id or sim.node_state(src) != "serving":
                continue
            if layer in self.resident[src]:
                channel = sim.channels.get((src, node_id))
                if channel is not None:
                    return src, channel
        channel = sim.channels.get((COORDINATOR, node_id))
        if channel is None:
            raise SimulationError(
                f"no channel to pull weights into {node_id!r}: no resident "
                "peer link and no coordinator link"
            )
        return COORDINATOR, channel

    def _land(self, sim, node_id: str, token: int) -> None:
        """The last weight transfer landed: the node becomes schedulable."""
        dead = sim.node_state(node_id) in ("silent", "down")
        if dead or not self.still_valid(node_id, token):
            return  # superseded by a newer pull, a crash, or a replan
        self.complete(node_id, sim.now)
        sim.scheduler.mark_node_warm(node_id)
        sim._retry_pending()
