"""The online control loop: observe churn, rewrite flows, replan, hot-swap.

:class:`OnlineController` turns the static plan-once pipeline into a closed
loop. It registers a churn schedule with the simulator's event loop and,
after each event, reacts in two tiers:

1. **Fast path — flow rewrite.** The reference placement restricted to
   surviving nodes is pushed through a persistent
   :meth:`FlowGraph.reevaluate() <repro.flow.graph.FlowGraph.reevaluate>`,
   which rewrites the graph's edge capacities after re-reading the link
   bandwidths. If the degraded placement still carries flow, the solution
   is hot-swapped into the scheduler's IWRR selectors whenever a repaired
   placement is not about to land in the same instant — replanning
   disabled or failed — so serving continues on the surviving replicas.
2. **Slow path — replanning.**
   :meth:`HelixMilpPlanner.replan()
   <repro.placement.helix_milp.HelixMilpPlanner.replan>`, on a planner
   built for the reaction over the subcluster of available nodes, ranks
   the degraded placement against the heuristic placements by max flow,
   producing a *repaired* placement that re-spreads the lost layers
   whenever a heuristic beats the degraded one. Its flow
   solution is hot-swapped the same way; requests whose pipelines the
   swap invalidates are migrated through the pending queue. The planner
   scores candidates by max flow alone; it does not see which layers are
   resident in VRAM.

A failed replan is not retried: the surviving cluster only changes
through something that calls :meth:`OnlineController.react` anyway (a
churn event, a detector confirmation, an autoscaler loan or drain), so
the controller serves on the tier-1 fallback until then.

Replanning happens outside simulated time: its wall-clock cost is
recorded as telemetry, and the repaired placement applies in the instant
of the event that triggered it, so seeded runs reproduce exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

from repro.cluster.profiler import Profiler
from repro.core.errors import ClusterError, PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.models.specs import ModelSpec
from repro.online.detect import FailureDetector
from repro.online.events import (
    ClusterEvent,
    NodeFailure,
    NodeRecovery,
    validate_schedule,
)
from repro.online.faults import ZombieNode
from repro.placement.helix_milp import HelixMilpPlanner
from repro.sim.metrics import (
    DisruptionReport,
    check_window_multiple,
    disruption_report,
)

@dataclass(frozen=True)
class ReplanRecord:
    """Telemetry of one replanning reaction.

    Attributes:
        sim_time: Simulation time of the triggering event.
        wall_seconds: Wall-clock cost of the replan.
        throughput: Max-flow throughput of the repaired placement
            (NaN when the replan failed).
        migrated: Requests migrated when the repaired placement applied.
        status: ``"applied"``, ``"degraded-only"`` (fast path worked
            but the replan found nothing servable), or ``"failed"``
            (neither tier produced a servable configuration; requests
            queue until the next recovery event).
    """

    sim_time: float
    wall_seconds: float
    throughput: float
    migrated: int
    status: str


class OnlineController:
    """Reacts to cluster churn by rewriting flows and replanning live.

    Args:
        model: The served model (replanning needs it).
        events: The churn schedule (scripted or generated). Sorted
            internally; events beyond the simulation horizon never fire.
        profiler: Performance model; must match the serving profiler.
        replan: Master switch for the slow path. With it off the
            controller only masks/unmasks nodes and rewrites flows — the
            "no replanning" ablation.
        detection_mode: Fail nodes silently and react only to the
            failure detector's confirmations.
        autoscaler: Optional :class:`~repro.online.autoscale.Autoscaler`.
    """

    def __init__(
        self,
        model: ModelSpec,
        events: Iterable[ClusterEvent] = (),
        profiler: Profiler | None = None,
        replan: bool = True,
        detection_mode: bool = False,
        autoscaler=None,
    ) -> None:
        self.model = model
        self.events = sorted(events, key=lambda e: e.time)
        self.profiler = profiler or Profiler()
        self.replan = replan
        #: With detection on, node failures happen *silently*
        #: (``fail_node(announce=False)``) and the controller reacts only
        #: when its failure detector confirms the node — measuring true
        #: MTTD/MTTR instead of assuming an oracle announcement.
        self.detection_mode = detection_mode
        #: Optional :class:`~repro.online.autoscale.Autoscaler`; attached
        #: to the simulation in :meth:`start` so its periodic backlog
        #: checks ride the same event loop as the churn schedule.
        self.autoscaler = autoscaler
        self.detector: FailureDetector | None = None
        #: One ``(sim_time, node_id, kind, mttd)`` row per confirmed
        #: detection; ``mttd`` is NaN for a false positive.
        self.detections: list[tuple[float, str, str, float]] = []

        #: ``(sim_time, description)`` log of applied events.
        self.event_log: list[tuple[float, str]] = []
        #: Times of disruptive events (failures, drains, degradations).
        self.disruption_times: list[float] = []
        #: One :class:`ReplanRecord` per reaction.
        self.replans: list[ReplanRecord] = []
        self._flow_graph: FlowGraph | None = None
        # The last *planned* placement (initial plan or applied replan).
        # Tier 1 degrades this, never the already-degraded live placement,
        # so a recovery can restore a node's assignment even with
        # replanning disabled.
        self._reference_placement: ModelPlacement | None = None

    # ------------------------------------------------------------------
    # Simulation hook-in
    # ------------------------------------------------------------------
    def start(self, sim) -> None:
        """Register the churn schedule with a simulation's event loop.

        Called by :meth:`Simulation.run` before the first event pops. The
        schedule is validated against the starting cluster first, so a
        malformed scenario fails here with a clear error instead of
        somewhere mid-run. A zombie is rejected without ``detection_mode``:
        only the detector's watchdog recovers the requests it stalls.
        """
        validate_schedule(self.events, sim.cluster)
        if not self.detection_mode:
            for event in self.events:
                if type(event) is ZombieNode:
                    raise ClusterError(
                        f"ZombieNode at t={event.time:g} needs "
                        "detection_mode: nothing else recovers the requests "
                        f"stalled on {event.node_id!r}"
                    )
        for event in self.events:
            sim.schedule_event(
                event.time, lambda s, ev=event: self._handle(s, ev)
            )
        if self.detection_mode:
            self.detector = FailureDetector(sim, on_confirm=self._on_confirmed)
            self.detector.start()
        if self.autoscaler is not None:
            self.autoscaler.attach(sim, self)

    def _handle(self, sim, event: ClusterEvent) -> None:
        if self.detection_mode and type(event) is NodeFailure:
            # The crash is silent: only the physical half happens, and the
            # control plane learns nothing until the detector confirms.
            sim.fail_node(event.node_id, announce=False)
            self.event_log.append(
                (sim.now, f"node {event.node_id} failed silently (undetected)")
            )
            self.disruption_times.append(sim.now)
            return
        description = sim.apply_event(event)
        self.event_log.append((sim.now, description))
        if self.detector is not None and type(event) is NodeRecovery:
            self.detector.node_restored(event.node_id)
        if event.is_disruptive:
            self.disruption_times.append(sim.now)
        if event.triggers_replan:
            self.react(sim)

    def _on_confirmed(self, sim, node_id: str, kind: str) -> None:
        """Detector callback: complete the failure and replan around it."""
        mttd = sim.confirm_node_failure(node_id)
        self.detections.append((sim.now, node_id, kind, mttd))
        self.event_log.append(
            (
                sim.now,
                f"detector confirmed {node_id} dead ({kind}, "
                f"mttd={mttd:.3f}s)",
            )
        )
        if sim.debug_validate:
            sim.cluster.validate()
        self.react(sim)

    # ------------------------------------------------------------------
    # The two-tier reaction
    # ------------------------------------------------------------------
    def _degraded_placement(self, sim) -> ModelPlacement | None:
        """The reference placement restricted to available nodes.

        The reference is the last *planned* placement, not the live one: a
        tier-1 swap already dropped failed nodes from ``sim.placement``,
        and degrading that again would forget their assignments — a later
        recovery could then never restore them without a full replan.
        """
        reference = self._reference_placement or sim.placement
        intervals = {
            nid: (stage.start, stage.end)
            for nid, stage in reference.assignments.items()
            if sim.cluster.node_available(nid)
        }
        if not intervals:
            return None
        return ModelPlacement.from_intervals(reference.num_layers, intervals)

    def _ensure_flow_graph(
        self, sim, placement: ModelPlacement
    ) -> tuple[FlowGraph, bool]:
        """The persistent flow graph, plus whether it was just
        built (a fresh graph already reflects current link bandwidths, so
        ``refresh_links`` cannot report what changed before it existed)."""
        if self._flow_graph is None:
            self._flow_graph = FlowGraph(
                sim.cluster, self.model, placement, self.profiler
            )
            return self._flow_graph, True
        return self._flow_graph, False

    def react(self, sim) -> ReplanRecord:
        """Run both reaction tiers and record the outcome."""
        if self._reference_placement is None:
            self._reference_placement = sim.placement
        # Tier 1: flow rewrite over the surviving replicas.
        degraded = self._degraded_placement(sim)
        degraded_flow = None
        flow_state_changed = False
        if degraded is not None:
            try:
                graph, created = self._ensure_flow_graph(sim, degraded)
                flow_state_changed = created or bool(graph.refresh_links())
                solution = graph.reevaluate(degraded)
                if solution.max_flow > 0:
                    degraded_flow = solution
            except PlacementError:
                degraded_flow = None  # survivors cannot cover the model
        degraded_useful = degraded_flow is not None and (
            flow_state_changed
            or degraded.assignments != sim.placement.assignments
        )
        # Skip the tier-1 hot-swap when nothing changed (e.g. a recovery of
        # a node the current placement does not use) — rebuilding selectors
        # mid-serving discards IWRR interleaving state for no gain — and
        # when the tier-2 replan will supersede it within this same call.
        result = None
        wall = 0.0
        if self.replan:
            # Tier 2: replanning on the subcluster.
            start = time.perf_counter()
            try:
                planner = HelixMilpPlanner(
                    sim.cluster.subcluster(), self.model, self.profiler
                )
                result = planner.replan(base=degraded)
            except (ClusterError, PlacementError):
                result = None
            wall = time.perf_counter() - start

        if result is None:
            if degraded_useful:
                # No repair materialized (replanning off or failed): serve
                # on the surviving replicas.
                sim.apply_placement(degraded, degraded_flow)
            record = ReplanRecord(
                sim_time=sim.now,
                wall_seconds=wall,
                throughput=(
                    degraded_flow.max_flow if degraded_flow else math.nan
                ),
                migrated=0,
                status="degraded-only" if degraded_flow else "failed",
            )
            self.replans.append(record)
            return record

        placement, flow = result.placement, result.flow
        record = ReplanRecord(
            sim_time=sim.now,
            wall_seconds=wall,
            throughput=flow.max_flow,
            migrated=len(sim.apply_placement(placement, flow)),
            status="applied",
        )
        self._reference_placement = placement
        self.replans.append(record)
        return record

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def applied_replans(self) -> list[ReplanRecord]:
        """The replans whose repaired placement actually took effect."""
        return [r for r in self.replans if r.status == "applied"]

    def report(self, sim, window: float = 2.0) -> DisruptionReport:
        """Assemble the run's :class:`~repro.sim.metrics.DisruptionReport`.

        Pre-disruption goodput is measured before the first disruptive
        event; post-recovery goodput after the last applied replan. Call after :meth:`Simulation.run` returns.

        Raises ``ValueError`` when ``window`` is not a positive integer
        multiple of the simulation's token-timeline resolution: its
        bucketed timeline would then split buckets across windows.
        """
        check_window_multiple(window, sim.timeline_resolution)
        end_time = min(sim.now, sim.max_time)
        timeline = sim.token_timeline
        if self.detection_mode and timeline:
            # The detector's heartbeat ticker keeps the event loop alive
            # all the way to the horizon; goodput windows past the last
            # emitted token would measure that idleness, not recovery.
            end_time = min(end_time, timeline[-1] + window)
        first_disruption = (
            self.disruption_times[0] if self.disruption_times else end_time
        )
        applied = self.applied_replans
        recovered_from = applied[-1].sim_time if applied else first_disruption
        # Control-plane reaction instants: detector confirmations and the
        # moments applied replans took effect. MTTR cannot precede the
        # last of these — goodput measured before the control plane even
        # reacted is survival, not recovery.
        reaction_times = [row[0] for row in self.detections]
        reaction_times.extend(r.sim_time for r in applied)
        records = sim.records
        return disruption_report(
            sim.token_timeline,
            window=window,
            end_time=end_time,
            first_disruption=first_disruption,
            recovered_from=recovered_from,
            requests_retried=sum(1 for r in records if r.retries > 0),
            requests_migrated=sum(1 for r in records if r.migrations > 0),
            tokens_lost=sum(r.tokens_lost for r in records),
            replan_latencies=[r.wall_seconds for r in applied],
            mttd_samples=[row[3] for row in self.detections],
            reaction_times=reaction_times,
            false_positives=(
                self.detector.false_positives if self.detector else 0
            ),
        )
