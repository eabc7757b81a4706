"""Backlog-driven elasticity: loan warm spares in, drain idle nodes out.

The :class:`Autoscaler` is a deterministic policy object the
:class:`~repro.online.controller.OnlineController` attaches to the
simulation's event loop. On a fixed tick it watches the outstanding
request count (pending queue + in-flight work) and reacts through the
controller's existing machinery:

* **Scale up**: sustained backlog pops the next node from the spare pool,
  restores it (:meth:`Simulation.restore_node`) and replans. With layer
  residency on, the spare only becomes schedulable after pulling its
  assigned layers through the real network — a *warm* spare (layers
  pre-staged) starts serving immediately, a cold one pays the transfer.
* **Scale down**: sustained idleness gracefully drains the most recently
  loaned node (:meth:`Simulation.drain_node` — zero lost tokens), never
  leaving fewer than :data:`MIN_SERVING` serving placement nodes, and
  returns it to the pool. Its resident layers are retained, so the next
  scale-up of that node is warm.

Everything is driven by sim time and counters — no RNG, no wall clock —
so seeded elastic scenarios fingerprint reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A tick counts toward scaling down when the outstanding-request count
#: (pending + in flight) is at or below this.
IDLE_BACKLOG = 1
#: Scale-down never drains below this many serving placement nodes.
MIN_SERVING = 2


@dataclass(frozen=True)
class AutoscalerConfig:
    """Thresholds and pacing of one autoscaler instance.

    Attributes:
        interval: Seconds between backlog checks (sim time).
        backlog_high: Outstanding-request count (pending + in flight) at
            or above which a tick counts toward scaling up.
        high_ticks: Consecutive high-backlog ticks required to scale up.
        idle_ticks: Consecutive idle ticks required to scale down.
        cooldown: Minimum sim-seconds between two scaling actions.
        start_after: First tick time (lets the system warm up first).
    """

    interval: float = 1.0
    backlog_high: int = 8
    high_ticks: int = 3
    idle_ticks: int = 8
    cooldown: float = 5.0
    start_after: float = 0.0


class Autoscaler:
    """Deterministic backlog/goodput-driven node pool manager.

    Args:
        config: Thresholds and pacing.
        spares: Ordered spare node ids. They must exist in the cluster and
            start *down* (``cluster.set_node_available(nid, False)``);
            scale-up restores them in order, scale-down drains the most
            recently loaned one back into the pool (LIFO, so a node's
            still-resident layers get reused first).
    """

    def __init__(self, config: AutoscalerConfig, spares=()) -> None:
        self.config = config
        #: Spares available to loan, in loan order.
        self.pool: list[str] = list(spares)
        #: Nodes currently loaned out (loan order).
        self.loaned: list[str] = []
        #: ``(sim_time, action, node_id)`` rows: ``"add"`` (restored from
        #: the pool), ``"drain"`` (drain started), ``"returned"`` (drain
        #: finished, node back in the pool).
        self.actions: list[tuple[float, str, str]] = []
        self._controller = None
        self._high_streak = 0
        self._idle_streak = 0
        self._last_action = float("-inf")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim, controller) -> None:
        """Hook the periodic tick into a simulation's event loop.

        Called by :meth:`OnlineController.start`; ticks stop by themselves
        at the horizon.
        """
        self._controller = controller
        first = max(self.config.start_after, self.config.interval)
        if first <= sim.max_time:
            sim.schedule_event(first, self._tick)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _tick(self, sim) -> None:
        # The scheduler admits arrivals straight into executor batches, so
        # load shows up as in-flight work; the pending queue only grows
        # when no route exists at all. Watch the sum of both.
        backlog = sim.pending_requests + sim.in_flight_requests
        if backlog >= self.config.backlog_high:
            self._high_streak += 1
            self._idle_streak = 0
        elif backlog <= IDLE_BACKLOG:
            self._idle_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._idle_streak = 0

        cooled = sim.now - self._last_action >= self.config.cooldown
        if (
            cooled
            and self._high_streak >= self.config.high_ticks
            and self.pool
        ):
            self._scale_up(sim)
        elif (
            cooled
            and self._idle_streak >= self.config.idle_ticks
            and self.loaned
            and self._serving_count(sim) > MIN_SERVING
        ):
            self._scale_down(sim)

        next_tick = sim.now + self.config.interval
        if next_tick <= sim.max_time:
            sim.schedule_event(next_tick, self._tick)

    def _serving_count(self, sim) -> int:
        """Placement nodes actually able to serve right now (a zombie
        counts: nothing has noticed it yet)."""
        return sum(
            1 for nid in sim.placement.used_nodes
            if sim.node_state(nid) in ("serving", "zombie")
        )

    def _scale_up(self, sim) -> None:
        spare = self.pool.pop(0)
        if sim.node_state(spare) != "down":
            # The pool entry went stale (e.g. a scripted event already
            # restored it); treat the loan as done and move on.
            self.loaned.append(spare)
            return
        sim.restore_node(spare)
        self.loaned.append(spare)
        self.actions.append((sim.now, "add", spare))
        self._last_action = sim.now
        self._high_streak = 0
        # Replanning folds the new node in; with residency on, the swap
        # leaves it warming until its layers land.
        self._controller.react(sim)

    def _scale_down(self, sim) -> None:
        node = self.loaned.pop()

        def returned(s, nid=node):
            self.pool.append(nid)
            self.actions.append((s.now, "returned", nid))

        sim.drain_node(node, on_complete=returned)
        self.actions.append((sim.now, "drain", node))
        self._last_action = sim.now
        self._idle_streak = 0
        # Replan around the draining node so new work routes elsewhere.
        self._controller.react(sim)
