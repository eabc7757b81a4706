"""Timed cluster events: the vocabulary of online churn.

An event is a frozen description of one environment change at one
simulation time — a node crashing, draining or recovering, a link
degrading or being repaired. Events know how to *apply* themselves to a
running :class:`~repro.sim.simulator.Simulation` (via its online
primitives) and whether the change warrants a replanning. No event adds
a node or a link: once a simulation exists, its topology is fixed, and
spare capacity enters as a node that starts down and recovers.

Schedules come in two flavors:

* scripted — hand-written event lists, for reproducing a precise scenario
  (the fig12 "kill a planned node mid-run" benchmark);
* generated — :func:`random_churn` draws failures/recoveries and link
  degradations from exponential processes, for long stochastic soak runs.
  Generators are pure functions of their seed, so a run is reproduced
  exactly by its top-level seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ClusterError


@dataclass(frozen=True)
class ClusterEvent:
    """Base class: one environment change at ``time`` (seconds)."""

    time: float

    #: Whether the controller should replan after applying this event.
    triggers_replan = True
    #: Whether the event takes capacity away (failures, drains,
    #: degradations). Recovery-type events replan too but do not count as
    #: disruptions in the :class:`~repro.sim.metrics.DisruptionReport`.
    is_disruptive = True

    def apply(self, sim) -> str:
        """Apply the change to a running simulation; returns a log line."""
        raise NotImplementedError


@dataclass(frozen=True)
class NodeFailure(ClusterEvent):
    """A compute node crashes: KV lost, in-flight work fails."""

    node_id: str = ""

    def apply(self, sim) -> str:
        requeued = sim.fail_node(self.node_id)
        return (
            f"node {self.node_id} failed "
            f"({len(requeued)} in-flight requests requeued)"
        )


@dataclass(frozen=True)
class NodeRecovery(ClusterEvent):
    """A failed node rejoins, cold (no KV, no queued work)."""

    node_id: str = ""
    is_disruptive = False

    def apply(self, sim) -> str:
        sim.restore_node(self.node_id)
        return f"node {self.node_id} recovered"


@dataclass(frozen=True)
class NodeDrain(ClusterEvent):
    """Gracefully remove a node: finish in-flight work, lose nothing.

    The scheduler stops routing new pipelines through the node at once,
    but attempts already flowing through it run to completion — zero
    tokens are lost, unlike :class:`NodeFailure`'s crash path. The node
    counts as a disruption (capacity leaves), and a later
    :class:`NodeRecovery` brings it back — with layer residency enabled,
    *instantly*, since a drained node keeps its weights (warm spare).
    """

    node_id: str = ""

    def apply(self, sim) -> str:
        sim.drain_node(self.node_id)
        return f"node {self.node_id} draining"


@dataclass(frozen=True)
class LinkDegradation(ClusterEvent):
    """A link's bandwidth drops to ``factor`` of its original value."""

    src: str = ""
    dst: str = ""
    factor: float = 0.1

    def apply(self, sim) -> str:
        sim.degrade_link(self.src, self.dst, self.factor)
        return (
            f"link {self.src}<->{self.dst} degraded to "
            f"{self.factor * 100:.0f}% bandwidth"
        )


@dataclass(frozen=True)
class LinkRecovery(ClusterEvent):
    """A degraded link is repaired to its original bandwidth."""

    src: str = ""
    dst: str = ""
    is_disruptive = False

    def apply(self, sim) -> str:
        sim.restore_link(self.src, self.dst)
        return f"link {self.src}<->{self.dst} restored"


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the seeded random churn generator.

    Attributes:
        duration: Horizon over which to draw events, in seconds.
        mean_time_to_failure: Mean seconds between node failures across
            the whole cluster (per-cluster MTBF, exponential).
        mean_time_to_recovery: Mean seconds a failed node stays down
            (exponential).
        link_mean_time_to_degrade: Mean seconds between link-degradation
            events; 0 disables link churn.
        link_degradation_factor: Bandwidth factor applied when a link
            degrades.
        link_mean_time_to_repair: Mean seconds a degraded link stays slow.
        max_concurrent_failures: Never take more than this many nodes down
            at once (a churn run should stress recovery, not guarantee a
            dead cluster).
        start: Earliest event time — leave room for a clean pre-churn
            baseline window.
    """

    duration: float
    mean_time_to_failure: float
    mean_time_to_recovery: float
    link_mean_time_to_degrade: float = 0.0
    link_degradation_factor: float = 0.1
    link_mean_time_to_repair: float = 20.0
    max_concurrent_failures: int = 1
    start: float = 0.0


def random_churn(
    node_ids: Sequence[str],
    config: ChurnConfig,
    seed: int = 0,
    link_keys: Sequence[tuple[str, str]] = (),
    rng: random.Random | None = None,
) -> list[ClusterEvent]:
    """Draw a reproducible churn schedule from exponential processes.

    Node failures arrive at the cluster-wide MTBF rate, strike a uniformly
    random up node, and heal after an exponential downtime; link
    degradations (if enabled and ``link_keys`` given) follow the same
    pattern on uniformly random links. The same ``(config, seed)`` always
    yields the same schedule; an explicit ``rng`` lets callers thread one
    generator through a whole scenario. Global :mod:`random` state is
    never consulted.
    """
    if not node_ids:
        raise ValueError("random_churn needs at least one node id")
    if rng is None:
        rng = random.Random(seed)
    events: list[ClusterEvent] = []

    down_until: dict[str, float] = {}
    t = config.start
    while True:
        t += rng.expovariate(1.0 / config.mean_time_to_failure)
        if t >= config.start + config.duration:
            break
        up = [nid for nid in node_ids if down_until.get(nid, 0.0) <= t]
        if len(node_ids) - len(up) >= config.max_concurrent_failures or not up:
            continue
        victim = rng.choice(up)
        recover_at = t + rng.expovariate(1.0 / config.mean_time_to_recovery)
        down_until[victim] = recover_at
        events.append(NodeFailure(t, victim))
        events.append(NodeRecovery(recover_at, victim))

    if config.link_mean_time_to_degrade > 0 and link_keys:
        slow_until: dict[tuple[str, str], float] = {}
        t = config.start
        while True:
            t += rng.expovariate(1.0 / config.link_mean_time_to_degrade)
            if t >= config.start + config.duration:
                break
            healthy = [k for k in link_keys if slow_until.get(k, 0.0) <= t]
            if not healthy:
                continue
            src, dst = healthy[rng.randrange(len(healthy))]
            repair_at = t + rng.expovariate(
                1.0 / config.link_mean_time_to_repair
            )
            slow_until[(src, dst)] = repair_at
            events.append(
                LinkDegradation(t, src, dst, config.link_degradation_factor)
            )
            events.append(LinkRecovery(repair_at, src, dst))

    return sorted(events, key=lambda e: e.time)


def validate_schedule(events: Sequence[ClusterEvent], cluster) -> None:
    """Reject a malformed event schedule before the run starts.

    A bad schedule — a typo'd node id, a recovery for a node that never
    fails, a parameter the simulator would refuse — otherwise surfaces
    mid-run as a confusing simulation error (or worse, silently does
    nothing). This checks the whole schedule up front against the
    starting cluster and raises :class:`~repro.core.errors.ClusterError`
    naming the offending event and its time:

    * no event may carry a negative (or NaN) time;
    * every node event must name a known node;
    * every link event must name an existing link;
    * a ``NodeRecovery`` must be preceded by something that takes its
      node out of service (``NodeFailure``, a gray node fault, or the
      node starting out down);
    * a ``LinkDegradation`` factor and a ``StragglerStart`` slowdown must
      be finite and positive; a ``FlakyLink`` drop probability must lie
      in [0, 1) and its retransmit delay must not be negative.
    """
    from repro.online.faults import FlakyLink, FlakyLinkEnd, GRAY_NODE_FAULTS
    from repro.online.faults import StragglerEnd, StragglerStart

    failed: set[str] = set(cluster.down_node_ids)

    def reject(event: ClusterEvent, problem: str) -> None:
        raise ClusterError(
            f"{type(event).__name__} at t={event.time:g} {problem}"
        )

    def check_node(event: ClusterEvent, node_id: str) -> None:
        if node_id not in cluster:
            reject(event, f"names unknown node {node_id!r}")

    def check_link(event: ClusterEvent, src: str, dst: str) -> None:
        if not cluster.has_link(src, dst):
            reject(event, f"names unknown link {src!r}->{dst!r}")

    def check_positive(event: ClusterEvent, name: str, value: float) -> None:
        if not (math.isfinite(value) and value > 0):
            reject(event, f"has {name} {value}; it must be finite and > 0")

    for event in sorted(events, key=lambda e: e.time):
        if not event.time >= 0:  # also rejects NaN
            raise ClusterError(
                f"{type(event).__name__} scheduled at negative time "
                f"{event.time:g}"
            )
        if isinstance(event, NodeFailure):
            check_node(event, event.node_id)
            failed.add(event.node_id)
        elif isinstance(event, NodeDrain):
            check_node(event, event.node_id)
            failed.add(event.node_id)  # out of service; recovery is legal
        elif isinstance(event, NodeRecovery):
            check_node(event, event.node_id)
            if event.node_id not in failed:
                reject(
                    event,
                    f"for node {event.node_id!r}, which never failed "
                    f"before it",
                )
            failed.discard(event.node_id)
        elif isinstance(event, StragglerStart):
            check_node(event, event.node_id)
            check_positive(event, "slowdown", event.slowdown)
        elif isinstance(event, StragglerEnd):
            check_node(event, event.node_id)
        elif isinstance(event, GRAY_NODE_FAULTS):
            check_node(event, event.node_id)
            failed.add(event.node_id)
        elif isinstance(event, LinkDegradation):
            check_link(event, event.src, event.dst)
            check_positive(event, "factor", event.factor)
        elif isinstance(event, FlakyLink):
            check_link(event, event.src, event.dst)
            if not 0.0 <= event.drop_probability < 1.0:
                reject(
                    event,
                    f"has drop probability {event.drop_probability}; "
                    f"it must be in [0, 1)",
                )
            if not event.retransmit_delay >= 0:  # also rejects NaN
                reject(
                    event,
                    f"has retransmit delay {event.retransmit_delay}; "
                    f"it must be >= 0",
                )
        elif isinstance(event, (LinkRecovery, FlakyLinkEnd)):
            check_link(event, event.src, event.dst)
