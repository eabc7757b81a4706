"""Gray-failure vocabulary: stragglers, flaky links, zombie nodes.

Unlike :mod:`repro.online.events` — whose failures are *announced* to the
scheduler the instant they happen — gray faults never announce
themselves. A straggler keeps serving, just slower; a flaky link delivers
most messages, just late or not at all; a zombie accepts work (and keeps
heartbeating) but never finishes a batch. They can only be *detected*
(see :mod:`repro.online.detect`), which is exactly what makes them the
interesting robustness case.

All fault events are :class:`~repro.online.events.ClusterEvent` subclasses
and apply through dedicated ``Simulation`` primitives
(``set_compute_slowdown``, ``set_link_flaky``, ``make_zombie``,
``fail_node(announce=False)``) that cost next to nothing when unused: a
run with no gray faults produces the identical results, bit for bit, as
before this module existed (the differential suite asserts it); a send
only checks whether its own channel carries a fault.

Randomness (the per-message drop/retransmit draws of a flaky link) comes
from a per-link :class:`random.Random` seeded from the simulation seed
and the link endpoints, never from global state, so a seeded chaos run
reproduces exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.online.events import ClusterEvent


class LinkFault:
    """Runtime lossy-link state attached to one directed channel.

    Data-plane messages are never truly dropped — TCP-style, a "drop"
    costs one ``retransmit_delay`` and the message still arrives, so
    token conservation is trivial — but each message may be hit several
    times in a row (independent draws, geometric retransmit count).
    Control-plane heartbeats *are* truly dropped: a lost heartbeat is
    precisely the signal a failure detector has to cope with.
    """

    __slots__ = (
        "drop_probability", "retransmit_delay", "rng",
        "messages", "drops", "heartbeats_dropped",
    )

    def __init__(
        self,
        drop_probability: float,
        retransmit_delay: float,
        seed: int | str,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1), got {drop_probability}"
            )
        if retransmit_delay < 0:
            raise ValueError(
                f"retransmit delay must be >= 0, got {retransmit_delay}"
            )
        self.drop_probability = drop_probability
        self.retransmit_delay = retransmit_delay
        self.rng = random.Random(seed)
        self.messages = 0
        self.drops = 0
        self.heartbeats_dropped = 0

    def delay(self) -> float:
        """Extra seconds this data message spends being retransmitted."""
        self.messages += 1
        extra = 0.0
        while self.rng.random() < self.drop_probability:
            self.drops += 1
            extra += self.retransmit_delay
        return extra

    def drop_heartbeat(self) -> bool:
        """Whether a heartbeat crossing this link is lost outright."""
        if self.rng.random() < self.drop_probability:
            self.heartbeats_dropped += 1
            return True
        return False


@dataclass(frozen=True)
class StragglerStart(ClusterEvent):
    """A node silently slows down by ``slowdown`` (compute and overhead)."""

    node_id: str = ""
    slowdown: float = 4.0

    triggers_replan = False

    def apply(self, sim) -> str:
        sim.set_compute_slowdown(self.node_id, self.slowdown)
        return f"node {self.node_id} straggling at {self.slowdown:.1f}x"


@dataclass(frozen=True)
class StragglerEnd(ClusterEvent):
    """A straggling node silently returns to full speed."""

    node_id: str = ""

    triggers_replan = False
    is_disruptive = False

    def apply(self, sim) -> str:
        sim.set_compute_slowdown(self.node_id, 1.0)
        return f"node {self.node_id} stopped straggling"


@dataclass(frozen=True)
class FlakyLink(ClusterEvent):
    """A link turns lossy: probabilistic per-message delay/drop."""

    src: str = ""
    dst: str = ""
    drop_probability: float = 0.1
    retransmit_delay: float = 0.1

    triggers_replan = False

    def apply(self, sim) -> str:
        sim.set_link_flaky(
            self.src, self.dst, self.drop_probability, self.retransmit_delay
        )
        return (
            f"link {self.src}<->{self.dst} flaky "
            f"(p={self.drop_probability:.2f}, "
            f"retx={self.retransmit_delay * 1000:.0f}ms)"
        )


@dataclass(frozen=True)
class FlakyLinkEnd(ClusterEvent):
    """A flaky link silently heals."""

    src: str = ""
    dst: str = ""

    triggers_replan = False
    is_disruptive = False

    def apply(self, sim) -> str:
        sim.clear_link_flaky(self.src, self.dst)
        return f"link {self.src}<->{self.dst} no longer flaky"


@dataclass(frozen=True)
class ZombieNode(ClusterEvent):
    """A node wedges: accepts work and keeps heartbeating, never finishes.

    The canonical gray failure — heartbeat-only detectors never catch it;
    only a progress watchdog does, so the controller accepts it only in
    ``detection_mode``. Recover with a normal
    :class:`~repro.online.events.NodeRecovery`.
    """

    node_id: str = ""

    triggers_replan = False

    def apply(self, sim) -> str:
        sim.make_zombie(self.node_id)
        return f"node {self.node_id} went zombie (accepts work, no progress)"


#: Event types that take a node silently out of (full) service — used by
#: schedule validation to know which nodes a NodeRecovery may target.
GRAY_NODE_FAULTS = (ZombieNode,)
