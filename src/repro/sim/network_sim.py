"""FIFO bandwidth/latency queues for directed network links.

A link serializes transmissions: a message starts once the link is free,
occupies it for ``bytes / bandwidth`` seconds, and arrives one propagation
latency later. Queueing delay (waiting for the link) is tracked separately
so experiments can report per-link congestion, as the paper's §6.7 case
study does for its "congestion" links.

A flaky link carries a gray :class:`~repro.online.faults.LinkFault` in
``fault``; :meth:`transmit` adds its retransmit delay to the arrival, so
a message on a healthy link never pays one.

:meth:`transmit` is the rule every send follows: prompts, decode
re-entries and weight pulls call it. One site inlines the same float
operations, in the same order, against the channel's public fields
(``next_free_time``, ``bandwidth``, ``latency``, ``fault`` and the stat
accumulators): the per-work forward of a completed batch
(the ``K_BATCH`` branch of ``Simulation.run``), the busiest send of the
event loop, inlined to save a method call per work. Whether that
saving shows end to end is not settled: the measurements disagree, and
ROADMAP.md ("Small leftovers") leaves the question to a CPU-time ruler.
``bandwidth``/``latency`` mirror ``link`` and are kept in sync through
:meth:`set_link` (live link degradation/repair).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.network import Link


@dataclass(eq=False, slots=True)
class LinkChannel:
    """Runtime state of one directed link.

    Channels compare (and hash) by identity — each is the unique runtime
    state of one directed link, and the simulator keys hot-path tables by
    channel object.

    Attributes:
        link: The static link description.
        bandwidth: Cached ``link.bandwidth`` (kept in sync by
            :meth:`set_link`).
        latency: Cached ``link.latency``.
        fault: Optional gray-fault state (a
            :class:`~repro.online.faults.LinkFault`) the simulator
            attaches when the link turns lossy/flaky; ``None`` on healthy
            links. :meth:`transmit` adds its delay, so a flaky link
            changes nothing on the others.
    """

    link: Link
    next_free_time: float = 0.0
    bytes_sent: float = 0.0
    messages_sent: int = 0
    total_queueing_delay: float = 0.0
    max_queueing_delay: float = 0.0
    fault: object = None
    bandwidth: float = field(init=False)
    latency: float = field(init=False)

    def __post_init__(self) -> None:
        self.bandwidth = self.link.bandwidth
        self.latency = self.link.latency

    def set_link(self, link: Link) -> None:
        """Swap the underlying link (degradation/repair) atomically."""
        self.link = link
        self.bandwidth = link.bandwidth
        self.latency = link.latency

    def transmit(self, now: float, num_bytes: float) -> float:
        """Enqueue a message at time ``now``; returns its arrival time,
        including a flaky link's retransmit delay."""
        if num_bytes < 0:
            raise ValueError(f"negative message size {num_bytes}")
        free = self.next_free_time
        start = free if free > now else now
        queueing = start - now
        end = start + num_bytes / self.bandwidth
        self.next_free_time = end
        self.bytes_sent += num_bytes
        self.messages_sent += 1
        self.total_queueing_delay += queueing
        if queueing > self.max_queueing_delay:
            self.max_queueing_delay = queueing
        arrival = end + self.latency
        fault = self.fault
        if fault is not None:
            arrival += fault.delay()
        return arrival

    @property
    def mean_queueing_delay(self) -> float:
        """Average seconds a message waited for this link."""
        if self.messages_sent == 0:
            return 0.0
        return self.total_queueing_delay / self.messages_sent
