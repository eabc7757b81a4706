"""Directed network links between cluster nodes.

Links are directed because cloud bandwidth is asymmetric in general (the
paper's Table 7 measures different rates in each direction between regions).
A link carries either raw token ids (coordinator <-> compute) or hidden-state
activations (compute <-> compute); the per-token message size is decided by
the flow-graph layer, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Link:
    """A directed network connection.

    Attributes:
        src: Source node id (may be the coordinator).
        dst: Destination node id (may be the coordinator).
        bandwidth: Sustained bandwidth in bytes/second.
        latency: One-way propagation latency in seconds.
    """

    src: str
    dst: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop link on {self.src!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(
                f"link {self.src!r}->{self.dst!r} must have finite positive "
                f"bandwidth, got {self.bandwidth}"
            )
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError(
                f"link {self.src!r}->{self.dst!r} must have finite "
                f"non-negative latency, got {self.latency}"
            )

    @property
    def key(self) -> tuple[str, str]:
        """Dictionary key for this link's direction."""
        return (self.src, self.dst)
