"""Actual (not estimated) KV-cache occupancy tracking per node.

The scheduler works from *estimates* (:mod:`repro.scheduling.kv_estimator`);
the simulator tracks the truth. Overflowing the pool does not crash the
simulation — real engines offload to host memory at a throughput cost — but
every overflow is counted so experiments can report whether the scheduler's
high-water masking actually prevented oversubscription.

The charge rule lives in the simulator's batch forward (the ``K_BATCH``
branch of ``Simulation.run``): each completed stage work adds its
tokens to ``used_tokens``, counts an overflow when that exceeds the
capacity, and raises ``peak_tokens``. This module holds the pool state
and the release.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class KVCachePool:
    """Token-granularity KV pool of one node.

    Attributes:
        node_id: Owning node.
        capacity_tokens: Tokens of KV the node can hold for its resident
            layers.
    """

    node_id: str
    capacity_tokens: int
    used_tokens: int = 0
    peak_tokens: int = 0
    overflow_events: int = 0

    def free(self, tokens: int) -> None:
        """Release ``tokens`` (clamped at zero)."""
        if tokens < 0:
            raise ValueError(f"negative free of {tokens} tokens")
        self.used_tokens = max(0, self.used_tokens - tokens)

