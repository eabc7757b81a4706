"""KV-cache usage estimation and masking (paper §5.2).

Output lengths are unknown at schedule time, so the scheduler tracks an
*estimate* of each node's KV-cache occupancy — every in-flight request
charges ``input_len + expected_output_len`` tokens to every node in its
pipeline — and masks out nodes whose estimate exceeds a high-water mark.
Charges are released when the request finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import SchedulingError


@dataclass(slots=True)
class _NodeKVState:
    capacity_tokens: int
    estimated_tokens: float = 0.0


class KVCacheEstimator:
    """Tracks estimated KV occupancy per node and applies the mask.

    Args:
        capacities: Node id -> KV token capacity (for the layers the node
            holds under the current placement).
        expected_output_len: The average output length used to estimate a
            request's final footprint (the paper uses the trace average);
            finite and >= 0.
        high_water_mark: Fraction of capacity above which a node stops
            receiving new requests.
    """

    def __init__(
        self,
        capacities: dict[str, int],
        expected_output_len: float = 232.0,
        high_water_mark: float = 0.9,
    ) -> None:
        if not 0.0 < high_water_mark <= 1.0:
            raise ValueError(f"high_water_mark must be in (0, 1], got {high_water_mark}")
        # A NaN estimate would mask every node forever (every comparison
        # with it is False), so a simulation would stall silently.
        if not (math.isfinite(expected_output_len) and expected_output_len >= 0):
            raise SchedulingError(
                f"expected_output_len must be finite and >= 0, got "
                f"{expected_output_len}"
            )
        self._nodes = {
            nid: _NodeKVState(capacity_tokens=max(0, int(cap)))
            for nid, cap in capacities.items()
        }
        self.expected_output_len = expected_output_len
        self.high_water_mark = high_water_mark

    # ------------------------------------------------------------------
    def estimate_for(self, input_len: int) -> float:
        """Estimated final KV footprint of a request, in tokens."""
        return input_len + self.expected_output_len

    def admits(self, node_id: str, input_len: int) -> bool:
        """Whether ``node_id`` can accept a request without overcommitting."""
        state = self._nodes.get(node_id)
        if state is None or state.capacity_tokens <= 0:
            return False
        projected = state.estimated_tokens + self.estimate_for(input_len)
        return projected <= self.high_water_mark * state.capacity_tokens

    def charge(self, node_id: str, input_len: int) -> None:
        """Record a scheduled request's estimated footprint on a node."""
        state = self._nodes.get(node_id)
        if state is not None:
            state.estimated_tokens += self.estimate_for(input_len)

    def release(self, node_id: str, input_len: int) -> None:
        """Release a finished request's footprint from a node."""
        state = self._nodes.get(node_id)
        if state is not None:
            state.estimated_tokens = max(
                0.0, state.estimated_tokens - self.estimate_for(input_len)
            )

    def charge_pipeline(self, node_ids: Iterable[str], input_len: int) -> None:
        """Charge one request's footprint on every node of its pipeline.

        Same arithmetic as calling :meth:`charge` per node, with the
        estimate computed once — this runs on every scheduling attempt, so
        the admission-retry storm of a flooded run stays cheap.
        """
        estimate = input_len + self.expected_output_len
        nodes = self._nodes
        for node_id in node_ids:
            state = nodes.get(node_id)
            if state is not None:
                state.estimated_tokens += estimate

    def release_pipeline(self, node_ids: Iterable[str], input_len: int) -> None:
        """Release one request's footprint from every node of its pipeline."""
        estimate = input_len + self.expected_output_len
        nodes = self._nodes
        for node_id in node_ids:
            state = nodes.get(node_id)
            if state is not None:
                estimated = state.estimated_tokens - estimate
                state.estimated_tokens = estimated if estimated > 0.0 else 0.0

    def occupancy(self, node_id: str) -> float:
        """Estimated occupancy fraction of a node (0 when unknown)."""
        state = self._nodes.get(node_id)
        if state is None or state.capacity_tokens == 0:
            return 0.0
        return state.estimated_tokens / state.capacity_tokens

    def capacity(self, node_id: str) -> int:
        """KV token capacity of a node (0 when unknown)."""
        state = self._nodes.get(node_id)
        return state.capacity_tokens if state is not None else 0

    def set_capacity(self, node_id: str, capacity: int) -> None:
        """Re-bind a node's capacity, preserving its outstanding estimate.

        Used when a live replanning changes how many layers a node holds
        (its KV partition resizes) or brings a spare node into the
        placement mid-serving; charges from in-flight requests must
        survive the swap.
        """
        state = self._nodes.get(node_id)
        if state is None:
            self._nodes[node_id] = _NodeKVState(
                capacity_tokens=max(0, int(capacity))
            )
        else:
            state.capacity_tokens = max(0, int(capacity))
