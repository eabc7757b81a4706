"""Baseline request schedulers (paper §6.7).

* :class:`SwarmScheduler` — routes to the next-stage replica with
  probability proportional to its *observed* real-time throughput (EWMA of
  tokens/second reported by the execution engine), SWARM's policy.
* :class:`RandomScheduler` — uniform choice among valid next hops.
* :class:`ShortestQueueScheduler` — the next hop with the fewest
  outstanding requests.
* :class:`FixedPipelineScheduler` — round-robin over disjoint fixed
  pipelines (the policy the SP baseline uses).
"""

from __future__ import annotations

import random

from repro.core.errors import SchedulingError
from repro.core.placement_types import ModelPlacement
from repro.scheduling.base import Scheduler
from repro.scheduling.pipelines import PipelineStage, RequestPipeline

#: Smoothing factor of SwarmScheduler's per-node throughput EWMA.
_SMOOTHING = 0.3


class SwarmScheduler(Scheduler):
    """Real-time-throughput-proportional routing.

    Args:
        seed: RNG seed for the proportional sampling.
        **kwargs: Forwarded to :class:`~repro.scheduling.base.Scheduler`.
    """

    name = "swarm"

    def __init__(self, *args, seed: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = random.Random(seed)
        # Initialize estimates from the profiler so cold-start routing is
        # sane, as SWARM does with its initial capacity announcements.
        self._throughput: dict[str, float] = {}
        for node_id in self.placement.used_nodes:
            node = self.cluster.node(node_id)
            stage = self.placement.interval(node_id)
            self._throughput[node_id] = self.profiler.throughput(
                node, self.model, stage.num_layers
            )

    def notify_node_progress(self, node_id: str, tokens: float, elapsed: float) -> None:
        if elapsed <= 0:
            return
        observed = tokens / elapsed
        previous = self._throughput.get(node_id, observed)
        self._throughput[node_id] = (
            _SMOOTHING * observed + (1 - _SMOOTHING) * previous
        )

    def _choose_next(
        self, current: str, candidates: list[str], input_len: int
    ) -> str | None:
        if not candidates:
            return None
        weights = [max(self._throughput.get(nid, 0.0), 1e-9) for nid in candidates]
        return self._rng.choices(candidates, weights=weights, k=1)[0]

    def throughput_estimate(self, node_id: str) -> float:
        """Current EWMA estimate for a node (for tests)."""
        return self._throughput.get(node_id, 0.0)


class RandomScheduler(Scheduler):
    """Uniform-random routing among valid next hops."""

    name = "random"

    def __init__(self, *args, seed: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = random.Random(seed)

    def _choose_next(
        self, current: str, candidates: list[str], input_len: int
    ) -> str | None:
        if not candidates:
            return None
        return self._rng.choice(candidates)


class ShortestQueueScheduler(Scheduler):
    """Route to the next hop with the fewest outstanding requests."""

    name = "shortest-queue"

    def _choose_next(
        self, current: str, candidates: list[str], input_len: int
    ) -> str | None:
        if not candidates:
            return None
        return min(candidates, key=lambda nid: (self.outstanding.get(nid, 0), nid))


class FixedPipelineScheduler(Scheduler):
    """Round-robin over disjoint fixed pipelines (SP's policy, §5.1).

    Args:
        pipelines: Ordered node lists, one per pipeline (e.g. from
            :class:`~repro.placement.separate.SeparatePipelinesPlanner`).
        **kwargs: Forwarded to :class:`~repro.scheduling.base.Scheduler`.
    """

    name = "fixed-pipelines"

    def __init__(self, *args, pipelines: list[list[str]], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not pipelines:
            raise SchedulingError("no fixed pipelines provided")
        self._pipelines = [self._materialize(nodes) for nodes in pipelines]
        self._cursor = 0

    def _materialize(self, node_ids: list[str]) -> RequestPipeline:
        stages = []
        position = 0
        for node_id in node_ids:
            stage = self.placement.interval(node_id)
            if stage.start > position:
                raise SchedulingError(
                    f"fixed pipeline gap before node {node_id!r} at layer {position}"
                )
            stages.append(PipelineStage(node_id, position, stage.end))
            position = stage.end
        pipeline = RequestPipeline.from_stages(stages)
        pipeline.validate(self.placement.num_layers)
        return pipeline

    def _build_pipeline(self, input_len: int) -> RequestPipeline | None:
        # Try each pipeline once, starting from the round-robin cursor, and
        # take the first whose every node admits the request.
        count = len(self._pipelines)
        for offset in range(count):
            index = (self._cursor + offset) % count
            pipeline = self._pipelines[index]
            if all(
                self._admits(stage.node_id, input_len)
                for stage in pipeline.stages
            ):
                self._cursor = (index + 1) % count
                return pipeline
        return None

    def _choose_next(
        self, current: str, candidates: list[str], input_len: int
    ) -> str | None:  # pragma: no cover - unused, pipelines are fixed
        raise NotImplementedError
