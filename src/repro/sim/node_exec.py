"""Per-node execution engine with the paper's dynamic batching.

A node alternates between executing one batch and collecting the work that
arrives meanwhile; when a batch completes, everything queued forms the next
batch ("this best-effort batching occurs without additional waiting
periods", §5.1). Batch wall time comes from the profiler's roofline —
compute proportional to token-layers plus one streaming read of the
resident weights — so the simulator's node behaviour is consistent with the
``T_j`` constants the planner optimized against.

For the simulator's hot loop the executor precomputes the roofline
constants once at construction (``compute_rate``, ``weights_time``,
``overhead``): the inner loop then prices a batch with two float adds and a
division instead of a :class:`~repro.cluster.profiler.Profiler` call. The
precomputed path evaluates the identical expression in the identical
association order, so the two agree bit-for-bit (asserted in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.node import ComputeNode
from repro.cluster.profiler import Profiler
from repro.models.specs import ModelSpec


@dataclass(slots=True)
class StageWork:
    """One request-iteration's work at one pipeline stage.

    Attributes:
        request_id: The owning request.
        stage_index: Position of this stage in the request's pipeline.
        num_tokens: Tokens processed this iteration (prompt length during
            the prompt phase, 1 during decode).
        num_layers: Layers this stage computes for the request.
        is_prompt: Whether this is the prompt-phase iteration.
        attempt: The owning request's attempt number; work minted by a
            disrupted attempt is dropped when its batch completes.
        tl: Work contribution in integer token-layer units
            (``num_tokens * num_layers``), precomputed for the simulator's
            batch pricing; 0 when constructed outside the simulator.
        owner: The simulator's live-request state this work belongs to
            (``None`` outside the simulator). Lets the hot loop reach the
            request without a dict lookup.
        hop: The simulator's hop-table entry for this (pipeline, stage)
            (``None`` outside the simulator): executor, KV pool, and
            outbound channel resolved once at schedule time.
        next: The work this stage forwards to — the next stage's work of
            the same phase, or the work itself at the final stage (token
            return). Set by the simulator once the pipeline's works exist.

    The simulator builds one prompt work and one decode work per
    (attempt, stage) and re-enqueues the same objects every decode
    iteration, so steady-state decode allocates no work objects at all.
    """

    request_id: str
    stage_index: int
    num_tokens: int
    num_layers: int
    is_prompt: bool
    attempt: int = 0
    tl: int = field(default=0, compare=False, repr=False)
    owner: object = field(default=None, compare=False, repr=False)
    hop: object = field(default=None, compare=False, repr=False)
    next: object = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class _BatchStats:
    batches: int = 0
    busy_time: float = 0.0
    token_layers: float = 0.0
    tokens: float = 0.0


class NodeExecutor:
    """Queue + batch executor for one compute node.

    Args:
        node: The simulated node.
        model: The served model.
        profiler: Timing model.
        resident_layers: Layers the node holds under the placement.
        max_batch_tokens: Optional cap on tokens per batch; ``None`` means
            a batch takes everything queued (the paper's policy).
    """

    __slots__ = (
        "node", "node_id", "model", "profiler", "resident_layers",
        "max_batch_tokens", "queue", "queue_tokens", "queue_tl", "busy", "stats",
        "epoch", "compute_rate", "weights_time", "overhead", "slowdown",
    )

    def __init__(
        self,
        node: ComputeNode,
        model: ModelSpec,
        profiler: Profiler,
        resident_layers: int,
        max_batch_tokens: int | None = None,
    ) -> None:
        if resident_layers < 1:
            raise ValueError(
                f"node {node.node_id!r} executes with no resident layers"
            )
        if max_batch_tokens is not None and max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1 when set")
        self.node = node
        self.node_id = node.node_id
        self.model = model
        self.profiler = profiler
        self.resident_layers = resident_layers
        self.max_batch_tokens = max_batch_tokens
        self.queue: list[StageWork] = []
        #: Token and token-layer totals of the queued works, kept in sync
        #: by every enqueue site so a batch that fits the cap skips the
        #: per-item scan and is priced without touching its works.
        self.queue_tokens = 0
        self.queue_tl = 0
        self.busy = False
        self.stats = _BatchStats()
        #: Bumped when the node fails or is re-bound; completions carrying
        #: a stale epoch fall on the floor.
        self.epoch = 0
        # Hot-loop roofline constants: batch time for ``tl`` token-layers is
        # ``tl / compute_rate + weights_time + overhead`` — the same
        # expression, in the same association order, as
        # ``Profiler.batch_time``.
        self.compute_rate = profiler.compute_rate(node, model)
        self.weights_time = resident_layers * profiler.weight_read_time(
            node, model
        )
        self.overhead = profiler.batch_overhead
        #: Gray-fault straggler factor (1.0 = healthy). See
        #: :meth:`set_slowdown`.
        self.slowdown = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Scale the roofline constants by a straggler ``factor``.

        ``factor`` is relative to the node's healthy constants (repeated
        calls do not compound); 1.0 restores them exactly — the healthy
        values are recomputed from the profiler, so a restored executor is
        bit-identical to one that never straggled.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"slowdown factor must be finite and positive, got {factor}"
            )
        self.slowdown = factor
        rate = self.profiler.compute_rate(self.node, self.model)
        weights = self.resident_layers * self.profiler.weight_read_time(
            self.node, self.model
        )
        overhead = self.profiler.batch_overhead
        if factor == 1.0:
            self.compute_rate = rate
            self.weights_time = weights
            self.overhead = overhead
        else:
            self.compute_rate = rate / factor
            self.weights_time = weights * factor
            self.overhead = overhead * factor

    # ------------------------------------------------------------------
    def quiesce(self, busy: bool = False) -> None:
        """Stop the node: drop its queued work and strand its batch.

        The epoch bump makes the in-flight batch (if any) complete as a
        no-op. ``busy=True`` leaves a blackhole — arrivals enqueue forever
        and no batch ever starts — for a node that died silently.
        """
        self.epoch += 1
        self.queue.clear()
        self.queue_tokens = 0
        self.queue_tl = 0
        self.busy = busy

    def utilization(self, duration: float) -> float:
        """Busy-time fraction over a duration."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / duration)
