"""Frozen pre-overhaul event engine, kept as a differential oracle.

This is the per-(request, stage, token)-hop event loop the simulator
shipped before the hot-path overhaul: one string-keyed heap event per hop,
``Profiler`` consulted per batch, per-token timeline appends. It is kept
verbatim (modulo the class rename) as a differential oracle:
``repro.testkit`` replays scenario addresses through both engines and
requires exactly equal serving metrics and per-request token times (the
overhaul must not change any observable metric).

Do not optimize or otherwise modify this module: its value is that it
stays byte-for-byte the old engine. New features land in
``repro.sim.simulator`` only.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import SimulationError
from repro.models.specs import ModelSpec
from repro.scheduling.base import Scheduler
from repro.scheduling.pipelines import RequestPipeline
from repro.sim.kv_cache import KVCachePool
from repro.sim.metrics import RequestRecord, ServingMetrics, aggregate_metrics
from repro.sim.request import Request


@dataclass
class _ActiveRequest:
    request: Request
    pipeline: RequestPipeline
    record: RequestRecord
    attempt: int = 0
    # Tokens of KV the attempt has actually allocated on each node; freed
    # exactly on finish or disruption.
    kv_per_node: dict[str, int] = field(default_factory=dict)


class LegacySimulation:
    """The pre-overhaul serving simulation (oracle/baseline only).

    Args:
        cluster: The serving cluster.
        model: The served model.
        placement: Model placement in effect.
        scheduler: A configured scheduler (Helix, Swarm, random, ...).
        requests: The trace, sorted or not by arrival time.
        profiler: Timing model; must match the one used for planning.
        max_batch_tokens: Per-batch token cap on every node (bounds the
            batch latency of flooded offline runs).
        max_time: Simulation horizon in seconds; events beyond it are not
            processed.
        warmup: Seconds excluded from the measurement window.
        seed: Top-level seed recorded for the run. The simulation itself is
            deterministic; thread the *same* seed into the trace and churn
            generators (``random_churn(..., seed=...)``) so one value
            reproduces an entire dynamic run exactly.
        controller: Optional online controller (see
            :class:`repro.online.OnlineController`); its ``start(sim)`` is
            called once before the event loop to inject environment events.
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        placement,
        scheduler: Scheduler,
        requests: list[Request],
        profiler: Profiler | None = None,
        max_batch_tokens: int | None = 16384,
        max_time: float = 3600.0,
        warmup: float = 0.0,
        seed: int | None = None,
        controller=None,
    ) -> None:
        if not requests:
            raise SimulationError("request trace is empty")
        self.cluster = cluster
        self.model = model
        self.placement = placement
        self.scheduler = scheduler
        self.profiler = profiler or Profiler()
        self.max_time = max_time
        self.warmup = warmup
        self.max_batch_tokens = max_batch_tokens
        self.seed = seed
        self.controller = controller

        self.requests = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        self._node_epoch: dict[str, int] = {nid: 0 for nid in cluster.node_ids}
        self.executors: dict[str, LegacyNodeExecutor] = {}
        self.kv_pools: dict[str, KVCachePool] = {}
        for node_id in placement.used_nodes:
            self._bind_node(node_id)
        self.channels: dict[tuple[str, str], LegacyLinkChannel] = {
            key: LegacyLinkChannel(link) for key, link in cluster.links.items()
        }

        self._events: list[tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._active: dict[str, _ActiveRequest] = {}
        self._pending: deque[Request] = deque()
        self._records: dict[str, RequestRecord] = {}
        self._pipeline_depths: list[int] = []
        self._last_token_time = 0.0
        self._token_timeline: list[float] = []
        self._down_nodes: set[str] = set()
        self._base_bandwidth: dict[tuple[str, str], float] = {}
        for node_id in cluster.down_node_ids:
            self._down_nodes.add(node_id)
            self.scheduler.mark_node_down(node_id)

    def _bind_node(self, node_id: str) -> None:
        """Create (or re-create) the executor and KV pool for a used node."""
        node = self.cluster.node(node_id)
        stage = self.placement.interval(node_id)
        self.executors[node_id] = LegacyNodeExecutor(
            node, self.model, self.profiler, stage.num_layers,
            self.max_batch_tokens,
        )
        pool = KVCachePool(
            node_id=node_id,
            capacity_tokens=self.profiler.kv_capacity(
                node, self.model, stage.num_layers
            ),
        )
        old_pool = self.kv_pools.get(node_id)
        if old_pool is not None:
            # Overflow/peak history is a run-level statistic (metrics sum
            # over current pools); a rebind must not erase it.
            pool.overflow_events = old_pool.overflow_events
            pool.peak_tokens = old_pool.peak_tokens
        self.kv_pools[node_id] = pool
        self._node_epoch.setdefault(node_id, 0)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, when: float, kind: str, payload: object) -> None:
        if when < self._now - 1e-9:
            raise SimulationError(
                f"event {kind!r} scheduled in the past ({when} < {self._now})"
            )
        heapq.heappush(self._events, (when, next(self._seq), kind, payload))

    def schedule_event(
        self, when: float, fn: Callable[["LegacySimulation"], None]
    ) -> None:
        """Schedule an environment callback ``fn(sim)`` at time ``when``.

        This is how online controllers inject cluster churn — node
        failures, recoveries, link degradations, replan applications —
        into the event loop.
        """
        self._push(when, "env", fn)

    def run(self) -> ServingMetrics:
        """Play the trace and return aggregate metrics."""
        if self.controller is not None:
            self.controller.start(self)
        for request in self.requests:
            self._push(request.arrival_time, "arrival", request)

        while self._events:
            when, _, kind, payload = heapq.heappop(self._events)
            if when > self.max_time:
                break
            self._now = when
            if kind == "arrival":
                self._on_arrival(payload)
            elif kind == "stage":
                self._on_stage_arrival(*payload)
            elif kind == "batch":
                self._on_batch_complete(*payload)
            elif kind == "token":
                self._on_token(*payload)
            elif kind == "env":
                payload(self)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

        end_time = min(self._now, self.max_time)
        end_time = max(end_time, self.warmup + 1e-9)
        return aggregate_metrics(
            records=list(self._records.values()),
            warmup=self.warmup,
            end_time=end_time,
            kv_overflow_events=sum(
                pool.overflow_events for pool in self.kv_pools.values()
            ),
            pipeline_depths=self._pipeline_depths,
        )

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _on_arrival(self, request: Request) -> None:
        record = RequestRecord(
            request_id=request.request_id,
            input_len=request.input_len,
            output_len=request.output_len,
            arrival_time=request.arrival_time,
        )
        self._records[request.request_id] = record
        if not self._try_schedule(request):
            self._pending.append(request)

    def _try_schedule(self, request: Request) -> bool:
        pipeline = self.scheduler.schedule(request.request_id, request.input_len)
        if pipeline is None:
            return False
        record = self._records[request.request_id]
        record.schedule_time = self._now
        attempt = record.retries + record.migrations
        active = _ActiveRequest(
            request=request, pipeline=pipeline, record=record, attempt=attempt
        )
        self._active[request.request_id] = active
        self._start_iteration(active, is_prompt=True)
        return True

    def _retry_pending(self) -> None:
        while self._pending:
            request = self._pending[0]
            if not self._try_schedule(request):
                return
            self._pending.popleft()

    def _start_iteration(self, active: _ActiveRequest, is_prompt: bool) -> None:
        first_node = active.pipeline.stages[0].node_id
        num_tokens = active.request.input_len if is_prompt else 1
        message_bytes = num_tokens * self.model.token_bytes
        arrival = self._transmit(COORDINATOR, first_node, message_bytes)
        self._push(
            arrival,
            "stage",
            (active.request.request_id, active.attempt, 0, is_prompt),
        )

    def _transmit(self, src: str, dst: str, num_bytes: float) -> float:
        channel = self.channels.get((src, dst))
        if channel is None:
            raise SimulationError(f"no link {src!r}->{dst!r} for transmission")
        return channel.transmit(self._now, num_bytes)

    def _live_attempt(self, request_id: str, attempt: int) -> _ActiveRequest | None:
        """The active request iff ``attempt`` is its current attempt.

        Events minted by a disrupted attempt keep arriving after the
        request was requeued (and possibly rescheduled); they must be
        dropped, not applied to the new attempt. Truly unknown ids still
        raise — that would be a simulator bug.
        """
        active = self._active.get(request_id)
        if active is not None and active.attempt == attempt:
            return active
        if request_id not in self._records:
            raise SimulationError(f"event for unknown request {request_id!r}")
        return None

    def _on_stage_arrival(
        self, request_id: str, attempt: int, stage_index: int, is_prompt: bool
    ) -> None:
        active = self._live_attempt(request_id, attempt)
        if active is None:
            return  # stale: the attempt was disrupted mid-flight
        stage = active.pipeline.stages[stage_index]
        num_tokens = active.request.input_len if is_prompt else 1
        work = LegacyStageWork(
            request_id=request_id,
            stage_index=stage_index,
            num_tokens=num_tokens,
            num_layers=stage.num_layers,
            is_prompt=is_prompt,
            attempt=attempt,
        )
        executor = self.executors[stage.node_id]
        executor.enqueue(work)
        if not executor.busy:
            self._start_batch(stage.node_id)

    def _start_batch(self, node_id: str) -> None:
        executor = self.executors[node_id]
        batch = executor.take_batch()
        if not batch:
            executor.busy = False
            return
        executor.busy = True
        elapsed = executor.batch_time(batch)
        self._push(
            self._now + elapsed,
            "batch",
            (node_id, self._node_epoch[node_id], batch, elapsed),
        )

    def _on_batch_complete(
        self, node_id: str, epoch: int, batch: list[StageWork], elapsed: float
    ) -> None:
        if epoch != self._node_epoch[node_id]:
            return  # the node failed while this batch was executing
        executor = self.executors[node_id]
        executor.busy = False
        executor.record_batch(batch, elapsed)
        tokens = sum(work.num_tokens for work in batch)
        self.scheduler.notify_node_progress(node_id, tokens, elapsed)

        for work in batch:
            active = self._active.get(work.request_id)
            if active is None or active.attempt != work.attempt:
                continue  # finished under max_time truncation, or disrupted
            # KV grows on this node: the whole prompt once, then one token
            # per decode iteration.
            self.kv_pools[node_id].allocate(work.num_tokens)
            active.kv_per_node[node_id] = (
                active.kv_per_node.get(node_id, 0) + work.num_tokens
            )
            next_index = work.stage_index + 1
            if next_index < active.pipeline.depth:
                next_node = active.pipeline.stages[next_index].node_id
                size = work.num_tokens * self.model.activation_bytes_per_token
                arrival = self._transmit(node_id, next_node, size)
                self._push(
                    arrival,
                    "stage",
                    (work.request_id, work.attempt, next_index, work.is_prompt),
                )
            else:
                arrival = self._transmit(
                    node_id, COORDINATOR, self.model.token_bytes
                )
                self._push(arrival, "token", (work.request_id, work.attempt))

        if executor.has_work():
            self._start_batch(node_id)

    def _on_token(self, request_id: str, attempt: int) -> None:
        active = self._live_attempt(request_id, attempt)
        if active is None:
            return
        record = active.record
        if not record.token_times:
            record.first_token_time = self._now
        record.token_times.append(self._now)
        record.tokens_generated += 1
        self._last_token_time = self._now
        self._token_timeline.append(self._now)

        if record.tokens_generated >= active.request.output_len:
            self._finish(active)
        else:
            self._start_iteration(active, is_prompt=False)

    def _finish(self, active: _ActiveRequest) -> None:
        record = active.record
        record.finish_time = self._now
        # Recorded on finish, not on schedule: disrupted attempts' pipelines
        # must not contaminate the finished-request depth average.
        self._pipeline_depths.append(active.pipeline.depth)
        for node_id, tokens in active.kv_per_node.items():
            self.kv_pools[node_id].free(tokens)
        del self._active[active.request.request_id]
        self.scheduler.notify_finished(active.request.request_id)
        self._retry_pending()

    # ------------------------------------------------------------------
    # Online dynamics: failures, repairs, and live replanning
    # ------------------------------------------------------------------
    def _requeue(self, active: _ActiveRequest, migrated: bool) -> None:
        """Abort an attempt and send the request back to the pending queue.

        The attempt's tokens become wasted work, its KV charges on
        surviving nodes are released (the failed node's pool was flushed
        wholesale), and the attempt counter bump makes every event the old
        attempt still has in flight fall on the floor.
        """
        record = active.record
        record.tokens_lost += record.tokens_generated
        if migrated:
            record.migrations += 1
        else:
            record.retries += 1
        record.tokens_generated = 0
        record.token_times = []
        record.first_token_time = math.nan
        record.schedule_time = math.nan
        for node_id, tokens in active.kv_per_node.items():
            if node_id not in self._down_nodes and node_id in self.kv_pools:
                self.kv_pools[node_id].free(tokens)
        del self._active[active.request.request_id]
        self.scheduler.notify_failed(active.request.request_id)
        self._pending.append(active.request)

    def fail_node(self, node_id: str) -> list[str]:
        """A node crashes: its KV state is lost and its work fails.

        Everything the node was doing dies with it — queued stage work is
        dropped, the in-flight batch (if any) never completes, and every
        request whose pipeline routes through the node is requeued for a
        fresh scheduling attempt on the surviving topology. The scheduler
        masks the node until :meth:`restore_node`.

        Returns the ids of the requeued requests.
        """
        self.cluster.node(node_id)  # referential check
        if node_id in self._down_nodes:
            return []
        self.cluster.set_node_available(node_id, False)
        self._down_nodes.add(node_id)
        self.scheduler.mark_node_down(node_id)
        # .get: a joined node that never entered a placement has no epoch yet.
        self._node_epoch[node_id] = self._node_epoch.get(node_id, 0) + 1

        executor = self.executors.get(node_id)
        if executor is not None:
            executor.queue.clear()
            executor.busy = False
        pool = self.kv_pools.get(node_id)
        if pool is not None:
            pool.used_tokens = 0  # KV state is gone

        requeued = [
            rid
            for rid, active in self._active.items()
            if node_id in active.pipeline.node_ids
        ]
        for rid in requeued:
            self._requeue(self._active[rid], migrated=False)
        self._retry_pending()
        return requeued

    def restore_node(self, node_id: str) -> None:
        """A failed node rejoins (cold: empty KV, empty queue)."""
        self.cluster.node(node_id)
        if node_id not in self._down_nodes:
            return
        self.cluster.set_node_available(node_id, True)
        self._down_nodes.discard(node_id)
        self.scheduler.mark_node_up(node_id)
        pool = self.kv_pools.get(node_id)
        if pool is not None:
            pool.used_tokens = 0
        self._retry_pending()

    def degrade_link(
        self, src: str, dst: str, factor: float, bidirectional: bool = True
    ) -> None:
        """Scale a link's bandwidth to ``factor`` of its original value.

        Affects every future transmission (in-flight messages keep their
        already-computed arrival times, like packets already on the wire)
        and, through :meth:`~repro.flow.graph.FlowGraph.refresh_links`, the
        flow capacities the next replanning sees. ``factor`` is relative to
        the link's *original* bandwidth, so repeated degradations do not
        compound; :meth:`restore_link` resets it. With ``bidirectional``
        the reverse direction is degraded too when it exists (links may be
        asymmetric).
        """
        if factor <= 0:
            raise SimulationError(
                f"degradation factor must be positive, got {factor} "
                "(sever connectivity by failing nodes instead)"
            )
        self.cluster.link(src, dst)  # referential check before mutating
        keys = [(src, dst)]
        if bidirectional and self.cluster.has_link(dst, src):
            keys.append((dst, src))
        for key in keys:
            base = self._base_bandwidth.setdefault(
                key, self.cluster.link(*key).bandwidth
            )
            link = self.cluster.set_link_bandwidth(*key, base * factor)
            channel = self.channels.get(key)
            if channel is not None:
                channel.link = link

    def restore_link(
        self, src: str, dst: str, bidirectional: bool = True
    ) -> None:
        """Restore a degraded link to its original bandwidth."""
        keys = [(src, dst)]
        if bidirectional:
            keys.append((dst, src))
        for key in keys:
            base = self._base_bandwidth.pop(key, None)
            if base is None:
                continue
            link = self.cluster.set_link_bandwidth(*key, base)
            channel = self.channels.get(key)
            if channel is not None:
                channel.link = link

    def _attempt_survives(
        self, pipeline: RequestPipeline, placement, rebound: set[str]
    ) -> bool:
        """Whether an in-flight pipeline is still executable.

        A pipeline dies if any of its nodes is down, left the placement, or
        is about to be *re-bound* (its layer interval changed, so its
        executor and KV pool are replaced — queued and in-flight work there
        would vanish with the old executor). A node that is up, still
        placed, and not re-bound holds the exact interval the pipeline was
        built against, so no further stage check is needed.
        """
        for stage in pipeline.stages:
            if stage.node_id in self._down_nodes:
                return False
            if stage.node_id in rebound:
                return False
            if not placement.holds_layers(stage.node_id):
                return False
        return True

    def apply_placement(self, placement, flow=None) -> list[str]:
        """Hot-swap a replanned placement (and flow) into the live run.

        Requests whose pipelines survive the swap — every stage node still
        up, still holding the same layer interval — keep draining
        untouched. The rest are *migrated*: requeued for scheduling under
        the new placement. Nodes entering service get executors and KV
        pools; nodes whose layer interval changed are re-bound (their
        resident weights are reloaded, which also resets their KV pool —
        every request with state there is migrated first).

        Returns the ids of migrated requests.
        """
        placement.validate()
        if flow is not None and flow.max_flow <= 0:
            # Reject before mutating: the scheduler would refuse this flow
            # anyway, and by then requests would already be requeued and
            # executors rebound against a placement it never adopted.
            raise SimulationError(
                "flow solution carries no flow; refusing to hot-swap"
            )
        old_placement = self.placement
        rebound: set[str] = set()
        for node_id in placement.used_nodes:
            if node_id not in self.executors:
                continue  # entering service: no in-flight state to protect
            old_stage = (
                old_placement.interval(node_id)
                if old_placement.holds_layers(node_id)
                else None
            )
            stage = placement.interval(node_id)
            if old_stage is None or (old_stage.start, old_stage.end) != (
                stage.start, stage.end
            ):
                rebound.add(node_id)

        migrated = []
        for rid, active in list(self._active.items()):
            if not self._attempt_survives(active.pipeline, placement, rebound):
                migrated.append(rid)
                self._requeue(active, migrated=True)

        self.placement = placement
        for node_id in placement.used_nodes:
            if node_id not in self.executors:
                self._bind_node(node_id)
            elif node_id in rebound:
                self._node_epoch[node_id] = (
                    self._node_epoch.get(node_id, 0) + 1
                )
                self._bind_node(node_id)
        # Nodes leaving service quiesce like failed ones: queued stage work
        # is dropped and the in-flight batch (if any) goes stale, so they
        # stop accruing utilization and scheduler progress. Their executors
        # and KV pools stay registered for run-level statistics.
        for node_id in old_placement.used_nodes:
            if placement.holds_layers(node_id):
                continue
            executor = self.executors.get(node_id)
            if executor is not None:
                executor.queue.clear()
                executor.busy = False
            self._node_epoch[node_id] = self._node_epoch.get(node_id, 0) + 1
        # A joined node brings new links; give them channels.
        for key, link in self.cluster.links.items():
            if key not in self.channels:
                self.channels[key] = LegacyLinkChannel(link)

        self.scheduler.apply_placement(placement, flow=flow)
        self._retry_pending()
        return migrated

    # ------------------------------------------------------------------
    # Introspection for tests and case studies
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def down_nodes(self) -> set[str]:
        """Nodes currently failed."""
        return set(self._down_nodes)

    @property
    def pending_requests(self) -> int:
        """Requests waiting in the pending queue."""
        return len(self._pending)

    @property
    def token_timeline(self) -> list[float]:
        """Emission times of every token the system produced, in order.

        Unlike per-request records (reset when an attempt is disrupted),
        this global timeline is append-only: tokens emitted by an attempt
        that later failed stay in it. Feeding it to
        :func:`~repro.sim.metrics.goodput_timeline` therefore shows the
        true served-token rate over time — including the dip around a
        failure and the recovery after replanning.
        """
        return list(self._token_timeline)

    @property
    def records(self) -> list[RequestRecord]:
        """Records of every request that has arrived so far."""
        return list(self._records.values())

    def record_of(self, request_id: str) -> RequestRecord:
        """Per-request record (available after the run)."""
        return self._records[request_id]

    def congestion_report(self, top: int = 5) -> list[tuple[str, str, float]]:
        """Links with the largest mean queueing delay (src, dst, seconds)."""
        ranked = sorted(
            (
                (key[0], key[1], channel.mean_queueing_delay)
                for key, channel in self.channels.items()
                if channel.messages_sent > 0
            ),
            key=lambda row: -row[2],
        )
        return ranked[:top]


# ----------------------------------------------------------------------
# Frozen copies of the pre-overhaul runtime components. The live
# modules grew hot-path machinery (slots, cached roofline constants,
# queue-token counters); the baseline must not inherit those, so it
# carries its own verbatim copies under Legacy* names.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LegacyStageWork:
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
    """

    request_id: str
    stage_index: int
    num_tokens: int
    num_layers: int
    is_prompt: bool
    attempt: int = 0

    @property
    def token_layers(self) -> float:
        """Work contribution in token-layer units."""
        return float(self.num_tokens * self.num_layers)


@dataclass
class _LegacyBatchStats:
    batches: int = 0
    busy_time: float = 0.0
    token_layers: float = 0.0
    tokens: float = 0.0


class LegacyNodeExecutor:
    """Queue + batch executor for one compute node.

    Args:
        node: The simulated node.
        model: The served model.
        profiler: Timing model.
        resident_layers: Layers the node holds under the placement.
        max_batch_tokens: Optional cap on tokens per batch; ``None`` means
            a batch takes everything queued (the paper's policy).
    """

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
        self.model = model
        self.profiler = profiler
        self.resident_layers = resident_layers
        self.max_batch_tokens = max_batch_tokens
        self.queue: list[LegacyStageWork] = []
        self.busy = False
        self.stats = _LegacyBatchStats()

    # ------------------------------------------------------------------
    def enqueue(self, work: LegacyStageWork) -> None:
        """Add work to the node's input queue."""
        self.queue.append(work)

    def has_work(self) -> bool:
        """Whether the queue is non-empty."""
        return bool(self.queue)

    def take_batch(self) -> list[LegacyStageWork]:
        """Remove and return the next batch (FIFO, optionally token-capped).

        Always returns at least one item when work is queued, even if that
        single item exceeds the token cap (a long prompt must still run).
        """
        if not self.queue:
            return []
        if self.max_batch_tokens is None:
            batch = self.queue
            self.queue = []
            return batch
        batch: list[LegacyStageWork] = []
        tokens = 0
        while self.queue:
            item = self.queue[0]
            if batch and tokens + item.num_tokens > self.max_batch_tokens:
                break
            batch.append(self.queue.pop(0))
            tokens += item.num_tokens
        return batch

    def batch_time(self, batch: list[LegacyStageWork]) -> float:
        """Wall time to execute ``batch`` on this node."""
        token_layers = sum(work.token_layers for work in batch)
        return self.profiler.batch_time(
            self.node, self.model, token_layers, self.resident_layers
        )

    def record_batch(self, batch: list[LegacyStageWork], elapsed: float) -> None:
        """Update utilization statistics after a batch completes."""
        self.stats.batches += 1
        self.stats.busy_time += elapsed
        self.stats.token_layers += sum(w.token_layers for w in batch)
        self.stats.tokens += sum(w.num_tokens for w in batch)

    def utilization(self, duration: float) -> float:
        """Busy-time fraction over a duration."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / duration)


@dataclass
class LegacyLinkChannel:
    """Runtime state of one directed link.

    Attributes:
        link: The static link description.
    """

    link: Link
    next_free_time: float = 0.0
    bytes_sent: float = 0.0
    messages_sent: int = 0
    total_queueing_delay: float = 0.0
    max_queueing_delay: float = 0.0

    def transmit(self, now: float, num_bytes: float) -> float:
        """Enqueue a message at time ``now``; returns its arrival time."""
        if num_bytes < 0:
            raise ValueError(f"negative message size {num_bytes}")
        start = max(now, self.next_free_time)
        queueing = start - now
        transmission = num_bytes / self.link.bandwidth
        self.next_free_time = start + transmission
        self.bytes_sent += num_bytes
        self.messages_sent += 1
        self.total_queueing_delay += queueing
        self.max_queueing_delay = max(self.max_queueing_delay, queueing)
        return start + transmission + self.link.latency

    @property
    def mean_queueing_delay(self) -> float:
        """Average seconds a message waited for this link."""
        if self.messages_sent == 0:
            return 0.0
        return self.total_queueing_delay / self.messages_sent
