"""The discrete-event serving simulation.

One :class:`Simulation` wires together a cluster, a model placement, a
scheduler, and a request trace, then plays the serving system forward:

1. A request arrives at the coordinator and asks the scheduler for a
   per-request pipeline; if every candidate node is KV-masked it waits in
   a pending queue and is retried whenever capacity frees up (§5.2).
2. The prompt iteration ships the prompt (token ids) to the first stage,
   each stage computes its layers and forwards activations, and the last
   stage returns the first output token to the coordinator.
3. Each subsequent decode iteration re-enters the same pipeline from the
   coordinator (§5's runtime design) until ``output_len`` tokens exist.

Nodes batch dynamically (everything queued joins the next batch), links
are FIFO bandwidth/latency queues, and KV pools track true occupancy.

Engine design (the hot-path overhaul). Every observable is pinned by
committed golden digests (:mod:`repro.testkit.golden`), recorded from
the pre-overhaul engine:

* **Hop tables.** At schedule time each request resolves its pipeline
  once into a list of :class:`_Hop` entries — executor, KV pool, outbound
  channel, and the precomputed roofline batch-time constants — so the
  inner loop performs zero ``Profiler`` calls and no per-event dict
  lookups by node/request id. One prompt and one decode
  :class:`~repro.sim.node_exec.StageWork` are built per (attempt, stage)
  and re-enqueued every iteration: steady-state decode allocates no work
  objects.
* **Int-coded events.** Heap entries are ``(when, seq, kind, payload)``
  with integer kinds; ``seq`` is a global monotone counter, so exact-time
  ties break in the order the events were created.
* **One event per hop.** Every hop is pushed as the
  :class:`~repro.sim.node_exec.StageWork` itself: ``K_HOP`` when it
  reaches a stage, ``K_TOKEN_ONE`` when it returns a token to the
  coordinator, which handles it and ships the decode re-entry itself, as
  in §5's runtime. A hop sent on a flaky channel (one carrying a gray
  :class:`~repro.online.faults.LinkFault`) pays its retransmit delay in
  its arrival time.
* **One flat loop.** :meth:`Simulation.run` handles ``K_HOP``,
  ``K_BATCH`` and ``K_TOKEN_ONE`` inline, with the run constants in
  locals, instead of calling a handler method per event: the loop's
  cost is that per-event Python call far more than the event count.
  Batch cutting and pricing stay in ``_start_batch``.
* **Lazy arrivals.** :meth:`Simulation.run` reserves one ``seq`` per
  trace request up front but keeps only the next arrival in the heap
  (popping arrival *i* pushes arrival *i + 1*), so the heap holds the
  live work rather than the whole future trace.
* **Bounded timeline.** The global token timeline accumulates into
  fixed-width buckets (:class:`~repro.sim.metrics.TokenTimeline`) online
  instead of appending one float per token forever.

Lifecycle sites. Each request attempt has one dispatch site
(``_dispatch``) and one release site (``_release``), and is registered
under its request id. Each node has one lifecycle state (serving,
draining, zombie, silent or down) and one transition site
(``_transition``), the only writer of that state and of the cluster
availability the scheduler masks by. The optional subsystems are
objects called from named sites, not branches in the loop: the
always-present :class:`~repro.sim.policy.RequestPolicy` and the
:class:`~repro.sim.residency.ResidencyManager` (node lost, node
restored, placement applied). Tenancy is not one of them: a request's
``tenant_id`` only tags its record, and
:func:`~repro.tenancy.report.tenant_report` computes per-tenant results
from the records after the run.

The loop also supports *online dynamics* (the ``repro.online`` package):
environment events scheduled with :meth:`Simulation.schedule_event` can
fail and restore nodes, degrade links, and hot-swap a replanned placement
mid-run. Request attempts are versioned so work belonging to a disrupted
attempt — in-flight activations, queued batches, pending completions — is
dropped cleanly when the request re-enters the pending queue.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import SimulationError
from repro.models.specs import ModelSpec
from repro.scheduling.base import Scheduler
from repro.scheduling.pipelines import RequestPipeline
from repro.sim.kv_cache import KVCachePool
from repro.sim.metrics import (
    RequestRecord,
    ServingMetrics,
    TokenTimeline,
    aggregate_metrics,
)
from repro.sim.network_sim import LinkChannel
from repro.sim.node_exec import NodeExecutor, StageWork
from repro.sim.policy import RequestPolicy
from repro.sim.request import Request
from repro.sim.residency import ResidencyManager

# Integer event kinds (heap entries are ``(when, seq, kind, payload)``).
K_ARRIVAL = 0    #: a trace request reaches the coordinator
K_BATCH = 2      #: a node finishes executing one batch
K_ENV = 4        #: an environment callback (online dynamics)
K_HOP = 5        #: one StageWork reaches its stage
K_TOKEN_ONE = 6  #: one StageWork delivers a token to the coordinator


class _Hop:
    """One resolved pipeline hop: everything the hot loop needs, no dicts."""

    __slots__ = ("executor", "pool", "node_id", "channel", "final")

    def __init__(self, executor, pool, node_id, channel, final):
        self.executor = executor
        self.pool = pool
        self.node_id = node_id
        self.channel = channel
        self.final = final


class _ActiveRequest:
    """Live state of one scheduled request attempt."""

    __slots__ = (
        "request", "request_id", "pipeline", "record", "attempt", "live",
        "hops", "entry_channel", "prompt_works", "decode_works", "done",
        "output_len",
    )

    def __init__(self, request, pipeline, record, attempt):
        self.request = request
        self.request_id = request.request_id
        self.pipeline = pipeline
        self.record = record
        self.attempt = attempt
        self.live = True
        self.output_len = request.output_len
        # Total stage completions of this attempt. A request's iterations
        # are strictly sequential (at most one in-flight work ever), so
        # completions happen in pipeline order: the first ``depth`` are the
        # prompt phase, every later one a decode hop. The exact KV tokens
        # the attempt holds on each stage — freed on finish or disruption —
        # are therefore derivable from this single counter (see
        # ``kv_allocated``), replacing a per-stage counter update on every
        # hop of every token.
        self.done = 0
        self.hops: list[_Hop] = []
        self.entry_channel: LinkChannel | None = None
        self.prompt_works: list[StageWork] = []
        self.decode_works: list[StageWork] = []

    def kv_allocated(self, stage_index: int) -> int:
        """KV tokens this attempt has allocated on ``stage_index``.

        Mirrors the per-batch pool allocations exactly: the prompt batch
        charged ``input_len`` once on every completed stage, and each
        completed decode hop charged one token.
        """
        depth = len(self.hops)
        done = self.done
        prompt = self.request.input_len if stage_index < min(done, depth) else 0
        decode_done = done - depth
        if decode_done <= 0:
            return prompt
        q, r = divmod(decode_done, depth)
        return prompt + q + (1 if stage_index < r else 0)


@dataclass(slots=True)
class _NodeLife:
    """The lifecycle record of one node that is not serving (a node with
    no record is). ``state`` is ``draining`` (masked from new pipelines,
    finishing its in-flight work), ``zombie`` (accepts work and
    heartbeats, never finishes a batch), ``silent`` (crashed, but the
    control plane does not know yet) or ``down`` (failed, confirmed dead
    or drained)."""

    state: str
    #: Ground-truth onset of a gray fault, kept through its confirmation
    #: (MTTD and false-positive accounting).
    fault_time: float | None = None
    drain_started: float = 0.0  # while draining
    drain_waiter: Callable | None = None
    #: Token counter at confirmation: a confirmed-dead node must never
    #: emit another token (the chaos invariants assert it).
    dead_mark: int | None = None


#: The node lifecycle: ``event -> (states it applies in, next state)``. In
#: any other state the event is a no-op, except the pairs in
#: :data:`_ESCALATE`.
_LIFECYCLE = {
    "fail": (("serving", "draining", "zombie", "silent"), "down"),
    "confirm": (("serving", "draining", "zombie", "silent"), "down"),
    "silent": (("serving", "zombie"), "silent"),
    "zombie": (("serving",), "zombie"),
    "drain": (("serving",), "draining"),
    "drained": (("draining",), "down"),
    "restore": (("down",), "serving"),
}
#: ``(state, event)`` pairs that escalate to a confirmed failure: a gray
#: node cannot drain and heals only through a confirmation (a restore
#: then follows it), and a fault on a draining node supersedes the drain.
_ESCALATE = frozenset({
    ("zombie", "drain"), ("silent", "drain"),
    ("zombie", "restore"), ("silent", "restore"),
    ("draining", "silent"), ("draining", "zombie"),
})


@dataclass(frozen=True)
class DrainRecord:
    """One completed graceful drain: the node left with zero lost work.

    ``kv_leaked`` is the KV tokens still charged to the node's pool when
    the drain finalized — a clean drain leaks nothing (every attempt that
    routed through the node finished and freed its charges first).
    """

    node_id: str
    started: float
    completed: float
    kv_leaked: int

    @property
    def duration(self) -> float:
        """Seconds between drain request and the node leaving service."""
        return self.completed - self.started


class Simulation:
    """Simulate serving a request trace on a placed cluster.

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
            processed. Must exceed ``warmup``; ``math.inf`` is unbounded.
        warmup: Seconds excluded from the measurement window (finite,
            >= 0).
        seed: Top-level seed of the run. It keys the random stream of
            every flaky link (:meth:`set_link_flaky` seeds each
            :class:`~repro.online.faults.LinkFault` with
            ``repro-flaky:{seed}:{src}:{dst}``); the simulator draws no
            other randomness of its own. Thread the *same* seed into the
            trace and churn generators (``random_churn(..., seed=...)``) so
            one value reproduces an entire dynamic run exactly.
        controller: Optional online controller (see
            :class:`repro.online.OnlineController`); its ``start(sim)`` is
            called once before the event loop to inject environment events.
        policy: The per-request lifecycle
            :class:`~repro.sim.policy.RequestPolicy` (retry backoff).
            ``None`` is ``RequestPolicy()``: immediate retries. A
            disrupted request always returns to the pending queue.
        debug_validate: Run ``cluster.validate()`` after every event
            applied through :meth:`apply_event`.
        residency: Optional :class:`~repro.sim.residency.ResidencyConfig`.
            When set, nodes track which model layers actually live in
            their VRAM: a node that (re)joins the placement *warms up*
            first — its missing layers are pulled as real weight-transfer
            traffic through the link channels (contending with inference
            activations), and it only becomes schedulable when they land.
            ``None`` (the default) keeps the legacy instant-recovery
            semantics bit-identically.
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
        policy=None,
        debug_validate: bool = False,
        residency=None,
    ) -> None:
        if not requests:
            raise SimulationError("request trace is empty")
        if not (math.isfinite(warmup) and warmup >= 0.0):
            raise SimulationError(
                f"warmup must be finite and >= 0, got {warmup}"
            )
        if not max_time > warmup:  # also rejects NaN; inf is unbounded
            raise SimulationError(
                f"max_time must exceed warmup ({warmup}), got {max_time}"
            )
        seen: set[str] = set()
        for request in requests:
            if request.request_id in seen:
                raise SimulationError(
                    f"duplicate request_id {request.request_id!r} in trace"
                )
            seen.add(request.request_id)
        if scheduler.cluster is not cluster:
            raise SimulationError(
                "the scheduler was built on a different Cluster object; it "
                "masks the nodes its own cluster reports unavailable"
            )
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
        self._policy = policy or RequestPolicy()
        self.debug_validate = debug_validate

        self.requests = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        self.executors: dict[str, NodeExecutor] = {}
        self.kv_pools: dict[str, KVCachePool] = {}
        for node_id in placement.used_nodes:
            self._bind_node(node_id)
        self.channels: dict[tuple[str, str], LinkChannel] = {
            key: LinkChannel(link) for key, link in cluster.links.items()
        }

        self._events: list[tuple] = []
        self._seq = 0  # global event sequence number (tie-break order)
        self._now = 0.0
        self._active: dict[str, _ActiveRequest] = {}
        self._pending: deque[Request] = deque()
        self._records: dict[str, RequestRecord] = {}
        self._pipeline_depths: list[int] = []
        self._timeline = TokenTimeline()
        #: The lifecycle record of every node that is not serving, seeded
        #: from the cluster's availability; from here on only
        #: ``_transition`` writes it (and the availability).
        self._lives: dict[str, _NodeLife] = {
            node_id: _NodeLife("down") for node_id in cluster.down_node_ids
        }
        self._drains = 0  # nodes draining, so "any drain?" is O(1)
        self._dead_node_breaches: list[str] = []
        #: Requests sitting out a retry backoff (neither active nor in the
        #: pending queue) — needed for request conservation.
        self._backoff_waiting = 0
        self._base_bandwidth: dict[tuple[str, str], float] = {}

        # Layer residency is None on the default path: no warm-up pulls.
        self._residency = residency and ResidencyManager(
            residency, model, placement
        )
        #: Every completed drain, in completion order.
        self.drain_log: list[DrainRecord] = []

        # Hot-loop constants and state.
        self._token_bytes = model.token_bytes
        self._abpt = model.activation_bytes_per_token
        # True once any attempt was disrupted; until then every in-flight
        # work provably belongs to a live attempt and the per-work
        # staleness checks are skipped.
        self._disrupted = False
        # Schedulers that keep the base class's no-op progress hook skip
        # the per-batch callback entirely.
        self._notify_progress = (
            type(scheduler).notify_node_progress
            is not Scheduler.notify_node_progress
        )
        # Engine telemetry (for benchmarks and tests).
        self.events_popped = 0

    def _bind_node(self, node_id: str) -> None:
        """Create (or re-create) the executor and KV pool for a used node."""
        node = self.cluster.node(node_id)
        stage = self.placement.interval(node_id)
        old_executor = self.executors.get(node_id)
        if old_executor is not None:
            # In-flight batches of the replaced executor must go stale.
            old_executor.epoch += 1
        self.executors[node_id] = NodeExecutor(
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

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def schedule_event(
        self, when: float, fn: Callable[["Simulation"], None]
    ) -> None:
        """Schedule an environment callback ``fn(sim)`` at time ``when``.

        This is how online controllers inject cluster churn — node
        failures, recoveries, link degradations, replan applications —
        into the event loop.
        """
        if not when >= self._now - 1e-9:  # also rejects NaN
            raise SimulationError(
                f"event 'env' scheduled in the past ({when} < {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._events, (when, seq, K_ENV, fn))

    def apply_event(self, event) -> str:
        """Apply one :class:`~repro.online.events.ClusterEvent` now.

        Single entry point for environment events so the optional
        ``debug_validate`` hook runs after *every* applied event: any
        event that leaves the cluster's invariants broken fails here,
        at the event, not later at some unrelated assertion.
        """
        description = event.apply(self)
        if self.debug_validate:
            self.cluster.validate()
        return description

    def run(self) -> ServingMetrics:
        """Play the trace and return aggregate metrics."""
        if self.controller is not None:
            self.controller.start(self)
        events = self._events
        # Arrival i owns seq ``base + i`` (the block is reserved now, so
        # ordering is exactly as if the whole trace were preloaded), but
        # only the next arrival sits in the heap: popping arrival i pushes
        # arrival i + 1 before handling i.
        requests = self.requests
        base = self._seq
        last = base + len(requests) - 1
        self._seq = last + 1
        heappush(events, (requests[0].arrival_time, base, K_ARRIVAL, requests[0]))

        # Run constants. ``self._disrupted`` is not one: env events and
        # releases flip it mid-run, so it is read once per event.
        max_time = self.max_time
        token_bytes = self._token_bytes
        abpt = self._abpt
        timeline = self._timeline
        notify_progress = self._notify_progress
        start_batch = self._start_batch
        pops = 0
        while events:
            when, seq, kind, payload = heappop(events)
            if when > max_time:
                break
            pops += 1
            self._now = when
            if kind == K_HOP:
                # One work reaches its stage.
                if self._disrupted:
                    owner = payload.owner
                    if not (owner.live and owner.attempt == payload.attempt):
                        continue
                executor = payload.hop.executor
                if executor.busy or executor.queue:
                    executor.queue.append(payload)
                    executor.queue_tokens += payload.num_tokens
                    executor.queue_tl += payload.tl
                    if not executor.busy:
                        start_batch(executor)
                    continue
                # Idle node, empty queue: the arrival is the batch.
                executor.busy = True
                tl = payload.tl
                elapsed = (
                    tl / executor.compute_rate
                    + executor.weights_time
                    + executor.overhead
                )
                seq = self._seq
                self._seq = seq + 1
                heappush(events, (
                    when + elapsed, seq, K_BATCH,
                    (executor, executor.epoch, [payload], elapsed, tl,
                     payload.num_tokens),
                ))
            elif kind == K_BATCH:
                # A node finishes a batch: charge KV and send every work
                # on as its own event, ``K_HOP`` to the next stage or
                # ``K_TOKEN_ONE`` back to the coordinator.
                executor, epoch, batch, elapsed, tl, tokens = payload
                if epoch != executor.epoch:
                    continue  # the node failed or was re-bound mid-batch
                executor.busy = False
                stats = executor.stats
                stats.batches += 1
                stats.busy_time += elapsed
                stats.token_layers += tl
                stats.tokens += tokens
                if notify_progress:
                    self.scheduler.notify_node_progress(
                        executor.node_id, tokens, elapsed
                    )
                disrupted = self._disrupted
                seq = self._seq
                for work in batch:
                    owner = work.owner
                    if disrupted and not (
                        owner.live and owner.attempt == work.attempt
                    ):
                        continue  # finished under max_time truncation, or disrupted
                    hop = work.hop
                    num_tokens = work.num_tokens
                    # KV grows on this node: the whole prompt once, then
                    # one token per decode iteration.
                    pool = hop.pool
                    used = pool.used_tokens + num_tokens
                    if used > pool.capacity_tokens:
                        pool.overflow_events += 1
                    pool.used_tokens = used
                    if used > pool.peak_tokens:
                        pool.peak_tokens = used
                    owner.done += 1
                    # ``LinkChannel.transmit``, inlined; a flaky channel
                    # adds its retransmit delay.
                    channel = hop.channel
                    final = hop.final
                    num_bytes = token_bytes if final else num_tokens * abpt
                    nf = channel.next_free_time
                    start = nf if nf > when else when
                    queueing = start - when
                    end = start + num_bytes / channel.bandwidth
                    channel.next_free_time = end
                    channel.bytes_sent += num_bytes
                    channel.messages_sent += 1
                    channel.total_queueing_delay += queueing
                    if queueing > channel.max_queueing_delay:
                        channel.max_queueing_delay = queueing
                    arrival = end + channel.latency
                    fault = channel.fault
                    if fault is not None:
                        arrival += fault.delay()
                    heappush(events, (
                        arrival, seq, K_TOKEN_ONE if final else K_HOP,
                        work.next,
                    ))
                    seq += 1
                self._seq = seq
                if executor.queue:
                    start_batch(executor)
            elif kind == K_TOKEN_ONE:
                # One token reaches the coordinator: record it, then finish
                # the request or ship the decode re-entry (one token id) to
                # the first stage.
                owner = payload.owner
                if self._disrupted and not (
                    owner.live and owner.attempt == payload.attempt
                ):
                    continue
                record = owner.record
                token_times = record.token_times
                if not token_times:
                    record.first_token_time = when
                token_times.append(when)
                record.tokens_generated += 1
                timeline.add(when)
                if record.tokens_generated >= owner.output_len:
                    self._finish(owner)
                    continue
                arrival = owner.entry_channel.transmit(when, token_bytes)
                seq = self._seq
                self._seq = seq + 1
                heappush(events, (arrival, seq, K_HOP, owner.decode_works[0]))
            elif kind == K_ARRIVAL:
                if seq < last:
                    request = requests[seq - base + 1]
                    heappush(
                        events,
                        (request.arrival_time, seq + 1, K_ARRIVAL, request),
                    )
                self._on_arrival(payload)
            else:
                payload(self)
        self.events_popped += pops

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
            tenant_id=request.tenant_id,
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
        self._build_hops(active)
        self._dispatch(active)
        return True

    def _dispatch(self, active: _ActiveRequest) -> None:
        """Register an attempt and ship its prompt to the first stage (one
        ``K_HOP`` event): the one dispatch site."""
        self._active[active.request_id] = active
        arrival = active.entry_channel.transmit(
            self._now, active.request.input_len * self._token_bytes
        )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._events, (arrival, seq, K_HOP, active.prompt_works[0]))

    def _build_hops(self, active: _ActiveRequest) -> None:
        """Resolve the pipeline into hop-table entries and reusable works.

        Raises ``SimulationError`` when a pipeline hop has no link — the
        same condition the per-hop engine reports at transmit time, caught
        here once instead of per message.
        """
        stages = active.pipeline.stages
        depth = len(stages)
        rid = active.request_id
        attempt = active.attempt
        input_len = active.request.input_len
        channels = self.channels
        hops = active.hops
        prompt_works = active.prompt_works
        decode_works = active.decode_works
        for index, stage in enumerate(stages):
            node_id = stage.node_id
            executor = self.executors[node_id]
            pool = self.kv_pools[node_id]
            if index + 1 < depth:
                key = (node_id, stages[index + 1].node_id)
                final = False
            else:
                key = (node_id, COORDINATOR)
                final = True
            channel = channels.get(key)
            if channel is None:
                raise SimulationError(
                    f"no link {key[0]!r}->{key[1]!r} for transmission"
                )
            hop = _Hop(executor, pool, node_id, channel, final)
            num_layers = stage.num_layers
            hops.append(hop)
            prompt_works.append(StageWork(
                rid, index, input_len, num_layers, True, attempt,
                tl=input_len * num_layers, owner=active, hop=hop,
            ))
            decode_works.append(StageWork(
                rid, index, 1, num_layers, False, attempt,
                tl=num_layers, owner=active, hop=hop,
            ))
        # Chain each work to the one its stage forwards to (itself at the
        # final stage: the token returns to the coordinator carrying the
        # same owner/attempt identity).
        for index in range(depth):
            nxt = index + 1 if index + 1 < depth else index
            prompt_works[index].next = prompt_works[nxt]
            decode_works[index].next = decode_works[nxt]
        entry_key = (COORDINATOR, stages[0].node_id)
        entry = channels.get(entry_key)
        if entry is None:
            raise SimulationError(
                f"no link {entry_key[0]!r}->{entry_key[1]!r} for transmission"
            )
        active.entry_channel = entry

    def _retry_pending(self) -> None:
        while self._pending:
            request = self._pending[0]
            if not self._try_schedule(request):
                return
            self._pending.popleft()

    # ------------------------------------------------------------------
    # Batch formation (the hops, batches and tokens are handled in ``run``)
    # ------------------------------------------------------------------
    def _start_batch(self, executor: NodeExecutor) -> None:
        cap = executor.max_batch_tokens
        if cap is None or executor.queue_tokens <= cap:
            batch = executor.queue
            if not batch:
                executor.busy = False
                return
            tl = executor.queue_tl
            tokens = executor.queue_tokens
            executor.queue = []
            executor.queue_tokens = 0
            executor.queue_tl = 0
        else:
            # Token-capped batch formation in one pass, fused with the
            # batch pricing: a FIFO prefix that fits the cap, but always at
            # least one work (a prompt longer than the cap must still run).
            queue = executor.queue
            tokens = queue[0].num_tokens
            tl = queue[0].tl
            cut = 1
            length = len(queue)
            while cut < length:
                item = queue[cut]
                num_tokens = item.num_tokens
                if tokens + num_tokens > cap:
                    break
                tokens += num_tokens
                tl += item.tl
                cut += 1
            if cut == length:
                batch = queue
                executor.queue = []
                executor.queue_tokens = 0
                executor.queue_tl = 0
            else:
                batch = queue[:cut]
                del queue[:cut]
                executor.queue_tokens -= tokens
                executor.queue_tl -= tl
        executor.busy = True
        elapsed = (
            tl / executor.compute_rate
            + executor.weights_time
            + executor.overhead
        )
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._events,
            (
                self._now + elapsed,
                seq,
                K_BATCH,
                (executor, executor.epoch, batch, elapsed, tl, tokens),
            ),
        )

    def _finish(self, active: _ActiveRequest) -> None:
        active.record.finish_time = self._now
        # Recorded on finish, not on schedule: disrupted attempts' pipelines
        # must not contaminate the finished-request depth average.
        self._pipeline_depths.append(active.pipeline.depth)
        self._release(active, finished=True)
        self._retry_pending()

    def _release(self, active: _ActiveRequest, finished: bool) -> None:
        """Retire one attempt: the one release site.

        Frees the attempt's KV charges (a dead node's pool was flushed
        wholesale and takes no charges since), flips its liveness so
        every event it still has in flight drops, and tells the
        scheduler. An attempt that did not finish — a requeued
        request — leaves its record alone.
        """
        lives = self._lives
        for index, hop in enumerate(active.hops):
            life = lives.get(hop.node_id)
            if life is None or life.state not in ("silent", "down"):
                hop.pool.free(active.kv_allocated(index))
        active.live = False
        rid = active.request_id
        del self._active[rid]
        if finished:
            self.scheduler.notify_finished(rid)
        else:
            self._disrupted = True
            self.scheduler.notify_failed(rid)
        if self._drains:
            self._check_drains()

    # ------------------------------------------------------------------
    # Online dynamics: failures, repairs, and live replanning
    # ------------------------------------------------------------------
    def _requeue(self, active: _ActiveRequest, migrated: bool) -> None:
        """Abort an attempt and send the request back to the pending queue.

        The attempt's tokens become wasted work, kept with its dispatch
        and release times in ``record.requeued_attempts``; its KV charges
        on surviving nodes are released (the failed node's pool was
        flushed wholesale), and the liveness/attempt bump makes every
        event the old attempt still has in flight fall on the floor. Under
        a lifecycle policy the re-dispatch may instead wait out a backoff.
        """
        record = active.record
        record.tokens_lost += record.tokens_generated
        if migrated:
            record.migrations += 1
        else:
            record.retries += 1
        record.requeued_attempts.append(
            (record.schedule_time, self._now, record.token_times)
        )
        record.tokens_generated = 0
        record.token_times = []
        record.first_token_time = math.nan
        record.schedule_time = math.nan
        self._release(active, finished=False)
        delay = self._policy.retry_delay(
            active.request_id, record.retries + record.migrations
        )
        if delay <= 0:
            self._pending.append(active.request)
            return
        self._backoff_waiting += 1

        def rearm(sim, request=active.request):
            sim._backoff_waiting -= 1
            sim._pending.append(request)
            sim._retry_pending()

        self.schedule_event(self._now + delay, rearm)

    def fail_node(self, node_id: str, announce: bool = True) -> list[str]:
        """A node crashes: its KV state is lost and its work fails.

        With ``announce`` (the default) everything happens at once:
        queued stage work is dropped, the in-flight batch (if any) never
        completes, every request whose pipeline routes through the node
        is requeued for a fresh scheduling attempt on the surviving
        topology, and the scheduler masks the node until
        :meth:`restore_node`.

        With ``announce=False`` only the *physical* half happens — the
        node stops computing and blackholes everything sent to it — while
        the control plane stays oblivious: the scheduler keeps routing
        there and in-flight requests stall. That limbo ends when a
        failure detector calls :meth:`confirm_node_failure` (or the
        environment heals the node). This is the silent-crash gray
        failure.

        Returns the ids of the requeued requests (empty when silent).
        """
        return self._transition(node_id, "fail" if announce else "silent")

    def confirm_node_failure(self, node_id: str) -> float:
        """A detector confirms a silently-failed/zombie (or healthy) node dead.

        Completes the control-plane half that ``fail_node(announce=False)``
        or :meth:`make_zombie` withheld: the scheduler masks the node,
        stalled requests through it are requeued, and the node's token
        counter is snapshotted — a confirmed-dead node must never emit
        another token (the chaos invariants assert it).

        Returns the detection latency (confirmation time minus the true
        fault onset), or NaN for a false positive: confirming a healthy
        node takes it down all the same, which is exactly the cost a
        trigger-happy detector pays.
        """
        if self.node_state(node_id) == "down":
            return math.nan
        self._transition(node_id, "confirm")
        fault_time = self._lives[node_id].fault_time
        return math.nan if fault_time is None else self._now - fault_time

    def make_zombie(self, node_id: str) -> None:
        """A node wedges: it accepts work (and heartbeats) but never finishes.

        The in-flight batch goes stale, the queue keeps accumulating
        arrivals, and — unlike a crash — the KV pool keeps its contents
        (the process is alive, its memory intact). Heartbeat-only
        detectors never notice; only a progress watchdog does, and the
        stalled requests wait until it confirms the node.
        """
        self._transition(node_id, "zombie")

    def set_compute_slowdown(self, node_id: str, factor: float) -> None:
        """A node silently computes ``factor`` times slower (1.0 = healthy).

        Nothing is announced: the scheduler keeps its cost model and the
        planner its constants — exactly the straggler gray failure.
        Batches started from now on price at the slowed compute rate.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise SimulationError(
                f"slowdown factor must be finite and positive, got {factor}"
            )
        self.cluster.node(node_id)
        executor = self.executors.get(node_id)
        if executor is None:
            raise SimulationError(
                f"node {node_id!r} holds no layers; cannot straggle"
            )
        executor.set_slowdown(factor)

    def set_link_flaky(
        self,
        src: str,
        dst: str,
        drop_probability: float,
        retransmit_delay: float,
    ) -> None:
        """A link turns lossy: each message may pay retransmit delays.

        Attaches a seeded :class:`~repro.online.faults.LinkFault` to the
        channel(s): from now on every hop sent on them pays its retransmit
        delays in its arrival time. Data messages are delayed, never lost;
        heartbeats crossing the link may be dropped outright.
        """
        from repro.online.faults import LinkFault

        self.cluster.link(src, dst)  # referential check
        keys = [(src, dst)]
        if self.cluster.has_link(dst, src):
            keys.append((dst, src))
        for key in keys:
            channel = self.channels.get(key)
            if channel is None:
                raise SimulationError(
                    f"no channel {key[0]!r}->{key[1]!r} to make flaky"
                )
            channel.fault = LinkFault(
                drop_probability,
                retransmit_delay,
                seed=f"repro-flaky:{self.seed}:{key[0]}:{key[1]}",
            )

    def clear_link_flaky(self, src: str, dst: str) -> None:
        """A flaky link heals.

        A fault delay only perturbs arrivals sent while it is live:
        everything already in the heap was priced then, and the channel's
        new hops arrive without retransmit delays.
        """
        self.cluster.link(src, dst)  # referential check
        for key in ((src, dst), (dst, src)):
            channel = self.channels.get(key)
            if channel is not None:
                channel.fault = None

    def restore_node(self, node_id: str) -> None:
        """A failed node rejoins (cold: empty KV, empty queue)."""
        self._transition(node_id, "restore")

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain_node(
        self, node_id: str, on_complete: Callable | None = None
    ) -> None:
        """Gracefully remove a node: finish in-flight work, lose nothing.

        The scheduler stops routing *new* pipelines through the node
        immediately (and replans exclude it — its cluster availability
        flips), but every attempt already routed through it runs to
        completion. When the last one finishes, the node leaves service
        for real: it goes down, its executor quiesces, its KV
        accounting is released (a clean drain releases zero — everything
        was freed by the finishing requests), a :class:`DrainRecord` lands
        in :attr:`drain_log`, and ``on_complete(sim)`` fires. Resident
        layers are *retained*: a drained node is a warm spare that can
        rejoin without re-pulling weights.

        Draining a silently-dead or zombie node cannot be graceful — it is
        surfaced as a failure confirmation instead.
        """
        self._transition(node_id, "drain", on_complete)

    def _check_drains(self) -> None:
        """Finalize every draining node with no remaining in-flight work."""
        for node_id in sorted(self.draining_nodes):
            for active in self._active.values():
                if node_id in active.pipeline.node_ids:
                    break
            else:
                self._transition(node_id, "drained")

    # ------------------------------------------------------------------
    # Node lifecycle: the one transition site
    # ------------------------------------------------------------------
    def _transition(
        self, node_id: str, event: str, on_complete: Callable | None = None
    ) -> list[str]:
        """Apply one lifecycle event to ``node_id``: the only writer of
        node state and, once the run is built, of the cluster's
        availability (a draining or down node is unavailable, which is
        what masks it in the scheduler).

        ``event`` is ``fail`` (an announced crash), ``silent`` (a crash
        nobody announced), ``zombie``, ``confirm`` (a detector confirmed
        the node dead), ``restore``, ``drain`` or ``drained`` (the last
        attempt through a draining node finished); :data:`_LIFECYCLE`
        and :data:`_ESCALATE` give the next state. Returns the ids of the
        requests requeued off the node.
        """
        self.cluster.node(node_id)  # referential check
        lives = self._lives
        life = lives.get(node_id)
        state = "serving" if life is None else life.state
        if (state, event) in _ESCALATE:
            if state == "draining":
                life.fault_time = self._now
            requeued = self._transition(node_id, "confirm")
            if event == "restore":
                self._transition(node_id, "restore")
            return requeued
        sources, target = _LIFECYCLE[event]
        if state not in sources:
            return []
        if target == "serving":
            del lives[node_id]
        elif life is None:
            life = lives[node_id] = _NodeLife(target)
        else:
            life.state = target
        self._drains += (target == "draining") - (state == "draining")
        self.cluster.set_node_available(
            node_id, target != "draining" and target != "down"
        )

        now = self._now
        executor = self.executors.get(node_id)
        pool = self.kv_pools.get(node_id)
        if event == "zombie":
            life.fault_time = now  # only a serving node wedges
            if executor is not None:
                executor.epoch += 1  # the running batch never completes
                executor.busy = True  # accepts arrivals, never starts a batch
            return []
        if event == "drain":
            life.drain_started = now
            life.drain_waiter = on_complete
            self._check_drains()
            return []
        kv_left = 0
        if pool is not None:  # the KV state is gone; a rejoin starts empty
            kv_left = pool.used_tokens
            pool.used_tokens = 0
        if event == "restore":
            mark = life.dead_mark  # set only where an executor exists
            if mark is not None and executor.stats.tokens != mark:
                self._dead_node_breaches.append(node_id)
            if self._residency is not None:
                self._residency.node_restored(self, node_id)
            self._retry_pending()
            return []

        # The node stops: queued work is dropped and the in-flight batch
        # goes stale. A silently-crashed executor stays busy, a blackhole:
        # arrivals enqueue forever and no batch of the new epoch ever runs.
        if executor is not None:
            if event == "confirm":
                life.dead_mark = executor.stats.tokens
            executor.quiesce(busy=event == "silent")
        if event == "silent":
            if life.fault_time is None:  # a zombie keeps its onset
                life.fault_time = now
            if self._residency is not None:
                # The crash wipes VRAM; the control plane learns when the
                # failure is confirmed, but the physics happens now.
                self._residency.flush(node_id)
            return []
        if event == "drained":
            self.drain_log.append(
                DrainRecord(node_id, life.drain_started, now, kv_left)
            )
            if life.drain_waiter is not None:
                life.drain_waiter(self)
            return []

        # An announced or confirmed failure: the control plane learns (a
        # crash supersedes a drain, with no DrainRecord), resident layers
        # are gone, and every attempt routed through the node requeues.
        if event == "fail":
            life.fault_time = None
        if self._residency is not None:
            self._residency.node_lost(self, node_id)
        self._disrupted = True
        requeued = [
            active for active in self._active.values()
            if node_id in active.pipeline.node_ids
        ]
        for active in requeued:
            self._requeue(active, migrated=False)
        self._retry_pending()
        return [active.request_id for active in requeued]

    def degrade_link(self, src: str, dst: str, factor: float) -> None:
        """Scale a link's bandwidth to ``factor`` of its original value.

        Affects every future transmission (in-flight messages keep their
        already-computed arrival times, like packets already on the wire)
        and, through :meth:`~repro.flow.graph.FlowGraph.refresh_links`, the
        flow capacities the next replanning sees. ``factor`` is relative to
        the link's *original* bandwidth, so repeated degradations do not
        compound; :meth:`restore_link` resets it. The reverse direction
        is degraded too when it exists (links may be asymmetric).
        """
        if not (math.isfinite(factor) and factor > 0):
            raise SimulationError(
                f"degradation factor must be finite and positive, got "
                f"{factor} (sever connectivity by failing nodes instead)"
            )
        self.cluster.link(src, dst)  # referential check before mutating
        keys = [(src, dst)]
        if self.cluster.has_link(dst, src):
            keys.append((dst, src))
        for key in keys:
            base = self._base_bandwidth.setdefault(
                key, self.cluster.link(*key).bandwidth
            )
            link = self.cluster.set_link_bandwidth(*key, base * factor)
            channel = self.channels.get(key)
            if channel is not None:
                channel.set_link(link)

    def restore_link(self, src: str, dst: str) -> None:
        """Restore a degraded link, both directions, to its original
        bandwidth."""
        self.cluster.link(src, dst)  # referential check
        for key in ((src, dst), (dst, src)):
            base = self._base_bandwidth.pop(key, None)
            if base is None:
                continue
            link = self.cluster.set_link_bandwidth(*key, base)
            channel = self.channels.get(key)
            if channel is not None:
                channel.set_link(link)

    def _attempt_survives(
        self, pipeline: RequestPipeline, placement, rebound: set[str]
    ) -> bool:
        """Whether an in-flight pipeline is still executable.

        A pipeline dies if any of its nodes is down, left the placement, or
        is about to be *re-bound* (its layer interval changed, so its
        executor and KV pool are replaced — queued and in-flight work there
        would vanish with the old executor). A node that is up, still
        placed, and not re-bound holds the exact interval the pipeline was
        built against, so no further stage check is needed. Draining nodes
        are exempt from every check: the whole point of a graceful drain
        is that in-flight pipelines through the node run to completion.
        """
        for stage in pipeline.stages:
            state = self.node_state(stage.node_id)
            if state == "draining":
                continue
            if (
                state == "down"
                or stage.node_id in rebound
                or not placement.holds_layers(stage.node_id)
            ):
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
            if node_id not in self.executors or node_id in rebound:
                self._bind_node(node_id)  # bumps the old executor's epoch
        # Nodes leaving service quiesce like failed ones: queued stage work
        # is dropped and the in-flight batch (if any) goes stale, so they
        # stop accruing utilization and scheduler progress. Their executors
        # and KV pools stay registered for run-level statistics.
        for node_id in old_placement.used_nodes:
            if placement.holds_layers(node_id):
                continue
            if self.node_state(node_id) == "draining":
                # A draining node quiesces when its last in-flight attempt
                # finishes (``drained``), not here — a hard quiesce now
                # would drop the very batches the drain promised to finish.
                continue
            executor = self.executors.get(node_id)
            if executor is not None:
                executor.quiesce()

        self.scheduler.apply_placement(placement, flow=flow)
        if self._residency is not None:
            self._residency.placement_applied(self)
        self._retry_pending()
        return migrated

    # ------------------------------------------------------------------
    # Introspection for tests and case studies
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def node_state(self, node_id: str) -> str:
        """The node's lifecycle state: ``serving``, ``draining``,
        ``zombie``, ``silent`` or ``down`` (see :class:`_NodeLife`).
        Copies nothing."""
        life = self._lives.get(node_id)
        return "serving" if life is None else life.state

    @property
    def down_nodes(self) -> set[str]:
        """Nodes currently failed, confirmed dead or drained."""
        return {n for n, life in self._lives.items() if life.state == "down"}

    @property
    def draining_nodes(self) -> set[str]:
        """Nodes finishing in-flight work before leaving service."""
        return {
            n for n, life in self._lives.items() if life.state == "draining"
        }

    @property
    def residency(self):
        """The layer-residency ledger, or ``None`` when disabled."""
        return self._residency

    @property
    def warming_nodes(self) -> set[str]:
        """Nodes mid-warm-up (pulling weights, unschedulable)."""
        if self._residency is None:
            return set()
        return self._residency.warming_nodes

    @property
    def fault_times(self) -> dict[str, float]:
        """Ground-truth onset time of every un-restored gray fault."""
        return {
            n: life.fault_time for n, life in self._lives.items()
            if life.fault_time is not None
        }

    @property
    def in_flight_requests(self) -> int:
        """Requests not finished: active attempts, the pending queue,
        and requests waiting out a retry backoff."""
        return len(self._active) + len(self._pending) + self._backoff_waiting

    def dead_node_token_violations(self) -> list[str]:
        """Confirmed-dead nodes whose token counter moved afterwards."""
        bad = list(self._dead_node_breaches)
        executors = self.executors
        for node_id, life in self._lives.items():
            mark = life.dead_mark
            if mark is not None and executors[node_id].stats.tokens != mark:
                bad.append(node_id)
        return bad

    @property
    def pending_requests(self) -> int:
        """Requests waiting in the pending queue."""
        return len(self._pending)

    @property
    def pending_tenants(self) -> set[str]:
        """Tenant ids with a request waiting in the pending queue."""
        return {request.tenant_id for request in self._pending}

    @property
    def token_timeline(self) -> list[float]:
        """Emission times of every token the system produced, in order.

        Unlike per-request records (reset when an attempt is disrupted),
        this global timeline is append-only: tokens emitted by an attempt
        that later failed stay in it. It is stored in 1/16 s buckets (a
        :class:`~repro.sim.metrics.TokenTimeline`), so this derived view
        reports each token at its bucket's start time; memory stays
        bounded by the simulated horizon instead of growing with the
        token count. Feeding
        it to :func:`~repro.sim.metrics.goodput_timeline` with any window
        that is a multiple of the resolution yields exactly the same
        windowed goodput as the exact times — including the dip around a
        failure and the recovery after replanning.
        """
        return self._timeline.times()

    @property
    def timeline_resolution(self) -> float:
        """Width in seconds of one token-timeline bucket."""
        return self._timeline.resolution

    @property
    def token_buckets(self) -> list[int]:
        """Raw token counts per token-timeline bucket."""
        return self._timeline.bucket_counts()

    @property
    def tokens_emitted(self) -> int:
        """Total tokens the system produced (including disrupted attempts)."""
        return self._timeline.count

    @property
    def engine_stats(self) -> dict[str, int]:
        """Hot-loop telemetry: the events the run loop popped.

        Every hop and every token is its own event, so ``grouped_hops``,
        ``fast_forwarded_tokens`` and ``vec_fast_forwarded_tokens`` are
        constant 0: the benchmark ledger (``bench/ledger.py``) still reads
        them, and they go when its ``sim.grouped_hops_per_event`` and
        ``sim.ff_token_share`` entries do."""
        return {
            "events_popped": self.events_popped,
            "grouped_hops": 0,
            "fast_forwarded_tokens": 0,
            "vec_fast_forwarded_tokens": 0,
        }

    @property
    def records(self) -> list[RequestRecord]:
        """Records of every request that has arrived so far."""
        return list(self._records.values())

    def kv_usage_by_tenant(self) -> dict[str, dict[str, int]]:
        """KV tokens currently allocated, as ``node_id -> tenant -> tokens``.

        Derived from the per-attempt ``kv_allocated`` counters of every
        in-flight attempt, so by construction each node's per-tenant sum
        equals what those attempts charged to its pool — the tenancy
        invariant compares this against ``pool.used_tokens`` live.
        """
        usage: dict[str, dict[str, int]] = {}
        for active in self._active.values():
            tenant_id = active.request.tenant_id
            for index, hop in enumerate(active.hops):
                allocated = active.kv_allocated(index)
                if allocated:
                    per_node = usage.setdefault(hop.node_id, {})
                    per_node[tenant_id] = (
                        per_node.get(tenant_id, 0) + allocated
                    )
        return usage

    def record_of(self, request_id: str) -> RequestRecord:
        """Per-request record (available after the run)."""
        return self._records[request_id]
