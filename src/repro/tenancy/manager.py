"""Runtime tenancy state: fairness tracking and selection.

:class:`TenantManager` is the single mutable object the simulator talks
to. It owns the :class:`~repro.tenancy.fairness.WindowedFairnessTracker`,
per-tenant SLO pressure (recent TTFT attainment), the starvation
watchdog, and the selection policy. :class:`FairPendingQueue` is a
deque-compatible pending queue that groups waiting requests per tenant
and asks the manager which tenant to serve next — with a single tenant
it degenerates to the exact FIFO the legacy engine uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.tenancy.fairness import (
    FairnessConfig,
    WindowedFairnessTracker,
    fairness_deficits,
)
from repro.tenancy.registry import TenantRegistry


@dataclass(frozen=True)
class TenancyConfig:
    """Everything the simulator needs to run multi-tenant.

    Attach via ``Simulation(..., tenancy=TenancyConfig(registry))``.
    ``None`` (the default everywhere) keeps the engine bit-identical to
    the single-tenant legacy behaviour.
    """

    registry: TenantRegistry
    fairness: FairnessConfig = field(default_factory=FairnessConfig)


@dataclass(frozen=True)
class StarvationEvent:
    """A backlogged tenant went a full fairness horizon without service."""

    tenant_id: str
    backlogged_since: float
    detected_at: float


class TenantManager:
    """Mutable per-run tenancy state, fed by simulator hooks.

    The simulator calls ``note_*`` at the few points where tenancy is
    observable — enqueue/serve on the pending queue, an attempt's one
    dispatch and one release site, one :meth:`note_token` per token — and
    asks :meth:`select_tenant` when the pending queue must choose whose
    request runs next.
    """

    def __init__(self, config: TenancyConfig):
        self.config = config
        self.registry = config.registry
        self.fairness = config.fairness
        self._shares = self.registry.shares()
        self._priorities = self.registry.priorities()
        self.tracker = WindowedFairnessTracker(self.fairness, self._shares)
        # Open pipeline-occupancy spans: request_id -> (tenant_id, start).
        self._spans: dict[str, tuple[str, float]] = {}
        # Recent TTFT samples per tenant, for SLO pressure in selection.
        self._ttft: dict[str, deque[float]] = {
            tid: deque(maxlen=32) for tid in self.registry.ids
        }
        # Starvation watchdog: tenant -> time it became backlogged-unserved.
        self._starve_mark: dict[str, float] = {}
        self.starvation_events: list[StarvationEvent] = []
        self.tokens_by_tenant: dict[str, int] = {
            tid: 0 for tid in self.registry.ids
        }

    # -- queue hooks ----------------------------------------------------
    def note_enqueue(self, tenant_id: str, now: float) -> None:
        """A request joined the pending queue for ``tenant_id``."""
        self._starve_mark.setdefault(tenant_id, now)
        self._check_starvation(now)

    def note_serve(self, tenant_id: str, now: float, still_backlogged: bool) -> None:
        """A pending request of ``tenant_id`` was taken off the queue."""
        if still_backlogged:
            self._starve_mark[tenant_id] = now
        else:
            self._starve_mark.pop(tenant_id, None)
        self._check_starvation(now)

    def _check_starvation(self, now: float) -> None:
        horizon = self.fairness.horizon
        for tenant_id, since in list(self._starve_mark.items()):
            if now - since > horizon:
                self.starvation_events.append(
                    StarvationEvent(tenant_id, since, now)
                )
                self._starve_mark[tenant_id] = now

    # -- pipeline occupancy (T-mode service) ----------------------------
    def note_dispatch(self, request_id: str, tenant_id: str, now: float) -> None:
        self._spans[request_id] = (tenant_id, now)

    def note_release(self, request_id: str, now: float) -> None:
        span = self._spans.pop(request_id, None)
        if span is not None and self.fairness.mode == "T":
            tenant_id, start = span
            self.tracker.note_span(tenant_id, start, now)

    # -- token delivery (W-mode service) --------------------------------
    def note_token(
        self, tenant_id: str, when: float, ttft: float | None = None
    ) -> None:
        """A token of ``tenant_id`` reached the coordinator at ``when``;
        a request's first token also carries its ``ttft``."""
        self.tokens_by_tenant[tenant_id] += 1
        if self.fairness.mode == "W":
            self.tracker.note(tenant_id, when, 1.0)
        if ttft is not None:
            self._ttft[tenant_id].append(ttft)

    # -- selection ------------------------------------------------------
    def slo_pressure(self, tenant_id: str) -> float:
        """How far below its SLO percentile the tenant's recent TTFTs are.

        0.0 when attainment meets the percentile (or no samples yet);
        grows toward the percentile itself as attainment collapses.
        """
        spec = self.registry.get(tenant_id)
        samples = self._ttft[tenant_id]
        if not samples:
            return 0.0
        attained = sum(1 for t in samples if t <= spec.slo.ttft_target)
        attainment = attained / len(samples)
        return max(0.0, spec.slo.percentile - attainment)

    def _deficits_now(self, backlogged: Iterable[str], now: float) -> dict[str, float]:
        """Fairness deficits including still-open T-mode spans."""
        if self.fairness.mode == "T" and self._spans:
            # Credit open occupancy up to `now` on a scratch copy so the
            # selector sees who is holding pipelines *right now*.
            observed = self.tracker.service_in_backlog(now)
            horizon_start = now - self.fairness.horizon
            for tenant_id, start in self._spans.values():
                observed[tenant_id] += now - max(start, horizon_start)
            return fairness_deficits(self._shares, observed, backlogged)
        return self.tracker.deficits(now, backlogged)

    def select_tenant(self, backlogged: Iterable[str], now: float) -> str:
        """Which backlogged tenant should be served next.

        ``deficit`` scores each candidate as
        ``fairness_deficit + slo_weight * slo_pressure`` and serves the
        highest score (ties: higher priority, then tenant id).
        ``priority`` serves the highest tenant priority outright —
        the deliberately unfair control that starves low-priority
        tenants under sustained high-priority load.
        """
        candidates = sorted(set(backlogged))
        if not candidates:
            raise ValueError("select_tenant called with no backlogged tenants")
        if len(candidates) == 1:
            return candidates[0]
        if self.fairness.selector == "priority":
            return min(candidates, key=lambda tid: (-self._priorities[tid], tid))
        deficits = self._deficits_now(candidates, now)
        weight = self.fairness.slo_weight
        return min(
            candidates,
            key=lambda tid: (
                -(deficits[tid] + weight * self.slo_pressure(tid)),
                -self._priorities[tid],
                tid,
            ),
        )

    # -- reporting ------------------------------------------------------
    def fairness_index(self, now: float) -> float:
        """Backlog-aware Jain index at time ``now``.

        Wraps :meth:`WindowedFairnessTracker.fairness_index` with the
        set of currently backlogged tenants (the starvation watchdog's
        marks), so a tenant with queued-but-never-served demand counts
        as a zero-service participant instead of being invisible — a
        fully starved system scores ``1/n``, not the idle system's 1.0.
        """
        return self.tracker.fairness_index(now, backlogged=self._starve_mark)

    # -- end of run -----------------------------------------------------
    def finalize(self, now: float) -> None:
        """Close the books at simulation end.

        Flushes any still-open T-mode occupancy spans and runs one last
        starvation check so tenants starved right up to the end are
        reported.
        """
        if self.fairness.mode == "T":
            for request_id in list(self._spans):
                self.note_release(request_id, now)
        self._check_starvation(now)


class FairPendingQueue:
    """Deque-compatible pending queue with per-tenant FIFO lanes.

    Drop-in replacement for the simulator's ``deque[Request]``: supports
    ``append``, ``popleft``, ``len``, truthiness and ``[0]`` (the element
    ``popleft`` would return). Head selection delegates to
    :meth:`TenantManager.select_tenant` and is cached so the simulator's
    peek-then-pop pattern (``_retry_pending``) serves the tenant it
    peeked. With one tenant every operation reduces to a plain FIFO,
    keeping the single-tenant schedule identical to the legacy queue.
    """

    def __init__(self, manager: TenantManager, clock: Callable[[], float]):
        self._manager = manager
        self._clock = clock
        self._lanes: dict[str, deque] = {}
        self._order: list[str] = []  # lane creation order is sorted on use
        self._size = 0
        self._head_tenant: str | None = None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _backlogged(self) -> list[str]:
        return [tid for tid, lane in self._lanes.items() if lane]

    def _select_head(self) -> str:
        if self._head_tenant is None or not self._lanes.get(self._head_tenant):
            self._head_tenant = self._manager.select_tenant(
                self._backlogged(), self._clock()
            )
        return self._head_tenant

    def __getitem__(self, index: int):
        if index != 0:
            raise IndexError("FairPendingQueue only supports peeking at [0]")
        if not self._size:
            raise IndexError("peek from an empty pending queue")
        return self._lanes[self._select_head()][0]

    def append(self, request) -> None:
        tenant_id = request.tenant_id
        lane = self._lanes.get(tenant_id)
        if lane is None:
            lane = self._lanes[tenant_id] = deque()
        lane.append(request)
        self._size += 1
        self._head_tenant = None
        self._manager.note_enqueue(tenant_id, self._clock())

    def popleft(self):
        if not self._size:
            raise IndexError("pop from an empty pending queue")
        tenant_id = self._select_head()
        lane = self._lanes[tenant_id]
        request = lane.popleft()
        self._size -= 1
        self._head_tenant = None
        self._manager.note_serve(tenant_id, self._clock(), bool(lane))
        return request
