"""Runtime tenancy state: per-tenant service accounting.

:class:`TenantManager` is the single mutable object the simulator talks
to. It owns the :class:`~repro.tenancy.fairness.WindowedFairnessTracker`
and the per-tenant token counters. It never decides who runs next: the
pending queue is the simulator's plain FIFO with or without tenancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tenancy.fairness import FairnessConfig, WindowedFairnessTracker
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


class TenantManager:
    """Mutable per-run tenancy state, fed by simulator hooks.

    The simulator calls ``note_*`` at the few points where tenancy is
    observable — an attempt's one dispatch and one release site, and one
    :meth:`note_token` per token.
    """

    def __init__(self, config: TenancyConfig):
        self.config = config
        self.registry = config.registry
        self.fairness = config.fairness
        self.tracker = WindowedFairnessTracker(
            self.fairness, self.registry.shares()
        )
        # Open pipeline-occupancy spans: request_id -> (tenant_id, start).
        self._spans: dict[str, tuple[str, float]] = {}
        self.tokens_by_tenant: dict[str, int] = {
            tid: 0 for tid in self.registry.ids
        }

    # -- pipeline occupancy (T-mode service) ----------------------------
    def note_dispatch(self, request_id: str, tenant_id: str, now: float) -> None:
        self._spans[request_id] = (tenant_id, now)

    def note_release(self, request_id: str, now: float) -> None:
        span = self._spans.pop(request_id, None)
        if span is not None and self.fairness.mode == "T":
            tenant_id, start = span
            self.tracker.note_span(tenant_id, start, now)

    # -- token delivery (W-mode service) --------------------------------
    def note_token(self, tenant_id: str, when: float) -> None:
        """A token of ``tenant_id`` reached the coordinator at ``when``."""
        self.tokens_by_tenant[tenant_id] += 1
        if self.fairness.mode == "W":
            self.tracker.note(tenant_id, when, 1.0)

    # -- end of run -----------------------------------------------------
    def finalize(self, now: float) -> None:
        """Close the books at simulation end: flush any still-open
        T-mode occupancy spans."""
        if self.fairness.mode == "T":
            for request_id in list(self._spans):
                self.note_release(request_id, now)
