"""Tenant registry: who shares the cluster, and on what terms.

A *tenant* is one customer of the serving deployment: a stream of
requests tagged with its ``tenant_id``, an :class:`SLOClass` describing
the latency it pays for (TTFT/TBT percentile targets), and a
``rate_share`` entitling it to a fraction of cluster service, against
which windowed fairness accounting measures what it got.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class SLOClass:
    """A latency service-level objective.

    Attributes:
        name: Human-readable class name (``interactive``, ``batch``, ...).
        ttft_target: Time-to-first-token target in seconds.
        tbt_target: Time-between-tokens target in seconds (per-request
            mean decode interval).
        percentile: Fraction of finished requests that must meet each
            target for the SLO to count as attained (e.g. ``0.95``).
    """

    name: str
    ttft_target: float
    tbt_target: float
    percentile: float = 0.95

    def __post_init__(self) -> None:
        if self.ttft_target <= 0 or self.tbt_target <= 0:
            raise ValueError(
                f"SLO targets must be positive: ttft={self.ttft_target}, "
                f"tbt={self.tbt_target}"
            )
        if not 0.0 < self.percentile <= 1.0:
            raise ValueError(
                f"percentile must be in (0, 1], got {self.percentile}"
            )


#: Latency-sensitive chat traffic: tight first token, tight streaming.
INTERACTIVE = SLOClass("interactive", ttft_target=2.0, tbt_target=0.25)
#: Default API traffic.
STANDARD = SLOClass("standard", ttft_target=8.0, tbt_target=0.75)
#: Throughput-oriented batch/offline traffic: latency barely matters.
BATCH = SLOClass("batch", ttft_target=30.0, tbt_target=3.0, percentile=0.5)

#: The built-in SLO classes, by name.
SLO_CLASSES = {slo.name: slo for slo in (INTERACTIVE, STANDARD, BATCH)}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the deployment.

    Attributes:
        tenant_id: Unique identifier; requests carry it in
            :attr:`~repro.sim.request.Request.tenant_id`.
        slo: The latency class this tenant pays for.
        rate_share: Relative service entitlement under windowed fairness
            (normalized across the registry; any positive scale works).
    """

    tenant_id: str
    slo: SLOClass = STANDARD
    rate_share: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not (math.isfinite(self.rate_share) and self.rate_share > 0):
            raise ValueError(
                f"rate_share must be finite and positive, got {self.rate_share}"
            )


class TenantRegistry:
    """The deployment's tenant table: id -> :class:`TenantSpec`.

    Iteration order is sorted by ``tenant_id`` so every consumer
    (fairness accounting, metrics) sees tenants in one
    deterministic order regardless of construction order.
    """

    def __init__(self, tenants: list[TenantSpec] | tuple[TenantSpec, ...]):
        if not tenants:
            raise ValueError("a tenant registry needs at least one tenant")
        specs = sorted(tenants, key=lambda spec: spec.tenant_id)
        seen: set[str] = set()
        for spec in specs:
            if spec.tenant_id in seen:
                raise ValueError(f"duplicate tenant_id {spec.tenant_id!r}")
            seen.add(spec.tenant_id)
        self._specs: dict[str, TenantSpec] = {
            spec.tenant_id: spec for spec in specs
        }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[TenantSpec]:
        return iter(self._specs.values())

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._specs

    @property
    def ids(self) -> tuple[str, ...]:
        """Tenant ids in the registry's deterministic (sorted) order."""
        return tuple(self._specs)

    def shares(self) -> dict[str, float]:
        """Normalized rate shares (sum to 1.0)."""
        total = sum(spec.rate_share for spec in self)
        return {
            spec.tenant_id: spec.rate_share / total for spec in self
        }
