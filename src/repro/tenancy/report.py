"""Per-tenant results of a finished run, computed from its records.

A :class:`~repro.sim.metrics.RequestRecord` carries its ``tenant_id``,
its final attempt's dispatch and token times, and ``requeued_attempts``:
the dispatch, release and token times of every earlier attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.sim.metrics import RequestRecord, aggregate_tenant_metrics
from repro.tenancy.fairness import FairnessConfig, WindowedFairnessTracker
from repro.tenancy.registry import TenantRegistry


@dataclass(frozen=True)
class TenancyConfig:
    """The tenants and how their fairness is judged."""

    registry: TenantRegistry
    fairness: FairnessConfig = field(default_factory=FairnessConfig)


def tenant_tokens(records: Iterable[RequestRecord]) -> dict[str, int]:
    """Tokens emitted per tagged tenant, requeued attempts' included."""
    tokens: dict[str, int] = {}
    for record in records:
        if record.tenant_id:
            tokens[record.tenant_id] = (
                tokens.get(record.tenant_id, 0)
                + record.tokens_generated + record.tokens_lost
            )
    return tokens


def tenant_report(
    records: list[RequestRecord],
    tenancy: TenancyConfig,
    end_time: float,
    backlogged: Iterable[str] = (),
    warmup: float = 0.0,
) -> dict:
    """Per-tenant SLO attainment, token counts and windowed fairness.

    W-mode credits every token at its emission time. T-mode credits each
    attempt's hold, dispatch to release, in release order; an attempt
    still dispatched is released at ``end_time``, after every other.
    Records of tenants the registry does not know are left out.

    Returns a dict of ``per_tenant`` (tenant id ->
    :class:`~repro.sim.metrics.TenantMetrics` over the window from
    ``warmup`` to ``end_time``), ``tokens_by_tenant``, ``service``
    (tenant id -> service per window), ``fairness_index`` at
    ``end_time`` with the ``backlogged`` tenants counted as active, and
    ``fairness_timeline`` (one ``(time, index)`` sample per window).
    """
    registry = tenancy.registry
    tracker = WindowedFairnessTracker(tenancy.fairness, registry.shares())
    holds: list[tuple[float, float, str]] = []  # (release, dispatch, tenant)
    for record in records:
        tenant_id = record.tenant_id
        if tenant_id not in registry:
            continue
        release = record.finish_time if record.finished else math.inf
        final = (record.schedule_time, release, record.token_times)
        for dispatch, release, token_times in (
            *record.requeued_attempts, final
        ):
            if tenancy.fairness.mode == "W":
                for when in token_times:
                    tracker.note(tenant_id, when)
            elif not math.isnan(dispatch):  # NaN: not dispatched now
                holds.append((release, dispatch, tenant_id))
    # Float sums depend on their order. The attempts a failure or a replan
    # requeues at one instant are released in dispatch order, which is
    # the order of their dispatch times; holds equal in both times credit
    # equal amounts, so their order does not matter.
    holds.sort(key=lambda hold: hold[:2])
    for release, dispatch, tenant_id in holds:
        tracker.note_span(tenant_id, dispatch, min(release, end_time))

    tokens = tenant_tokens(records)
    slo_targets = {
        spec.tenant_id: (
            spec.slo.ttft_target, spec.slo.tbt_target, spec.slo.percentile
        )
        for spec in registry
    }
    return {
        "per_tenant": aggregate_tenant_metrics(
            records, warmup=warmup, end_time=end_time, slo_targets=slo_targets
        ),
        "tokens_by_tenant": {tid: tokens.get(tid, 0) for tid in registry.ids},
        "service": tracker.service(),
        "fairness_index": tracker.fairness_index(end_time, backlogged),
        "fairness_timeline": tracker.fairness_timeline(end_time),
    }
