"""Multi-tenant serving: tenant registry, SLO classes and windowed
fairness, reported after a run from its request records.

The simulator has no tenant: a request's ``tenant_id`` is a tag its
record carries, and :func:`~repro.tenancy.report.tenant_report` turns
a finished run's records into per-tenant SLO attainment, token counts
and fairness. Nothing here imports the simulator.
"""

from repro.tenancy.fairness import (
    FairnessConfig,
    WindowedFairnessTracker,
    jain_index,
)
from repro.tenancy.registry import (
    BATCH,
    INTERACTIVE,
    SLO_CLASSES,
    STANDARD,
    SLOClass,
    TenantRegistry,
    TenantSpec,
)
from repro.tenancy.report import TenancyConfig, tenant_report, tenant_tokens

__all__ = [
    "BATCH",
    "FairnessConfig",
    "INTERACTIVE",
    "SLOClass",
    "SLO_CLASSES",
    "STANDARD",
    "TenancyConfig",
    "TenantRegistry",
    "TenantSpec",
    "WindowedFairnessTracker",
    "jain_index",
    "tenant_report",
    "tenant_tokens",
]
