"""Multi-tenant serving: tenant registry, SLO classes and windowed
fairness.

Everything here is default-off: a :class:`~repro.sim.simulator.Simulation`
without ``tenancy=`` behaves bit-identically to the single-tenant engine.
"""

from repro.tenancy.fairness import (
    FairnessConfig,
    WindowedFairnessTracker,
    jain_index,
)
from repro.tenancy.manager import (
    FairPendingQueue,
    StarvationEvent,
    TenancyConfig,
    TenantManager,
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

__all__ = [
    "BATCH",
    "FairPendingQueue",
    "FairnessConfig",
    "INTERACTIVE",
    "SLOClass",
    "SLO_CLASSES",
    "STANDARD",
    "StarvationEvent",
    "TenancyConfig",
    "TenantManager",
    "TenantRegistry",
    "TenantSpec",
    "WindowedFairnessTracker",
    "jain_index",
]
