"""Multi-tenant serving: tenant registry, SLO classes and windowed
fairness accounting.

Tenancy observes and never schedules: requests keep the simulator's
FIFO order with or without it. A
:class:`~repro.sim.simulator.Simulation` without ``tenancy=`` behaves
bit-identically to the single-tenant engine.
"""

from repro.tenancy.fairness import (
    FairnessConfig,
    WindowedFairnessTracker,
    jain_index,
)
from repro.tenancy.manager import TenancyConfig, TenantManager
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
    "FairnessConfig",
    "INTERACTIVE",
    "SLOClass",
    "SLO_CLASSES",
    "STANDARD",
    "TenancyConfig",
    "TenantManager",
    "TenantRegistry",
    "TenantSpec",
    "WindowedFairnessTracker",
    "jain_index",
]
