"""Invariant and differential verification over generated scenarios.

The regression safety net for the whole stack: any scenario address can
be run end-to-end with every cross-layer invariant and fast-vs-reference
oracle checked, and any failure prints the one-line command that replays
it (``PYTHONPATH=src python -m repro.testkit <family> <seed>``).
"""

from repro.testkit.differential import (
    check_formulation_optimum,
    check_incremental_compile,
    check_milp_oracles,
    check_reevaluate_vs_rebuild,
    random_placements,
)
from repro.testkit.harness import (
    ScenarioReport,
    assert_scenario_ok,
    placement_intervals,
    plan_scenario,
    run_scenario,
    verify_scenario,
)
from repro.testkit.invariants import (
    SchedulerAuditor,
    TenantKVSampler,
    Violation,
    check_chaos,
    check_elastic,
    check_flow_solution,
    check_planner_result,
    check_simulation,
    check_tenancy,
)

__all__ = [
    "ScenarioReport",
    "SchedulerAuditor",
    "TenantKVSampler",
    "Violation",
    "assert_scenario_ok",
    "check_chaos",
    "check_elastic",
    "check_flow_solution",
    "check_formulation_optimum",
    "check_incremental_compile",
    "check_milp_oracles",
    "check_planner_result",
    "check_reevaluate_vs_rebuild",
    "check_simulation",
    "check_tenancy",
    "placement_intervals",
    "plan_scenario",
    "random_placements",
    "run_scenario",
    "verify_scenario",
]
