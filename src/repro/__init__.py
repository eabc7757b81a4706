"""repro — reproduction of Helix (Mei et al., ASPLOS 2025).

Helix serves large language models on heterogeneous, geo-distributed GPU
clusters by casting joint model placement + request scheduling as a
max-flow problem: an MILP finds the placement whose cluster graph has the
largest max flow, and an IWRR scheduler routes each request along its own
pipeline following the flow solution.

Quickstart::

    from repro import (
        single_cluster_24, LLAMA_70B, HelixMilpPlanner, Profiler, RunSpec,
        make_simulation, synthesize_azure_trace, AzureTraceConfig,
    )
    from repro.trace.azure import AZURE_MEAN_OUTPUT

    cluster = single_cluster_24()
    profiler = Profiler()  # one performance model for planner and simulator
    result = HelixMilpPlanner(cluster, LLAMA_70B, profiler, time_limit=30).plan()
    trace = synthesize_azure_trace(AzureTraceConfig(num_requests=200, scale=0.25))
    metrics = make_simulation(RunSpec(
        cluster=cluster, model=LLAMA_70B, planner_result=result,
        scheduler_method="helix", requests=trace, profiler=profiler,
        # The KV reserve per request: the scaled trace's mean output.
        expected_output_len=AZURE_MEAN_OUTPUT * 0.25,
    )).run()
    print(metrics.summary())
"""

from repro.core.errors import (
    ReproError,
    ClusterError,
    PlacementError,
    SchedulingError,
    SimulationError,
    SolverError,
)
from repro.core.placement_types import ModelPlacement, StageAssignment
from repro.models.specs import (
    ModelSpec,
    LLAMA_30B,
    LLAMA_70B,
    GPT3_175B,
    GROK_314B,
    LLAMA3_405B,
    get_model,
)
from repro.cluster import (
    GPUSpec,
    ComputeNode,
    Link,
    Cluster,
    Profiler,
    COORDINATOR,
    single_cluster_24,
    geo_distributed_24,
    high_heterogeneity_42,
    toy_cluster_fig1,
    toy_cluster_fig2,
    small_cluster_fig12,
)
from repro.flow import FlowNetwork, FlowGraph, FlowSolution
from repro.placement import (
    PlannerResult,
    HelixMilpPlanner,
    SwarmPlanner,
    PetalsPlanner,
    SeparatePipelinesPlanner,
    prune_cluster,
)
from repro.scheduling import (
    HelixScheduler,
    SwarmScheduler,
    RandomScheduler,
    ShortestQueueScheduler,
    FixedPipelineScheduler,
    InterleavedWeightedRoundRobin,
)
from repro.sim import (
    Simulation,
    Request,
    ServingMetrics,
    DisruptionReport,
    TenantMetrics,
    aggregate_tenant_metrics,
    goodput_timeline,
)
from repro.tenancy import (
    BATCH,
    FairnessConfig,
    INTERACTIVE,
    SLOClass,
    STANDARD,
    TenancyConfig,
    TenantRegistry,
    TenantSpec,
    jain_index,
    tenant_report,
)
from repro.online import (
    NodeFailure,
    NodeRecovery,
    LinkDegradation,
    LinkRecovery,
    ChurnConfig,
    random_churn,
    OnlineController,
)
from repro.trace import (
    AzureTraceConfig,
    synthesize_azure_trace,
    offline_arrivals,
    poisson_arrivals,
    diurnal_arrivals,
    rate_for_utilization,
)
from repro.bench import RunSpec, make_planner, make_scheduler, make_simulation
from repro.scenarios import (
    SCENARIO_FAMILIES,
    Scenario,
    generate_scenario,
    scenario_matrix,
)
from repro.testkit import (
    ScenarioReport,
    Violation,
    run_scenario,
    verify_scenario,
)

__version__ = "0.1.0"
