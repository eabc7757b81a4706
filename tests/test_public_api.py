"""The documented public API surface stays importable and consistent."""

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "0.1.0"

    @pytest.mark.parametrize(
        "name",
        [
            # errors
            "ReproError", "ClusterError", "PlacementError", "SchedulingError",
            "SimulationError", "SolverError",
            # models
            "ModelSpec", "LLAMA_30B", "LLAMA_70B", "GPT3_175B", "GROK_314B",
            "LLAMA3_405B", "get_model",
            # cluster
            "GPUSpec", "ComputeNode", "Link", "Cluster", "Profiler",
            "COORDINATOR", "single_cluster_24", "geo_distributed_24",
            "high_heterogeneity_42", "toy_cluster_fig1", "toy_cluster_fig2",
            "small_cluster_fig12",
            # flow
            "FlowNetwork", "FlowGraph", "FlowSolution",
            # placement
            "ModelPlacement", "StageAssignment", "PlannerResult",
            "HelixMilpPlanner", "SwarmPlanner", "PetalsPlanner",
            "SeparatePipelinesPlanner", "prune_cluster",
            # scheduling
            "HelixScheduler", "SwarmScheduler", "RandomScheduler",
            "ShortestQueueScheduler", "FixedPipelineScheduler",
            "InterleavedWeightedRoundRobin",
            # sim + trace + bench
            "Simulation", "Request", "ServingMetrics", "AzureTraceConfig",
            "synthesize_azure_trace", "offline_arrivals", "poisson_arrivals",
            "diurnal_arrivals", "rate_for_utilization", "RunSpec",
            "make_simulation", "make_planner", "make_scheduler",
            # online dynamics
            "OnlineController", "NodeFailure", "NodeRecovery", "NodeJoin",
            "LinkDegradation", "LinkRecovery", "NetworkPartition",
            "PartitionHeal", "ChurnConfig", "random_churn",
            "scripted_schedule", "DisruptionReport", "goodput_timeline",
            # scenarios + testkit
            "SCENARIO_FAMILIES", "Scenario", "generate_scenario",
            "scenario_matrix", "ScenarioReport", "Violation",
            "run_scenario", "verify_scenario",
        ],
    )
    def test_exported(self, name):
        assert hasattr(repro, name), f"repro.{name} missing from public API"

    def test_error_hierarchy(self):
        for error in (
            repro.ClusterError, repro.PlacementError, repro.SchedulingError,
            repro.SimulationError, repro.SolverError,
        ):
            assert issubclass(error, repro.ReproError)

    def test_planner_names_are_distinct(self):
        names = {
            repro.HelixMilpPlanner.name,
            repro.SwarmPlanner.name,
            repro.PetalsPlanner.name,
            repro.SeparatePipelinesPlanner.name,
        }
        assert len(names) == 4

    def test_scheduler_names_are_distinct(self):
        names = {
            repro.HelixScheduler.name,
            repro.SwarmScheduler.name,
            repro.RandomScheduler.name,
            repro.ShortestQueueScheduler.name,
            repro.FixedPipelineScheduler.name,
        }
        assert len(names) == 5

    def test_docstrings_on_public_classes(self):
        for cls in (
            repro.Cluster, repro.Profiler, repro.HelixMilpPlanner,
            repro.HelixScheduler, repro.Simulation, repro.ModelPlacement,
            repro.FlowGraph, repro.InterleavedWeightedRoundRobin,
        ):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20


class TestKnobs:
    """The simulator's, planner's and controller's options, pinned by name.

    A change that adds, renames or removes an option of
    :class:`~repro.sim.simulator.Simulation`, of one of its subsystem
    configs, of :class:`~repro.placement.helix_milp.HelixMilpPlanner` or
    of :class:`~repro.online.controller.OnlineController` has to edit a
    pin here, so the new knob is visible in review.
    """

    def test_simulation_parameters(self):
        import inspect

        assert list(inspect.signature(repro.Simulation.__init__).parameters) == [
            "self", "cluster", "model", "placement", "scheduler", "requests",
            "profiler", "max_batch_tokens", "max_time", "warmup", "seed",
            "controller", "policy", "debug_validate", "residency", "tenancy",
        ]

    def test_planner_and_controller_parameters(self):
        import inspect

        assert list(
            inspect.signature(repro.HelixMilpPlanner.__init__).parameters
        ) == [
            "self", "cluster", "model", "profiler", "partial_inference",
            "prune_degree", "time_limit", "hints", "backend", "mip_rel_gap",
            "lns_rounds", "lns_window", "lns_time_limit", "adaptive_budget",
            "lns_mode", "lns_seed",
        ]
        assert list(
            inspect.signature(repro.OnlineController.__init__).parameters
        ) == [
            "self", "model", "events", "profiler", "replan",
            "replan_lns_rounds", "replan_time_limit", "replan_delay",
            "detection_mode", "detector_config", "autoscaler",
        ]

    @pytest.mark.parametrize(
        "config,fields",
        [
            ("RequestPolicy", [
                "ttft_timeout", "retry_backoff", "backoff_factor", "jitter",
            ]),
            ("ResidencyConfig", ["warm", "layer_bytes", "warm_bonus"]),
            ("TenancyConfig", ["registry", "fairness"]),
        ],
    )
    def test_subsystem_config_fields(self, config, fields):
        import dataclasses

        import repro.sim
        import repro.tenancy

        cls = getattr(repro.sim, config, None) or getattr(repro.tenancy, config)
        assert [field.name for field in dataclasses.fields(cls)] == fields
