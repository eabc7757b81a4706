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
            "OnlineController", "NodeFailure", "NodeRecovery",
            "LinkDegradation", "LinkRecovery", "ChurnConfig", "random_churn",
            "DisruptionReport", "goodput_timeline",
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
    """The simulator's, scheduler's, planner's and controller's options,
    pinned by name.

    A change that adds, renames or removes an option of
    :class:`~repro.sim.simulator.Simulation`, of one of its subsystem
    configs, of :class:`~repro.scheduling.base.Scheduler`, of
    :class:`~repro.placement.helix_milp.HelixMilpPlanner` or of
    :class:`~repro.online.controller.OnlineController` has to edit a pin
    here, so the new knob is visible in review.
    """

    def test_simulation_parameters(self):
        import inspect

        assert list(inspect.signature(repro.Simulation.__init__).parameters) == [
            "self", "cluster", "model", "placement", "scheduler", "requests",
            "profiler", "max_batch_tokens", "max_time", "warmup", "seed",
            "controller", "policy", "debug_validate", "residency",
        ]

    def test_scheduler_parameters(self):
        import inspect

        from repro.scheduling import Scheduler

        assert list(inspect.signature(Scheduler.__init__).parameters) == [
            "self", "cluster", "model", "placement", "profiler",
            "partial_inference", "expected_output_len",
        ]

    def test_planner_and_controller_parameters(self):
        import inspect

        assert list(
            inspect.signature(repro.HelixMilpPlanner.__init__).parameters
        ) == [
            "self", "cluster", "model", "profiler", "partial_inference",
            "prune_degree", "time_limit", "hints", "mip_rel_gap",
        ]
        assert list(
            inspect.signature(repro.OnlineController.__init__).parameters
        ) == [
            "self", "model", "events", "profiler", "replan",
            "detection_mode", "autoscaler",
        ]

    @pytest.mark.parametrize(
        "config,fields",
        [
            ("RequestPolicy", ["retry_backoff", "jitter"]),
            ("ResidencyConfig", ["warm"]),
            ("TenancyConfig", ["registry", "fairness"]),
            ("TenantSpec", ["tenant_id", "slo", "rate_share"]),
            ("FairnessConfig", ["mode", "window", "backlog_windows"]),
            (
                "AutoscalerConfig",
                ["interval", "backlog_high", "high_ticks", "idle_ticks",
                 "cooldown", "start_after"],
            ),
        ],
    )
    def test_subsystem_config_fields(self, config, fields):
        import dataclasses

        import repro.online
        import repro.sim
        import repro.tenancy

        cls = next(
            getattr(package, config)
            for package in (repro.sim, repro.online, repro.tenancy)
            if hasattr(package, config)
        )
        assert [field.name for field in dataclasses.fields(cls)] == fields

    def test_every_knob_has_a_non_test_caller(self):
        """Every option is set in ``src/``, ``bench/`` or ``benchmarks/``,
        outside the module that defines it.

        The options are the defaulted parameters of ``Simulation``,
        ``HelixMilpPlanner`` and ``OnlineController`` and the fields of
        every ``*Config``, ``*Policy`` and ``*Spec`` dataclass of their
        subsystems. A knob only tests or examples set has one value in
        use: make it a constant instead. Sources are parsed, so a call
        counts wherever it sits, and a positional argument counts as the
        parameter at its position.
        """
        import ast
        import dataclasses
        import importlib
        import inspect
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        calls: dict[Path, set[tuple[str, str | int]]] = {}
        for top in ("src", "bench", "benchmarks"):
            for path in sorted((root / top).rglob("*.py")):
                found = calls[path.resolve()] = set()
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    callee = getattr(func, "id", None) or getattr(
                        func, "attr", None
                    )
                    found.update((callee, kw.arg) for kw in node.keywords)
                    found.update((callee, i) for i in range(len(node.args)))

        def uncalled(name, params, options, module_file):
            home = Path(module_file).resolve()
            used = set().union(
                *(found for path, found in calls.items() if path != home)
            )
            return [
                f"{name}.{option}" for option in options
                if not {(name, option), (name, params.index(option))} & used
            ]

        missing = []
        for cls in (
            repro.Simulation, repro.HelixMilpPlanner, repro.OnlineController
        ):
            params = list(inspect.signature(cls.__init__).parameters.values())[1:]
            options = [
                param.name for param in params
                if param.default is not inspect.Parameter.empty
            ]
            missing += uncalled(
                cls.__name__, [param.name for param in params], options,
                inspect.getsourcefile(cls),
            )
        for module_name in (
            "repro.sim.policy", "repro.sim.residency", "repro.online.detect",
            "repro.online.autoscale", "repro.tenancy.fairness",
            "repro.tenancy.registry", "repro.tenancy.report",
        ):
            module = importlib.import_module(module_name)
            for name, cls in vars(module).items():
                if (
                    isinstance(cls, type)
                    and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module_name
                    and name.endswith(("Config", "Policy", "Spec"))
                ):
                    options = [field.name for field in dataclasses.fields(cls)]
                    missing += uncalled(name, options, options, module.__file__)
        assert missing == []
