"""Differential oracles: fast paths agree with their reference paths.

Each oracle cross-validates one incremental machine against its slow
reference, or the MILP against an oracle outside it, on
scenario-generated material:

* ``FlowGraph.reevaluate`` vs. building a fresh graph per placement;
* the MILP's optimum vs. the best enumerated placement's max flow;
* incremental ``MilpProblem.compile`` vs. an invalidated cold compile.
"""

import dataclasses

import pytest

from repro.flow.graph import FlowGraph
from repro.scenarios import SCENARIO_FAMILIES, generate_scenario
from repro.scenarios.generator import ALL_FAMILIES
from repro.testkit import (
    check_formulation_optimum,
    check_incremental_compile,
    check_reevaluate_vs_rebuild,
    random_placements,
)


def _fail(violations):
    assert not violations, "\n".join(str(v) for v in violations)


class TestFlowOracles:
    @pytest.mark.parametrize("family", SCENARIO_FAMILIES)
    def test_reevaluate_matches_rebuild(self, family):
        _fail(check_reevaluate_vs_rebuild(generate_scenario(family, 0)))

    def test_reevaluate_matches_rebuild_on_wide_model(self):
        # full_mesh/0 draws the VRAM-bound model shape: multi-stage
        # placements with real handoff validity churn between candidates.
        scenario = generate_scenario("full_mesh", 0)
        assert scenario.model.name.startswith("scn-wide")
        _fail(check_reevaluate_vs_rebuild(scenario, count=20))

    def test_random_placements_are_seeded(self):
        a = random_placements(generate_scenario("geo_regions", 2))
        b = random_placements(generate_scenario("geo_regions", 2))
        assert a == b

    def test_stale_incremental_connection_is_flagged(self, monkeypatch):
        # A reevaluate that keeps one connection the rebuild drops (at
        # zero flow, so the max flow still agrees) must not pass: the
        # valid-connection sets are compared in both directions.
        original = FlowGraph.reevaluate

        def stale_reevaluate(graph, placement):
            solution = original(graph, placement)
            stale = next(
                key for key in graph.cluster.links
                if key not in solution.connection_flows
            )
            return dataclasses.replace(
                solution,
                connection_flows={**solution.connection_flows, stale: 0.0},
            )

        scenario = generate_scenario("full_mesh", 0)
        _fail(check_reevaluate_vs_rebuild(scenario))
        monkeypatch.setattr(FlowGraph, "reevaluate", stale_reevaluate)
        violations = check_reevaluate_vs_rebuild(scenario)
        assert violations
        assert all("stale connection" in v.detail for v in violations)

    def test_node_capacity_mismatch_is_flagged(self, monkeypatch):
        original = FlowGraph.reevaluate

        def skewed_reevaluate(graph, placement):
            solution = original(graph, placement)
            return dataclasses.replace(
                solution,
                node_capacities={
                    nid: 2.0 * cap
                    for nid, cap in solution.node_capacities.items()
                },
            )

        monkeypatch.setattr(FlowGraph, "reevaluate", skewed_reevaluate)
        violations = check_reevaluate_vs_rebuild(generate_scenario("star", 0))
        assert violations
        assert all("node capacities" in v.detail for v in violations)


class TestMilpOracles:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_formulation_optimum(self, family):
        _fail(check_formulation_optimum(generate_scenario(family, 1)))

    @pytest.mark.parametrize("family, seed", [("elastic", 5), ("star", 12)])
    def test_symmetry_cuts_only_interchangeable_nodes(self, family, seed):
        # elastic/5's slice is three L4s in a chain whose middle node is
        # last by id; star/12's holds a hub and a spoke of one GPU model.
        # Ordering the first layers of such same-hardware nodes cuts the
        # optimum off (elastic/5: 0 against 1286.9 tok/s) or turns the
        # best placement's assignment into one worth 0 (star/12).
        _fail(check_formulation_optimum(generate_scenario(family, seed)))

    @pytest.mark.parametrize("family", ["geo_regions", "star"])
    def test_incremental_compile_matches_cold(self, family):
        _fail(check_incremental_compile(generate_scenario(family, 3)))


class TestPlannerDominance:
    def test_helix_never_loses_to_its_hints(self):
        # The MILP planner warm-starts from the heuristics and must never
        # return something worse — checked on a generated topology rather
        # than a hand-written preset.
        from repro.bench.runner import make_planner
        from repro.testkit.differential import _milp_material

        cluster, model = _milp_material(generate_scenario("star", 4))
        best_heuristic = 0.0
        for method in ("swarm", "petals"):
            planner = make_planner(method, cluster, model)
            best_heuristic = max(best_heuristic, planner.plan().max_throughput)
        helix = make_planner("helix", cluster, model, time_limit=10.0)
        assert helix.plan().max_throughput >= best_heuristic - 1e-6
