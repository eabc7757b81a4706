"""Differential oracles: answers agree with a reference path.

Each oracle cross-validates one path against a reference on
scenario-generated material:

* ``FlowGraph.reevaluate`` vs. building a fresh graph per placement;
* the MILP's optimum vs. the best enumerated placement's max flow;
* a compile after row edits vs. a compile of a freshly built formulation.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.flow.graph import FlowGraph
from repro.placement import HelixMilpPlanner
from repro.scenarios import generate_scenario
from repro.scenarios.generator import ALL_FAMILIES
from repro.testkit import (
    check_formulation_optimum,
    check_reevaluate_vs_rebuild,
    random_placements,
)


def _fail(violations):
    assert not violations, "\n".join(str(v) for v in violations)


class TestFlowOracles:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
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

    @pytest.mark.parametrize(
        "field, label",
        [("connection_flows", "connection flows"), ("node_flows", "node flows")],
    )
    def test_flow_mismatch_below_any_tolerance_is_flagged(
        self, monkeypatch, field, label
    ):
        # The IWRR weights read these flows, so a re-targeted solution
        # must carry the rebuild's values exactly: one positive flow off
        # by a relative 1e-12 (inside pytest.approx) is a violation.
        original = FlowGraph.reevaluate

        def nudged_reevaluate(graph, placement):
            solution = original(graph, placement)
            flows = dict(getattr(solution, field))
            for key, flow in flows.items():
                if flow > 0:
                    flows[key] = flow * (1.0 + 1e-12)
                    assert flows[key] != flow
                    assert flows[key] == pytest.approx(flow)
                    break
            return dataclasses.replace(solution, **{field: flows})

        monkeypatch.setattr(FlowGraph, "reevaluate", nudged_reevaluate)
        violations = check_reevaluate_vs_rebuild(generate_scenario("star", 0))
        assert violations
        assert all(label in v.detail for v in violations)


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
        # Rows appended to and truncated from a compiled formulation, as a
        # cutoff round does, compile exactly like the same rows added to a
        # freshly built formulation.
        scenario = generate_scenario(family, 3)

        def build():
            planner = HelixMilpPlanner(scenario.cluster, scenario.model)
            return planner.build_formulation().problem

        def assert_same(ours, cold):
            for name in ("indptr", "indices", "data", "c", "constraint_lower",
                         "constraint_upper", "lower", "upper", "integrality"):
                np.testing.assert_array_equal(
                    getattr(ours, name), getattr(cold, name), err_msg=name
                )

        problem = build()
        base = problem.compile()
        n = len(problem.constraints)
        var = problem.variables[0]
        problem.add_constraint(var <= var.upper, name="append")
        cold = build()
        cold.add_constraint(cold.variables[0] <= var.upper, name="append")
        assert_same(problem.compile(), cold.compile())
        del problem.constraints[n:]
        assert_same(problem.compile(), base)
        for k in range(3):
            problem.add_constraint(problem.objective >= k, name="cutoff")
            problem.compile()
            del problem.constraints[n:]
            problem.add_constraint(problem.objective >= k + 0.5, name="cutoff")
            cold = build()
            cold.add_constraint(cold.objective >= k + 0.5, name="cutoff")
            assert_same(problem.compile(), cold.compile())
            del problem.constraints[n:]


class TestPlannerDominance:
    def test_helix_never_loses_to_its_hints(self):
        # The MILP planner warm-starts from the heuristics and must never
        # return something worse — checked on a generated topology rather
        # than a hand-written preset.
        from repro.bench.runner import make_planner
        from repro.scenarios.generator import _small_model

        scenario = generate_scenario("star", 4)
        cluster = scenario.cluster.subcluster(scenario.cluster.node_ids[:4])
        model = _small_model(random.Random("testkit:milp-model:star:4:smoke"))
        best_heuristic = 0.0
        for method in ("swarm", "petals"):
            planner = make_planner(method, cluster, model)
            best_heuristic = max(best_heuristic, planner.plan().max_throughput)
        helix = make_planner("helix", cluster, model, time_limit=10.0)
        assert helix.plan().max_throughput >= best_heuristic - 1e-6
