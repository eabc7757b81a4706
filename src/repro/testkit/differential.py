"""Differential oracles: each answer agrees with a reference path.

A re-targeted :class:`FlowGraph` (:meth:`FlowGraph.reevaluate`, the
online controller's path) must give exactly what a freshly built graph
gives. The MILP formulation is checked against an oracle outside it: its
optimum must be the best enumerated placement's max flow. Each checker
here runs on material derived from one generated scenario and returns
:class:`Violation` lists, so a sweep cross-validates the whole stack
instead of spot-checking hand-written fixtures. :func:`canonical_json` is
the exact serialization the golden digests (:mod:`repro.testkit.golden`)
and replay fingerprints compare.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import fields, is_dataclass

import numpy as np

from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.milp.scipy_backend import solve_with_highs
from repro.placement.helix_milp import HelixMilpPlanner
from repro.milp.solution import SolveStatus
from repro.models.specs import ModelSpec
from repro.scenarios.generator import Scenario
from repro.testkit.invariants import Violation


def _rng(scenario: Scenario, salt: str) -> random.Random:
    """A derived generator: deterministic per (scenario address, check)."""
    return random.Random(
        f"testkit:{salt}:{scenario.family}:{scenario.seed}:{scenario.size}"
    )


# ----------------------------------------------------------------------
# Flow layer: reevaluate vs. rebuild
# ----------------------------------------------------------------------
def random_placements(
    scenario: Scenario, count: int = 12
) -> list[ModelPlacement]:
    """Seeded random placements on the scenario's cluster.

    Placements always pin a first-layer and a last-layer holder (so the
    flow graph accepts them) but are otherwise unconstrained — partial
    covers and zero-flow configurations are deliberately included, since
    the re-targeted graph must agree with the rebuild on those too.
    """
    rng = _rng(scenario, "placements")
    cluster = scenario.cluster
    model = scenario.model
    node_ids = list(cluster.node_ids)
    helper = _bounds_helper(scenario)
    bounds = {nid: max(1, helper[nid]) for nid in node_ids}
    num_layers = model.num_layers

    placements = []
    for _ in range(count):
        intervals: dict[str, tuple[int, int]] = {}
        for nid in node_ids:
            if rng.random() < 0.25:
                continue  # node sits out this placement
            span = rng.randint(1, min(bounds[nid], num_layers))
            start = rng.randrange(num_layers - span + 1)
            intervals[nid] = (start, start + span)
        # Pin entry and exit holders so the placement is graph-admissible.
        first = rng.choice(node_ids)
        span = rng.randint(1, min(bounds[first], num_layers))
        intervals[first] = (0, span)
        last = rng.choice(node_ids)
        span = rng.randint(1, min(bounds[last], num_layers))
        intervals[last] = (num_layers - span, num_layers)
        placements.append(ModelPlacement.from_intervals(num_layers, intervals))
    return placements


def _bounds_helper(scenario: Scenario) -> dict[str, int]:
    profiler = Profiler()
    return {
        nid: min(
            profiler.max_layers(scenario.cluster.node(nid), scenario.model),
            scenario.model.num_layers,
        )
        for nid in scenario.cluster.node_ids
    }


def check_reevaluate_vs_rebuild(
    scenario: Scenario, count: int = 12
) -> list[Violation]:
    """`FlowGraph.reevaluate` must give exactly what a fresh graph gives.

    Both graphs hold the same arcs in the same order under the same
    capacities, so the max flow and every per-connection and per-node
    flow (which the IWRR weights read) must be equal, not just close.
    """
    violations: list[Violation] = []
    placements = random_placements(scenario, count)
    evaluator: FlowGraph | None = None
    for index, placement in enumerate(placements):
        try:
            fresh = FlowGraph(
                scenario.cluster, scenario.model, placement
            ).solve()
        except PlacementError:
            # The rebuild rejects it; the re-targeted graph must agree.
            if evaluator is not None:
                try:
                    evaluator.reevaluate(placement)
                except PlacementError:
                    pass
                else:
                    violations.append(Violation(
                        "reevaluate_vs_rebuild",
                        f"placement #{index}: rebuild rejected the "
                        "placement but reevaluate accepted it",
                    ))
            continue
        if evaluator is None:
            evaluator = FlowGraph(
                scenario.cluster, scenario.model, placement
            )
            retargeted = evaluator.solve()
        else:
            try:
                retargeted = evaluator.reevaluate(placement)
            except PlacementError as exc:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: rebuild accepted the placement "
                    f"but reevaluate rejected it ({exc})",
                ))
                continue
        if retargeted.max_flow != fresh.max_flow:
            violations.append(Violation(
                "reevaluate_vs_rebuild",
                f"placement #{index}: re-targeted max flow "
                f"{retargeted.max_flow} != rebuild {fresh.max_flow}",
            ))
        for key in fresh.connection_flows:
            if key not in retargeted.connection_flows:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: connection {key} missing from "
                    "the re-targeted solution",
                ))
        for key in retargeted.connection_flows:
            if key not in fresh.connection_flows:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: stale connection {key} in the "
                    "re-targeted solution",
                ))
        # A key mismatch in the connection flows is reported above.
        checks = [
            ("node flows", "node_flows"),
            ("node capacities", "node_capacities"),
        ]
        if retargeted.connection_flows.keys() == fresh.connection_flows.keys():
            checks.insert(0, ("connection flows", "connection_flows"))
        for label, name in checks:
            ours, theirs = getattr(retargeted, name), getattr(fresh, name)
            if ours != theirs:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: re-targeted {label} {ours} != "
                    f"rebuild {theirs}",
                ))
    return violations


# ----------------------------------------------------------------------
# MILP layer: the formulation's optimum is the best placement's max flow
# ----------------------------------------------------------------------
#: Most layers the formulation oracle's model has: three nodes then have
#: at most a few thousand placements to enumerate.
_ORACLE_LAYERS = 6


def _oracle_model(num_layers: int) -> ModelSpec:
    """The wide scenario shape at twice its hidden, head and FFN sizes.

    A layer is about four times as large, so a pool GPU holds 1-4 of them
    and a placement of a few nodes has to pipeline.
    """
    return ModelSpec(
        name=f"oracle-wide-{num_layers}L",
        num_layers=num_layers,
        hidden_size=2 * 6656,
        num_heads=104,
        num_kv_heads=104,
        intermediate_size=2 * 17920,
    )


def _oracle_material(scenario: Scenario):
    """Three linked nodes of the scenario and a model they must pipeline.

    The nodes are the one with the most links to other nodes (a star's
    hub), the first node linking into it and the first other node it
    links to, so a chain through all three exists on every topology. The
    model has as many layers as the three can hold together, at most
    :data:`_ORACLE_LAYERS`: no node holds them all, and some placement
    serves.
    """
    cluster = scenario.cluster
    links = [key for key in cluster.links if COORDINATOR not in key]
    hub = max(
        cluster.node_ids, key=lambda nid: sum(src == nid for src, _ in links)
    )
    before = next((src for src, dst in links if dst == hub), None)
    after = next(
        (dst for src, dst in links if src == hub and dst != before), None
    )
    keep = [nid for nid in (before, hub, after) if nid is not None]
    cluster = cluster.subcluster(keep, name=f"{cluster.name}-oracle")
    profiler = Profiler()
    widest = _oracle_model(_ORACLE_LAYERS)
    capacity = sum(
        profiler.max_layers(cluster.node(nid), widest)
        for nid in cluster.node_ids
    )
    return cluster, _oracle_model(min(_ORACLE_LAYERS, capacity))


def check_formulation_optimum(scenario: Scenario) -> list[Violation]:
    """The MILP's optimum must be the best placement's max flow.

    Enumerates every placement in the MILP's space on a three-node slice
    of the scenario (each node holds one interval ``[s, s + j)`` with
    ``1 <= j <= k_i`` and ``s + j <= L``), scores each with the planner's
    max flow, and requires HiGHS, solved to ``mip_rel_gap=0``, to reach
    the best score. The best placement's MILP assignment must also be
    feasible, with an objective equal to its max flow. Both hold with and
    without partial inference. The scores come from
    :class:`~repro.flow.graph.FlowGraph`, not from the formulation, so a
    wrong capacity row, validity condition or symmetry cut fails here.
    """
    cluster, model = _oracle_material(scenario)
    num_layers = model.num_layers
    violations: list[Violation] = []
    for partial in (True, False):
        tag = f"partial_inference={partial}"
        planner = HelixMilpPlanner(
            cluster, model, partial_inference=partial, hints=None
        )
        spans = []
        for nid in cluster.node_ids:
            most = min(
                planner.profiler.max_layers(cluster.node(nid), model),
                num_layers,
            )
            spans.append([
                (start, start + count)
                for count in range(1, most + 1)
                for start in range(num_layers - count + 1)
            ])
        best, argmax = 0.0, None
        for combo in itertools.product(*spans):
            placement = ModelPlacement.from_intervals(
                num_layers, dict(zip(cluster.node_ids, combo))
            )
            value = planner.placement_throughput(placement)
            if value > best:
                best, argmax = value, placement
        if argmax is None:
            violations.append(Violation(
                "formulation_optimum",
                f"{tag}: no placement of {model.name} on "
                f"{cluster.node_ids} serves",
            ))
            continue
        scale = max(1.0, best)
        formulation = planner.build_formulation()
        solution = solve_with_highs(formulation.problem, mip_rel_gap=0.0)
        if solution.status is not SolveStatus.OPTIMAL:
            violations.append(Violation(
                "formulation_optimum",
                f"{tag}: HiGHS returned {solution.status.value}",
            ))
        elif abs(solution.objective - best) > 1e-6 * scale:
            violations.append(Violation(
                "formulation_optimum",
                f"{tag}: MILP optimum {solution.objective} != best "
                f"placement's max flow {best} ({argmax.assignments})",
            ))
        values = planner.assignment_from_placement(
            formulation, argmax, cluster
        )
        violated = formulation.problem.check_feasible(values)
        objective = formulation.problem.objective.evaluate(values)
        if violated:
            violations.append(Violation(
                "formulation_optimum",
                f"{tag}: the best placement's assignment violates "
                f"{violated}",
            ))
        elif abs(objective - best) > 1e-6 * scale:
            violations.append(Violation(
                "formulation_optimum",
                f"{tag}: the best placement's assignment has objective "
                f"{objective}, not its max flow {best}",
            ))
    return violations


def check_milp_oracles(
    family: str, seed: int, size: str = "smoke"
) -> list[Violation]:
    """The MILP oracle for one scenario address, on a freshly generated
    scenario: the one entry point the CLI and the extended sweep use."""
    from repro.scenarios.generator import generate_scenario

    return check_formulation_optimum(generate_scenario(family, seed, size))


# ----------------------------------------------------------------------
# Exact serialization: golden digests and replay fingerprints
# ----------------------------------------------------------------------
def _canonical(value):
    """A JSON-ready form under which equal values serialize equally.

    Numbers compare by value (``3 == 3.0``, ``-0.0 == 0.0``, NaN equals
    NaN, as for unset timestamps), so every number becomes a float whose
    ``repr`` is exact; mappings are sorted by key and
    dataclasses become mappings of their fields.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, int, float, np.number)):
        return float(value) + 0.0
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        items = [(_canonical(key), _canonical(v)) for key, v in value.items()]
        return sorted(items, key=lambda item: json.dumps(item[0]))
    return [_canonical(item) for item in value]


def canonical_json(value) -> str:
    """Exact, NaN-equal serialization: equal strings mean equal values."""
    return json.dumps(_canonical(value))
