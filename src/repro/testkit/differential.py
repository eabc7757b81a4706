"""Differential oracles: fast paths must agree with their reference paths.

The incremental machinery's only specification is "same answer as the
slow path": :meth:`FlowGraph.reevaluate` vs. a fresh graph rebuild, a
compile after row edits vs. a cold :meth:`MilpProblem.compile`, the
bounds-tightening LNS vs. ``lns_mode="rebuild"``, and the ``bnb`` vs.
``highs`` MILP backends. Each checker here runs both paths on material
derived from one generated scenario and returns :class:`Violation` lists,
so a sweep cross-validates the whole stack instead of spot-checking
hand-written fixtures. :func:`canonical_json` is the exact serialization
the golden digests (:mod:`repro.testkit.golden`) and replay fingerprints
compare.
"""

from __future__ import annotations

import json
import random
from dataclasses import fields, is_dataclass

import numpy as np

from repro.core.errors import PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.scipy_backend import solve_with_highs
from repro.placement.helix_milp import HelixMilpPlanner
from repro.scenarios.generator import Scenario, _small_model
from repro.testkit.invariants import Violation

#: Nodes kept when a check shrinks a scenario cluster to bound MILP cost.
_MILP_NODE_CAP = 4


def _rng(scenario: Scenario, salt: str) -> random.Random:
    """A derived generator: deterministic per (scenario address, check)."""
    return random.Random(
        f"testkit:{salt}:{scenario.family}:{scenario.seed}:{scenario.size}"
    )


def _milp_material(scenario: Scenario):
    """A bounded (cluster, model) pair for MILP-backed checks.

    MILP differential oracles must terminate quickly on every address in
    a sweep, so they run on at most :data:`_MILP_NODE_CAP` nodes of the
    scenario's topology and always on the small model shape (the wide
    shapes are exercised by the flow-layer checks, which are cheap).
    """
    cluster = scenario.cluster
    if len(cluster) > _MILP_NODE_CAP:
        cluster = cluster.subcluster(
            cluster.node_ids[:_MILP_NODE_CAP],
            name=f"{cluster.name}-milp",
        )
    model = _small_model(_rng(scenario, "milp-model"))
    return cluster, model


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
    the incremental evaluator must agree with the rebuild on those too.
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
    from repro.cluster.profiler import Profiler

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
    """`FlowGraph.reevaluate` must match a from-scratch rebuild exactly."""
    violations: list[Violation] = []
    placements = random_placements(scenario, count)
    evaluator: FlowGraph | None = None
    for index, placement in enumerate(placements):
        try:
            fresh = FlowGraph(
                scenario.cluster, scenario.model, placement
            ).solve()
        except PlacementError:
            # The rebuild rejects it; the incremental path must agree.
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
            incremental = evaluator.solve()
        else:
            try:
                incremental = evaluator.reevaluate(placement)
            except PlacementError as exc:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: rebuild accepted the placement "
                    f"but reevaluate rejected it ({exc})",
                ))
                continue
        scale = max(1.0, abs(fresh.max_flow))
        if abs(incremental.max_flow - fresh.max_flow) > 1e-6 * scale:
            violations.append(Violation(
                "reevaluate_vs_rebuild",
                f"placement #{index}: incremental max flow "
                f"{incremental.max_flow} != rebuild {fresh.max_flow}",
            ))
        # Per-connection flows may legitimately differ between two optimal
        # solutions; the value, the valid-connection *sets* and the node
        # capacities must agree.
        rebuilt = fresh.connection_flows
        retargeted = incremental.connection_flows
        for key in rebuilt:
            if key not in retargeted:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: connection {key} missing from "
                    "the incremental solution",
                ))
        for key in retargeted:
            if key not in rebuilt:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: stale connection {key} in the "
                    "incremental solution",
                ))
        if incremental.node_capacities != fresh.node_capacities:
            violations.append(Violation(
                "reevaluate_vs_rebuild",
                f"placement #{index}: incremental node capacities "
                f"{incremental.node_capacities} != rebuild "
                f"{fresh.node_capacities}",
            ))
    return violations


# ----------------------------------------------------------------------
# MILP layer: backend agreement
# ----------------------------------------------------------------------
def check_backend_agreement(
    scenario: Scenario,
    time_limit: float = 20.0,
) -> list[Violation]:
    """The ``bnb`` and ``highs`` backends must find equal optima.

    Solves the Helix formulation of a bounded slice of the scenario's
    cluster to (near-)optimality with both backends and compares
    objectives.
    """
    cluster, model = _milp_material(scenario)
    planner = HelixMilpPlanner(cluster, model)
    formulation = planner.build_formulation()
    highs = solve_with_highs(formulation.problem, time_limit=time_limit)
    bnb = BranchAndBoundSolver(
        formulation.problem, time_limit=2 * time_limit, gap_tolerance=1e-6
    ).solve()
    violations: list[Violation] = []
    if not highs.status.has_solution or not bnb.status.has_solution:
        violations.append(Violation(
            "backend_agreement",
            f"missing solution: highs={highs.status.value} "
            f"bnb={bnb.status.value}",
        ))
        return violations
    scale = max(1.0, abs(highs.objective))
    if abs(highs.objective - bnb.objective) > 1e-5 * scale:
        violations.append(Violation(
            "backend_agreement",
            f"objectives disagree: highs={highs.objective} "
            f"bnb={bnb.objective}",
        ))
    return violations


# ----------------------------------------------------------------------
# MILP layer: incremental LNS vs. rebuild LNS
# ----------------------------------------------------------------------
def check_lns_modes_agree(
    scenario: Scenario,
    rounds: int = 3,
    time_limit: float = 5.0,
) -> list[Violation]:
    """Bounds-tightening LNS must match the rebuild-mode reference.

    Both planners run the same seeded window sequence (``lns_window=2``
    keeps the effective window identical across modes) from the same
    warm start, so their final throughputs must agree.
    """
    cluster, model = _milp_material(scenario)
    results = {}
    for mode in ("incremental", "rebuild"):
        planner = HelixMilpPlanner(
            cluster, model,
            time_limit=time_limit,
            lns_rounds=rounds,
            lns_window=2,
            lns_time_limit=time_limit,
            lns_mode=mode,
            lns_seed=scenario.seed,
        )
        results[mode] = planner.plan().max_throughput
    scale = max(1.0, abs(results["rebuild"]))
    if abs(results["incremental"] - results["rebuild"]) > 1e-5 * scale:
        return [Violation(
            "lns_modes_agree",
            f"incremental LNS throughput {results['incremental']} != "
            f"rebuild {results['rebuild']}",
        )]
    return []


# ----------------------------------------------------------------------
# MILP layer: compile after row edits vs. cold compile
# ----------------------------------------------------------------------
def check_incremental_compile(scenario: Scenario) -> list[Violation]:
    """Compiles after appending and truncating rows must equal a compile
    with every cached row dropped."""
    cluster, model = _milp_material(scenario)
    planner = HelixMilpPlanner(cluster, model)
    formulation = planner.build_formulation()
    problem = formulation.problem

    violations: list[Violation] = []

    def compare(tag: str) -> None:
        warm = problem.compile()
        problem.invalidate()
        cold = problem.compile()
        if not all(
            np.array_equal(getattr(warm, name), getattr(cold, name))
            for name in ("indptr", "indices", "data")
        ):
            violations.append(Violation(
                "incremental_compile",
                f"{tag}: constraint matrices diverge between incremental "
                "and cold compile",
            ))
        for name in ("c", "constraint_lower", "constraint_upper",
                     "lower", "upper", "integrality"):
            if not np.array_equal(getattr(warm, name), getattr(cold, name)):
                violations.append(Violation(
                    "incremental_compile",
                    f"{tag}: array {name!r} diverges between incremental "
                    "and cold compile",
                ))

    problem.compile()  # cache every row
    some_var = problem.variables[0]
    base_len = len(problem.constraints)
    problem.add_constraint(some_var <= some_var.upper, name="testkit_append")
    compare("append")
    del problem.constraints[base_len:]
    compare("truncate")
    # Truncate, then append a different row, as each LNS round does with
    # its cutoff: the freed row's id() may be recycled for the new one,
    # which must still compile as itself.
    for k in range(8):
        problem.add_constraint(problem.objective >= k, name="testkit_cutoff")
        problem.compile()
        del problem.constraints[base_len:]
        problem.add_constraint(
            problem.objective >= k + 0.5, name="testkit_cutoff"
        )
        compare(f"truncate then append, round {k}")
        del problem.constraints[base_len:]
    return violations


def check_milp_oracles(
    family: str, seed: int, size: str = "smoke"
) -> list[Violation]:
    """All MILP differential oracles for one scenario address.

    Each check gets a freshly-generated scenario (planning mutates
    nothing, but the oracles must not share evaluator state), so this is
    the one entry point the CLI and the extended sweep both use.
    """
    from repro.scenarios.generator import generate_scenario

    violations: list[Violation] = []
    for check in (
        check_backend_agreement,
        check_lns_modes_agree,
        check_incremental_compile,
    ):
        violations.extend(check(generate_scenario(family, seed, size)))
    return violations


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
