"""Helix's MILP-based model placement planner (paper §4.4-4.6).

The formulation follows Tables 5 and 6 of the paper exactly:

* per node ``c_i``: an integer ``s_i`` (first layer held) and binaries
  ``b_i^j`` (``c_i`` holds exactly ``j`` layers), with
  ``e_i = s_i + Σ j·b_i^j``;
* per candidate connection: a continuous flow ``f_{u,v}``, a validity
  binary ``d_{u,v}``, and (for compute-compute links) the two auxiliary
  binaries ``cond1``/``cond2`` that linearize the partial-inference
  validity test ``s_j <= e_i < e_j``;
* constraint groups 1-5 (placement, flow conservation, inference
  throughput, connection validity, transmission throughput);
* objective: maximize total flow out of the source.

The §4.5 optimizations are all implemented: cluster pruning
(:func:`~repro.placement.pruning.prune_cluster`), heuristic initial
values (best-of Swarm/Petals/SP: the bar HiGHS's root-node probe must
beat before any time budget is spent; :meth:`assignment_from_placement`
turns one into a MIP start for :func:`solve_with_highs`), and the
compute-sum upper bound as a strengthening cut, which HiGHS's gap test
then also uses as the early-stop criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import PlacementError, SolverError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import connection_is_valid
from repro.milp.model import MilpProblem, Variable, lin_sum
from repro.milp.scipy_backend import solve_with_highs
from repro.milp.solution import MilpSolution, SolveStatus
from repro.models.specs import ModelSpec
from repro.placement.base import PlacementPlanner, PlannerResult
from repro.placement.pruning import prune_cluster

#: Solve outcomes that more budget cannot change.
_CONCLUSIVE = (
    SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED
)


def _interchangeable_groups(cluster: Cluster, node_ids) -> list[list[str]]:
    """Partition ``node_ids`` into classes of interchangeable nodes.

    Two nodes are interchangeable when they carry the same hardware in the
    same region and swapping them maps every link of ``cluster`` onto a
    link with the same bandwidth and latency, so every placement and its
    swapped twin have the same max flow. Same hardware alone is not
    enough: on a star, a hub and a spoke of one GPU model differ, and
    ordering their first layers cuts the MILP's optimum off. Swaps
    compose, so each class is collected against its first member. Classes
    come in order of first appearance, each sorted by node id.
    """
    links = cluster.links

    def params(src: str, dst: str):
        link = links.get((src, dst))
        return None if link is None else (link.bandwidth, link.latency)

    others = [*cluster.node_ids, COORDINATOR]

    def swappable(u: str, v: str) -> bool:
        return params(u, v) == params(v, u) and all(
            params(u, w) == params(v, w) and params(w, u) == params(w, v)
            for w in others
            if w != u and w != v
        )

    classes: dict[tuple[str, str], list[list[str]]] = {}
    for nid in node_ids:
        node = cluster.node(nid)
        hardware = classes.setdefault((node.gpu_label, node.region), [])
        for members in hardware:
            if swappable(members[0], nid):
                members.append(nid)
                break
        else:
            hardware.append([nid])
    return [
        sorted(members) for hardware in classes.values() for members in hardware
    ]


@dataclass
class MilpFormulation:
    """The compiled MILP plus handles to its variables.

    Attributes:
        problem: The MILP.
        s_vars: Node id -> first-layer integer variable.
        b_vars: Node id -> list of layer-count binaries (index ``j-1``).
        f_vars: Connection ``(src, dst)`` -> flow variable. Endpoints are
            node ids or :data:`~repro.cluster.node.COORDINATOR`.
        d_vars: Connection -> validity binary.
        throughputs: Node id -> ``T_j`` table (index ``j-1``).
        capacities: Connection -> token capacity ``S_{u,v}``.
        upper_bound: The §4.5 compute-sum throughput upper bound.
    """

    problem: MilpProblem
    s_vars: dict[str, Variable]
    b_vars: dict[str, list[Variable]]
    f_vars: dict[tuple[str, str], Variable]
    d_vars: dict[tuple[str, str], Variable]
    throughputs: dict[str, list[float]]
    capacities: dict[tuple[str, str], float]
    upper_bound: float


class HelixMilpPlanner(PlacementPlanner):
    """Optimal model placement by maximizing cluster max-flow with MILP.

    Args:
        cluster: The target cluster.
        model: The model to place.
        profiler: Performance model supplying ``T_j`` and link capacities.
        partial_inference: Allow ``s_j <= e_i < e_j`` handoffs (§4.4). When
            false, the simplified exact-boundary validity constraints are
            used instead.
        prune_degree: If set, plan on a pruned copy of the cluster keeping
            at most this many outgoing links per node (§4.5).
        time_limit: Solver wall-clock budget in seconds.
        hints: Heuristic placements for :meth:`plan`: the incumbent the
            MILP's root probe has to beat, and the placement returned when
            the MILP finds nothing better. The string ``"auto"`` (default)
            derives them from the Swarm, Petals, and separate-pipelines
            planners; ``None`` disables hinting. :meth:`replan` always
            ranks the heuristic placements.
        mip_rel_gap: Relative optimality gap at which the solver may stop.
    """

    name = "helix"

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        profiler: Profiler | None = None,
        partial_inference: bool = True,
        prune_degree: int | None = None,
        time_limit: float = 120.0,
        hints: str | list[ModelPlacement] | None = "auto",
        mip_rel_gap: float = 1e-4,
    ) -> None:
        super().__init__(cluster, model, profiler, partial_inference)
        self.prune_degree = prune_degree
        self.time_limit = time_limit
        self.hints = hints
        self.mip_rel_gap = mip_rel_gap
        #: Telemetry: MILP solve calls issued during the last plan().
        self.milp_solve_count = 0

    # ------------------------------------------------------------------
    # Formulation (Tables 5 and 6)
    # ------------------------------------------------------------------
    def build_formulation(self, cluster: Cluster | None = None) -> MilpFormulation:
        """Build the MILP for ``cluster`` (default: the planner's cluster)."""
        cluster = cluster or self.cluster
        model = self.model
        num_layers = model.num_layers
        problem = MilpProblem(name=f"helix-{cluster.name}")

        placeable = [
            nid for nid in cluster.node_ids
            if self.profiler.max_layers(cluster.node(nid), model) >= 1
        ]
        if not placeable:
            raise PlacementError("no node can hold even a single layer")

        s_vars: dict[str, Variable] = {}
        b_vars: dict[str, list[Variable]] = {}
        throughputs: dict[str, list[float]] = {}
        end_exprs = {}
        for nid in placeable:
            node = cluster.node(nid)
            k = min(self.profiler.max_layers(node, model), num_layers)
            s = problem.add_var(f"s[{nid}]", 0, num_layers - 1, integer=True)
            bs = [problem.add_binary(f"b[{nid}][{j}]") for j in range(1, k + 1)]
            throughputs[nid] = [
                self.profiler.throughput(node, model, j) for j in range(1, k + 1)
            ]
            s_vars[nid] = s
            b_vars[nid] = bs
            # Constraint-1: exactly one layer count, and e_i <= L.
            problem.add_constraint(lin_sum(bs) == 1, name=f"one_count[{nid}]")
            end = s + lin_sum((j + 1) * b for j, b in enumerate(bs))
            end_exprs[nid] = end
            problem.add_constraint(end <= num_layers, name=f"end_bound[{nid}]")

        f_vars: dict[tuple[str, str], Variable] = {}
        d_vars: dict[tuple[str, str], Variable] = {}
        capacities: dict[tuple[str, str], float] = {}

        for (src, dst), link in cluster.links.items():
            if src != COORDINATOR and src not in s_vars:
                continue
            if dst != COORDINATOR and dst not in s_vars:
                continue
            carries_activations = src != COORDINATOR and dst != COORDINATOR
            capacity = self.profiler.link_token_capacity(
                link, model, carries_activations
            )
            key = (src, dst)
            f = problem.add_var(f"f[{src}->{dst}]", 0.0, capacity)
            d = problem.add_binary(f"d[{src}->{dst}]")
            f_vars[key] = f
            d_vars[key] = d
            capacities[key] = capacity
            # Constraint-5: transmission throughput through valid links only.
            problem.add_constraint(f <= capacity * d, name=f"trans[{src}->{dst}]")

            # Constraint-4: connection validity.
            if src == COORDINATOR:
                problem.add_constraint(
                    s_vars[dst] <= num_layers * (1 - d),
                    name=f"valid_src[{dst}]",
                )
            elif dst == COORDINATOR:
                problem.add_constraint(
                    num_layers * d <= end_exprs[src],
                    name=f"valid_sink[{src}]",
                )
            elif self.partial_inference:
                cond1 = problem.add_binary(f"cond1[{src}->{dst}]")
                cond2 = problem.add_binary(f"cond2[{src}->{dst}]")
                # Per-link big-M constants (§4.5, tighter than the global
                # L+1): each must only dominate its condition's worst-case
                # RHS given the endpoints' layer bounds, which tightens the
                # LP relaxation of every cond binary.
                #   cond1 slack: max(s_j - e_i) with e_i >= s_i_lo + 1;
                #   cond2 slack: 1 + max(e_i) - min(e_j), where e_i is
                #   capped both by L and by s_i_hi + max_layers(src).
                src_end_upper = min(
                    float(num_layers),
                    s_vars[src].upper + len(b_vars[src]),
                )
                big_m1 = max(
                    1.0, s_vars[dst].upper - (s_vars[src].lower + 1.0)
                )
                big_m2 = max(
                    1.0, 1.0 + src_end_upper - (s_vars[dst].lower + 1.0)
                )
                # cond1 = 1 only if s_j <= e_i.
                problem.add_constraint(
                    big_m1 * (1 - cond1) >= s_vars[dst] - end_exprs[src],
                    name=f"cond1[{src}->{dst}]",
                )
                # cond2 = 1 only if e_i < e_j.
                problem.add_constraint(
                    end_exprs[dst] - end_exprs[src] >= 1 - big_m2 * (1 - cond2),
                    name=f"cond2[{src}->{dst}]",
                )
                problem.add_constraint(
                    d <= 0.5 * cond1 + 0.5 * cond2,
                    name=f"valid[{src}->{dst}]",
                )
            else:
                # Simplified validity: d = 1 only if e_i == s_j.
                problem.add_constraint(
                    num_layers * d <= num_layers + s_vars[dst] - end_exprs[src],
                    name=f"valid_eq1[{src}->{dst}]",
                )
                problem.add_constraint(
                    num_layers * d <= num_layers - s_vars[dst] + end_exprs[src],
                    name=f"valid_eq2[{src}->{dst}]",
                )

        # Symmetry breaking: force the first layers of interchangeable
        # nodes into non-decreasing order by node id. This is throughput-
        # preserving (any placement can be permuted to satisfy it, at the
        # same value on the planner's cluster) and removes the factorial
        # permutation symmetry that otherwise drowns the solver.
        for members in _interchangeable_groups(self.cluster, placeable):
            for left, right in zip(members, members[1:]):
                problem.add_constraint(
                    s_vars[left] <= s_vars[right],
                    name=f"sym[{left}<={right}]",
                )

        # Constraints 2 and 3: flow conservation and inference throughput.
        for nid in placeable:
            inflow = lin_sum(
                f for (src, dst), f in f_vars.items() if dst == nid
            )
            outflow = lin_sum(
                f for (src, dst), f in f_vars.items() if src == nid
            )
            problem.add_constraint(inflow == outflow, name=f"conserve[{nid}]")
            capacity_expr = lin_sum(
                t * b for t, b in zip(throughputs[nid], b_vars[nid])
            )
            problem.add_constraint(
                inflow <= capacity_expr, name=f"throughput[{nid}]"
            )

        source_flow = lin_sum(
            f for (src, _), f in f_vars.items() if src == COORDINATOR
        )
        sink_flow = lin_sum(
            f for (_, dst), f in f_vars.items() if dst == COORDINATOR
        )
        # Source out-flow equals sink in-flow (coordinator conservation).
        problem.add_constraint(source_flow == sink_flow, name="coordinator_balance")

        upper_bound = self.compute_upper_bound()
        # §4.5 upper bound as a strengthening cut.
        problem.add_constraint(source_flow <= upper_bound, name="compute_sum_ub")
        problem.set_objective(source_flow, maximize=True)

        return MilpFormulation(
            problem=problem,
            s_vars=s_vars,
            b_vars=b_vars,
            f_vars=f_vars,
            d_vars=d_vars,
            throughputs=throughputs,
            capacities=capacities,
            upper_bound=upper_bound,
        )

    # ------------------------------------------------------------------
    # Warm starts
    # ------------------------------------------------------------------
    def heuristic_hints(self, cluster: Cluster) -> list[ModelPlacement]:
        """Candidate placements from the heuristic baselines on ``cluster``."""
        from repro.placement.petals import PetalsPlanner
        from repro.placement.separate import SeparatePipelinesPlanner
        from repro.placement.swarm import SwarmPlanner

        hints: list[ModelPlacement] = []
        factories = (
            lambda: SwarmPlanner(
                cluster, self.model, self.profiler,
                partial_inference=self.partial_inference,
            ),
            lambda: PetalsPlanner(
                cluster, self.model, self.profiler,
                partial_inference=self.partial_inference,
            ),
            # SP hints must stay inside the MILP's half-VRAM feasible
            # space, so the fraction relaxation is disabled here.
            lambda: SeparatePipelinesPlanner(
                cluster, self.model, self.profiler,
                partial_inference=self.partial_inference,
                max_weight_fraction=self.profiler.weight_fraction,
            ),
        )
        for factory in factories:
            try:
                hints.append(factory().plan().placement)
            except PlacementError:
                continue
        return hints

    def assignment_from_placement(
        self,
        formulation: MilpFormulation,
        placement: ModelPlacement,
        cluster: Cluster,
    ) -> dict[str, float]:
        """Translate a placement into a full, feasible MILP assignment.

        Nodes the placement leaves unused are given a one-layer dummy
        assignment with zero flow (the MILP requires every node to hold
        layers, per Table 6's Σb = 1). Flow variables take the max-flow
        values of the placement's graph abstraction, which satisfy the
        conservation and capacity constraints by construction. The
        placement is first canonicalized (intervals sorted within groups of
        identical nodes) so it satisfies the symmetry-breaking constraints.
        """
        num_layers = self.model.num_layers
        intervals = {
            nid: (stage.start, stage.end)
            for nid, stage in placement.assignments.items()
        }
        for nid in formulation.s_vars:
            intervals.setdefault(nid, (0, 1))
        full = ModelPlacement.from_intervals(
            num_layers, self._canonicalize(intervals)
        )

        solution = self.evaluate_placement(full, cluster)

        values: dict[str, float] = {}
        for nid, s_var in formulation.s_vars.items():
            stage = full.interval(nid)
            values[s_var.name] = float(stage.start)
            for j, b_var in enumerate(formulation.b_vars[nid], start=1):
                values[b_var.name] = 1.0 if stage.num_layers == j else 0.0
        for (src, dst), f_var in formulation.f_vars.items():
            flow = solution.connection_flows.get((src, dst), 0.0)
            valid = connection_is_valid(full, src, dst, self.partial_inference)
            values[f_var.name] = flow if valid else 0.0
            values[formulation.d_vars[(src, dst)].name] = 1.0 if valid else 0.0
            if src != COORDINATOR and dst != COORDINATOR:
                e_i = full.interval(src).end
                s_j = full.interval(dst).start
                e_j = full.interval(dst).end
                cond1_name = f"cond1[{src}->{dst}]"
                cond2_name = f"cond2[{src}->{dst}]"
                if self.partial_inference:
                    values[cond1_name] = 1.0 if s_j <= e_i else 0.0
                    values[cond2_name] = 1.0 if e_i < e_j else 0.0
        return values

    def _canonicalize(
        self, intervals: dict[str, tuple[int, int]]
    ) -> dict[str, tuple[int, int]]:
        """Permute intervals within interchangeable groups into sorted order.

        Re-pairing an interchangeable group's sorted node ids with its
        sorted intervals preserves the placement's value on the planner's
        cluster while satisfying the MILP's symmetry-breaking constraints.
        """
        canonical = dict(intervals)
        for members in _interchangeable_groups(self.cluster, intervals):
            ordered = sorted(intervals[nid] for nid in members)
            for nid, interval in zip(members, ordered):
                canonical[nid] = interval
        return canonical

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> PlannerResult:
        """Solve the MILP and orchestrate the solution into a placement."""
        start = time.perf_counter()
        work_cluster = self.cluster
        if self.prune_degree is not None:
            work_cluster = prune_cluster(self.cluster, self.prune_degree)

        formulation = self.build_formulation(work_cluster)

        hint_placements: list[ModelPlacement] = []
        if self.hints == "auto":
            hint_placements = self.heuristic_hints(work_cluster)
        elif isinstance(self.hints, list):
            hint_placements = list(self.hints)

        # Hints are ranked on the *full* cluster (what the deployment will
        # actually use); the pruned copy only shrinks the MILP.
        best_hint: tuple[float, ModelPlacement] | None = None
        for hint in hint_placements:
            value = self.placement_throughput(hint, self.cluster)
            if value <= 0:
                continue
            if best_hint is None or value > best_hint[0]:
                best_hint = (value, hint)

        solution = self._solve(formulation, best_hint)
        placement = None
        if solution.status.has_solution:
            candidate = self.orchestrate(formulation, solution.values)
            if self.placement_throughput(candidate) > 0:
                placement = candidate
        if placement is None:
            if best_hint is None:
                raise SolverError(
                    f"MILP solve failed ({solution.status.value}) and no "
                    "heuristic hint is available to fall back on"
                )
            # Keep the heuristic incumbent — what a MIP-started solver
            # would return at timeout.
            placement = best_hint[1]
        if best_hint is not None:
            # Never return something worse than the best hint.
            if self.placement_throughput(placement) < best_hint[0] - 1e-6:
                placement = best_hint[1]

        flow = self.solve_flow(placement)
        return PlannerResult(
            planner_name=self.name,
            placement=placement,
            flow=flow,
            milp=solution,
            num_variables=formulation.problem.num_variables,
            num_constraints=formulation.problem.num_constraints,
            solve_time=time.perf_counter() - start,
        )

    def replan(self, base: ModelPlacement | None = None) -> PlannerResult:
        """Deterministic re-plan around an incumbent placement.

        The online controller's entry point after cluster churn: rank
        ``base`` (typically the pre-failure placement restricted to
        surviving nodes) against the heuristic hints by their max flow on
        the planner's full cluster, as :meth:`plan` adopts, and keep the
        best. The heuristics are always scored, which is also how a
        restored spare gets adopted (the base predates it). No MILP is
        built or solved, so a replan reproduces bit-for-bit.

        Args:
            base: Incumbent placement; node ids outside this planner's
                cluster are ignored.

        Returns:
            A :class:`PlannerResult` whose flow solution is ready to be
            hot-swapped into a scheduler, with ``num_variables`` and
            ``num_constraints`` 0.

        Raises:
            PlacementError: When neither ``base`` nor any heuristic produces
                a servable placement on the current cluster.
        """
        start = time.perf_counter()
        work_cluster = self.cluster
        if self.prune_degree is not None:
            work_cluster = prune_cluster(self.cluster, self.prune_degree)

        candidates: list[ModelPlacement] = []
        if base is not None:
            kept = {
                nid: (stage.start, stage.end)
                for nid, stage in base.assignments.items()
                if nid in self.cluster
            }
            if kept:
                candidates.append(
                    ModelPlacement.from_intervals(self.model.num_layers, kept)
                )
        candidates += self.heuristic_hints(work_cluster)
        incumbent: tuple[float, ModelPlacement] | None = None
        for candidate in candidates:
            value = self.placement_throughput(candidate)
            if value > 0 and (incumbent is None or value > incumbent[0]):
                incumbent = (value, candidate)
        if incumbent is None:
            raise PlacementError(
                "no servable placement exists on the surviving cluster"
            )

        placement = incumbent[1]
        return PlannerResult(
            planner_name=self.name,
            placement=placement,
            flow=self.solve_flow(placement),
            solve_time=time.perf_counter() - start,
        )

    def _solve(
        self,
        formulation: MilpFormulation,
        best_hint: tuple[float, ModelPlacement] | None,
    ) -> MilpSolution:
        """Root-probe the MILP, then solve on only if the probe wins.

        The planner does not pass HiGHS the heuristic hint the paper
        (§4.6) starts Gurobi from as a MIP start: HiGHS then holds the hint
        and the root probe costs more. Instead, one **root-node probe** (a
        single node without presolve, hence deterministic and cheap)
        decides whether the budget is worth spending:

        * the probe solves the MILP outright (optimal, infeasible or
          unbounded): return it;
        * its incumbent, orchestrated and scored on the full cluster, does
          not beat the best hint: return it, and :meth:`plan` keeps the
          hint — on the figure clusters and the bench workloads this is
          the whole solve;
        * otherwise (it beat the hint, or there is no hint): one solve
          with the rest of the budget, whose gap test also applies the
          §4.5 compute-sum early stop (the bound is a row of the
          formulation). The better of the two incumbents is returned.

        Incumbents are compared by full-cluster :meth:`placement_throughput`,
        the metric :meth:`plan` adopts by: a pruned formulation's objective
        under-counts the hint's value on the full cluster.
        """
        budget = max(self.time_limit, 0.1)
        self.milp_solve_count = 1
        probe = solve_with_highs(
            formulation.problem,
            time_limit=budget,
            mip_rel_gap=self.mip_rel_gap,
            node_limit=1,
            presolve=False,
        )
        if probe.status in _CONCLUSIVE:
            return probe
        probe_value = self._incumbent_value(formulation, probe)
        if best_hint is not None and probe_value <= best_hint[0] + 1e-9:
            return probe  # the hint stands; see plan()
        remaining = budget - probe.solve_time
        if remaining <= 0.05:
            return probe
        self.milp_solve_count = 2
        solution = solve_with_highs(
            formulation.problem,
            time_limit=remaining,
            mip_rel_gap=self.mip_rel_gap,
        )
        if solution.status in _CONCLUSIVE:
            return solution
        if self._incumbent_value(formulation, solution) > probe_value:
            return solution
        return probe

    def _incumbent_value(
        self, formulation: MilpFormulation, solution: MilpSolution
    ) -> float:
        """Full-cluster value of a solution's placement (-inf without one)."""
        if not solution.status.has_solution:
            return float("-inf")
        return self.placement_throughput(
            self.orchestrate(formulation, solution.values)
        )

    def orchestrate(
        self, formulation: MilpFormulation, values: dict[str, float]
    ) -> ModelPlacement:
        """Turn MILP variable values into a :class:`ModelPlacement`.

        (Paper §4.4, "MILP solution orchestration": ``s_i`` and ``e_i`` give
        the layers node ``c_i`` loads.)
        """
        intervals: dict[str, tuple[int, int]] = {}
        for nid, s_var in formulation.s_vars.items():
            start = int(round(values[s_var.name]))
            count = 0
            for j, b_var in enumerate(formulation.b_vars[nid], start=1):
                if round(values[b_var.name]) == 1:
                    count = j
                    break
            if count == 0:
                raise SolverError(
                    f"node {nid!r}: no layer-count binary set in MILP solution"
                )
            intervals[nid] = (start, start + count)
        return ModelPlacement.from_intervals(self.model.num_layers, intervals)
