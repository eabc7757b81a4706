"""Solve :class:`~repro.milp.model.MilpProblem` with scipy's HiGHS MILP."""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.errors import SolverError
from repro.milp.model import MilpProblem
from repro.milp.solution import MilpSolution, SolveStatus

# scipy.optimize.milp status codes (see scipy docs).
_STATUS_OPTIMAL = 0
_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3
_STATUS_TIME_OR_ITER = 1
# "Other": scipy also reports HiGHS stopping at ``node_limit`` this way.
_STATUS_OTHER = 4


def solve_with_highs(
    problem: MilpProblem,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
    node_limit: int | None = None,
    presolve: bool | None = None,
) -> MilpSolution:
    """Solve a problem with HiGHS via ``scipy.optimize.milp``.

    Args:
        problem: The problem to solve.
        time_limit: Optional wall-clock limit in seconds.
        mip_rel_gap: Optional relative MIP gap at which to stop early (the
            paper's early-stop criterion uses the compute-sum upper bound;
            planners translate it into a gap here).
        node_limit: Optional cap on branch-and-bound nodes. Unlike a time
            limit this makes the returned incumbent independent of machine
            speed. A solve stopped by it is ``FEASIBLE`` when HiGHS found an
            incumbent and ``NO_SOLUTION`` otherwise.
        presolve: Optional switch for HiGHS presolve (scipy's default is
            on).

    Returns:
        A :class:`MilpSolution`; ``status`` reflects optimality or an early
        stop with/without an incumbent.
    """
    compiled = problem.compile()
    options: dict[str, object] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)
    if presolve is not None:
        options["presolve"] = bool(presolve)

    constraints = None
    if compiled.a_matrix.shape[0] > 0:
        constraints = LinearConstraint(
            compiled.a_matrix, compiled.constraint_lower, compiled.constraint_upper
        )

    start = time.perf_counter()
    result = milp(
        c=compiled.c,
        constraints=constraints,
        integrality=compiled.integrality,
        bounds=Bounds(compiled.lower, compiled.upper),
        options=options or None,
    )
    elapsed = time.perf_counter() - start

    sign = -1.0 if compiled.maximize else 1.0
    if result.status == _STATUS_INFEASIBLE:
        return MilpSolution(status=SolveStatus.INFEASIBLE, solve_time=elapsed)
    if result.status == _STATUS_UNBOUNDED:
        return MilpSolution(status=SolveStatus.UNBOUNDED, solve_time=elapsed)
    if result.x is None:
        return MilpSolution(status=SolveStatus.NO_SOLUTION, solve_time=elapsed)
    stopped_at_node_limit = (
        result.status == _STATUS_OTHER and node_limit is not None
    )
    if (
        result.status not in (_STATUS_OPTIMAL, _STATUS_TIME_OR_ITER)
        and not stopped_at_node_limit
    ):
        raise SolverError(f"HiGHS returned unexpected status {result.status}: {result.message}")

    values = {
        var.name: float(result.x[var.index]) for var in problem.variables
    }
    objective = sign * float(result.fun) + compiled.objective_constant
    bound = _extract_bound(result, sign, compiled.objective_constant, objective)
    status = (
        SolveStatus.OPTIMAL
        if result.status == _STATUS_OPTIMAL
        else SolveStatus.FEASIBLE
    )
    node_count = int(getattr(result, "mip_node_count", 0) or 0)
    return MilpSolution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        solve_time=elapsed,
        node_count=node_count,
    )


def _extract_bound(result, sign: float, constant: float, objective: float) -> float:
    """Best proven bound in the problem's own sense."""
    dual = getattr(result, "mip_dual_bound", None)
    if dual is None or not np.isfinite(dual):
        return objective if result.status == _STATUS_OPTIMAL else sign * float("inf")
    return sign * float(dual) + constant

