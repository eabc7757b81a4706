"""Solver-independent solution container."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TrajectoryPoint:
    """One improving solution reported during a solve.

    Attributes:
        elapsed: Seconds since the solve started.
        incumbent: Objective of the new incumbent, in the problem's sense.
        bound: Best proven bound on the optimum at that moment.
        node_count: Branch-and-bound nodes explored by then.
    """

    elapsed: float
    incumbent: float
    bound: float
    node_count: int


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped early (time/gap) with an incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"  # stopped early without an incumbent

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class MilpSolution:
    """A (possibly suboptimal) MILP solution.

    Attributes:
        status: Solve outcome.
        objective: Objective value of the incumbent (in the problem's own
            sense — already negated back for maximization problems).
        values: Variable name -> value for the incumbent.
        bound: Best proven bound on the optimum (upper bound when
            maximizing). ``inf``/-``inf`` when unknown.
        solve_time: Wall-clock seconds spent solving.
        node_count: Branch-and-bound nodes explored, when known.
        trajectory: Every improving solution, in the order found.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: dict[str, float] = field(default_factory=dict)
    bound: float = float("inf")
    solve_time: float = 0.0
    node_count: int = 0
    trajectory: list[TrajectoryPoint] = field(default_factory=list)

    @property
    def gap(self) -> float:
        """Relative optimality gap ``|bound - objective| / max(1, |obj|)``."""
        if not self.status.has_solution:
            return float("inf")
        return abs(self.bound - self.objective) / max(1.0, abs(self.objective))
