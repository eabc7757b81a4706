"""Mixed-integer linear programming layer.

The paper solves its placement MILP with Gurobi; offline we rely on two
interchangeable solvers behind one modeling API:

* :mod:`repro.milp.scipy_backend` — HiGHS, called through the bindings
  scipy ships (the workhorse);
* :mod:`repro.milp.branch_and_bound` — our own best-first branch-and-bound
  over HiGHS LP relaxations, which exposes warm starts (heuristic
  incumbents) and an incumbent/bound trajectory, the two Gurobi features
  the paper's §4.5/§6.9 experiments rely on that the HiGHS backend does
  not use.

Importing this package loads neither scipy.optimize nor scipy.sparse;
only building a branch-and-bound solver does.

The modeling layer (:mod:`repro.milp.model`) is deliberately tiny: linear
expressions over named variables, ``<=``/``>=``/``==`` constraints, and a
single linear objective.
"""

from repro.milp.model import (
    Variable,
    LinExpr,
    Constraint,
    MilpProblem,
    Sense,
    lin_sum,
)
from repro.milp.solution import MilpSolution, SolveStatus
from repro.milp.scipy_backend import solve_with_highs
from repro.milp.branch_and_bound import (
    BranchAndBoundSolver,
    TrajectoryPoint,
)

__all__ = [
    "Variable",
    "LinExpr",
    "Constraint",
    "MilpProblem",
    "Sense",
    "lin_sum",
    "MilpSolution",
    "SolveStatus",
    "solve_with_highs",
    "BranchAndBoundSolver",
    "TrajectoryPoint",
]
