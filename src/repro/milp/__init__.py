"""Mixed-integer linear programming layer.

The paper solves its placement MILP with Gurobi; offline we use HiGHS,
called through the bindings scipy ships
(:mod:`repro.milp.scipy_backend`). Besides the solve itself, it gives
the two Gurobi features the paper's §4.5/§6.9 experiments rely on: a MIP
start (heuristic initial values) and the incumbent/bound trajectory of
every solve.

Importing this package loads neither scipy.optimize nor scipy.sparse.

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
from repro.milp.solution import MilpSolution, SolveStatus, TrajectoryPoint
from repro.milp.scipy_backend import solve_with_highs

__all__ = [
    "Variable",
    "LinExpr",
    "Constraint",
    "MilpProblem",
    "Sense",
    "lin_sum",
    "MilpSolution",
    "SolveStatus",
    "TrajectoryPoint",
    "solve_with_highs",
]
