"""Solve :class:`~repro.milp.model.MilpProblem` with HiGHS.

HiGHS is called through the pybind11 bindings scipy ships as
``scipy.optimize._highspy._core``. The bindings are loaded from their
file when this module is imported, so ``scipy/optimize/__init__.py``
(which pulls in scipy.sparse, linalg, special, fft and spatial) never
runs on the planner's path. The module is registered under its canonical
name, so a later ``import scipy.optimize`` reuses it instead of loading
it a second time.

The model and options are exactly those ``scipy.optimize.milp`` passes:
``tests/test_milp_backends.py`` checks that both give bit-identical
solves. Two features ``scipy.optimize.milp`` does not expose are used as
well: every solve registers HiGHS's improving-solution callback, which
records the incumbent/bound trajectory of the paper's Fig. 12, and a
caller may pass a MIP start, the heuristic initial values of §4.5.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from collections.abc import Mapping

import numpy as np
import scipy

from repro.core.errors import SolverError
from repro.milp.model import MilpProblem
from repro.milp.solution import MilpSolution, SolveStatus, TrajectoryPoint

_CORE_NAME = "scipy.optimize._highspy._core"
#: Methods of the bindings' ``_Highs`` beyond what ``scipy.optimize.milp``
#: calls: the trajectory callback and the MIP start.
_REQUIRED_METHODS = ("setCallback", "startCallback", "setSolution")


def _load_highs_core():
    """The HiGHS bindings module, loaded from its file unless already loaded."""
    core = sys.modules.get(_CORE_NAME)
    if core is None:
        directory = os.path.join(
            os.path.dirname(scipy.__file__), "optimize", "_highspy"
        )
        spec = importlib.machinery.PathFinder.find_spec(_CORE_NAME, [directory])
        if spec is None:
            raise SolverError(
                f"HiGHS bindings not found: expected {directory}/_core"
                f"{importlib.machinery.EXTENSION_SUFFIXES[0]} in scipy "
                f"{scipy.__version__} (scipy>=1.15 ships them)"
            )
        core = importlib.util.module_from_spec(spec)
        sys.modules[_CORE_NAME] = core
        spec.loader.exec_module(core)
    missing = [
        name for name in _REQUIRED_METHODS if not hasattr(core._Highs, name)
    ]
    if missing:
        raise SolverError(
            f"HiGHS bindings in scipy {scipy.__version__} lack "
            f"{', '.join(missing)} (scipy>=1.15 ships them)"
        )
    return core


_core = _load_highs_core()
HIGHS_VERSION = (
    f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
    f"{_core.HIGHS_VERSION_PATCH}"
)
_Status = _core.HighsModelStatus
_VAR_TYPES = (_core.HighsVarType.kContinuous, _core.HighsVarType.kInteger)
# Early stops after which a MIP holds an incumbent iff its objective is finite.
_LIMIT_STOPS = (_Status.kTimeLimit, _Status.kIterationLimit, _Status.kSolutionLimit)


def solve_with_highs(
    problem: MilpProblem,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
    node_limit: int | None = None,
    presolve: bool | None = None,
    start: Mapping[str, float] | None = None,
) -> MilpSolution:
    """Solve a problem with HiGHS.

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
        presolve: Optional switch for HiGHS presolve (on by default).
        start: Optional MIP start, variable name -> value, handed to HiGHS
            before the solve. HiGHS keeps it as the first incumbent when
            it is feasible and discards it otherwise.

    Returns:
        A :class:`MilpSolution`; ``status`` reflects optimality or an early
        stop with/without an incumbent, and ``trajectory`` lists every
        improving solution HiGHS reported.
    """
    compiled = problem.compile()
    started = time.perf_counter()
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(compiled.c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(compiled.constraint_lower)
    lp.col_cost_ = compiled.c
    lp.col_lower_ = compiled.lower
    lp.col_upper_ = compiled.upper
    lp.row_lower_ = compiled.constraint_lower
    lp.row_upper_ = compiled.constraint_upper
    # HiGHS transposes a row-wise matrix to the column-wise one scipy
    # passes, entry for entry.
    lp.a_matrix_.format_ = _core.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = compiled.indptr
    lp.a_matrix_.index_ = compiled.indices
    lp.a_matrix_.value_ = compiled.data
    lp.integrality_ = [_VAR_TYPES[kind] for kind in compiled.integrality]

    options = _core.HighsOptions()
    options.log_to_console = False
    if node_limit is not None:
        options.mip_max_nodes = int(node_limit)
    if time_limit is not None:
        options.time_limit = float(time_limit)
    if mip_rel_gap is not None:
        options.mip_rel_gap = float(mip_rel_gap)
    if presolve is not None:
        options.presolve = "on" if presolve else "off"

    highs = _core._Highs()
    if highs.passOptions(options) == _core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the solver options")
    if highs.passModel(lp) == _core.HighsStatus.kError:
        raise SolverError(f"HiGHS rejected the model of {problem.name!r}")
    sign = -1.0 if compiled.maximize else 1.0
    constant = compiled.objective_constant
    trajectory: list[TrajectoryPoint] = []

    def improving_solution(_kind, _message, out, _data_in, _user_data):
        incumbent = sign * out.objective_function_value + constant
        trajectory.append(TrajectoryPoint(
            elapsed=out.running_time,
            incumbent=incumbent,
            bound=_extract_bound(
                out.mip_dual_bound, compiled.maximize, constant,
                incumbent, optimal=False,
            ),
            node_count=int(out.mip_node_count),
        ))

    highs.setCallback(improving_solution, None)
    highs.startCallback(_core.cb.HighsCallbackType.kCallbackMipImprovingSolution)
    if start is not None:
        given = [var for var in problem.variables if var.name in start]
        highs.setSolution(
            len(given),
            np.array([var.index for var in given], dtype=np.int32),
            np.array([start[var.name] for var in given], dtype=np.float64),
        )
    highs.run()
    elapsed = time.perf_counter() - started

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    is_mip = bool(compiled.integrality.any())
    if model_status == _Status.kOptimal:
        has_incumbent = True
    elif is_mip and model_status in _LIMIT_STOPS:
        has_incumbent = info.objective_function_value != _core.kHighsInf
    else:
        has_incumbent = False
    status = _solve_status(model_status, has_incumbent, node_limit is not None)
    if not status.has_solution:
        return MilpSolution(
            status=status, solve_time=elapsed, trajectory=trajectory
        )

    x = np.array(highs.getSolution().col_value)
    values = {var.name: float(x[var.index]) for var in problem.variables}
    objective = sign * info.objective_function_value + constant
    dual = info.mip_dual_bound if is_mip else math.nan
    bound = _extract_bound(
        dual, compiled.maximize, constant,
        objective, status is SolveStatus.OPTIMAL,
    )
    return MilpSolution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        solve_time=elapsed,
        node_count=int(info.mip_node_count) if is_mip else 0,
        trajectory=trajectory,
    )


def _solve_status(model_status, has_incumbent: bool, node_limited: bool) -> SolveStatus:
    """Map a HiGHS model status onto a :class:`SolveStatus`.

    A solution-limit stop is how HiGHS reports reaching ``mip_max_nodes``;
    it is an early stop only when ``node_limit`` was set, and an error
    otherwise.
    """
    if model_status == _Status.kInfeasible:
        return SolveStatus.INFEASIBLE
    if model_status == _Status.kUnbounded:
        return SolveStatus.UNBOUNDED
    if model_status == _Status.kSolutionLimit and not node_limited:
        raise SolverError(f"HiGHS returned unexpected status {model_status.name}")
    if not has_incumbent:
        return SolveStatus.NO_SOLUTION
    if model_status == _Status.kOptimal:
        return SolveStatus.OPTIMAL
    return SolveStatus.FEASIBLE


def _extract_bound(
    dual: float, maximize: bool, constant: float, objective: float, optimal: bool
) -> float:
    """Best proven bound in the problem's own sense.

    ``dual`` is HiGHS's dual bound on the minimized objective, which is
    negated when maximizing. Without a finite one, an optimal solve is its
    own bound; any other stop has only the trivial bound, ``+inf`` when
    maximizing and ``-inf`` when minimizing.
    """
    if math.isfinite(dual):
        return (-dual if maximize else dual) + constant
    if optimal:
        return objective
    return math.inf if maximize else -math.inf
