"""A minimal MILP modeling layer.

Supports exactly what the Helix placement formulation needs: bounded
continuous/integer/binary variables, linear expressions with operator
overloading, ``<=``/``>=``/``==`` constraints, and one linear objective.
Problems compile to the numpy arrays HiGHS consumes, with the constraint
matrix in compressed sparse row (CSR) form.

Each constraint caches its sparse row once; every
:meth:`MilpProblem.compile` stacks the cached rows into fresh CSR arrays
and re-gathers the objective and variable bounds. Appending or
truncating constraints therefore only builds the new rows, and bound
tightening never rebuilds a row; the planner's root probe and its one
follow-up solve share every row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

Number = Union[int, float]


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Variable:
    """A decision variable. Create via :meth:`MilpProblem.add_var`."""

    __slots__ = ("name", "lower", "upper", "is_integer", "index")

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        is_integer: bool,
        index: int,
    ) -> None:
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.is_integer = is_integer
        self.index = index

    # Arithmetic lifts a Variable into a LinExpr.
    def _expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other):
        return self._expr() + other

    def __radd__(self, other):
        return self._expr() + other

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1.0) * self._expr() + other

    def __mul__(self, coefficient: Number):
        return self._expr() * coefficient

    def __rmul__(self, coefficient: Number):
        return self._expr() * coefficient

    def __neg__(self):
        return self._expr() * -1.0

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self._expr() == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        kind = "int" if self.is_integer else "cont"
        return f"Variable({self.name!r}, [{self.lower}, {self.upper}], {kind})"


class LinExpr:
    """An affine expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant", "_arrays")

    def __init__(
        self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0
    ) -> None:
        self.terms: dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)
        self._arrays: tuple | None = None

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise TypeError(f"cannot use {type(value).__name__} in a linear expression")

    def __add__(self, other) -> "LinExpr":
        other = self._coerce(other)
        result = self.copy()
        for var, coef in other.terms.items():
            result.terms[var] = result.terms.get(var, 0.0) + coef
        result.constant += other.constant
        return result

    def __radd__(self, other) -> "LinExpr":
        return self + other

    def __sub__(self, other) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, coefficient: Number) -> "LinExpr":
        if not isinstance(coefficient, (int, float)):
            raise TypeError("expressions can only be scaled by numbers")
        return LinExpr(
            {var: coef * coefficient for var, coef in self.terms.items()},
            self.constant * coefficient,
        )

    def __rmul__(self, coefficient: Number) -> "LinExpr":
        return self * coefficient

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, Sense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, Sense.GE)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - other, Sense.EQ)

    def __hash__(self) -> int:
        return id(self)

    def term_arrays(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Cached ``(names, variable indices, coefficients)`` arrays.

        The cache keys on the term count, which catches every mutation the
        expression API can produce (operators always build fresh objects;
        only in-place ``terms`` edits of an already-compiled expression
        could go stale, and nothing in the codebase does that).
        """
        cached = self._arrays
        if cached is not None and cached[0] == len(self.terms):
            return cached[1], cached[2], cached[3]
        count = len(self.terms)
        names = tuple(var.name for var in self.terms)
        indices = np.fromiter(
            (var.index for var in self.terms), dtype=np.int64, count=count
        )
        coefs = np.fromiter(self.terms.values(), dtype=np.float64, count=count)
        self._arrays = (count, names, indices, coefs)
        return names, indices, coefs

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate under a ``{variable name: value}`` assignment."""
        names, _, coefs = self.term_arrays()
        if len(names) < 16:  # small expressions: the plain loop is faster
            total = self.constant
            for name, coef in zip(names, coefs):
                total += coef * values[name]
            return float(total)
        vals = np.fromiter(
            (values[name] for name in names), dtype=np.float64, count=len(names)
        )
        return float(self.constant + coefs @ vals)

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


def lin_sum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/numbers into one LinExpr (like ``sum``)."""
    total = LinExpr()
    for item in items:
        total = total + item
    return total


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalized form."""

    expr: LinExpr
    sense: Sense
    name: str = ""
    _row: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def violated_by(self, values: Mapping[str, float], tol: float = 1e-6) -> bool:
        """Whether an assignment violates the constraint beyond ``tol``."""
        lhs = self.expr.evaluate(values)
        if self.sense is Sense.LE:
            return lhs > tol
        if self.sense is Sense.GE:
            return lhs < -tol
        return abs(lhs) > tol

    def row(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Cached sparse row ``(columns, coefficients, lower, upper)``.

        Zero coefficients are dropped; the two-sided row bounds encode the
        sense (``lower <= row @ x <= upper``).
        """
        if self._row is None:
            _, indices, coefs = self.expr.term_arrays()
            nonzero = coefs != 0.0
            if not nonzero.all():
                indices, coefs = indices[nonzero], coefs[nonzero]
            rhs = -self.expr.constant
            if self.sense is Sense.LE:
                lower, upper = -np.inf, rhs
            elif self.sense is Sense.GE:
                lower, upper = rhs, np.inf
            else:
                lower = upper = rhs
            self._row = (indices, coefs, lower, upper)
        return self._row


@dataclass
class CompiledArrays:
    """Sparse form: minimize ``c @ x`` s.t. ``cl <= A @ x <= cu``, bounds.

    ``A`` is stored as CSR arrays: row ``i`` holds ``data[k]`` in column
    ``indices[k]`` for ``k`` in ``indptr[i]:indptr[i + 1]``. Every array is
    built fresh by each compile and is safe to mutate.
    """

    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    constraint_lower: np.ndarray
    constraint_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximize: bool
    objective_constant: float


class MilpProblem:
    """A MILP: variables, constraints, and a single linear objective."""

    def __init__(self, name: str = "milp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.maximize: bool = True
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
    ) -> Variable:
        """Create and register a variable; names must be unique."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(name, lower, upper, integer, index=len(self.variables))
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Variable:
        """Create a 0/1 variable."""
        return self.add_var(name, 0.0, 1.0, integer=True)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparison."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (use <=, >=, == on "
                f"expressions), got {type(constraint).__name__}"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr, maximize: bool = True) -> None:
        """Set the linear objective."""
        self.objective = LinExpr._coerce(expr)
        self.maximize = maximize

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def invalidate(self) -> None:
        """Drop every constraint's cached row, so the next compile rebuilds
        each row from its expression."""
        for constraint in self.constraints:
            constraint._row = None

    def _assemble_rows(self) -> tuple[np.ndarray, ...]:
        """Stack the constraints' cached rows into CSR arrays
        ``(indptr, indices, data, lower, upper)``."""
        m = len(self.constraints)
        rows = [c.row() for c in self.constraints]
        lengths = np.fromiter((len(r[0]) for r in rows), dtype=np.int64, count=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if m:
            indices = np.concatenate([r[0] for r in rows])
            data = np.concatenate([r[1] for r in rows])
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        lower = np.fromiter((r[2] for r in rows), dtype=np.float64, count=m)
        upper = np.fromiter((r[3] for r in rows), dtype=np.float64, count=m)
        return indptr, indices, data, lower, upper

    def compile(self) -> CompiledArrays:
        """Compile to the arrays HiGHS consumes.

        The constraint matrix is stacked from the constraints' cached rows;
        the objective, variable bounds and integrality are gathered fresh,
        so bound mutations are always honored.
        """
        indptr, indices, data, constraint_lower, constraint_upper = (
            self._assemble_rows()
        )
        n = self.num_variables
        c = np.zeros(n)
        _, obj_indices, obj_coefs = self.objective.term_arrays()
        np.add.at(c, obj_indices, obj_coefs)
        if self.maximize:
            c = -c
        lower = np.fromiter((v.lower for v in self.variables), np.float64, count=n)
        upper = np.fromiter((v.upper for v in self.variables), np.float64, count=n)
        integrality = np.fromiter(
            (1 if v.is_integer else 0 for v in self.variables), np.int64, count=n
        )
        return CompiledArrays(
            c=c,
            indptr=indptr,
            indices=indices,
            data=data,
            constraint_lower=constraint_lower,
            constraint_upper=constraint_upper,
            lower=lower,
            upper=upper,
            integrality=integrality,
            maximize=self.maximize,
            objective_constant=self.objective.constant,
        )

    def check_feasible(self, values: Mapping[str, float], tol: float = 1e-5) -> list[str]:
        """Names/indices of constraints an assignment violates.

        Vectorized: one CSR mat-vec over the stacked constraint rows
        instead of a Python loop per constraint. Assignments that do not cover
        every variable fall back to the per-constraint reference path.
        """
        if not self.constraints:
            return []
        try:
            x = np.fromiter(
                (values[v.name] for v in self.variables),
                np.float64,
                count=self.num_variables,
            )
        except KeyError:
            return [
                constraint.name or f"constraint[{i}]"
                for i, constraint in enumerate(self.constraints)
                if constraint.violated_by(values, tol)
            ]
        indptr, indices, data, lower, upper = self._assemble_rows()
        rows = np.repeat(np.arange(len(lower)), np.diff(indptr))
        activity = np.bincount(rows, data * x[indices], minlength=len(lower))
        bad = np.nonzero((activity > upper + tol) | (activity < lower - tol))[0]
        return [
            self.constraints[i].name or f"constraint[{i}]" for i in bad
        ]
