"""Tests for the MILP modeling layer and the HiGHS solver."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.milp import (
    MilpProblem,
    Sense,
    SolveStatus,
    lin_sum,
    solve_with_highs,
)
from repro.milp.model import LinExpr


class TestExpressions:
    def test_variable_arithmetic(self):
        p = MilpProblem()
        x = p.add_var("x")
        y = p.add_var("y")
        expr = 2 * x + 3 * y - 1
        assert expr.terms[x] == 2 and expr.terms[y] == 3
        assert expr.constant == -1

    def test_subtraction_and_negation(self):
        p = MilpProblem()
        x = p.add_var("x")
        expr = 5 - x
        assert expr.terms[x] == -1 and expr.constant == 5
        assert (-x).terms[x] == -1

    def test_lin_sum(self):
        p = MilpProblem()
        xs = [p.add_var(f"x{i}") for i in range(4)]
        expr = lin_sum(x * (i + 1) for i, x in enumerate(xs))
        assert expr.terms[xs[3]] == 4

    def test_evaluate(self):
        p = MilpProblem()
        x = p.add_var("x")
        y = p.add_var("y")
        expr = 2 * x + y + 1
        assert expr.evaluate({"x": 3, "y": 4}) == 11

    def test_constraint_senses(self):
        p = MilpProblem()
        x = p.add_var("x")
        assert (x <= 5).sense is Sense.LE
        assert (x >= 5).sense is Sense.GE
        assert (x == 5).sense is Sense.EQ

    def test_constraint_violation_check(self):
        p = MilpProblem()
        x = p.add_var("x")
        c = p.add_constraint(x <= 5, name="cap")
        assert not c.violated_by({"x": 5.0})
        assert c.violated_by({"x": 5.1})

    def test_duplicate_names_rejected(self):
        p = MilpProblem()
        p.add_var("x")
        with pytest.raises(ValueError, match="duplicate"):
            p.add_var("x")

    def test_invalid_bounds_rejected(self):
        p = MilpProblem()
        with pytest.raises(ValueError, match="lower"):
            p.add_var("x", lower=2, upper=1)

    def test_scale_by_expression_rejected(self):
        p = MilpProblem()
        x = p.add_var("x")
        with pytest.raises(TypeError):
            x * x  # noqa: B018 - the point is the failure

    def test_add_constraint_type_check(self):
        p = MilpProblem()
        with pytest.raises(TypeError, match="Constraint"):
            p.add_constraint(42)  # type: ignore[arg-type]

    def test_check_feasible_names(self):
        p = MilpProblem()
        x = p.add_var("x")
        p.add_constraint(x <= 1, name="first")
        p.add_constraint(x >= 0)
        assert p.check_feasible({"x": 2.0}) == ["first"]


class TestCompile:
    def test_compile_shapes(self):
        p = MilpProblem()
        x = p.add_var("x", 0, 4, integer=True)
        y = p.add_var("y")
        p.add_constraint(x + y <= 6)
        p.add_constraint(x - y == 1)
        p.set_objective(x + 2 * y)
        arrays = p.compile()
        assert list(arrays.indptr) == [0, 2, 4]
        assert list(arrays.indices) == [0, 1, 0, 1]
        assert list(arrays.data) == [1, 1, 1, -1]
        assert list(arrays.integrality) == [1, 0]
        # Maximization compiles to negated costs.
        assert arrays.c[0] == -1 and arrays.c[1] == -2

    def test_equality_bounds(self):
        p = MilpProblem()
        x = p.add_var("x")
        p.add_constraint(x == 3)
        arrays = p.compile()
        assert arrays.constraint_lower[0] == 3 == arrays.constraint_upper[0]


KNAPSACK_ITEMS = [(10, 4), (7, 3), (6, 2), (3, 1)]  # (value, weight)


def knapsack_problem(capacity: int) -> MilpProblem:
    p = MilpProblem("knapsack")
    xs = [p.add_binary(f"x{i}") for i in range(len(KNAPSACK_ITEMS))]
    p.add_constraint(
        lin_sum(w * x for (_, w), x in zip(KNAPSACK_ITEMS, xs)) <= capacity
    )
    p.set_objective(lin_sum(v * x for (v, _), x in zip(KNAPSACK_ITEMS, xs)))
    return p


def brute_force_knapsack(capacity: int) -> float:
    best = 0.0
    n = len(KNAPSACK_ITEMS)
    for mask in range(1 << n):
        value = weight = 0
        for i in range(n):
            if mask >> i & 1:
                value += KNAPSACK_ITEMS[i][0]
                weight += KNAPSACK_ITEMS[i][1]
        if weight <= capacity:
            best = max(best, float(value))
    return best


class TestSolvers:
    @pytest.mark.parametrize("capacity", [0, 1, 3, 5, 7, 10])
    def test_highs_matches_brute_force(self, capacity):
        solution = solve_with_highs(knapsack_problem(capacity))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(brute_force_knapsack(capacity))

    def test_highs_records_trajectory(self):
        solution = solve_with_highs(knapsack_problem(5))
        assert solution.status is SolveStatus.OPTIMAL
        incumbents = [point.incumbent for point in solution.trajectory]
        assert incumbents == sorted(incumbents)  # incumbents only improve
        assert incumbents[-1] == solution.objective

    def test_highs_start_accepted(self):
        # A feasible optimal start holds even when no node is explored.
        warm = {"x0": 1.0, "x1": 0.0, "x2": 0.0, "x3": 1.0}
        solution = solve_with_highs(knapsack_problem(5), node_limit=0, start=warm)
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.objective == pytest.approx(brute_force_knapsack(5))

    def test_highs_discards_infeasible_start(self):
        bad = {"x0": 1.0, "x1": 1.0, "x2": 1.0, "x3": 1.0}
        solution = solve_with_highs(knapsack_problem(5), node_limit=0, start=bad)
        assert solution.status is SolveStatus.NO_SOLUTION
        assert solution.trajectory == []
        solution = solve_with_highs(knapsack_problem(5), start=bad)
        assert solution.objective == pytest.approx(brute_force_knapsack(5))

    def test_highs_minimization(self):
        p = MilpProblem()
        x = p.add_var("x", 0, 10, integer=True)
        p.add_constraint(x >= 3.5)
        p.set_objective(x, maximize=False)
        assert solve_with_highs(p).objective == pytest.approx(4.0)

    def test_infeasible_problem(self):
        p = MilpProblem()
        x = p.add_var("x", 0, 1)
        p.add_constraint(x >= 2)
        p.set_objective(x)
        assert solve_with_highs(p).status is SolveStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        p = MilpProblem()
        f = p.add_var("f", 0, 100)
        d = p.add_binary("d")
        p.add_constraint(f <= 30 * d)
        p.add_constraint(f <= 25)
        p.set_objective(f)
        solution = solve_with_highs(p)
        assert solution.objective == pytest.approx(25.0)
        assert round(solution.values["d"]) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(1, 20), min_size=2, max_size=6),
        weights=st.lists(st.integers(1, 10), min_size=2, max_size=6),
        capacity=st.integers(0, 30),
    )
    def test_backends_agree_on_random_knapsacks(self, values, weights, capacity):
        # HiGHS against brute-force enumeration of every item subset.
        n = min(len(values), len(weights))
        p = MilpProblem()
        xs = [p.add_binary(f"x{i}") for i in range(n)]
        p.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= capacity)
        p.set_objective(lin_sum(v * x for v, x in zip(values, xs)))
        best = max(
            sum(v for v, take in zip(values, mask) if take)
            for mask in itertools.product((0, 1), repeat=n)
            if sum(w for w, take in zip(weights, mask) if take) <= capacity
        )
        assert solve_with_highs(p).objective == pytest.approx(best, abs=1e-6)

    def test_solution_gap_property(self):
        solution = solve_with_highs(knapsack_problem(5))
        assert solution.gap == pytest.approx(0.0, abs=1e-6)
