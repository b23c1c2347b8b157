"""Exact rational linear programming: solver and strict feasibility, checked
against the Fourier-Motzkin reference in ``references``."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import exactlp
from desirability.errors import BudgetExceededError, EngineError
from desirability.exactlp import (
    EQ,
    GE,
    GT,
    Feasible,
    Infeasible,
    LinRow,
    LinSystem,
    Optimal,
    Unbounded,
    _eliminate,
    _solve_engine,
    solve,
    strict_feasible,
    verify_farkas,
    verify_point,
    verify_ray,
)
from references import fm_feasible, fm_project

F = Fraction


def sys_of(names, rows, objective=None, sense="max"):
    """A system over one column per name; the names only label the columns."""
    built = tuple(
        LinRow(tuple(F(c) for c in coeffs), rel, F(rhs)) for coeffs, rel, rhs in rows
    )
    obj = None if objective is None else tuple(F(c) for c in objective)
    return LinSystem(len(names), built, obj, sense)


class TestSolve:
    def test_bounded_maximum(self):
        # max x subject to x <= 1, x >= 0
        system = sys_of(["x"], [((-1,), GE, -1), ((1,), GE, 0)], objective=(1,))
        out = solve(system)
        assert isinstance(out, Optimal)
        assert out.value == 1
        assert verify_point(system, out.witness)

    def test_infeasible_with_verified_certificate(self):
        system = sys_of(["x"], [((1,), GE, 1), ((-1,), GE, 0)])
        out = solve(system)
        assert isinstance(out, Infeasible)
        assert verify_farkas(system, out.farkas)

    def test_unbounded_with_verified_ray(self):
        system = sys_of(
            ["x", "y"],
            [((1, -1), EQ, 0), ((1, 0), GE, 0)],
            objective=(1, 1),
        )
        out = solve(system)
        assert isinstance(out, Unbounded)
        assert verify_ray(system, out.ray)

    def test_feasibility_without_objective(self):
        system = sys_of(["x"], [((1,), GE, 2)])
        out = solve(system)
        assert isinstance(out, Feasible)
        assert verify_point(system, out.witness)

    def test_equality_rows_bind(self):
        system = sys_of(
            ["x", "y"], [((1, 1), EQ, 2), ((1, -1), EQ, 0)], objective=(1, 0)
        )
        out = solve(system)
        assert isinstance(out, Optimal)
        assert out.witness == (F(1), F(1))

    def test_minimisation(self):
        system = sys_of(
            ["x"], [((1,), GE, -3), ((-1,), GE, -5)], objective=(1,), sense="min"
        )
        out = solve(system)
        assert isinstance(out, Optimal)
        assert out.value == -3


class TestStrictFeasibility:
    def test_open_halfline_feasible(self):
        system = sys_of(["x"], [((1,), GT, 0), ((-1,), GE, -1)])
        out = strict_feasible(system)
        assert isinstance(out, Feasible)
        assert verify_point(system, out.witness)

    def test_contradictory_strict_row_infeasible(self):
        system = sys_of(["x"], [((1,), GT, 0), ((-1,), GE, 0)])
        assert isinstance(strict_feasible(system), Infeasible)

    def test_strict_methods_agree(self):
        rng = random.Random("strict-methods")
        for i in range(30):
            rows = []
            for _ in range(4):
                coeffs = tuple(rng.randint(-2, 2) for _ in range(3))
                rel = GT if rng.random() < 0.5 else GE
                rows.append((coeffs, rel, 0))
            system = sys_of(["x", "y", "z"], rows)
            first = exactlp._strict_homogeneous(system)
            second = exactlp._strict_slack(system)
            assert isinstance(first, type(second)), "i=%d: methods disagree" % i
            if isinstance(first, Feasible):
                assert verify_point(system, first.witness)
                assert verify_point(system, second.witness)


class TestProjection:
    def test_single_variable_shadow(self):
        # x >= y and y >= 0 project to x >= 0
        base = [((1, -1), GE, 0), ((0, 1), GE, 0)]
        for pin, expected in ((-1, False), (0, True), (2, True)):
            system = sys_of(
                ["x", "y"], base + [((1, 0), EQ, pin)]
            )
            assert fm_feasible(system) == expected

    def test_projection_drops_variable(self):
        system = sys_of(["x", "y"], [((1, -1), GE, 0), ((0, 1), GE, 0)])
        projected = fm_project(system, [1])
        assert projected.n_vars == 1
        assert all(len(row.coeffs) == 1 for row in projected.rows)

    def test_empty_elimination_is_identity(self):
        system = sys_of(["x"], [((1,), GE, 0)])
        assert fm_project(system, []) == system

    def test_variable_budget_guard(self):
        system = sys_of(
            ["x", "y", "z"],
            [((1, 1, 1), GE, 0)],
        )
        with pytest.raises(BudgetExceededError):
            fm_project(system, [1], max_vars=2)

    def test_projection_agrees_with_solver(self):
        rng = random.Random("fm-vs-simplex")
        for i in range(30):
            rows = []
            for _ in range(4):
                coeffs = tuple(rng.randint(-2, 2) for _ in range(3))
                rel = EQ if rng.random() < 0.2 else GE
                rows.append((coeffs, rel, rng.randint(-2, 2)))
            system = sys_of(["x", "y", "z"], rows)
            out = solve(system)
            assert fm_feasible(system) == isinstance(out, Feasible), "i=%d" % i
            if isinstance(out, Feasible):
                assert verify_point(system, out.witness)
            else:
                assert verify_farkas(system, out.farkas)


def random_system(rng, rels, objective=False):
    """A seeded system of 6-8 rows over 4-5 variables with nonzero rhs."""
    n_vars = rng.randint(4, 5)
    rows = []
    for _ in range(rng.randint(6, 8)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n_vars))
        rows.append((coeffs, rng.choice(rels), rng.choice((-3, -2, -1, 1, 2, 3))))
    names = ["x%d" % j for j in range(n_vars)]
    if not objective:
        return sys_of(names, rows)
    obj = tuple(rng.randint(-2, 2) for _ in range(n_vars))
    return sys_of(names, rows, objective=obj, sense=rng.choice(("max", "min")))


def fm_optimum(system):
    """The optimum by projecting onto ``t = objective . x``, independent of solve.

    Returns "infeasible", "unbounded" or the optimal value.
    """
    rows = [LinRow(r.coeffs + (F(0),), r.rel, r.rhs) for r in system.rows]
    rows.append(LinRow(tuple(-c for c in system.objective) + (F(1),), EQ, F(0)))
    extended = LinSystem(system.n_vars + 1, tuple(rows))
    projected = fm_project(extended, range(system.n_vars))
    lower, upper = [], []
    for row in projected.rows:
        (a,) = row.coeffs
        if a == 0:
            if not (0 >= row.rhs if row.rel == GE else row.rhs == 0):
                return "infeasible"
            continue
        bound = row.rhs / a
        if row.rel == EQ:
            lower.append(bound)
            upper.append(bound)
        else:
            (lower if a > 0 else upper).append(bound)
    if lower and upper and max(lower) > min(upper):
        return "infeasible"
    wanted = upper if system.sense == "max" else lower
    if not wanted:
        return "unbounded"
    return min(upper) if system.sense == "max" else max(lower)


class TestLargerDifferential:
    """Seeded 6-8 row, 4-5 variable systems against the Fourier-Motzkin oracle."""

    def test_strict_feasibility_agrees_with_fm(self):
        rng = random.Random("larger-fm-feasibility")
        kinds = set()
        for i in range(60):
            system = random_system(rng, (GE, GE, EQ, GT))
            out = strict_feasible(system)
            assert fm_feasible(system) == isinstance(out, Feasible), "i=%d" % i
            if isinstance(out, Feasible):
                assert verify_point(system, out.witness)
            else:
                assert verify_farkas(system, out.farkas)
            kinds.add(type(out))
        assert kinds == {Feasible, Infeasible}

    def test_optima_agree_with_fm_projection(self):
        rng = random.Random("larger-fm-optima")
        kinds = set()
        for i in range(60):
            system = random_system(rng, (GE, GE, EQ), objective=True)
            out = solve(system)
            expected = fm_optimum(system)
            if isinstance(out, Optimal):
                assert out.value == expected, "i=%d" % i
                assert verify_point(system, out.witness)
                assert out.value == sum(
                    c * x for c, x in zip(system.objective, out.witness)
                )
            elif isinstance(out, Unbounded):
                assert expected == "unbounded", "i=%d" % i
                assert verify_ray(system, out.ray)
            else:
                assert expected == "infeasible", "i=%d" % i
                assert verify_farkas(system, out.farkas)
            kinds.add(type(out))
        assert kinds == {Optimal, Unbounded, Infeasible}


@st.composite
def elimination_cases(draw):
    width = draw(st.integers(2, 6))
    ints = st.integers(-40, 40)
    row = draw(st.lists(ints, min_size=width, max_size=width))
    prow = draw(st.lists(ints, min_size=width, max_size=width))
    pcol = draw(st.integers(0, width - 1))
    prow[pcol] = draw(st.integers(1, 40))
    den = draw(st.integers(1, 60))
    return row, den, prow, pcol


class TestIntegerRows:
    @given(elimination_cases())
    def test_elimination_matches_fraction_update(self, case):
        row, den, prow, pcol = case
        nz = [j for j, v in enumerate(prow) if v]
        out, out_den = _eliminate(row, den, prow, nz, pcol)
        c = F(row[pcol], den)
        expected = [F(v, den) - c * F(p, prow[pcol]) for v, p in zip(row, prow)]
        assert [F(v, out_den) for v in out] == expected
        assert out[pcol] == 0
        assert out_den > 0 and math.gcd(out_den, *out) == 1

    def test_pivot_counts_on_worked_systems(self):
        # max 3x + 5y under x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36 at (2, 6).
        production = sys_of(
            ["x", "y"],
            [((-1, 0), GE, -4), ((0, -2), GE, -12), ((-3, -2), GE, -18),
             ((1, 0), GE, 0), ((0, 1), GE, 0)],
            objective=(3, 5),
        )
        # A 2 x 3 transportation problem; one of its five balance rows is
        # redundant and is dropped at the end of phase 1.
        unit = [tuple(int(k == j) for k in range(6)) for j in range(6)]
        transport = sys_of(
            ["x11", "x12", "x13", "x21", "x22", "x23"],
            [((1, 1, 1, 0, 0, 0), EQ, 20), ((0, 0, 0, 1, 1, 1), EQ, 30),
             ((1, 0, 0, 1, 0, 0), EQ, 10), ((0, 1, 0, 0, 1, 0), EQ, 25),
             ((0, 0, 1, 0, 0, 1), EQ, 15)] + [(u, GE, 0) for u in unit],
            objective=(8, 6, 10, 9, 12, 13),
            sense="min",
        )
        for system, value, most in ((production, 36, 3), (transport, 465, 6)):
            out, simplex = _solve_engine(system)
            assert isinstance(out, Optimal) and out.value == value
            assert simplex.pivots <= most


    def test_ratio_tie_goes_to_the_lower_basis_index(self):
        # Phase 1 enters x first, and both rows allow it at ratio 1.  The
        # tie goes to the row whose basic artificial has the lower column,
        # row 0; then the surplus of row 0 replaces the artificial left at
        # level zero in row 1.  Breaking the tie the other way ends with
        # x and y basic instead.
        system = sys_of(
            ["x", "y"],
            [((1, 1), GE, 1), ((2, 0), GE, 2), ((1, 0), GE, 0), ((0, 1), GE, 0)],
            objective=(1, 1),
            sense="min",
        )
        out, simplex = _solve_engine(system)
        assert out == Optimal(F(1), (F(1), F(0)))
        assert [simplex.cols[b] for b in simplex.basis] == [("xn", 0), ("s", 0)]
        assert simplex.pivots == 2


class TestEngineErrors:
    def test_failed_self_check_raises_engine_error(self, monkeypatch):
        monkeypatch.setattr(exactlp, "verify_point", lambda system, point: False)
        with pytest.raises(EngineError):
            solve(sys_of(["x"], [((1,), GE, 2)]))

    def test_iteration_cap_raises_engine_error(self, monkeypatch):
        # max 3x + 5y under x <= 4, 2y <= 12, 3x + 2y <= 18 takes at least
        # two pivots; a cap of one pricing round stops the first ``_run``
        # that pivots at its second round.
        system = sys_of(
            ["x", "y"],
            [((-1, 0), GE, -4), ((0, -2), GE, -12), ((-3, -2), GE, -18),
             ((1, 0), GE, 0), ((0, 1), GE, 0)],
            objective=(3, 5),
        )
        out, simplex = _solve_engine(system)
        assert out.value == 36 and simplex.pivots >= 2
        monkeypatch.setattr(exactlp, "_MAX_ITERATIONS", 1)
        with pytest.raises(EngineError, match="failed to terminate"):
            solve(system)
