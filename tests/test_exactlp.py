"""Exact rational linear programming: solver and strict feasibility, checked
against the Fourier-Motzkin reference in ``references``."""

import collections
import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import exactlp
from desirability.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EngineError,
    ExactnessError,
)
from desirability.exactlp import (
    EQ,
    GE,
    GT,
    Feasible,
    Infeasible,
    LinRow,
    LinSystem,
    Optimal,
    _eliminate,
    _Simplex,
    _solve_engine,
    _strict_slack,
    solve,
    strict_feasible,
    unit_rows,
    verify_farkas,
    verify_point,
)
from desirability import Gamble, GeneratorSet, Scope, Variable, desirable, lower_prevision
from references import (
    ArtificialStartSimplex,
    Unbounded,
    fm_feasible,
    fm_project,
    original_multipliers,
    rebuilt_cone_program,
    rebuilt_unit_rows,
    solve_artificial_start,
)

F = Fraction


def sys_of(names, rows):
    """A system over one column per name; the names only label the columns."""
    built = tuple(
        LinRow(tuple(F(c) for c in coeffs), rel, F(rhs)) for coeffs, rel, rhs in rows
    )
    return LinSystem(len(names), built)


class TestSolve:
    def test_bounded_maximum(self):
        # max x subject to x <= 1, x >= 0
        system = sys_of(["x"], [((-1,), GE, -1), ((1,), GE, 0)])
        out = solve(system, (1,))
        assert isinstance(out, Optimal)
        assert out.value == 1
        assert verify_point(system, out.witness)

    def test_infeasible_with_verified_certificate(self):
        system = sys_of(["x"], [((1,), GE, 1), ((-1,), GE, 0)])
        out = solve(system)
        assert isinstance(out, Infeasible)
        assert verify_farkas(system, out.farkas)

    def test_unbounded_objective_is_an_engine_error(self):
        # The package builds bounded programs only, so an unbounded one
        # is an engine fault, not an answer.
        system = sys_of(
            ["x", "y"],
            [((1, -1), EQ, 0), ((1, 0), GE, 0)],
        )
        with pytest.raises(EngineError, match="unbounded program"):
            solve(system, (1, 1))

    def test_feasibility_without_objective(self):
        system = sys_of(["x"], [((1,), GE, 2)])
        out = solve(system)
        assert isinstance(out, Feasible)
        assert verify_point(system, out.witness)

    def test_equality_rows_bind(self):
        system = sys_of(["x", "y"], [((1, 1), EQ, 2), ((1, -1), EQ, 0)])
        out = solve(system, (1, 0))
        assert isinstance(out, Optimal)
        assert out.witness == (F(1), F(1))

    def test_minimisation(self):
        # min x is -max(-x).
        system = sys_of(["x"], [((1,), GE, -3), ((-1,), GE, -5)])
        out = solve(system, (-1,))
        assert isinstance(out, Optimal)
        assert out.value == 3 and out.witness == (F(-3),)


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
    """A seeded system of 6-8 rows over 4-5 variables with nonzero rhs and,
    when ``objective``, an int objective to maximise: the system and the
    objective."""
    n_vars = rng.randint(4, 5)
    rows = []
    for _ in range(rng.randint(6, 8)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n_vars))
        rows.append((coeffs, rng.choice(rels), rng.choice((-3, -2, -1, 1, 2, 3))))
    names = ["x%d" % j for j in range(n_vars)]
    if not objective:
        return sys_of(names, rows)
    obj = tuple(rng.randint(-2, 2) for _ in range(n_vars))
    # A minimum is the maximum of the negated objective.
    sign = rng.choice((1, -1))
    return sys_of(names, rows), tuple(sign * c for c in obj)


def fm_optimum(system, objective):
    """The maximum of ``objective . x`` by projecting onto ``t = objective . x``,
    independent of solve.

    Returns "infeasible", "unbounded" or the optimal value.
    """
    rows = [LinRow(r.coeffs + (F(0),), r.rel, r.rhs) for r in system.rows]
    rows.append(LinRow(tuple(-F(c) for c in objective) + (F(1),), EQ, F(0)))
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
    if not upper:
        return "unbounded"
    return min(upper)


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
            system, objective = random_system(rng, (GE, GE, EQ), objective=True)
            expected = fm_optimum(system, objective)
            if expected == "unbounded":
                with pytest.raises(EngineError, match="unbounded program"):
                    solve(system, objective)
                kinds.add(expected)
                continue
            out = solve(system, objective)
            if isinstance(out, Optimal):
                assert out.value == expected, "i=%d" % i
                assert verify_point(system, out.witness)
                assert out.value == sum(c * x for c, x in zip(objective, out.witness))
            else:
                assert expected == "infeasible", "i=%d" % i
                assert verify_farkas(system, out.farkas)
            kinds.add(type(out))
        assert kinds == {Optimal, "unbounded", Infeasible}


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


def transport_system():
    """A 2 x 3 transportation problem: five balance rows, of which any one
    is the sum of the other three less the fourth, and six sign rows."""
    unit = [tuple(int(k == j) for k in range(6)) for j in range(6)]
    return sys_of(
        ["x11", "x12", "x13", "x21", "x22", "x23"],
        [((1, 1, 1, 0, 0, 0), EQ, 20), ((0, 0, 0, 1, 1, 1), EQ, 30),
         ((1, 0, 0, 1, 0, 0), EQ, 10), ((0, 1, 0, 0, 1, 0), EQ, 25),
         ((0, 0, 1, 0, 0, 1), EQ, 15)] + [(u, GE, 0) for u in unit],
    )


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
        )
        # The transportation problem keeps its redundant balance row as a
        # zero row (``TestRedundantRows``).  Its least cost is the negated
        # maximum of the negated costs.
        for system, objective, value, most in (
            (production, (3, 5), 36, 3),
            (transport_system(), (-8, -6, -10, -9, -12, -13), -465, 6),
        ):
            out, simplex = _solve_engine(system, objective)
            assert isinstance(out, Optimal) and out.value == value
            assert simplex.pivots <= most


    def test_ratio_tie_goes_to_the_lower_basis_index(self):
        # The bounds x >= 0 and y >= 0 come first, so they fold and 2x >= 2
        # stays in the tableau on an artificial, as x + y >= 1 does.  Phase 1
        # enters x first, and both rows allow it at ratio 1.  The tie goes to
        # the row whose basic artificial has the lower column, row 0; then
        # the surplus of row 0 replaces the artificial left at level zero in
        # row 1.  Breaking the tie the other way ends with x and y basic
        # instead.
        system = sys_of(
            ["x", "y"],
            [((1, 0), GE, 0), ((0, 1), GE, 0), ((1, 1), GE, 1), ((2, 0), GE, 2)],
        )
        out, simplex = _solve_engine(system, (-1, -1))
        assert out == Optimal(F(-1), (F(1), F(0)))
        # Columns: x and y folded (0, 1), the surpluses of rows 0 and 1 (2,
        # 3), then the artificials of rows 0 and 1.
        assert simplex.var_cols == [(0, None), (1, None)]
        assert simplex.first_artificial == 4
        assert simplex.unit_col == [4, 5]
        assert simplex.basis == [0, 2]
        assert simplex.pivots == 2

    def test_beale_cycling_lp_ends_under_blands_rule(self):
        # Beale's example (1955): Dantzig's rule cycles on it through
        # degenerate pivots, so the solve ends only after the fallback to
        # Bland's rule at 200 + 10 * rows pivots.  The objective
        # (3/4, -150, 1/50, -6) is scaled by 100 to ints, and so is the value.
        system = sys_of(
            ["x1", "x2", "x3", "x4"],
            [((F(-1, 4), 60, F(1, 25), -9), GE, 0),
             ((F(-1, 2), 90, F(1, 50), -3), GE, 0),
             ((0, 0, -1, 0), GE, -1)]
            + [(unit, GE, 0) for unit in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))],
        )
        out, simplex = _solve_engine(system, (75, -15000, 2, -600))
        assert out == Optimal(F(5), (F(1, 25), F(0), F(1), F(0)))
        assert simplex.pivots > 200 + 10 * len(simplex.T)


def multiplier_system(integer):
    """A system for the multiplier differential, drawn through
    ``integer(lo, hi)``: weak rows with negative right-hand sides and EQ
    rows among them, zero to two bound rows ``c * x_j >= r`` per variable
    with ``c`` in 1..3 and ``r`` in -3..3, the first of which the simplex
    folds, and one strict row that denies a weak row's slack, so the
    strict system is infeasible in one of two ways."""
    n = integer(1, 3)

    def rational(lo, hi):
        return F(integer(lo, hi), integer(1, 3))

    weak = []
    for _ in range(integer(1, 4)):
        coeffs = tuple(rational(-3, 3) for _ in range(n))
        weak.append(LinRow(coeffs, EQ if integer(0, 3) == 0 else GE, rational(-3, 2)))
    for j in range(n):
        for _ in range(integer(0, 2)):
            coeffs = tuple(F(integer(1, 3)) if k == j else F(0) for k in range(n))
            weak.insert(integer(0, len(weak)), LinRow(coeffs, GE, F(integer(-3, 3))))
    denied = weak[integer(0, len(weak) - 1)]
    strict = LinRow(tuple(-c for c in denied.coeffs), GT, -denied.rhs)
    return LinSystem(n, tuple(weak)), LinSystem(n, tuple(weak) + (strict,))


def _phase1_multipliers(system):
    """The phase-1 certificate of ``system`` (None when feasible), the
    reference mapping of the same standardised multipliers, and the rows
    the simplex folded."""
    simplex = _Simplex(system)
    farkas = simplex.phase1(system)
    folded = set(simplex.bound_row_of.values())
    if farkas is None:
        return None, None, folded
    # Each row's multiplier is its starting unit column's phase-1 cost, 1
    # on an artificial and 0 on a surplus, less that column's reduced cost.
    den = simplex.cost_den
    y = [F((den if c >= simplex.first_artificial else 0) - simplex.cost[c], den)
         for c in simplex.unit_col]
    return farkas, original_multipliers(system, simplex, y), folded


def _zero_optimum_multipliers(strict, monkeypatch):
    """The duals ``_strict_slack`` maps at a zero optimum, on ints and by the
    reference, and the simplex that found the optimum; or Nones when the
    slack program is infeasible or its optimum positive."""
    seen = []

    def engine(system, objective=None):
        outcome, simplex = _solve_engine(system, objective)
        seen.append((system, outcome, simplex))
        return outcome, simplex

    monkeypatch.setattr(exactlp, "_solve_engine", engine)
    _strict_slack(strict)
    relaxed, outcome, simplex = seen[-1]
    if not isinstance(outcome, Optimal) or outcome.value > 0:
        return None, None, None
    # Phase 2 costs 0 on every unit column, so each row's dual is minus its
    # unit column's reduced cost.
    y = [F(-simplex.cost[c], simplex.cost_den) for c in simplex.unit_col]
    want = original_multipliers(relaxed, simplex, y)
    return simplex.multipliers(relaxed, 0), want, simplex


def shifted_redundant_system(integer):
    """``redundant_system`` with each bound ``x_j >= 0`` redrawn through
    ``integer(lo, hi)`` as ``c * x_j >= r``, ``c`` in 1..3 and ``r`` in
    -3..3, so the simplex folds bounds with ``r != 0`` next to redundant EQ
    rows.  Returns the weak system and the same rows with a strict row that
    denies one weak row's slack, as in ``multiplier_system``: where the
    weak rows are feasible, the slack program has a zero optimum."""
    weak, _ = redundant_system(integer)
    n = weak.n_vars
    rows = tuple(
        LinRow(tuple(F(integer(1, 3)) if k == j else F(0) for k in range(n)), GE, F(integer(-3, 3)))
        for j in range(n)
    ) + weak.rows[n:]
    denied = rows[integer(0, len(rows) - 1)]
    strict = LinRow(tuple(-c for c in denied.coeffs), GT, -denied.rhs)
    return LinSystem(n, rows), LinSystem(n, rows + (strict,))


class TestMultiplierRecovery:
    """``_Simplex.multipliers`` on ints against its ``Fraction`` reference,
    after both phases."""

    def test_both_paths_on_seeded_systems(self, monkeypatch):
        rng = random.Random("multipliers")
        paths = collections.Counter()
        for _ in range(300):
            weak, strict = multiplier_system(rng.randint)
            got, want, folded = _phase1_multipliers(weak)
            if got is not None:
                assert got == want and verify_farkas(weak, got)
                paths["farkas", any(got[i] for i in folded)] += 1
            got, want, _ = _zero_optimum_multipliers(strict, monkeypatch)
            if got is not None:
                assert got == want
                paths["zero optimum"] += 1
        # Phase-1 certificates with and without weight on a folded bound
        # row, and zero optima, all occur.
        assert paths["farkas", True] >= 50, paths
        assert paths["farkas", False] >= 30, paths
        assert paths["zero optimum"] >= 100, paths

    def test_redundant_rows_and_shifted_bounds_in_both_phases(self, monkeypatch):
        rng = random.Random("multipliers-redundant")
        paths = collections.Counter()
        for _ in range(300):
            weak, strict = shifted_redundant_system(rng.randint)
            got, want, folded = _phase1_multipliers(weak)
            if got is not None:
                assert got == want and verify_farkas(weak, got)
                paths["farkas"] += 1
                paths["farkas", "shifted bound"] += any(
                    got[i] for i in folded if weak.rows[i].nums[-1])
            got, want, simplex = _zero_optimum_multipliers(strict, monkeypatch)
            if got is not None:
                assert got == want
                assert verify_farkas(strict, got[: len(strict.rows)])
                paths["zero optimum"] += 1
                paths["zero optimum", "kept zero row"] += any(
                    b >= simplex.first_artificial for b in simplex.basis)
                paths["zero optimum", "shifted bound"] += any(
                    got[i] for i in simplex.bound_row_of.values()
                    if i < len(strict.rows) and strict.rows[i].nums[-1])
        # Both phases map multipliers onto folded bounds with a nonzero
        # rhs, and zero optima keep redundant EQ rows on their artificials.
        assert paths["farkas"] >= 100 and paths["farkas", "shifted bound"] >= 50, paths
        assert paths["zero optimum"] >= 60, paths
        assert paths["zero optimum", "kept zero row"] >= 60, paths
        assert paths["zero optimum", "shifted bound"] >= 15, paths

    @given(st.data())
    def test_phase1_certificates_hypothesis(self, data):
        weak, _ = multiplier_system(lambda lo, hi: data.draw(st.integers(lo, hi)))
        got, want, _ = _phase1_multipliers(weak)
        assert got == want

    @given(st.data())
    def test_zero_optimum_duals_hypothesis(self, data):
        _, strict = multiplier_system(lambda lo, hi: data.draw(st.integers(lo, hi)))
        with pytest.MonkeyPatch.context() as monkeypatch:
            got, want, _ = _zero_optimum_multipliers(strict, monkeypatch)
        assert got == want


def shifted_lp(integer):
    """The weak rows of ``multiplier_system`` and, in three draws out of
    four, an objective to maximise drawn through ``integer(lo, hi)``, else
    None."""
    weak, _ = multiplier_system(integer)
    if integer(0, 3) == 0:
        return weak, None
    objective = tuple(integer(-2, 2) for _ in range(weak.n_vars))
    # A minimum is the maximum of the negated objective.
    sign = (1, -1)[integer(0, 1)]
    return weak, tuple(sign * c for c in objective)


def _agrees_with_artificial_start(system, objective):
    """Solve ``system`` from the slack basis and from all artificials; the
    outcome kinds and optima must agree and every certificate pass its
    gate, and ``solve`` must raise where the reference finds the objective
    unbounded.  Returns the reference's outcome kind."""
    ref = solve_artificial_start(system, objective)
    if isinstance(ref, Unbounded):
        with pytest.raises(EngineError, match="unbounded program"):
            solve(system, objective)
        return Unbounded
    out = solve(system, objective)
    assert type(out) is type(ref)
    if isinstance(out, Optimal):
        assert out.value == ref.value
        assert verify_point(system, out.witness)
        assert out.value == sum(c * x for c, x in zip(objective, out.witness))
    elif isinstance(out, Feasible):
        assert verify_point(system, out.witness)
    else:
        assert verify_farkas(system, out.farkas)
    return type(out)


class TestSlackStart:
    """``_Simplex`` folds every lower bound and starts rows that the origin
    satisfies on their surplus; ``references.ArtificialStartSimplex``, the
    all-artificial start, is the differential."""

    def test_seeded_systems_agree_with_artificial_start(self, monkeypatch):
        rng = random.Random("slack-start")
        seen = collections.Counter()
        pivot = _Simplex._pivot

        def checked(simplex, prow, pcol):
            # ``_pivot`` does not normalise its pivot row: every tableau row
            # must read its denominator at its basic column and be in lowest
            # terms, so its gcd is 1.
            for line, b, den in zip(simplex.T, simplex.basis, simplex.den):
                assert line[b] == den and math.gcd(*line) == 1
            seen["pivots"] += 1
            pivot(simplex, prow, pcol)

        monkeypatch.setattr(_Simplex, "_pivot", checked)
        for _ in range(300):
            system, objective = shifted_lp(rng.randint)
            seen[_agrees_with_artificial_start(system, objective)] += 1
            simplex = _Simplex(system)
            bounds = collections.Counter(
                _Simplex._simple_bound(row) for row in system.rows
            )
            seen["shifted"] += bool(simplex.shift)
            seen["surplus start"] += any(
                c < simplex.first_artificial for c in simplex.unit_col
            )
            seen["two bounds"] += any(k is not None and v > 1 for k, v in bounds.items())
        assert {Optimal, Feasible, Infeasible, Unbounded} <= set(seen), seen
        assert seen["shifted"] >= 200, seen
        assert seen["surplus start"] >= 150, seen
        assert seen["two bounds"] >= 100, seen
        assert seen["pivots"] >= 300, seen

    @given(st.data())
    def test_artificial_start_hypothesis(self, data):
        _agrees_with_artificial_start(*shifted_lp(lambda lo, hi: data.draw(st.integers(lo, hi))))

    def test_shift_moves_the_rhs_and_the_point(self):
        # x >= 2 and 3y >= -3 fold to x = 2 + x', y = -1 + y'; the row
        # x + y >= 0 becomes x' + y' >= -1 and starts on its surplus, so
        # phase 1 has nothing to do.
        system = sys_of(
            ["x", "y"],
            [((1, 0), GE, 2), ((0, 3), GE, -3), ((1, 1), GE, 0)],
        )
        out, simplex = _solve_engine(system, (-1, -1))
        assert simplex.shift == {0: F(2), 1: F(-1)}
        # The row x' + y' >= -1, negated: -x' - y' + s = 1 on its surplus.
        assert (simplex.T[0], simplex.den[0]) == ([-1, -1, 1, 1], 1)
        # Columns: x' and y' (0, 1), then the surplus of the row (2), and
        # no artificial.
        assert simplex.var_cols == [(0, None), (1, None)]
        assert simplex.unit_col == [2]
        assert simplex.first_artificial == simplex.ncols == 3
        assert out == Optimal(F(-1), (F(2), F(-1)))
        assert simplex.pivots == 0

    def test_consistency_lp_of_three_generators_has_three_rows(self, monkeypatch):
        # The unit rows p_w >= 1 of the homogenised strict program fold, so
        # only the three generator rows reach the tableau.  A pin: lower it
        # if the tableau shrinks, never raise it.
        scope = Scope.of([Variable("X", ("a", "b", "c"))])
        cone = GeneratorSet.of(scope, [
            Gamble.on(scope, [1, -1, 0]),
            Gamble.on(scope, [0, 1, -1]),
            Gamble.on(scope, [2, 1, -2]),
        ])
        seen = []
        engine = exactlp._solve_engine

        def captured(system, objective=None):
            outcome, simplex = engine(system, objective)
            seen.append(simplex)
            return outcome, simplex

        monkeypatch.setattr(exactlp, "_solve_engine", captured)
        desirable.avoids_nonpositivity.cache_clear()
        assert desirable.avoids_nonpositivity(cone).avoids
        (simplex,) = seen
        assert len(simplex.T) == 3

    def test_generator_price_takes_at_most_one_phase1_pivot(self, monkeypatch):
        # Priced from the sure price min(f), the cone rows all hold at the
        # origin except the degenerate argmin row.  A pin: lower it if phase
        # 1 gets cheaper, never raise it.
        scope = Scope.of([Variable("X", ("a", "b", "c", "d"))])
        cone = GeneratorSet.of(scope, [
            Gamble.on(scope, [1, -1, 0, 0]),
            Gamble.on(scope, [0, 2, -1, 1]),
            Gamble.on(scope, [-1, 0, 3, 1]),
        ])
        desirable.avoids_nonpositivity(cone)
        phase1 = _Simplex.phase1
        pivots = []

        def counted(simplex, system):
            farkas = phase1(simplex, system)
            pivots.append(simplex.pivots)
            return farkas

        monkeypatch.setattr(_Simplex, "phase1", counted)
        for values in ([3, -2, 1, 0], [0, 5, -1, 2], [-4, -1, -3, 2]):
            f = Gamble.on(scope, values)
            pivots.clear()
            lower_prevision(cone, f)
            assert len(pivots) == 1 and pivots[0] <= 1, (values, pivots)


def redundant_system(integer):
    """Weak rows drawn through ``integer(lo, hi)`` over 2 to 4 variables,
    each bounded by ``x_j >= 0`` first: one to three EQ rows through a
    point of {0, 1, 2}^n, one or two EQ rows that repeat one of them (times
    1, 2 or -1) or sum two, with the rhs off by one in one draw out of
    four, and up to two ``>=`` rows through the point with a rhs of zero or
    more.  The engine and ``references.ArtificialStartSimplex`` fold the
    same bounds and start every tableau row on an artificial, so they pivot
    alike.  Returns the system and its EQ rows."""
    n = integer(2, 4)
    point = [integer(0, 2) for _ in range(n)]
    base = []
    for _ in range(integer(1, 3)):
        coeffs = [integer(-3, 3) for _ in range(n)]
        base.append((coeffs, sum(c * p for c, p in zip(coeffs, point))))
    eqs = list(base)
    for _ in range(integer(1, 2)):
        a, b = (base[integer(0, len(base) - 1)] for _ in range(2))
        if integer(0, 1):
            m = (1, 2, -1)[integer(0, 2)]
            coeffs, rhs = [m * c for c in a[0]], m * a[1]
        else:
            coeffs, rhs = [c + d for c, d in zip(a[0], b[0])], a[1] + b[1]
        eqs.insert(integer(0, len(eqs)), (coeffs, rhs + (integer(0, 3) == 0)))
    rows = [(tuple(int(k == j) for k in range(n)), GE, 0) for j in range(n)]
    rows += [(coeffs, EQ, rhs) for coeffs, rhs in eqs]
    for _ in range(integer(0, 2)):
        coeffs = [integer(-2, 2) for _ in range(n)]
        at = sum(c * p for c, p in zip(coeffs, point))
        if at < 0:
            coeffs, at = [-c for c in coeffs], -at
        rows.append((coeffs, GE, integer(0, at)))
    system = sys_of(range(n), rows)
    return system, [row for row in system.rows if row.rel == EQ]


class TestRedundantRows:
    """A row that phase 1 finds redundant stays in the tableau on its
    artificial at level zero, zero on every column that may enter, and
    takes multiplier 0.  ``references.ArtificialStartSimplex`` drops such a
    row from a live-row mask instead; from the same start, the two must
    pivot and answer alike."""

    def test_transport_keeps_its_redundant_row_at_level_zero(self):
        # The last balance row is the redundant one.  A pin: phase 1 takes
        # 5 pivots and phase 2 one more.
        system = transport_system()
        out, simplex = _solve_engine(system, (-8, -6, -10, -9, -12, -13))
        assert out.value == -465
        first = simplex.first_artificial
        assert [b >= first for b in simplex.basis] == [False] * 4 + [True]
        assert simplex.basis[4] == simplex.unit_col[4]
        line = simplex.T[4]
        assert line[-1] == 0 and not any(line[:first])
        assert simplex.multipliers(system, 0)[simplex.row_orig[4]] == 0
        assert system._phase1[0].pivots == 5
        assert simplex.pivots == 6

    def test_seeded_systems_pivot_and_answer_like_the_reference(self):
        rng = random.Random("redundant-rows")
        seen = collections.Counter()
        for _ in range(300):
            system, _ = redundant_system(rng.randint)
            objective = tuple(rng.randint(-2, 2) for _ in range(system.n_vars))
            ref = ArtificialStartSimplex(system)
            farkas = ref.phase1()
            if farkas is None and ref.phase2(tuple(-c for c in objective)) is not None:
                with pytest.raises(EngineError, match="unbounded program"):
                    solve(system, objective)
                seen[Unbounded] += 1
                continue
            out, simplex = _solve_engine(system, objective)
            assert simplex.pivots == ref.pivots
            if farkas is not None:
                assert out == Infeasible(farkas)
                seen[Infeasible] += 1
                continue
            assert out.witness == ref.point()
            assert out.value == sum(c * x for c, x in zip(objective, out.witness))
            first = simplex.first_artificial
            kept = [b >= first for b in simplex.basis]
            assert kept == [not live for live in ref.live]
            for line, zero_row in zip(simplex.T, kept):
                if zero_row:
                    assert line[-1] == 0 and not any(line[:first])
            seen[Optimal] += 1
            seen["kept zero row"] += any(kept)
        assert seen[Infeasible] >= 50 and seen[Unbounded] >= 20, seen
        assert seen["kept zero row"] >= 100, seen

    def test_zero_optimum_duals_give_kept_rows_nothing(self, monkeypatch):
        # One EQ row, redundant or not, made strict: the strict system has
        # boundary points only, so where its weak rows are feasible the
        # slack program of ``_strict_slack`` has optimum zero, as the
        # reference finds too, and its duals give the certificate.  They
        # must be 0 on the kept zero rows, and map back to the original
        # rows as ``references.original_multipliers`` maps them.
        seen = []
        engine = exactlp._solve_engine

        def captured(system, objective=None):
            outcome, simplex = engine(system, objective)
            seen.append((system, outcome, simplex))
            return outcome, simplex

        monkeypatch.setattr(exactlp, "_solve_engine", captured)
        rng = random.Random("redundant-rows-strict")
        counts = collections.Counter()
        for _ in range(300):
            weak, eqs = redundant_system(rng.randint)
            row = eqs[rng.randint(0, len(eqs) - 1)]
            strict = LinSystem(weak.n_vars, weak.rows + (
                LinRow._from_ints(row.nums, GT, row.den),))
            if not any(r.nums[-1] for r in strict.rows):
                continue
            seen.clear()
            out = strict_feasible(strict)
            assert isinstance(out, Infeasible) and verify_farkas(strict, out.farkas)
            relaxed, outcome, simplex = seen[-1]
            if not isinstance(outcome, Optimal):
                continue
            ref = ArtificialStartSimplex(relaxed)
            assert ref.phase1() is None
            assert ref.phase2((0,) * weak.n_vars + (-1,)) is None
            assert outcome.value == ref.point()[-1] == 0
            lam = simplex.multipliers(relaxed, 0)
            kept = [b >= simplex.first_artificial for b in simplex.basis]
            assert not any(lam[i] for i, zero_row in zip(simplex.row_orig, kept) if zero_row)
            ys = [F(-simplex.cost[c], simplex.cost_den) for c in simplex.unit_col]
            assert lam == original_multipliers(relaxed, simplex, ys)
            assert out.farkas == lam[: len(strict.rows)]
            counts["zero optimum"] += 1
            counts["kept zero row"] += any(kept)
        assert counts["zero optimum"] >= 100, counts
        assert counts["kept zero row"] >= 100, counts


class TestPhase1PerSystem:
    """A system runs phase 1 once and keeps its tableau; each objective
    copies it and runs phase 2."""

    def test_one_cone_program_under_three_objectives(self, monkeypatch):
        scope = Scope.of([Variable("X", ("a", "b", "c"))])
        cone = GeneratorSet.of(scope, [
            Gamble.on(scope, [1, -1, 0]),
            Gamble.on(scope, [0, 2, -1]),
            Gamble.on(scope, [-1, 0, 3]),
        ])
        desirable.avoids_nonpositivity(cone)
        f = Gamble.on(scope, [2, -1, 1])
        program = rebuilt_cone_program(cone, f, Gamble.constant(scope, -1))
        # The shift, the shift less the first weight, and minus the total
        # weight: each bounded above behind the coherence gate.
        objectives = [(1, 0, 0, 0), (1, -1, 0, 0), (0, -1, -1, -1)]
        counts = collections.Counter()
        for name in ("phase1", "phase2"):
            phase = getattr(_Simplex, name)

            def counted(simplex, *args, _phase=phase, _name=name):
                counts[_name] += 1
                return _phase(simplex, *args)

            monkeypatch.setattr(_Simplex, name, counted)
        kept = [solve(program, objective) for objective in objectives]
        assert counts == {"phase1": 1, "phase2": 3}
        fresh = [
            solve(LinSystem(program.n_vars, program.rows), objective)
            for objective in objectives
        ]
        assert counts == {"phase1": 4, "phase2": 6}
        assert all(isinstance(out, Optimal) for out in kept)
        assert [out.value for out in kept] == [out.value for out in fresh]
        assert len({out.value for out in kept}) == 3

    def test_a_solved_system_is_freed_without_the_cycle_collector(self):
        # The tableau a system keeps holds no reference back to it, so
        # reference counting alone frees a solved system.
        cases = [
            (sys_of(["x"], [((1,), GE, 2)]), None, Feasible),
            (sys_of(["x"], [((1,), GE, 1), ((-1,), GE, 0)]), None, Infeasible),
            (sys_of(["x", "y"], [((-1, -1), GE, -1), ((1, 0), GE, 0), ((0, 1), GE, 0)]),
             (1, 2), Optimal),
        ]
        gc.disable()
        try:
            while cases:
                system, objective, kind = cases.pop()
                assert isinstance(solve(system, objective), kind)
                assert "_phase1" in vars(system)
                ref = weakref.ref(system)
                del system
                assert ref() is None, kind
        finally:
            gc.enable()


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
        )
        out, simplex = _solve_engine(system, (3, 5))
        assert out.value == 36 and simplex.pivots >= 2
        monkeypatch.setattr(exactlp, "_MAX_ITERATIONS", 1)
        with pytest.raises(EngineError, match="failed to terminate"):
            solve(system, (3, 5))


class TestRowChecks:
    def test_a_row_checks_its_own_coefficients_and_a_system_their_count(self):
        with pytest.raises(ExactnessError, match="row coefficients"):
            LinRow((F(1), 1), GE, F(0))
        with pytest.raises(ExactnessError, match="row rhs"):
            LinRow((F(1),), GE, 0)
        row = LinRow((F(1), F(0)), GE, F(0))
        with pytest.raises(DimensionMismatchError, match="row 1 has 2 coefficients, expected 3"):
            LinSystem(3, (LinRow((F(0),) * 3, GE, F(0)), row))

    def test_the_objective_keeps_its_full_check(self):
        # ``solve`` checks the objective it is given: one int per variable.
        system = LinSystem(1, (LinRow((F(1),), GE, F(0)),))
        with pytest.raises(DimensionMismatchError, match="objective has 2 coefficients, expected 1"):
            solve(system, (1, 0))
        with pytest.raises(DimensionMismatchError, match="objective has 0"):
            solve(system, ())
        for bad in (F(1), 1.0, F(1, 2), True):
            with pytest.raises(ExactnessError, match="objective must hold ints"):
                solve(system, (bad,))
        assert solve(system, (-1,)) == Optimal(F(0), (F(0),))

    @pytest.mark.parametrize("width, rel, start", [(3, GE, 0), (4, GE, 1), (2, GT, 0)])
    def test_unit_rows_are_the_sign_rows_from_start_on(self, width, rel, start):
        assert list(unit_rows(width, rel)[start:]) == rebuilt_unit_rows(width, rel, start)
