"""Prices: lower/upper previsions, credal vertices, strong products."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    Assignment,
    BudgetExceededError,
    CellSet,
    CredalSet,
    DimensionMismatchError,
    Gamble,
    GeneratorSet,
    IncoherentBaseError,
    IrrExt,
    LexSystem,
    Scope,
    Tri,
    UnsupportedQueryError,
    Variable,
    conditional_lower_prevision,
    credal_vertices,
    credal_view,
    gbr_residual,
    independent_product,
    inex_lower_prevision,
    lower_prevision,
    member,
    strictly_desirable,
    strong_product_lower,
    upper_prevision,
)
from desirability import desirable, exactlp, previsions
from desirability.desirable import Cell, CellRow, StrongProduct
from desirability.independence import irrelevant_extension
from desirability.maximal import lex_is_coherent
from desirability.space import disjoint_union
from desirability.structure import condition, sample_gambles
from desirability.previsions import strong_member
from desirability.exactlp import EQ, GE, GT
from randgen import (
    random_credal,
    random_gamble,
    random_generator_set,
    random_mass,
)
from references import inex_lower_prevision_primal, lower_expectation

F = Fraction
V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)

LEAN1 = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1])])


class TestLowerPrevision:
    def test_flat_price_of_a_bet_against_the_lean(self):
        assert lower_prevision(LEAN1, Gamble.on(S1, [0, 2])) == 0

    def test_constants_price_at_themselves(self):
        assert lower_prevision(LEAN1, Gamble.constant(S1, F(3, 7))) == F(3, 7)
        assert upper_prevision(LEAN1, Gamble.constant(S1, -2)) == -2

    def test_vacuous_assessment_prices_at_the_minimum(self):
        vacuous = GeneratorSet.of(S1, [])
        assert lower_prevision(vacuous, Gamble.on(S1, [4, -1])) == -1

    def test_conjugacy(self):
        rng = random.Random("conjugacy")
        for i in range(8):
            gens = random_generator_set(rng, S12, count=2)
            f = random_gamble(rng, S12)
            assert upper_prevision(gens, f) == -lower_prevision(gens, -f)

    def test_inconsistent_base_refuses(self):
        bad = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [-1, 1])])
        with pytest.raises(IncoherentBaseError):
            lower_prevision(bad, Gamble.on(S1, [1, 0]))

    def test_cell_accepting_every_shift_is_flagged(self):
        everything = CellSet(
            S1,
            (Cell((CellRow(Gamble.zero(S1), GE),)),),
            include_positive=True,
        )
        with pytest.raises(IncoherentBaseError):
            lower_prevision(everything, Gamble.on(S1, [1, 0]))

    def test_hand_built_composite_nodes_do_not_price(self):
        # Pricing reads normal forms only: the smart constructor folds this
        # node into a generator cone, a hand-built one is refused.
        lean2 = GeneratorSet.of(S2, [Gamble.on(S2, [1, -1])])
        f = Gamble.on(S12, [2, 0, 1, -1])
        with pytest.raises(UnsupportedQueryError):
            lower_prevision(IrrExt(base=lean2, irrelevant=S1, target=S12), f)
        folded = irrelevant_extension(lean2, S1, S12)
        assert isinstance(folded, GeneratorSet)
        assert lower_prevision(folded, f) == 0


class TestConditionalPrices:
    def test_no_observation_is_the_plain_price(self):
        f = Gamble.on(S1, [2, -1])
        assert (
            conditional_lower_prevision(LEAN1, Assignment.empty(), f)
            == lower_prevision(LEAN1, f)
        )

    def test_balance_residual_vanishes(self):
        expr = GeneratorSet.of(S12, [Gamble.on(S12, [2, -1, 0, 0])])
        given = Assignment.of({V1: "a"})
        for values in ([1, 0], [3, -2], [-1, -1]):
            assert gbr_residual(expr, given, Gamble.on(S2, values)) == 0

    def test_vacuous_residual_vanishes(self):
        vacuous = GeneratorSet.of(S12, [])
        given = Assignment.of({V1: "b"})
        assert gbr_residual(vacuous, given, Gamble.on(S2, [5, -3])) == 0

    def test_precise_model_factorises(self):
        # uniform joint mass: conditional price of any bet on X2 given X1=a
        # is its uniform expectation, and the balance residual is zero
        uniform = strictly_desirable(
            CredalSet.of(S12, [("1/4", "1/4", "1/4", "1/4")])
        )
        given = Assignment.of({V1: "a"})
        g = Gamble.on(S2, [1, 0])
        assert conditional_lower_prevision(uniform, given, g) == F(1, 2)
        assert gbr_residual(uniform, given, g) == 0


# ---------------------------------------------------------------------------
# closed-form prices of cell and lexicographic models against a membership
# breakpoint oracle
# ---------------------------------------------------------------------------
#
# Membership of value + mu*direction can change only where some functional
# of the model (a cell row, an outcome, a lex level) vanishes, so it is
# constant on each open interval between consecutive roots and beyond the
# last.  Querying membership at every root, between roots and one unit past
# each end therefore reads the supremum off the model's own member test.

_UNBOUNDED = "unbounded"


def _breakpoint_sup(functionals, accepts, value, direction):
    roots = set()
    for e in functionals:
        a = sum(x * y for x, y in zip(e, direction.values))
        if a != 0:
            roots.add(-sum(x * y for x, y in zip(e, value.values)) / a)
    roots = sorted(roots) or [F(0)]
    probes = [(roots[0] - 1, roots[0])]
    for lo, hi in zip(roots, roots[1:]):
        probes += [(lo, lo), ((lo + hi) / 2, hi)]
    probes += [(roots[-1], roots[-1]), (roots[-1] + 1, _UNBOUNDED)]

    def shifted(mu):
        pairs = zip(value.values, direction.values)
        return Gamble(value.scope, tuple(v + mu * d for v, d in pairs))

    ends = [end for mu, end in probes if accepts(shifted(mu))]
    return ends[-1] if ends else None


def _random_direction(rng, scope):
    """A nonzero nonpositive gamble, nonconstant where the scope allows."""
    if scope.size == 1 or rng.random() < 0.2:
        return Gamble.constant(scope, -1)
    while True:
        values = [-rng.randint(0, 2) for _ in range(scope.size)]
        if any(values) and len(set(values)) > 1:
            return Gamble.on(scope, values)


def _random_rational_gamble(rng, scope, bound):
    den = rng.choice([1, 1, 2, 3])
    return Gamble.on(
        scope, [F(rng.randint(-bound, bound), den) for _ in range(scope.size)]
    )


def _price_case(rng, lex):
    """A random model on 1-4 outcomes, a value and a pricing direction."""
    scope = Scope.of([Variable("Y", tuple("abcd"[: rng.randint(1, 4)]))])
    direction = _random_direction(rng, scope)
    if rng.random() < 0.25:
        # The shifted gamble vanishes at one shift, which cells may carve out.
        c = F(rng.randint(-3, 3), 2)
        value = Gamble.on(scope, [c * d for d in direction.values])
    else:
        value = _random_rational_gamble(rng, scope, 3)
    if lex:
        levels = []
        for _ in range(rng.randint(1, 4)):
            weights = [rng.randint(0, 3) for _ in range(scope.size)]
            if not any(weights):
                weights[rng.randrange(scope.size)] = 1
            levels.append([F(w, sum(weights)) for w in weights])
        return LexSystem.on(scope, levels), value, direction
    cells = []
    for _ in range(rng.randint(1, 3)):
        rows = tuple(
            CellRow(_random_rational_gamble(rng, scope, 2), rng.choice([GE, GT, EQ]))
            for _ in range(rng.randint(0, 3))
        )
        cells.append(Cell(rows, exclude_zero=rng.random() < 0.5))
    model = CellSet(scope, tuple(cells), include_positive=rng.random() < 0.5)
    return model, value, direction


class TestPricesAgainstBreakpointOracle:
    @pytest.mark.parametrize("lex", [False, True], ids=["cells", "lex"])
    def test_seeded_models(self, lex):
        rng = random.Random(2024 + lex)
        seen = collections.Counter()
        for _ in range(2000):
            model, value, direction = _price_case(rng, lex)
            if lex and not lex_is_coherent(model):
                # The gate comes before any price is read.
                with pytest.raises(IncoherentBaseError, match="incoherent lex system"):
                    previsions._set_sup(model, value, direction)
                seen["incoherent"] += 1
                continue
            if lex:
                functionals = model.levels
                accepts = lambda f: member(model, f) is Tri.IN  # noqa: E731
            else:
                size = model.scope.size
                units = [[int(i == w) for i in range(size)] for w in range(size)]
                rows = [r.functional.values for c in model.cells for r in c.rows]
                functionals = rows + units
                accepts = lambda f: desirable.scaled_member(model, f.nums, 0) is Tri.IN  # noqa: E731
            want = _breakpoint_sup(functionals, accepts, value, direction)
            if want == _UNBOUNDED:
                with pytest.raises(IncoherentBaseError, match="unbounded buying price"):
                    previsions._set_sup(model, value, direction)
                seen["unbounded"] += 1
            else:
                got = previsions._set_sup(model, value, direction)
                assert got == want, (model, value, direction)
                seen["empty" if want is None else "value"] += 1
        kinds = {"value", "empty", "unbounded"} | ({"incoherent"} if lex else set())
        assert set(seen) == kinds, seen


class TestCredalVertices:
    def test_vacuous_assessment_gives_the_whole_simplex(self):
        credal = credal_vertices(GeneratorSet.of(S1, []))
        assert credal.vertices == ((F(0), F(1)), (F(1), F(0)))

    def test_halfspace_cut(self):
        credal = credal_vertices(LEAN1)
        assert set(credal.vertices) == {(F(1, 2), F(1, 2)), (F(1), F(0))}

    def test_boundary_polytopes_are_allowed(self):
        gens = GeneratorSet.of(
            S12,
            [
                Gamble.on(S12, [-1, 0, 0, 0]),
                Gamble.on(S12, [0, -1, 0, 0]),
                Gamble.on(S12, [0, 0, 3, -1]),
                Gamble.on(S12, [0, 0, -1, 1]),
            ],
        )
        credal = credal_vertices(gens)
        assert set(credal.vertices) == {
            (F(0), F(0), F(1, 2), F(1, 2)),
            (F(0), F(0), F(1, 4), F(3, 4)),
        }

    def test_empty_polytope_is_an_error(self):
        gens = GeneratorSet.of(S1, [Gamble.on(S1, [-1, -2])])
        with pytest.raises(IncoherentBaseError):
            credal_vertices(gens)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            credal_vertices(LEAN1, budget=1)

    def test_envelope_matches_the_price_lp(self):
        rng = random.Random("envelope")
        for i in range(20):
            gens = random_generator_set(rng, S12, count=2)
            credal = credal_vertices(gens)
            for f in sample_gambles(S12, budget=10, seed=i):
                assert lower_prevision(gens, f) == lower_expectation(credal, f)


def _gauss(matrix, rhs):
    """Unique solution of a square ``Fraction`` system, or ``None``."""
    n = len(matrix)
    rows = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][n] / rows[i][i] for i in range(n))


def _rank(rows):
    rows = [[F(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dot(u, v):
    return sum((F(a) * b for a, b in zip(u, v)), F(0))


def _oracle_vertices(size, generators):
    """Feasible points of every square system, with the bases reaching each.

    The system is normalisation plus ``size - 1`` rows picked from the sign
    rows and the generator rows; a point is kept when it is nonnegative and
    gives every generator nonnegative expectation.
    """
    units = [tuple(int(i == w) for i in range(size)) for w in range(size)]
    candidates = units + [tuple(g) for g in generators]
    reached = {}
    for chosen in itertools.combinations(candidates, size - 1):
        point = _gauss([(1,) * size] + list(chosen), [1] + [0] * (size - 1))
        if point is None or any(v < 0 for v in point):
            continue
        if any(_dot(g, point) < 0 for g in generators):
            continue
        reached[point] = reached.get(point, 0) + 1
    return reached


def _random_rows(rng, size):
    """Small integer generators, some repeated or positively rescaled."""
    rows = []
    for _ in range(rng.randrange(0, 5 if size < 5 else 3)):
        row = tuple(rng.randint(-2, 2) for _ in range(size))
        if any(row):
            rows.append(row)
    for row in list(rows):
        if rng.random() < 0.3:
            rows.append(row)
        if rng.random() < 0.2:
            rows.append(tuple(2 * v for v in row))
    rng.shuffle(rows)
    return rows


Y2 = Variable("Y", ("a", "b", "c"))
VERTEX_SCOPES = [
    Scope.of([Variable("X", tuple("abcde"[:n]))]) for n in range(2, 6)
] + [S12, Scope.of([V1, Y2])]


class TestVertexEnumerationAgainstBases:
    """``credal_vertices`` against a brute-force oracle over square systems.

    The points it returns are not re-checked for extremality by LPs, so the
    tests check that every returned point is a vertex (its active rows have
    full rank, and ``CredalSet.of`` keeps it), and that none is missed.
    """

    def _check(self, scope, rows):
        gens = GeneratorSet(scope, tuple(Gamble.on(scope, r) for r in rows))
        reached = _oracle_vertices(scope.size, rows)
        if not reached:
            with pytest.raises(IncoherentBaseError):
                credal_vertices(gens)
            return reached
        credal = credal_vertices(gens)
        assert credal.vertices == tuple(sorted(reached))
        assert CredalSet.of(scope, credal.vertices) == credal
        units = [tuple(int(i == w) for i in range(scope.size)) for w in range(scope.size)]
        for p in credal.vertices:
            active = [(1,) * scope.size] + [
                row for row in units + list(rows) if _dot(row, p) == 0
            ]
            assert _rank(active) == scope.size
        return reached

    @pytest.mark.parametrize(
        "scope",
        VERTEX_SCOPES,
        ids=lambda s: "x".join(str(len(v.outcomes)) for v in s.variables),
    )
    def test_seeded_generator_sets_match_the_oracle(self, scope):
        rng = random.Random("vertices-%d-%d" % (scope.size, len(scope.variables)))
        shared = 0
        for _ in range(25):
            reached = self._check(scope, _random_rows(rng, scope.size))
            shared += sum(count > 1 for count in reached.values())
        assert shared > 0, "no vertex was reached from several bases"

    @pytest.mark.parametrize(
        "scope",
        [Scope.of([Variable("X", tuple("abc")), Variable("Y", tuple("abc"))]),
         Scope.of([Variable(n, ("a", "b")) for n in ("X", "Y", "Z")])],
        ids=["3x3", "2x2x2"],
    )
    def test_larger_scopes_match_the_oracle(self, scope):
        rng = random.Random("vertices-large-%d" % scope.size)
        for _ in range(6):
            self._check(scope, _random_rows(rng, scope.size))

    def test_one_vertex_reached_from_several_bases(self):
        scope = Scope.of([Variable("X", ("a", "b", "c"))])
        rows = [(0, 1, -1), (0, 1, -1), (1, -1, 0)]
        reached = self._check(scope, rows)
        assert reached[(F(1), F(0), F(0))] == 5
        assert credal_vertices(
            GeneratorSet(scope, tuple(Gamble.on(scope, r) for r in rows))
        ).vertices.count((F(1), F(0), F(0))) == 1

    @pytest.mark.parametrize(
        "rows, vertices",
        [
            # an edge of the simplex, cut to a segment
            (
                [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 3, -1), (0, 0, -1, 1)],
                {(F(0), F(0), F(1, 2), F(1, 2)), (F(0), F(0), F(1, 4), F(3, 4))},
            ),
            # a single corner, reached from many bases
            (
                [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0)],
                {(F(0), F(0), F(0), F(1))},
            ),
            # a face of the simplex, untouched by a generator that is zero on it
            (
                [(-1, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0, 0)],
                {(F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1))},
            ),
        ],
    )
    def test_boundary_polytopes(self, rows, vertices):
        assert set(self._check(S12, rows)) == vertices

    def test_enumeration_solves_no_linear_program(self, monkeypatch):
        def refuse(system):
            raise AssertionError("credal_vertices solved an LP")

        monkeypatch.setattr(exactlp, "_solve_engine", refuse)
        rng = random.Random("no-lp")
        found = 0
        for scope in VERTEX_SCOPES:
            for _ in range(4):
                rows = _random_rows(rng, scope.size)
                gens = GeneratorSet(scope, tuple(Gamble.on(scope, r) for r in rows))
                try:
                    found += len(credal_vertices(gens).vertices)
                except IncoherentBaseError:
                    pass
        assert found > 0


class TestCredalSets:
    def test_interior_vertices_are_dropped(self):
        credal = CredalSet.of(
            S1, [("1/2", "1/2"), ("1", "0"), ("3/4", "1/4")]
        )
        assert set(credal.vertices) == {(F(1, 2), F(1, 2)), (F(1), F(0))}

    def test_masses_validated(self):
        with pytest.raises(ValueError):
            CredalSet.of(S1, [("1/2", "1/3")])
        with pytest.raises(ValueError):
            CredalSet.of(S1, [("3/2", "-1/2")])

    def test_short_point_rejected_before_any_lp(self, monkeypatch):
        monkeypatch.setattr(previsions, "solve", lambda system: pytest.fail("LP solved"))
        for points in ([("1/2", "1/2"), (1,)], [(1,), ("1/2", "1/2")], [(1, 0, 0)]):
            with pytest.raises(DimensionMismatchError, match="vertex of length"):
                CredalSet.of(S1, points)

    def test_view_of_a_generator_set(self):
        assert credal_view(LEAN1).vertices == credal_vertices(LEAN1).vertices

    def test_view_of_a_strictly_desirable_set(self):
        credal = CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        assert credal_view(strictly_desirable(credal)) == credal

    def test_view_of_a_lex_system_is_its_first_level(self):
        system = LexSystem(S1, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        assert credal_view(system).vertices == ((F(1, 2), F(1, 2)),)

    def test_plain_cells_have_no_credal_view(self):
        bare = CellSet(
            S1,
            (Cell((CellRow(Gamble.on(S1, [1, 1]), GE),)),),
            include_positive=True,
        )
        with pytest.raises(UnsupportedQueryError):
            credal_view(bare)


class TestStrictlyDesirable:
    def test_membership_by_vertex_expectations(self):
        marginal = strictly_desirable(
            CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        )
        assert member(marginal, Gamble.on(S1, [1, -1])) is Tri.OUT
        assert member(marginal, Gamble.on(S1, [1, 1])) is Tri.IN
        assert member(marginal, Gamble.on(S1, [4, -2])) is Tri.IN


class TestProductPrices:
    def test_single_vertex_blocks_multiply(self):
        precise = CredalSet.of(S1, [("1/2", "1/2")])
        other = CredalSet.of(S2, [("1/3", "2/3")])
        f = Gamble.on(S12, [6, 0, 0, 6])
        expected = F(6) * F(1, 2) * F(1, 3) + F(6) * F(1, 2) * F(2, 3)
        assert inex_lower_prevision([precise, other], f) == expected
        assert strong_product_lower([precise, other], f) == expected

    def test_single_block_prices_are_the_envelope(self):
        rng = random.Random("single-block")
        for i in range(6):
            credal = random_credal(rng, S1, count=2)
            f = random_gamble(rng, S1)
            assert inex_lower_prevision([credal], f) == lower_expectation(credal, f)
            assert strong_product_lower([credal], f) == lower_expectation(credal, f)

    def test_flat_gambles_price_by_their_own_block(self):
        rng = random.Random("flat-block")
        for i in range(6):
            c1 = random_credal(rng, S1, count=2)
            c2 = random_credal(rng, S2, count=2)
            f = random_gamble(rng, S1)
            lifted = f.embed(S12)
            assert inex_lower_prevision([c1, c2], lifted) == lower_expectation(c1, f)

    def test_strong_dominates_the_sum_product(self):
        rng = random.Random("dominance")
        for i in range(10):
            c1 = random_credal(rng, S1, count=2)
            c2 = random_credal(rng, S2, count=2)
            f = random_gamble(rng, S12)
            assert strong_product_lower([c1, c2], f) >= inex_lower_prevision(
                [c1, c2], f
            )

    def test_constants_price_at_themselves(self):
        c1 = CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        c2 = CredalSet.of(S2, [("2/5", "3/5"), ("1/2", "1/2")])
        assert strong_product_lower([c1, c2], Gamble.constant(S12, F(5, 9))) == F(5, 9)


A3 = Variable("A", ("a", "b"))
B3 = Variable("B", ("a", "b", "c"))
C3 = Variable("C", ("a", "b"))
BLOCKS3 = [Scope.of([A3]), Scope.of([B3]), Scope.of([C3])]
JOINT3 = Scope.of([A3, B3, C3])


def _strong_by_walk(credals, f):
    """The strong lower envelope, reading each block's outcome by walking
    joint assignments: the reference for the product's block maps."""
    joint = Scope.of([v for c in credals for v in c.scope.variables])
    values = f.embed(joint).values
    best = None
    for combo in itertools.product(*(c.vertices for c in credals)):
        total = F(0)
        for w in range(joint.size):
            at = joint.assignment_at(w)
            weight = values[w]
            for c, p in zip(credals, combo):
                weight *= p[c.scope.index_of(at.restrict(c.scope))]
            total += weight
        best = total if best is None else min(best, total)
    return best


class TestThreeBlockLayout:
    """Blocks of 2, 3 and 2 outcomes; the middle block's slices are not
    contiguous in the joint enumeration."""

    def test_joint_price_matches_the_collapsed_product(self):
        rng = random.Random("three-blocks-inex")
        for _ in range(4):
            parts = [
                random_generator_set(rng, s, count=rng.choice([1, 2])) for s in BLOCKS3
            ]
            product = independent_product(parts)
            credals = [credal_view(part) for part in parts]
            for _ in range(5):
                f = random_gamble(rng, JOINT3)
                expected = lower_prevision(product, f)
                assert inex_lower_prevision(credals, f) == expected
                assert inex_lower_prevision(credals[::-1], f) == expected

    def test_strong_envelope_matches_the_assignment_walk(self):
        rng = random.Random("three-blocks-strong")
        for _ in range(6):
            credals = [random_credal(rng, s, count=rng.choice([1, 2, 3])) for s in BLOCKS3]
            for _ in range(4):
                f = random_gamble(rng, JOINT3)
                expected = _strong_by_walk(credals, f)
                assert strong_product_lower(credals, f) == expected
                assert strong_product_lower(credals[::-1], f) == expected


D3 = Variable("D", ("a", "b", "c"))
E2 = Variable("E", ("a", "b"))
# Block layouts of the joint-mass differential: 2x2, 2x3 and 3x3 pairs,
# the 2x3x2 three-block layout and a 2x2x2 one.
MASS_LAYOUTS = {
    "2x2": [Scope.of([A3]), Scope.of([C3])],
    "2x3": [Scope.of([A3]), Scope.of([B3])],
    "3x3": [Scope.of([B3]), Scope.of([D3])],
    "2x3x2": BLOCKS3,
    "2x2x2": [Scope.of([A3]), Scope.of([C3]), Scope.of([E2])],
}


def _messy_credal(rng, scope):
    """A credal set built with ``CredalSet(...)``, not ``.of``: its vertex
    list may hold point masses, boundary masses with zeros, duplicates and
    non-extreme midpoints."""
    points = [random_mass(rng, scope.size) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        k = rng.randrange(scope.size)
        points.append(tuple(F(int(i == k)) for i in range(scope.size)))
    if rng.random() < 0.3:
        points.append(rng.choice(points))
    if len(points) > 1 and rng.random() < 0.3:
        p, q = rng.sample(points, 2)
        points.append(tuple((a + b) / 2 for a, b in zip(p, q)))
    rng.shuffle(points)
    return CredalSet(scope, tuple(points))


def _mass_gamble(rng, scope):
    roll = rng.random()
    if roll < 0.1:
        return Gamble.constant(scope, F(0))
    if roll < 0.2:
        return Gamble.constant(scope, F(rng.randint(-5, 5), rng.randint(1, 4)))
    return random_gamble(rng, scope)


def _check_against_primal(credals, f):
    expected = inex_lower_prevision_primal(credals, f)
    assert inex_lower_prevision(credals, f) == expected
    assert inex_lower_prevision(credals[::-1], f) == expected
    return expected


class TestJointMassProgram:
    """``inex_lower_prevision`` prices through the joint-mass program; the
    primal allocation program it is dual to is the oracle."""

    @pytest.mark.parametrize("layout", sorted(MASS_LAYOUTS))
    def test_matches_the_primal_on_seeded_layouts(self, layout):
        rng = random.Random("joint-mass-" + layout)
        blocks = MASS_LAYOUTS[layout]
        joint = disjoint_union(blocks)
        for _ in range(6):
            credals = [_messy_credal(rng, s) for s in blocks]
            for _ in range(3):
                _check_against_primal(credals, _mass_gamble(rng, joint))

    def test_matches_the_primal_on_a_single_block(self):
        rng = random.Random("joint-mass-single")
        for scope in (Scope.of([A3]), Scope.of([B3])):
            for _ in range(4):
                credal = _messy_credal(rng, scope)
                f = _mass_gamble(rng, scope)
                assert _check_against_primal([credal], f) == lower_expectation(credal, f)

    def test_point_masses_price_at_the_product_outcome(self):
        # Degenerate blocks: the only joint mass is the product point mass.
        point = CredalSet(S1, ((F(0), F(1)),))
        other = CredalSet(S2, ((F(1), F(0)), (F(1), F(0))))
        f = Gamble.on(S12, [5, -3, F(7, 2), 11])
        assert _check_against_primal([point, other], f) == F(7, 2)

    def test_constant_and_zero_gambles_price_at_themselves(self):
        rng = random.Random("joint-mass-constants")
        blocks = MASS_LAYOUTS["2x3x2"]
        joint = disjoint_union(blocks)
        credals = [_messy_credal(rng, s) for s in blocks]
        for c in (F(0), F(-3, 4), F(2)):
            assert _check_against_primal(credals, Gamble.constant(joint, c)) == c

    @given(
        layout=st.sampled_from(sorted(MASS_LAYOUTS)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_primal_hypothesis(self, layout, seed):
        rng = random.Random(seed)
        blocks = MASS_LAYOUTS[layout]
        credals = [_messy_credal(rng, s) for s in blocks]
        _check_against_primal(credals, _mass_gamble(rng, disjoint_union(blocks)))

    def test_one_program_without_split_columns(self, monkeypatch):
        # The binary two-vertex pair of ``fixtures.strong_vs_independent_gap``.
        # Eight columns lam[n, z, p] and five rows besides the column
        # bounds: unit mass, and block 1's mass against block 0's at four
        # outcomes.  Every column is folded, none split into +/- parts.
        m1 = CredalSet.of(S1, (("2/5", "3/5"), ("1/2", "1/2")))
        m2 = CredalSet.of(S2, (("2/5", "3/5"), ("1/2", "1/2")))
        h = Gamble.on(S12, ["51/100", "-49/100", "-49/100", "51/100"])
        systems = []
        solve = previsions.solve

        def captured(system, objective=None):
            systems.append(system)
            return solve(system, objective)

        monkeypatch.setattr(previsions, "solve", captured)
        price = inex_lower_prevision([m1, m2], h)
        assert len(systems) == 1
        (system,) = systems
        assert system.n_vars == 8
        bounds = [
            r for r in system.rows
            if r.rel == GE and r.rhs == 0 and sum(1 for c in r.coeffs if c) == 1
        ]
        assert len(system.rows) - len(bounds) == 5
        assert all(minus is None for _, minus in exactlp._Simplex(system).var_cols)
        assert price == inex_lower_prevision_primal([m1, m2], h) < 0


class TestStrongMembership:
    def _pair(self):
        credal = CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        other = CredalSet.of(S2, [("2/5", "3/5"), ("1/2", "1/2")])
        d1, d2 = strictly_desirable(credal), strictly_desirable(other)
        return d1, d2, StrongProduct((d1, d2))

    def test_everywhere_negative_is_out(self):
        _, _, prod = self._pair()
        assert strong_member(prod, Gamble.constant(S12, -1)) is Tri.OUT

    def test_positive_is_in(self):
        _, _, prod = self._pair()
        assert strong_member(prod, Gamble.on(S12, [0, 0, 1, 0])) is Tri.IN

    def test_nonpositive_is_out_before_any_vertex_enumeration(self):
        # Every coherent set, a strong product included, excludes a nonzero
        # nonpositive gamble.  Here the price reads zero, which would leave
        # the verdict UNKNOWN, and no budget is needed.
        sure = strictly_desirable(CredalSet.of(S1, [("1", "0")]))
        tied = LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])
        prod = StrongProduct((sure, tied))
        f = Gamble.on(S12, [0, 0, -1, 0])
        assert strong_member(prod, f) is Tri.OUT
        assert strong_member(prod, f, budget=0) is Tri.OUT

    def test_boundary_is_unknown(self):
        d1, d2, prod = self._pair()
        # expectation 0 under the (1/2,1/2)x(1/2,1/2) combination, positive
        # under the rest: the price signal alone cannot decide membership
        f = Gamble.on(S12, [1, -1, -1, 1])
        assert strong_product_lower(
            [credal_view(d1), credal_view(d2)], f
        ) == 0
        assert strong_member(prod, f) is Tri.UNKNOWN

    def test_credal_views_are_canonicalised_once_per_marginal(self, monkeypatch):
        # Each two-vertex marginal proves its vertices extreme with one
        # convex-combination LP per vertex on the first mixed-sign query;
        # the views are kept with the marginals, so later queries solve none.
        _, _, prod = self._pair()
        solved = []
        engine = exactlp._solve_engine

        def counted(system, objective=None):
            solved.append(system)
            return engine(system, objective)

        monkeypatch.setattr(exactlp, "_solve_engine", counted)
        verdicts = [
            strong_member(prod, Gamble.on(S12, values))
            for values in ([1, -1, -1, 1], [3, -1, -1, 3], [1, 1, 1, -2])
        ]
        assert verdicts == [Tri.UNKNOWN, Tri.IN, Tri.OUT]
        assert len(solved) == 4

    def test_maximal_marginals_delegate_exactly(self):
        m = LexSystem(S1, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        m2 = LexSystem(S2, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        h = Gamble.on(S12, [-1, 1, 1, -1])
        assert strong_member(StrongProduct((m, m2)), h) is Tri.OUT


class TestViews:
    def test_expression_view(self):
        f = Gamble.on(S1, [0, 2])
        # credal polytope is p(a) >= 1/2, so 2*p(b) peaks at 1
        assert lower_prevision(LEAN1, f) == 0
        assert upper_prevision(LEAN1, f) == 1
        assert upper_prevision(LEAN1, f) == -lower_prevision(LEAN1, -f)

    def test_credal_view_prices_by_envelope(self):
        credal = CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        f = Gamble.on(S1, [1, -1])
        assert lower_expectation(credal, f) == -F(1, 5)
        assert -lower_expectation(credal, -f) == 0

    def test_conditional_conjugacy(self):
        expr = GeneratorSet.of(S12, [Gamble.on(S12, [2, -1, 0, 0])])
        given = Assignment.of({V1: "a"})
        g = Gamble.on(S2, [3, -1])
        upper = -conditional_lower_prevision(expr, given, -g)
        assert upper_prevision(condition(expr, given), g) == upper
        assert conditional_lower_prevision(expr, given, g) <= upper
