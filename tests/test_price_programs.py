"""Price programs built once per model against the programs rebuilt per price.

The joint-mass program keeps its rows and its phase-1 tableau per tuple of
credal sets and re-solves phase 2 per gamble; generator-cone rows are built
from the gambles' ints; the strong scan runs on vertex ints.  Each is
checked against its ``Fraction`` form in ``references``, which builds and
solves everything from scratch: on every gamble the prices and the LP
witnesses must be the same.
"""

import collections
import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    Assignment,
    CredalSet,
    Gamble,
    Scope,
    Variable,
    avoids_nonpositivity,
    conditional_lower_prevision,
    independent_product,
    inex_lower_prevision,
    lower_prevision,
    member,
    strong_product_lower,
    upper_prevision,
)
from desirability import exactlp, independence, previsions
from desirability.desirable import GeneratorSet
from desirability.exactlp import GE, Optimal, solve, unit_rows
from desirability.space import CACHE_MAXSIZE, disjoint_union
from randgen import random_credal, random_generator_set, random_mass
import references

F = Fraction
A = Variable("A", ("a", "b"))
B = Variable("B", ("a", "b", "c"))
C = Variable("C", ("a", "b"))
LAYOUTS = {
    "2x2": [Scope.of([A]), Scope.of([C])],
    "2x3": [Scope.of([A]), Scope.of([B])],
    "2x2x2": [Scope.of([A]), Scope.of([C]), Scope.of([Variable("E", ("a", "b"))])],
}
# Gambles priced per compiled program: four draws and their negations.
DRAWS = 4


def _gambles(rng, scope):
    """``DRAWS`` gambles with fractional values, each followed by its
    negation, so the objective's denominator matters."""
    out = []
    for _ in range(DRAWS):
        f = Gamble.on(scope, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(scope.size)])
        out.extend([f, -f])
    return out


def _outcomes(monkeypatch, module):
    """Record every outcome that ``module``'s ``solve`` returns."""
    seen = []
    inner = module.solve

    def recorded(system, objective=None):
        outcome = inner(system, objective)
        seen.append(outcome)
        return outcome

    monkeypatch.setattr(module, "solve", recorded)
    return seen


class TestJointMassProgram:
    @given(layout=st.sampled_from(sorted(LAYOUTS)), seed=st.integers(0, 2**32 - 1))
    def test_prices_and_witnesses_match_the_rebuilt_program(self, layout, seed):
        rng = random.Random(seed)
        blocks = LAYOUTS[layout]
        credals = [random_credal(rng, s, count=rng.randint(1, 3)) for s in blocks]
        gambles = _gambles(rng, disjoint_union(blocks))
        with pytest.MonkeyPatch.context() as mp:
            got = _outcomes(mp, previsions)
            want = _outcomes(mp, references)
            for f in gambles:
                price = inex_lower_prevision(credals, f)
                assert price == references.rebuilt_inex_lower_prevision(credals, f)
        assert len(got) == len(want) == 2 * DRAWS
        # Each maximises its negated objective scaled to its own ints, so
        # the values differ by a positive factor; the witnesses agree.
        assert [o.witness for o in got] == [o.witness for o in want]
        assert all(isinstance(outcome, Optimal) for outcome in got + want)

    def test_k_prices_run_k_lps_k_point_checks_and_one_phase_1(self, monkeypatch):
        rng = random.Random("joint-mass-pin")
        blocks = LAYOUTS["2x3"]
        credals = [random_credal(rng, s, count=3) for s in blocks]
        gambles = _gambles(rng, disjoint_union(blocks))
        counts = collections.Counter()
        engine, gate, phase1 = exactlp._solve_engine, exactlp.verify_point, exactlp._Simplex.phase1

        def solved(system, objective=None):
            counts["lps"] += 1
            return engine(system, objective)

        def checked(system, point):
            counts["verify_point"] += 1
            return gate(system, point)

        def started(simplex, system):
            counts["phase1"] += 1
            return phase1(simplex, system)

        monkeypatch.setattr(exactlp, "_solve_engine", solved)
        monkeypatch.setattr(exactlp, "verify_point", checked)
        monkeypatch.setattr(exactlp._Simplex, "phase1", started)
        for f in gambles:
            inex_lower_prevision(credals, f)
        assert counts == {"lps": len(gambles), "verify_point": len(gambles), "phase1": 1}

    def test_programs_go_with_their_sets_and_unit_rows_stay_bounded(self):
        # A program is kept on the first credal set, for the latest tuple it
        # leads, and is freed with the sets.  The one process-wide cache the
        # programs use, the unit rows, stays bounded over one more distinct
        # product, and one more row shape, than it keeps.
        blocks = LAYOUTS["2x2"]
        f = Gamble.on(disjoint_union(blocks), [1, -2, 3, F(-1, 2)])
        other = CredalSet(blocks[1], ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))))
        points = []
        for k in range(CACHE_MAXSIZE + 1):
            p = F(k + 1, CACHE_MAXSIZE + 2)
            points.append(CredalSet(blocks[0], ((p, 1 - p),)))
            credals = [points[-1], other]
            want = references.rebuilt_inex_lower_prevision(credals, f)
            assert inex_lower_prevision(credals, f) == want
        assert all(point._joint_mass[0] == (other,) for point in points)
        assert "_joint_mass" not in other.__dict__
        swapped = CredalSet(blocks[1], ((F(1, 4), F(3, 4)),))
        inex_lower_prevision([points[0], swapped], f)
        assert points[0]._joint_mass[0] == (swapped,)
        program = weakref.ref(points[1]._joint_mass[1][3])
        del points[1:]
        gc.collect()
        assert program() is None
        for width in range(CACHE_MAXSIZE + 1):
            unit_rows(width + 1, GE)
        assert unit_rows.cache_info().currsize <= CACHE_MAXSIZE


class TestStrongScan:
    @given(layout=st.sampled_from(sorted(LAYOUTS)), seed=st.integers(0, 2**32 - 1))
    def test_prices_match_the_fraction_scan(self, layout, seed):
        rng = random.Random(seed)
        blocks = LAYOUTS[layout]
        credals = [
            CredalSet(s, tuple(random_mass(rng, s.size) for _ in range(rng.randint(1, 3))))
            for s in blocks
        ]
        for f in _gambles(rng, disjoint_union(blocks)):
            assert strong_product_lower(credals, f) == references.fraction_strong_product_lower(
                credals, f
            )


class TestConeProgram:
    """The collapsed generator cone of a product, priced under the constant
    direction and under a masked one (a conditional price)."""

    @given(layout=st.sampled_from(sorted(LAYOUTS)), seed=st.integers(0, 2**32 - 1))
    def test_rows_prices_and_witnesses_match_the_rebuilt_program(self, layout, seed):
        rng = random.Random(seed)
        blocks = LAYOUTS[layout]
        cone = independent_product(
            [random_generator_set(rng, s, count=rng.randint(1, 2)) for s in blocks]
        )
        assert isinstance(cone, GeneratorSet)
        mass = avoids_nonpositivity(cone).positive_mass
        scope = cone.scope
        first = blocks[0].variables[0]
        given_ = Assignment.of({first: rng.choice(first.outcomes)})
        constant = Gamble.constant(scope, -1)
        masked = constant.mask(given_)
        real = independence.strict_feasible
        seen = []

        def captured(system):
            seen.append((system, real(system)))
            return seen[-1][1]

        def captured_solve(system, objective):
            seen.append((system, solve(system, objective)))
            return seen[-1][1]

        for f in _gambles(rng, scope):
            for direction in (constant, masked):
                for value in (f, f.mask(given_)):
                    # A price hands ``previsions.solve`` the program of the
                    # gamble less its sure price ``m0``.
                    den = math.lcm(value.den, direction.den)
                    ints = [[n * (den // g.den) for n in g.nums] for g in (value, direction)]
                    seen.clear()
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(previsions, "solve", captured_solve)
                        price = previsions.scaled_sup(cone, *ints, den)
                    [(got, outcome)] = seen
                    m0 = min([v / -d for v, d in zip(value.values, direction.values) if d < 0])
                    want = references.rebuilt_cone_program(cone, value + m0 * direction, direction)
                    assert got == want
                    assert [row.coeffs for row in got.rows] == [row.coeffs for row in want.rows]
                    objective = (1,) + (0,) * (got.n_vars - 1)
                    assert outcome == solve(want, objective)
                    assert price == references.rebuilt_generator_sup(cone, value, direction)
            # Membership solves the walk's rows for ``f``'s numerators, the
            # dominance program without a shift, once ``f`` passes the sign
            # filter and the positive mass.
            seen.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(independence, "strict_feasible", captured)
                member(cone, f)
            passes = min(f.nums) < 0 < max(f.nums) and f.dot(mass) > 0
            assert len(seen) == int(passes)
            for got, outcome in seen:
                want = references.rebuilt_cone_program(cone, f * f.den)
                assert got == want
                assert [row.coeffs for row in got.rows] == [row.coeffs for row in want.rows]
                assert outcome == solve(got) == solve(want)

    def test_prices_through_the_public_entry_points(self):
        rng = random.Random("cone-price-entry-points")
        blocks = LAYOUTS["2x3"]
        cone = independent_product([random_generator_set(rng, s, count=2) for s in blocks])
        given_ = Assignment.of({A: "b"})
        minus = Gamble.constant(cone.scope, -1)
        for f in _gambles(rng, cone.scope):
            assert lower_prevision(cone, f) == references.rebuilt_generator_sup(cone, f, minus)
            assert upper_prevision(cone, f) == -references.rebuilt_generator_sup(cone, -f, minus)
        for g in _gambles(rng, Scope.of([B])):
            value = g.embed(cone.scope).mask(given_)
            assert conditional_lower_prevision(cone, given_, g) == (
                references.rebuilt_generator_sup(cone, value, minus.mask(given_))
            )
