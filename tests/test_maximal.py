"""Lexicographic models: membership, maximality, conditioning, witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    DegenerateConditioningError,
    EngineError,
    Gamble,
    LexSystem,
    Scope,
    ScopeError,
    Tri,
    Variable,
    independent_product,
    inex_member,
    lex_is_coherent,
    lex_is_maximal,
    lower_prevision,
    nonmaximality_witness,
    upper_prevision,
)
from desirability import desirable
from desirability.structure import gamble_grid, sample_gambles
from desirability.maximal import (
    lex_canonical,
    lex_condition,
    lex_equal,
    lex_member,
    maximal_product_check,
)
from desirability.randgen import random_maximal_binary_lex

from references import indicator

F = Fraction
V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)

UNIFORM2 = (F(1, 2), F(1, 2))
FAIR_THEN_HEADS = LexSystem(S1, (UNIFORM2, (F(1), F(0))))


def refined_joint():
    return LexSystem(
        S12,
        (
            (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
            (F(1), F(0), F(0), F(0)),
            (F(0), F(1), F(0), F(0)),
            (F(0), F(0), F(1), F(0)),
        ),
    )


class TestMembership:
    def test_second_level_breaks_first_level_ties(self):
        assert lex_member(FAIR_THEN_HEADS, Gamble.on(S1, [1, -1]))
        assert not lex_member(FAIR_THEN_HEADS, Gamble.on(S1, [-1, 1]))

    def test_zero_rejected(self):
        assert not lex_member(FAIR_THEN_HEADS, Gamble.zero(S1))


class TestMaximality:
    def test_two_independent_levels_span_binary(self):
        assert lex_is_maximal(FAIR_THEN_HEADS)

    def test_single_level_leaves_a_blind_direction(self):
        assert not lex_is_maximal(LexSystem(S1, (UNIFORM2,)))

    def test_refined_joint_spans_the_four_point_space(self):
        assert lex_is_maximal(refined_joint())

    def test_rank_skips_a_dependent_level_before_the_last(self):
        v3 = Variable("X3", ("a", "b", "c"))
        s3 = Scope.of([v3])
        third = F(1, 3)
        flat = (third, third, third)
        spans = LexSystem(s3, (flat, flat, (F(1), F(0), F(0)), (F(0), F(1), F(0))))
        assert lex_is_maximal(spans)
        # The second and third rows lead negatively after elimination.
        assert lex_canonical(spans) == (
            (F(1), F(1), F(1)),
            (F(0), F(-1), F(-1)),
            (F(0), F(0), F(-1)),
        )
        short = LexSystem(s3, (flat, flat, (F(1), F(0), F(0))))
        assert not lex_is_maximal(short)
        assert lex_canonical(short) == (
            (F(1), F(1), F(1)),
            (F(0), F(-1), F(-1)),
        )

    def test_coherence_requires_support_coverage(self):
        assert lex_is_coherent(LexSystem(S1, (UNIFORM2,)))
        assert not lex_is_coherent(LexSystem(S1, ((F(1), F(0)),)))

    def test_dichotomy_for_maximal_systems(self):
        rng = random.Random("dichotomy")
        for i in range(12):
            system = random_maximal_binary_lex(rng, S1)
            for f in gamble_grid(S1, lo=-2, hi=2):
                if f.is_zero():
                    continue
                assert lex_member(system, f) != lex_member(system, -f), (
                    "i=%d f=%s" % (i, f.values)
                )

    def test_maximal_prices_are_linear(self):
        rng = random.Random("linear-prices")
        for i in range(8):
            system = random_maximal_binary_lex(rng, S1)
            for f in sample_gambles(S1, budget=10, seed=i):
                assert lower_prevision(system, f) == upper_prevision(system, f)


class TestCanonicalForm:
    def test_averaging_a_later_level_changes_nothing(self):
        p2 = (F(1), F(0))
        mixed = tuple(
            (a + b) / 2 for a, b in zip(UNIFORM2, p2)
        )
        other = LexSystem(S1, (UNIFORM2, mixed))
        assert lex_equal(FAIR_THEN_HEADS, other)
        for f in gamble_grid(S1, lo=-2, hi=2):
            assert lex_member(FAIR_THEN_HEADS, f) == lex_member(other, f)

    def test_dependent_levels_are_dropped(self):
        p2 = (F(1), F(0))
        dependent = tuple(
            (a + 2 * b) / 3 for a, b in zip(UNIFORM2, p2)
        )
        extended = LexSystem(S1, (UNIFORM2, p2, dependent))
        assert lex_canonical(extended) == lex_canonical(FAIR_THEN_HEADS)
        assert lex_equal(extended, FAIR_THEN_HEADS)

    def test_different_orientations_differ(self):
        flipped = LexSystem(S1, (UNIFORM2, (F(0), F(1))))
        assert not lex_equal(FAIR_THEN_HEADS, flipped)


def _reduced_levels(levels):
    """``Fraction`` reference for the canonical rows: in-order elimination.

    Each level, minus multiples of the kept earlier ones at their leading
    columns, is kept when something is left, scaled so its leading entry
    has magnitude one.  The kept rows number the rank of the levels.
    """
    out = []
    pivots = []
    for level in levels:
        row = list(level)
        for prow, pcol in zip(out, pivots):
            f = row[pcol] / prow[pcol]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        pivot = next((i for i, v in enumerate(row) if v != 0), None)
        if pivot is None:
            continue
        scale = F(1) / abs(row[pivot])
        out.append([v * scale for v in row])
        pivots.append(pivot)
    return out


@st.composite
def level_lists(draw):
    """Mass functions on 2-5 outcomes with mixed denominators, some of them
    repeated or convex combinations of earlier ones (dependent levels)."""
    size = draw(st.integers(2, 5))
    masses = st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)
    levels = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "mix"]))
        if kind == "fresh" or not levels:
            raw = draw(masses)
            total = sum(raw)
            levels.append(tuple(F(v, total) for v in raw))
        elif kind == "repeat":
            levels.append(draw(st.sampled_from(levels)))
        else:
            p = draw(st.sampled_from(levels))
            q = draw(st.sampled_from(levels))
            t = F(draw(st.integers(1, 6)), 7)
            levels.append(tuple(t * a + (1 - t) * b for a, b in zip(p, q)))
    scope = Scope.of([Variable("W", tuple("abcde"[:size]))])
    return LexSystem(scope, tuple(levels))


class TestEliminationAgainstReference:
    @given(level_lists())
    def test_canonical_form_and_rank_match_the_reference(self, system):
        reference = _reduced_levels(system.levels)
        assert lex_canonical(system) == tuple(tuple(r) for r in reference)
        assert lex_is_maximal(system) == (len(reference) == system.scope.size)


class TestConditioning:
    def test_refined_joint_conditions_to_the_binary_factor(self):
        for piece, j in ((S1, 0), (S1, 1), (S2, 0), (S2, 1)):
            cond = lex_condition(refined_joint(), piece.assignment_at(j))
            assert lex_equal(
                cond, LexSystem(cond.scope, (UNIFORM2, (F(1), F(0))))
            )

    def test_empty_observation_is_identity(self):
        from desirability import Assignment

        assert (
            lex_condition(FAIR_THEN_HEADS, Assignment.empty()) == FAIR_THEN_HEADS
        )

    def test_membership_biconditional(self):
        system = refined_joint()
        given = S1.assignment_at(1)
        cond = lex_condition(system, given)
        mask = indicator(given, S12)
        for g in gamble_grid(S2, lo=-2, hi=2):
            assert lex_member(cond, g) == lex_member(system, mask * g.embed(S12))

    def test_conditioning_on_a_null_event_fails_loudly(self):
        point = LexSystem(S12, ((F(1), F(0), F(0), F(0)),))
        with pytest.raises(DegenerateConditioningError):
            lex_condition(point, S1.assignment_at(1))


class TestNonmaximalityWitness:
    def test_interior_pair(self):
        m1 = LexSystem(S1, ((F(1, 3), F(2, 3)), (F(1), F(0))))
        m2 = LexSystem(S2, ((F(2, 5), F(3, 5)), (F(0), F(1))))
        w = nonmaximality_witness(m1, m2)
        prod = independent_product([m1, m2])
        assert inex_member(prod, w) is Tri.OUT
        assert inex_member(prod, -w) is Tri.OUT

    def test_one_degenerate_factor(self):
        m1 = LexSystem(S1, ((F(1), F(0)), (F(0), F(1))))
        m2 = LexSystem(S2, ((F(2, 5), F(3, 5)), (F(1), F(0))))
        w = nonmaximality_witness(m1, m2)
        prod = independent_product([m1, m2])
        assert inex_member(prod, w) is Tri.OUT
        assert inex_member(prod, -w) is Tri.OUT

    def test_both_degenerate_factors_yield_off_diagonal_pattern(self):
        m1 = LexSystem(S1, ((F(1), F(0)), (F(0), F(1))))
        m2 = LexSystem(S2, ((F(1), F(0)), (F(0), F(1))))
        w = nonmaximality_witness(m1, m2)
        assert w.values[0] == 0 and w.values[3] == 0
        assert w.values[1] == -w.values[2] != 0

    def test_a_witness_failing_its_check_is_an_engine_error(self, monkeypatch):
        m1 = LexSystem(S1, ((F(1, 3), F(2, 3)), (F(1), F(0))))
        m2 = LexSystem(S2, ((F(2, 5), F(3, 5)), (F(0), F(1))))
        monkeypatch.setattr(desirable, "member", lambda expr, f: Tri.IN)
        with pytest.raises(EngineError, match="witness failed its rejection checks"):
            nonmaximality_witness(m1, m2)

    def test_rejects_nonmaximal_input(self):
        other = LexSystem(S2, (UNIFORM2, (F(1), F(0))))
        with pytest.raises(ValueError):
            nonmaximality_witness(LexSystem(S1, (UNIFORM2,)), other)

    def test_rejects_nonbinary_scopes(self):
        wide = Variable("W", ("x", "y", "z"))
        sw = Scope.of([wide])
        uniform3 = (F(1, 3), F(1, 3), F(1, 3))
        m = LexSystem(
            sw, (uniform3, (F(1), F(0), F(0)), (F(0), F(1), F(0)))
        )
        with pytest.raises(ScopeError):
            nonmaximality_witness(m, FAIR_THEN_HEADS)


class TestMaximalProductCheck:
    def test_refined_joint_is_a_product(self):
        assert maximal_product_check(refined_joint())

    def test_slice_dependent_refinement_is_not(self):
        skewed = LexSystem(
            S12,
            (
                (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
                (F(0), F(1), F(0), F(0)),
                (F(1), F(0), F(0), F(0)),
                (F(0), F(0), F(1), F(0)),
            ),
        )
        assert lex_is_maximal(skewed)
        assert not maximal_product_check(skewed)
