"""Marginal views, cylindrical extension, and conditioning as query rewrites."""

import pytest

from desirability import (
    Assignment,
    CredalSet,
    Gamble,
    GeneratorSet,
    IrrExt,
    LexSystem,
    Scope,
    ScopeError,
    Tri,
    Variable,
    member,
    strictly_desirable,
)
from desirability.desirable import ConditionalFamily, Conditioned
from desirability.structure import (
    condition,
    cyl_ext,
    gamble_grid,
    sample_gambles,
)
from fractions import Fraction as F

from references import condition_bar_member, indicator, marginal_member

V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)

LEAN2 = GeneratorSet.of(S2, [Gamble.on(S2, [1, -1])])


def two_vertex():
    credal = CredalSet.of(
        S12, [("0", "0", "1/2", "1/2"), ("0", "0", "1/4", "3/4")]
    )
    return strictly_desirable(credal)


class TestMarginalViews:
    def test_full_scope_view_is_plain_membership(self):
        expr = two_vertex()
        for f in sample_gambles(S12, budget=10, seed=1):
            assert marginal_member(expr, S12, f) is member(expr, f)

    def test_gambles_varying_outside_the_view_are_out(self):
        expr = GeneratorSet.of(S12, [Gamble.on(S12, [1, 1, -1, -1])])
        varies = Gamble.on(S12, [1, -1, 1, -1])
        assert marginal_member(expr, S1, varies) is Tri.OUT

    def test_flat_gambles_reduce(self):
        expr = GeneratorSet.of(S12, [Gamble.on(S12, [1, 1, -1, -1])])
        flat = Gamble.on(S12, [1, 1, -1, -1])
        assert marginal_member(expr, S1, flat) is Tri.IN

    def test_empty_scope_keeps_positive_constants(self):
        expr = two_vertex()
        empty = Scope.empty()
        assert marginal_member(expr, empty, Gamble.constant(empty, 2)) is Tri.IN
        assert marginal_member(expr, empty, Gamble.constant(empty, 0)) is Tri.OUT
        assert marginal_member(expr, empty, Gamble.constant(empty, -1)) is Tri.OUT

    def test_view_scope_must_be_inside_the_model(self):
        with pytest.raises(ScopeError):
            marginal_member(LEAN2, S1, Gamble.on(S1, [1, 0]))


class TestCylindricalExtension:
    def test_generator_base_collapses_to_joint_generators(self):
        ext = cyl_ext(LEAN2, S12)
        assert isinstance(ext, GeneratorSet)
        assert ext.generators[0].scope == S12

    def test_matching_scope_is_identity(self):
        assert cyl_ext(LEAN2, S2) == LEAN2

    def test_nested_extensions_flatten(self):
        base = two_vertex()
        v3 = Variable("X3", ("a", "b"))
        s123 = S12.union(Scope.of([v3]))
        ext = cyl_ext(cyl_ext(base, S12), s123)
        assert isinstance(ext, IrrExt)
        assert ext.base == base and ext.target == s123
        assert ext.irrelevant == Scope.empty()

    def test_embedded_generator_accepted(self):
        ext = cyl_ext(LEAN2, S12)
        assert member(ext, Gamble.on(S2, [1, -1]).embed(S12)) is Tri.IN

    def test_one_sided_lift_rejected(self):
        # accepting only the X1=a side of a marginal generator overreaches
        ext = cyl_ext(LEAN2, S12)
        assert member(ext, Gamble.on(S12, [1, -1, 0, 0])) is Tri.OUT

    def test_target_must_contain_base_scope(self):
        with pytest.raises(ScopeError):
            cyl_ext(two_vertex(), S1)


class TestConditioning:
    def test_observation_scope_checked(self):
        with pytest.raises(ScopeError):
            condition(LEAN2, Assignment.of({V1: "a"}))

    def test_empty_observation_is_identity(self):
        expr = two_vertex()
        assert condition(expr, Assignment.empty()) == expr

    def test_sequential_observations_merge(self):
        v3 = Variable("X3", ("a", "b"))
        s123 = S12.union(Scope.of([v3]))
        expr = GeneratorSet.of(s123, [Gamble.on(s123, [1, -1, 0, 0, 2, 0, 0, -2])])
        once = condition(
            condition(expr, Assignment.of({V1: "a"})), Assignment.of({v3: "b"})
        )
        joint = condition(expr, Assignment.of({V1: "a", v3: "b"}))
        assert isinstance(once, Conditioned)
        assert once == joint

    def test_lex_base_materialises(self):
        system = LexSystem(
            S12,
            (
                (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
                (F(1), F(0), F(0), F(0)),
                (F(0), F(1), F(0), F(0)),
                (F(0), F(0), F(1), F(0)),
            ),
        )
        cond = condition(system, Assignment.of({V1: "a"}))
        assert isinstance(cond, LexSystem)
        assert cond.scope == S2

    def test_updated_membership_matches_indicator_rewrite(self):
        expr = two_vertex()
        given = Assignment.of({V1: "a"})
        view = condition(expr, given)
        mask = indicator(given, S12)
        for g in gamble_grid(S2, lo=-1, hi=1):
            assert member(view, g) is member(expr, mask * g.embed(S12))


class TestConditionalFamilies:
    """A family is keyed by its ``on`` variables, which its scope leaves out."""

    v3 = Variable("X3", ("a", "b"))
    s23 = S2.union(Scope.of([v3]))
    entry_a = GeneratorSet.of(s23, [Gamble.on(s23, [1, -1, 0, 0])])
    entry_b = LexSystem.on(s23, [["1/4", "1/4", "1/4", "1/4"], [1, 0, 0, 0]])

    def family(self):
        return ConditionalFamily(
            on=S1,
            entries=(
                (Assignment.of({V1: "a"}), self.entry_a),
                (Assignment.of({V1: "b"}), self.entry_b),
            ),
        )

    def test_conditioning_on_the_key_returns_the_entry(self):
        assert condition(self.family(), Assignment.of({V1: "a"})) == self.entry_a
        assert condition(self.family(), Assignment.of({V1: "b"})) == self.entry_b

    def test_the_rest_of_the_assignment_conditions_the_entry(self):
        given = Assignment.of({V1: "b", V2: "a"})
        want = condition(self.entry_b, Assignment.of({V2: "a"}))
        assert isinstance(want, LexSystem) and want.scope == Scope.of([self.v3])
        assert condition(self.family(), given) == want

    def test_an_assignment_missing_the_key_is_rejected(self):
        with pytest.raises(ScopeError, match="needs an assignment of all of"):
            condition(self.family(), Assignment.of({V2: "a"}))

    def test_variables_outside_key_and_entries_are_rejected(self):
        v9 = Variable("X9", ("a", "b"))
        with pytest.raises(ScopeError, match="outside scope"):
            condition(self.family(), Assignment.of({V1: "a", v9: "a"}))


class TestBarMembership:
    def test_positive_gambles_always_in(self):
        expr = two_vertex()
        given = Assignment.of({V1: "a"})
        assert (
            condition_bar_member(expr, given, Gamble.on(S12, [1, 2, 1, 1]))
            is Tri.IN
        )

    def test_decided_by_the_event_slice(self):
        expr = two_vertex()
        given = Assignment.of({V1: "b"})
        # slice (1,-1) at X1=b prices at 0 and -1/2 under the two vertices
        f = Gamble.on(S12, [-5, 0, 1, -1])
        assert condition_bar_member(expr, given, f) is Tri.OUT
        # slice (4,-1) prices at 3/2 and 1/4, strictly positive under both
        g = Gamble.on(S12, [-5, 0, 4, -1])
        assert condition_bar_member(expr, given, g) is Tri.IN

    def test_contingent_lean_on_null_event_is_out(self):
        expr = two_vertex()
        given = Assignment.of({V1: "a"})
        contingent = indicator(given, S12) * Gamble.on(S2, [1, -1]).embed(S12)
        assert condition_bar_member(expr, given, contingent) is Tri.OUT


class TestSampling:
    def test_grid_size_and_determinism(self):
        grid = list(gamble_grid(S1, lo=-1, hi=1))
        assert len(grid) == 9
        assert grid == list(gamble_grid(S1, lo=-1, hi=1))

    def test_small_spaces_enumerate_exhaustively(self):
        drawn = sample_gambles(S1, budget=100, lo=-1, hi=1, seed=5)
        assert len(drawn) == 9

    def test_large_spaces_fall_back_to_seeded_draws(self):
        drawn = sample_gambles(S12, budget=10, seed=5)
        again = sample_gambles(S12, budget=10, seed=5)
        assert drawn == again and len(drawn) == 10
