"""Irrelevance, independent products, and their refutation scans."""

import random

import pytest

from desirability import (
    BudgetExceededError,
    Gamble,
    GeneratorSet,
    IrrExt,
    LexSystem,
    MissingConditionError,
    Scope,
    ScopeError,
    Tri,
    Variable,
    factorisation_check,
    independent_product,
    inex_member,
    is_independent,
    is_irrelevant,
    member,
)
from desirability.desirable import (
    ConditionalFamily,
    IndepProduct,
    natext_member,
    scope_of,
)
from desirability.independence import conditional_inex, irrelevant_extension
from fractions import Fraction as F

from desirability.randgen import random_gamble, random_generator_set

from references import indicator

V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)

LEAN1 = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1])])
LEAN2 = GeneratorSet.of(S2, [Gamble.on(S2, [1, -1])])


class TestIrrelevantExtension:
    def test_generator_base_collapses_to_masked_generators(self):
        ext = irrelevant_extension(LEAN2, S1, S12)
        assert isinstance(ext, GeneratorSet)
        masked = {g.values for g in ext.generators}
        assert masked == {
            (F(1), F(-1), F(0), F(0)),
            (F(0), F(0), F(1), F(-1)),
        }

    def test_scope_overlap_rejected(self):
        with pytest.raises(ScopeError):
            irrelevant_extension(LEAN2, S2, S12)

    def test_embedded_base_member_accepted(self):
        ext = irrelevant_extension(LEAN2, S1, S12)
        assert member(ext, Gamble.on(S2, [1, -1]).embed(S12)) is Tri.IN

    def test_vacuous_base_extends_to_vacuous_joint(self):
        vacuous = GeneratorSet.of(S2, [])
        ext = irrelevant_extension(vacuous, S1, S12)
        assert member(ext, Gamble.on(S12, [1, 0, 0, -1])) is Tri.OUT
        assert member(ext, Gamble.on(S12, [1, 1, 0, 0])) is Tri.IN

    def test_slice_family_membership(self):
        # LEAN2 is coherent, so it accepts every nonnegative nonzero slice:
        # the node's members are exactly the slice family's.
        node = IrrExt(base=LEAN2, irrelevant=S1, target=S12)
        good = indicator(S1.assignment_at(0), S12) * Gamble.on(S2, [1, -1]).embed(
            S12
        )
        assert member(node, good) is Tri.IN
        assert member(node, Gamble.zero(S12)) is Tri.OUT
        # one slice inside the base, the other slice outside it
        assert member(node, Gamble.on(S12, [1, -1, -1, 1])) is Tri.OUT

    def test_no_irrelevant_variables_reduces_to_base(self):
        node = IrrExt(base=LEAN2, irrelevant=Scope.empty(), target=S2)
        assert member(node, Gamble.on(S2, [2, -2])) is Tri.IN
        assert member(node, Gamble.on(S2, [-1, 2])) is Tri.OUT


class TestIndependentProduct:
    def test_parts_must_be_disjoint(self):
        with pytest.raises(ScopeError):
            independent_product([LEAN1, GeneratorSet.of(S1, [Gamble.on(S1, [0, 1])])])

    def test_nested_products_flatten(self):
        v3 = Variable("X3", ("a", "b"))
        s3 = Scope.of([v3])
        lean3 = GeneratorSet.of(s3, [Gamble.on(s3, [1, -1])])
        nested = independent_product([independent_product([LEAN1, LEAN2]), lean3])
        assert scope_of(nested) == S12.union(s3)

    def test_single_part_is_the_part(self):
        assert independent_product([LEAN1]) == LEAN1

    def test_generator_parts_collapse(self):
        prod = independent_product([LEAN1, LEAN2])
        assert isinstance(prod, GeneratorSet)

    def test_sum_of_embedded_factors_accepted(self):
        prod = independent_product([LEAN1, LEAN2])
        f = Gamble.on(S1, [1, -1]).embed(S12) + Gamble.on(S2, [1, -1]).embed(S12)
        assert inex_member(prod, f) is Tri.IN

    def test_vacuous_product_keeps_only_positives(self):
        prod = independent_product(
            [GeneratorSet.of(S1, []), GeneratorSet.of(S2, [])]
        )
        assert inex_member(prod, Gamble.on(S12, [1, 1, 1, 0])) is Tri.IN
        assert inex_member(prod, Gamble.on(S12, [2, 1, 1, -1])) is Tri.OUT

    def test_lex_parts_stay_symbolic(self):
        m = LexSystem(S1, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        m2 = LexSystem(S2, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        prod = independent_product([m, m2])
        assert isinstance(prod, IndepProduct)
        assert inex_member(prod, Gamble.on(S12, [-1, 1, 1, -1])) is Tri.OUT
        assert inex_member(prod, Gamble.on(S12, [1, -1, -1, 1])) is Tri.OUT
        assert inex_member(prod, Gamble.on(S12, [1, 1, 1, -1])) is Tri.IN


class TestThreeBlockProducts:
    """Blocks of 2, 3 and 2 outcomes; the middle block's slices are not
    contiguous in the joint enumeration."""

    def test_uncollapsed_generator_product_agrees_with_the_collapse(self):
        variables = [
            Variable("A", ("a", "b")),
            Variable("B", ("a", "b", "c")),
            Variable("C", ("a", "b")),
        ]
        blocks = [Scope.of([v]) for v in variables]
        joint = Scope.of(variables)
        rng = random.Random("three-blocks-member")
        verdicts = []
        for _ in range(5):
            parts = tuple(
                random_generator_set(rng, s, count=rng.choice([1, 2])) for s in blocks
            )
            product = IndepProduct(parts)
            collapsed = independent_product(parts)
            assert isinstance(collapsed, GeneratorSet)
            for _ in range(8):
                # Near-members: a masked generator per slice, plus small noise.
                h = random_gamble(rng, joint, -1, 1)
                for part in parts:
                    for at in joint.difference(part.scope).assignments():
                        g = rng.choice(part.generators)
                        h = h + g.mask(at).embed(joint) * rng.randint(0, 2)
                verdict = inex_member(product, h) is Tri.IN
                assert verdict == natext_member(collapsed, h)
                verdicts.append(verdict)
        assert 5 <= sum(verdicts) <= len(verdicts) - 5


class TestPredicates:
    def test_extension_passes_irrelevance_scan(self):
        ext = irrelevant_extension(LEAN2, S1, S12)
        verdict = is_irrelevant(ext, S1, S2, budget=49, seed=0)
        assert verdict.passed
        assert verdict.mode == "exhaustive"

    def test_one_sided_assessment_fails_with_counterexample(self):
        masked = GeneratorSet.of(
            S12,
            [indicator(S1.assignment_at(0), S12) * Gamble.on(S2, [1, -1]).embed(S12)],
        )
        verdict = is_irrelevant(masked, S1, S2, budget=49, seed=0)
        assert not verdict.passed
        assert verdict.detail

    def test_empty_groups_pass_vacuously(self):
        verdict = is_irrelevant(LEAN1, Scope.empty(), S1, budget=10, seed=0)
        assert verdict.passed and verdict.mode == "vacuous"

    def test_product_is_independent(self):
        prod = independent_product([LEAN1, LEAN2])
        assert is_independent(prod, [S1, S2], budget=49, seed=0).passed

    def test_correlated_assessment_is_not(self):
        # accepts (1,-1) on X2 after seeing X1=a but not unconditionally
        correlated = GeneratorSet.of(
            S12,
            [indicator(S1.assignment_at(0), S12) * Gamble.on(S2, [1, -1]).embed(S12)],
        )
        verdict = is_independent(correlated, [S1, S2], budget=49, seed=0)
        assert not verdict.passed
        assert verdict.counterexample is not None

    @pytest.mark.parametrize("budget", [0, -1])
    def test_scans_reject_budgets_below_one(self, budget):
        prod = independent_product([LEAN1, LEAN2])
        with pytest.raises(BudgetExceededError):
            is_irrelevant(prod, S1, S2, budget=budget, seed=0)
        with pytest.raises(BudgetExceededError):
            is_independent(prod, [S1, S2], budget=budget, seed=0)
        with pytest.raises(BudgetExceededError):
            factorisation_check(prod, S1, S2, budget=budget, seed=0)

    def test_block_pairs_over_budget_raise_before_enumeration(self):
        # 3**40 labellings: the count must be refused before any is built.
        variables = [Variable("Z%02d" % k, ("a", "b")) for k in range(40)]
        blocks = [Scope.of([v]) for v in variables]
        fair = ((F(1, 2), F(1, 2)), (F(1), F(0)))
        prod = IndepProduct(tuple(LexSystem(s, fair) for s in blocks))
        with pytest.raises(BudgetExceededError, match="needs 12157663260033673250 irrelevance"):
            is_independent(prod, blocks, budget=10, seed=0)
        with pytest.raises(BudgetExceededError, match="needs 602 irrelevance"):
            is_independent(prod, [Scope.of(variables[:35])] + blocks[35:], budget=10, seed=0)

    def test_single_block_passes_vacuously(self):
        verdict = is_independent(LEAN1, [S1], budget=10, seed=0)
        assert verdict.passed

    def test_factorisation_on_a_product(self):
        prod = independent_product([LEAN1, LEAN2])
        assert factorisation_check(prod, S1, S2, budget=40, seed=0).passed

    def test_members_survive_positive_factors(self):
        prod = independent_product([LEAN1, LEAN2])
        f = Gamble.on(S2, [1, -1]).embed(S12)
        g = indicator(S1.assignment_at(0), S12) + Gamble.constant(S12, 1)
        assert inex_member(prod, f) is Tri.IN
        assert inex_member(prod, g * f) is Tri.IN


class TestConditionalProducts:
    def _family(self, entry_a, entry_b):
        return ConditionalFamily(
            on=S1,
            entries=(
                (S1.assignment_at(0), entry_a),
                (S1.assignment_at(1), entry_b),
            ),
        )

    def test_tables_must_share_keys(self):
        v3 = Variable("X3", ("a", "b"))
        s3 = Scope.of([v3])
        lean3 = GeneratorSet.of(s3, [Gamble.on(s3, [1, -1])])
        left = self._family(LEAN2, LEAN2)
        partial = ConditionalFamily(
            on=S1, entries=((S1.assignment_at(0), lean3),)
        )
        with pytest.raises(ValueError):
            conditional_inex([left, partial])

    def test_pointwise_product_of_slices(self):
        v3 = Variable("X3", ("a", "b"))
        s3 = Scope.of([v3])
        lean3 = GeneratorSet.of(s3, [Gamble.on(s3, [1, -1])])
        stronger = GeneratorSet.of(s3, [Gamble.on(s3, [1, -1]), Gamble.on(s3, [-1, 2])])
        left = self._family(LEAN2, LEAN2)
        right = self._family(lean3, stronger)
        table = conditional_inex([left, right])
        assert table.on == S1
        for j, factor in ((0, lean3), (1, stronger)):
            at = S1.assignment_at(j)
            slice_prod = table.at(at)
            want = independent_product([LEAN2, factor])
            assert slice_prod == want

    def test_missing_entry_fails_loudly(self):
        left = self._family(LEAN2, LEAN2)
        table = conditional_inex([left])
        probe = Variable("X9", ("a", "b"))
        with pytest.raises(MissingConditionError):
            table.at(Scope.of([probe]).assignment_at(0))

    def test_identical_slices_per_block_give_identical_products(self):
        left = self._family(LEAN2, LEAN2)
        v3 = Variable("X3", ("a", "b"))
        s3 = Scope.of([v3])
        lean3 = GeneratorSet.of(s3, [Gamble.on(s3, [1, -1])])
        right = self._family(lean3, lean3)
        table = conditional_inex([left, right])
        assert table.at(S1.assignment_at(0)) == table.at(S1.assignment_at(1))
