"""Set expressions: exact membership, consistency certificates, audits."""

import random
from fractions import Fraction

import pytest

from desirability import (
    BudgetExceededError,
    CellSet,
    CredalSet,
    DesirabilityError,
    EngineError,
    Gamble,
    GeneratorSet,
    IncoherentBaseError,
    IrrExt,
    LexSystem,
    MissingConditionError,
    Scope,
    ScopeError,
    Tri,
    Variable,
    avoids_nonpositivity,
    inex_lower_prevision,
    inex_member,
    lower_prevision,
    member,
    strictly_desirable,
    strong_product_lower,
)
from desirability import desirable
from desirability.desirable import (
    Cell,
    CellRow,
    ConditionalFamily,
    IndepProduct,
    StrongProduct,
    cellset_coherence_audit,
    natext_member,
)
from desirability.structure import condition_bar_member
from desirability.previsions import strong_member
from desirability.exactlp import GE, Infeasible
from desirability.maximal import lex_is_maximal
from desirability.space import CACHE_MAXSIZE, _restriction_map, _slice_map
from desirability.randgen import random_gamble, random_generator_set

V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)
V3 = Variable("X3", ("a", "b", "c"))
S3 = Scope.of([V3])


def lean(scope=S1):
    return GeneratorSet.of(scope, [Gamble.on(scope, [1, -1])])


class TestTri:
    def test_values_do_not_coerce_to_bool(self):
        with pytest.raises(TypeError):
            bool(Tri.IN)

    def test_of_maps_booleans(self):
        assert Tri.of(True) is Tri.IN
        assert Tri.of(False) is Tri.OUT


class TestGeneratorSet:
    def test_deduplicates_and_sorts(self):
        f = Gamble.on(S1, [1, -1])
        g = Gamble.on(S1, [0, 1])
        built = GeneratorSet.of(S1, [f, g, f])
        assert built.generators == tuple(sorted([f, g], key=lambda x: x.values))

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            GeneratorSet.of(S1, [Gamble.zero(S1)])

    def test_embeds_marginal_generators(self):
        built = GeneratorSet.of(S12, [Gamble.on(S1, [1, -1])])
        assert built.generators[0].scope == S12


class TestConsistency:
    def test_opposed_pair_is_inconsistent(self):
        gens = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [-1, 1])])
        cert = avoids_nonpositivity(gens)
        assert not cert.avoids
        lam = cert.nonpositive_combination
        assert all(c >= 0 for c in lam) and any(c > 0 for c in lam)

    def test_single_direction_is_consistent(self):
        cert = avoids_nonpositivity(lean())
        assert cert.avoids
        p = cert.positive_mass
        assert sum(p) == 1 and all(v > 0 for v in p)
        assert Gamble.on(S1, p).dot((Fraction(1), Fraction(-1))) > 0

    def test_empty_assessment_is_consistent(self):
        assert avoids_nonpositivity(GeneratorSet.of(S1, [])).avoids

    @pytest.mark.parametrize(
        "scope, gambles, mass",
        [
            (S1, [[1, -1]], ["2/3", "1/3"]),
            (
                S12,
                [[1, -1, 0, 0], [0, 0, 2, -1], [-1, 3, 1, -2]],
                ["5/12", "1/4", "1/6", "1/6"],
            ),
            (S3, [[2, -1, -1], [-1, 2, 0], [0, -1, 3]], ["5/12", "1/3", "1/4"]),
        ],
    )
    def test_positive_mass_is_pinned(self, scope, gambles, mass):
        cone = GeneratorSet.of(scope, [Gamble.on(scope, g) for g in gambles])
        cert = avoids_nonpositivity.__wrapped__(cone)
        assert cert.positive_mass == tuple(Fraction(m) for m in mass)

    @pytest.mark.parametrize(
        "gambles, avoids",
        [([[1, -1, 0, 0], [0, 0, 2, -1]], True), ([[1, -1, 0, 0], [-1, 1, 0, 0]], False)],
    )
    def test_uncached_check_solves_one_lp(self, monkeypatch, gambles, avoids):
        calls = []
        for name in ("strict_feasible", "solve"):
            def counted(system, _real=getattr(desirable, name), _name=name):
                calls.append(_name)
                return _real(system)

            monkeypatch.setattr(desirable, name, counted)
        cone = GeneratorSet.of(S12, [Gamble.on(S12, g) for g in gambles])
        cert = avoids_nonpositivity.__wrapped__(cone)
        assert cert.avoids is avoids
        assert calls == ["strict_feasible"]
        if not avoids:
            assert cert.nonpositive_combination == (Fraction(1, 2), Fraction(1, 2))

    def test_bad_combination_raises_engine_error(self, monkeypatch):
        # Multipliers that put all their weight on the generator row claim
        # that (1, -1) alone is nonpositive; the substitution check refuses.
        bogus = Infeasible((Fraction(0), Fraction(0), Fraction(1)))
        monkeypatch.setattr(desirable, "strict_feasible", lambda system: bogus)
        with pytest.raises(EngineError):
            avoids_nonpositivity.__wrapped__(lean())

    def test_exhausted_draws_raise_budget_error(self):
        with pytest.raises(BudgetExceededError) as info:
            random_generator_set(random.Random(0), S1, attempts=0)
        assert isinstance(info.value, DesirabilityError)

    def test_process_wide_caches_stay_bounded(self):
        for cached in (avoids_nonpositivity, lex_is_maximal, _restriction_map, _slice_map):
            assert cached.cache_info().maxsize == CACHE_MAXSIZE
        for k in range(3 * CACHE_MAXSIZE):
            avoids_nonpositivity(GeneratorSet.of(S1, [Gamble.on(S1, [k + 1, -1])]))
            assert avoids_nonpositivity.cache_info().currsize <= CACHE_MAXSIZE


class TestNaturalExtensionMembership:
    def test_scaled_generator_accepted(self):
        assert natext_member(lean(), Gamble.on(S1, [2, -2]))

    def test_dominated_by_nothing_rejected(self):
        assert not natext_member(lean(), Gamble.on(S1, [0, -1]))

    def test_positive_accepted_without_generators(self):
        assert natext_member(lean(), Gamble.on(S1, [1, 0]))

    def test_zero_rejected(self):
        assert not natext_member(lean(), Gamble.zero(S1))

    def test_inconsistent_base_refuses(self):
        gens = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [-1, 1])])
        with pytest.raises(IncoherentBaseError):
            natext_member(gens, Gamble.on(S1, [1, 0]))

    def test_membership_matches_brute_cone_search(self):
        rng = random.Random("cone-search")
        for i in range(10):
            gens = random_generator_set(rng, S1, count=2)
            g1, g2 = gens.generators
            for f in (random_gamble(rng, S1, nonzero=True) for _ in range(6)):
                brute = False
                for a in range(0, 13):
                    for b in range(0, 13):
                        dominated = g1 * Fraction(a, 4) + g2 * Fraction(b, 4)
                        if all(
                            fv >= dv
                            for fv, dv in zip(f.values, dominated.values)
                        ):
                            brute = True
                            break
                    if brute:
                        break
                if brute:
                    assert natext_member(gens, f), "i=%d f=%s" % (i, f.values)


class TestCellSets:
    def test_strictly_desirable_membership(self):
        credal = CredalSet.of(S1, [("1/2", "1/2")])
        cells = strictly_desirable(credal)
        assert member(cells, Gamble.on(S1, [1, -1])) is Tri.OUT
        assert member(cells, Gamble.on(S1, [2, -1])) is Tri.IN
        assert member(cells, Gamble.on(S1, [0, 1])) is Tri.IN
        assert member(cells, Gamble.zero(S1)) is Tri.OUT

    def test_audit_passes_strictly_desirable(self):
        credal = CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        report = cellset_coherence_audit(strictly_desirable(credal))
        assert report.passed
        assert all(f.passed for f in report.findings)

    def test_audit_flags_weak_halfspace(self):
        halfspace = CellSet(
            S1,
            (Cell((CellRow(Gamble.on(S1, [1, 0]), GE),)),),
            include_positive=False,
        )
        report = cellset_coherence_audit(halfspace)
        assert not report.excludes_zero.passed
        assert report.excludes_zero.counterexample.is_zero()
        assert not report.passed


class TestDispatch:
    def test_extension_node_rejects_slice_violations(self):
        base = strictly_desirable(CredalSet.of(S2, [("1/2", "1/2")]))
        node = IrrExt(base, Scope.empty(), S12)
        lifted = Gamble.on(S2, [1, -1]).embed(S12)
        assert member(node, lifted) is Tri.OUT
        better = Gamble.on(S2, [2, -1]).embed(S12)
        assert member(node, better) is Tri.IN
        assert member(node, Gamble.on(S12, [1, -1, 0, 0])) is Tri.OUT

    def test_conditional_family_misses_loudly(self):
        family = ConditionalFamily(
            on=S1,
            entries=((S1.assignment_at(0), lean(S2)),),
        )
        with pytest.raises(MissingConditionError):
            family.at(S1.assignment_at(1))
        assert family.at(S1.assignment_at(0)) == lean(S2)


HALF1 = CredalSet.of(S1, [("1/2", "1/2")])
HALF2 = CredalSet.of(S2, [("1/2", "1/2")])
SURE1 = LexSystem.on(S1, [[1, 0], [0, 1]])
SURE2 = LexSystem.on(S2, [[1, 0], [0, 1]])
FOREIGN_ENTRY_POINTS = {
    "member": lambda f: member(lean(S1), f),
    "irr_member": lambda f: member(IrrExt(lean(S2), S1, S12), f),
    "inex_member": lambda f: inex_member(
        IndepProduct((lean(S1), strictly_desirable(HALF2))), f
    ),
    "lower_prevision": lambda f: lower_prevision(lean(S1), f),
    "lower_expectation": lambda f: HALF1.lower_expectation(f),
    "inex_lower_prevision": lambda f: inex_lower_prevision([HALF1, HALF2], f),
    "strong_product_lower": lambda f: strong_product_lower([HALF1, HALF2], f),
    "strong_member": lambda f: strong_member(StrongProduct((lean(S1), lean(S2))), f),
    "strong_member_lex": lambda f: strong_member(StrongProduct((SURE1, SURE2)), f),
    "condition_bar_member": lambda f: condition_bar_member(
        GeneratorSet.of(S12, []), S1.assignment_at(0), f
    ),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_ENTRY_POINTS))
def test_gamble_on_a_foreign_variable_raises_scope_error(entry):
    with pytest.raises(ScopeError):
        FOREIGN_ENTRY_POINTS[entry](Gamble.on(S3, [1, -1, 0]))
