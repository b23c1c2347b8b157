"""Seeded law suites: structural properties every model must satisfy.

Each suite builds at least twenty random instances from a fixed seed and
scans them for violations.  A suite returns a :class:`LawResult`; the
acceptance test asserts that every suite reports zero violations.  The
suites are regression guards, not proofs: membership queries are exact,
but set equalities are checked on sampled or exhaustive small grids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from desirability import (
    Gamble,
    GeneratorSet,
    IncoherentBaseError,
    IrrExt,
    LexSystem,
    Scope,
    Tri,
    Variable,
    avoids_nonpositivity,
    factorisation_check,
    gbr_residual,
    independent_product,
    is_independent,
    is_irrelevant,
    lex_is_maximal,
    member,
    strictly_desirable,
)
from desirability.desirable import natext_member
from desirability.structure import (
    condition,
    cyl_ext,
    gamble_grid,
    marginal_member,
    sample_gambles,
)
from desirability.independence import irrelevant_extension
from desirability.maximal import lex_condition, lex_member
from desirability.randgen import (
    random_credal,
    random_gamble,
    random_generator_set,
    random_mass,
)

from references import indicator, irr_member, strictly_prefers

V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
V3 = Variable("X3", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S3 = Scope.of([V3])
S12 = S1.union(S2)
S123 = S12.union(S3)

ONE = Fraction(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class LawResult:
    name: str
    instances: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _rng(tag: str) -> random.Random:
    return random.Random(tag)


def _sum_of(gambles) -> Gamble:
    total = None
    for g in gambles:
        total = g if total is None else total + g
    assert total is not None
    return total


def _always_rejected(gens: GeneratorSet) -> Gamble:
    """A gamble no natural extension of ``gens`` can contain.

    Any dominating combination would have a nonnegative expectation under
    the consistency certificate's strictly positive mass, but this gamble's
    expectation is strictly below every generator combination's.
    """
    return Gamble.constant(gens.scope, -1) - _sum_of(gens.generators)


def _random_model(r: random.Random, kind: int, scope: Scope):
    """Rotate through the three leaf representations on ``scope``."""
    if kind == 0:
        return random_generator_set(r, scope, count=2)
    if kind == 1:
        return strictly_desirable(random_credal(r, scope, count=2))
    return random_joint_lex(r, scope)


def random_joint_lex(r: random.Random, scope: Scope = S12) -> LexSystem:
    """A random maximal lex system with an everywhere-positive first level."""
    levels = [random_mass(r, scope.size, positive=True)]
    while not lex_is_maximal(LexSystem(scope, tuple(levels))):
        if len(levels) > 8:
            levels = [random_mass(r, scope.size, positive=True)]
        levels.append(random_mass(r, scope.size))
    return LexSystem(scope, tuple(levels))


# ---------------------------------------------------------------------------
# natural extension and preference axioms
# ---------------------------------------------------------------------------


def law_natural_extension_dichotomy() -> LawResult:
    """Consistent bases reject their anti-combination gamble and accept
    positives; inconsistent bases refuse to answer."""
    violations = []
    count = 24
    for i in range(count):
        r = _rng("natext-dichotomy-%d" % i)
        scope = S12 if i % 2 else S1
        gens = random_generator_set(r, scope, count=2)
        reject = _always_rejected(gens)
        if natext_member(gens, reject):
            violations.append("i=%d accepted the anti-combination gamble" % i)
        if natext_member(gens, Gamble.zero(scope)):
            violations.append("i=%d accepted the zero gamble" % i)
        lift = random_gamble(r, scope, lo=0, hi=2, nonzero=True)
        if not natext_member(gens, lift):
            violations.append("i=%d rejected a positive gamble" % i)
        g = random_gamble(r, scope, nonzero=True)
        bad = GeneratorSet.of(scope, [g, -g])
        try:
            natext_member(bad, lift)
        except IncoherentBaseError:
            pass
        else:
            violations.append("i=%d answered for an inconsistent base" % i)
    return LawResult("natural_extension_dichotomy", count, tuple(violations))


def law_rejected_gamble_coopt() -> LawResult:
    """Rejecting a gamble is always compatible with accepting its negation."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("coopt-%d" % i)
        scope = S1 if i % 2 else S12
        gens = random_generator_set(r, scope, count=2)
        outside = [_always_rejected(gens)]
        for _ in range(40):
            if len(outside) >= 3:
                break
            g = random_gamble(r, scope, nonzero=True)
            if not natext_member(gens, g):
                outside.append(g)
        for g in outside:
            grown = GeneratorSet.of(scope, list(gens.generators) + [-g])
            if not avoids_nonpositivity(grown).avoids:
                violations.append(
                    "i=%d: adding the negation of a rejected gamble broke "
                    "consistency" % i
                )
                break
    return LawResult("rejected_gamble_coopt", count, tuple(violations))


def law_strict_preference_axioms() -> LawResult:
    """Strict preference is irreflexive, monotone, transitive, and
    invariant under common mixtures."""
    violations = []
    count = 21
    mus = (ONE, HALF, THIRD)
    for i in range(count):
        r = _rng("preference-%d" % i)
        expr = _random_model(r, i % 3, S12)
        f = random_gamble(r, S12)
        g = random_gamble(r, S12)
        h = random_gamble(r, S12)
        if strictly_prefers(expr, f, f) is not Tri.OUT:
            violations.append("i=%d: preferred a gamble to itself" % i)
        delta = random_gamble(r, S12, lo=0, hi=2, nonzero=True)
        if strictly_prefers(expr, f + delta, f) is not Tri.IN:
            violations.append("i=%d: pointwise dominance not preferred" % i)
        members = []
        if isinstance(expr, GeneratorSet):
            members = list(expr.generators[:2])
        else:
            for cand in sample_gambles(S12, budget=25, seed=i):
                if member(expr, cand) is Tri.IN:
                    members.append(cand)
                if len(members) == 2:
                    break
        if len(members) == 2:
            m1, m2 = members
            chain = (
                strictly_prefers(expr, f, f - m1),
                strictly_prefers(expr, f - m1, f - m1 - m2),
                strictly_prefers(expr, f, f - m1 - m2),
            )
            if any(step is not Tri.IN for step in chain):
                violations.append("i=%d: transitive chain broke: %s" % (i, chain))
        base = strictly_prefers(expr, f, g)
        for mu in mus:
            mixed = strictly_prefers(
                expr, f * mu + h * (1 - mu), g * mu + h * (1 - mu)
            )
            if mixed is not base:
                violations.append(
                    "i=%d: mixing with weight %s changed the preference" % (i, mu)
                )
    return LawResult("strict_preference_axioms", count, tuple(violations))


def law_witness_exclusivity() -> LawResult:
    """Every assessment gets exactly one verified certificate: a strictly
    positive price vector or a nonpositive combination, never both."""
    violations = []
    count = 24
    for i in range(count):
        r = _rng("exclusivity-%d" % i)
        scope = S12 if i % 2 else S1
        gambles = [random_gamble(r, scope, nonzero=True) for _ in range(2 + i % 3)]
        if i % 3 == 2:
            gambles.append(-gambles[0])
        gens = GeneratorSet.of(scope, gambles)
        cert = avoids_nonpositivity(gens)
        has_mass = cert.positive_mass is not None
        has_combo = cert.nonpositive_combination is not None
        if has_mass == has_combo:
            violations.append("i=%d: not exactly one witness" % i)
            continue
        if cert.avoids is not has_mass:
            violations.append("i=%d: verdict disagrees with witness kind" % i)
        if has_mass:
            p = cert.positive_mass
            if len(p) != scope.size or any(v <= 0 for v in p) or sum(p) != 1:
                violations.append("i=%d: mass not strictly positive" % i)
            mass = Gamble.on(scope, p)
            if any(mass.dot(g.values) <= 0 for g in gens.generators):
                violations.append("i=%d: mass does not price every generator" % i)
        else:
            lam = cert.nonpositive_combination
            if any(c < 0 for c in lam) or all(c == 0 for c in lam):
                violations.append("i=%d: combination weights invalid" % i)
            combo = _sum_of(
                g * c for g, c in zip(gens.generators, lam)
            )
            if not combo.is_nonpositive():
                violations.append("i=%d: combination not nonpositive" % i)
    return LawResult("witness_exclusivity", count, tuple(violations))


# ---------------------------------------------------------------------------
# marginalisation, extension, conditioning
# ---------------------------------------------------------------------------


def law_nested_marginals() -> LawResult:
    """Marginalising in stages equals marginalising once."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("nested-marg-%d" % i)
        expr = random_generator_set(r, S123, count=2)
        probes = sample_gambles(S12, budget=6, seed=i) + sample_gambles(
            S1, budget=4, seed=i
        )
        for f in probes:
            direct = marginal_member(expr, S1, f)
            flat, _ = f.depends_only_on(S1.intersection(f.scope))
            staged = (
                Tri.IN
                if flat and marginal_member(expr, S12, f) is Tri.IN
                else Tri.OUT
            )
            if direct is not staged:
                violations.append(
                    "i=%d f=%s: staged %s vs direct %s"
                    % (i, f.values, staged, direct)
                )
    return LawResult("nested_marginals", count, tuple(violations))


def law_extension_marginal_identity() -> LawResult:
    """Extending to a larger scope and marginalising back changes nothing."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("ext-marg-%d" % i)
        if i % 2:
            base = strictly_desirable(random_credal(r, S1, count=2))
        else:
            base = random_generator_set(r, S1, count=2)
        ext = cyl_ext(base, S12)
        for f in sample_gambles(S1, budget=12, seed=i):
            lifted = marginal_member(ext, S1, f)
            original = member(base, f)
            if lifted is not original:
                violations.append(
                    "i=%d f=%s: extension %s vs base %s"
                    % (i, f.values, lifted, original)
                )
    return LawResult("extension_marginal_identity", count, tuple(violations))


def _coherence_probe(
    label: str, accepts, violations: list, seed: int
) -> None:
    """Assert a membership oracle behaves like a coherent set on samples."""
    zero = Gamble.zero(S2)
    if accepts(zero):
        violations.append("%s accepted the zero gamble" % label)
    r = _rng("coherence-probe-%s" % label)
    for _ in range(3):
        lift = random_gamble(r, S2, lo=0, hi=2, nonzero=True)
        if not accepts(lift):
            violations.append("%s rejected a positive gamble" % label)
            break
    accepted = []
    for cand in sample_gambles(S2, budget=20, seed=seed):
        if accepts(cand):
            accepted.append(cand)
        if len(accepted) == 4:
            break
    for j in range(len(accepted)):
        for k in range(j + 1, len(accepted)):
            if not accepts(accepted[j] + accepted[k]):
                violations.append("%s rejected a sum of accepted gambles" % label)
                return


def law_conditioned_views_coherent() -> LawResult:
    """Observing an event leaves a coherent set over the remaining variables."""
    violations = []
    count = 21
    for i in range(count):
        r = _rng("cond-coherent-%d" % i)
        expr = _random_model(r, i % 3, S12)
        given = S1.assignment_at(i % 2)
        view = condition(expr, given)
        _coherence_probe(
            "i=%d conditioned" % i,
            lambda f: member(view, f) is Tri.IN,
            violations,
            seed=i,
        )
    return LawResult("conditioned_views_coherent", count, tuple(violations))


def law_marginal_views_coherent() -> LawResult:
    """Forgetting variables leaves a coherent set over the rest."""
    violations = []
    count = 21
    for i in range(count):
        r = _rng("marg-coherent-%d" % i)
        expr = _random_model(r, i % 3, S12)
        _coherence_probe(
            "i=%d marginal" % i,
            lambda f: marginal_member(expr, S2, f) is Tri.IN,
            violations,
            seed=i,
        )
    return LawResult("marginal_views_coherent", count, tuple(violations))


def law_marginal_conditioning_commutes() -> LawResult:
    """Conditioning then marginalising equals marginalising then conditioning."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("commute-%d" % i)
        expr = random_generator_set(r, S123, count=2)
        given = S1.assignment_at(i % 2)
        for f in sample_gambles(S2, budget=12, seed=i):
            lhs = marginal_member(condition(expr, given), S2, f)
            rhs = marginal_member(
                expr, S12, indicator(given, S12) * f.embed(S12)
            )
            if lhs is not rhs:
                violations.append(
                    "i=%d f=%s: %s vs %s" % (i, f.values, lhs, rhs)
                )
    return LawResult("marginal_conditioning_commutes", count, tuple(violations))


def law_sequential_updating() -> LawResult:
    """Observations may arrive in any order without changing the update."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("sequential-%d" % i)
        expr = random_generator_set(r, S123, count=2)
        first = S1.assignment_at(i % 2)
        second = S3.assignment_at((i // 2) % 2)
        routes = (
            condition(condition(expr, first), second),
            condition(condition(expr, second), first),
            condition(expr, first.union(second)),
        )
        for f in sample_gambles(S2, budget=10, seed=i):
            answers = {member(route, f) for route in routes}
            if len(answers) != 1:
                violations.append(
                    "i=%d f=%s: routes disagree %s" % (i, f.values, answers)
                )
    return LawResult("sequential_updating", count, tuple(violations))


# ---------------------------------------------------------------------------
# irrelevance and independent products
# ---------------------------------------------------------------------------


def _mixed_sign_gamble(r: random.Random, scope: Scope) -> Gamble:
    while True:
        g = random_gamble(r, scope, nonzero=True)
        if any(v > 0 for v in g.values) and any(v < 0 for v in g.values):
            return g


def law_irrelevance_detects_masking() -> LawResult:
    """Irrelevant extensions pass the irrelevance scan; one-sided masked
    assessments are refuted with a counterexample."""
    violations = []
    passing, refuted, vacuous = 14, 6, 2
    for i in range(passing):
        r = _rng("irrelevant-pass-%d" % i)
        if i % 2:
            base = strictly_desirable(random_credal(r, S2, count=2))
        else:
            base = random_generator_set(r, S2, count=2)
        ext = irrelevant_extension(base, S1, S12)
        verdict = is_irrelevant(ext, S1, S2, budget=49, seed=i)
        if not verdict.passed:
            violations.append("i=%d: extension failed: %s" % (i, verdict.detail))
    for i in range(refuted):
        r = _rng("irrelevant-fail-%d" % i)
        g = _mixed_sign_gamble(r, S2)
        masked = GeneratorSet.of(
            S12, [indicator(S1.assignment_at(i % 2), S12) * g.embed(S12)]
        )
        verdict = is_irrelevant(masked, S1, S2, budget=49, seed=i)
        if verdict.passed:
            violations.append(
                "i=%d: one-sided assessment passed the irrelevance scan" % i
            )
    for i in range(vacuous):
        r = _rng("irrelevant-vacuous-%d" % i)
        expr = random_generator_set(r, S12, count=2)
        verdict = is_irrelevant(expr, Scope.empty(), S2, budget=10, seed=i)
        if not verdict.passed or verdict.mode != "vacuous":
            violations.append("i=%d: empty observation group not vacuous" % i)
    return LawResult(
        "irrelevance_detects_masking",
        passing + refuted + vacuous,
        tuple(violations),
    )


def law_product_factorises() -> LawResult:
    """Members of a product survive multiplication by positive factors of
    the other block."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("factorise-%d" % i)
        prod = independent_product(
            [
                random_generator_set(r, S1, count=2),
                random_generator_set(r, S2, count=2),
            ]
        )
        verdict = factorisation_check(prod, S1, S2, budget=40, seed=i)
        if not verdict.passed:
            violations.append("i=%d: %s" % (i, verdict.detail))
    return LawResult("product_factorises", count, tuple(violations))


def law_product_coherent() -> LawResult:
    """Products accept every positive gamble and no nonpositive one."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("product-coherent-%d" % i)
        prod = independent_product(
            [
                random_generator_set(r, S1, count=2),
                random_generator_set(r, S2, count=2),
            ]
        )
        for f in gamble_grid(S12, lo=-1, hi=1):
            if f.is_zero():
                if member(prod, f) is Tri.IN:
                    violations.append("i=%d: accepted zero" % i)
                continue
            if f.is_nonpositive() and member(prod, f) is Tri.IN:
                violations.append("i=%d: accepted nonpositive %s" % (i, f.values))
                break
            if f.is_positive() and member(prod, f) is not Tri.IN:
                violations.append("i=%d: rejected positive %s" % (i, f.values))
                break
    return LawResult("product_coherent", count, tuple(violations))


def law_product_marginals() -> LawResult:
    """Forgetting one block of a product recovers the other block's model."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("product-marg-%d" % i)
        first = random_generator_set(r, S1, count=2)
        second = random_generator_set(r, S2, count=2)
        prod = independent_product([first, second])
        for f in sample_gambles(S1, budget=10, seed=i):
            got = marginal_member(prod, S1, f)
            want = Tri.of(natext_member(first, f) if not f.is_zero() else False)
            if got is not want:
                violations.append(
                    "i=%d f=%s: product %s vs factor %s" % (i, f.values, got, want)
                )
    return LawResult("product_marginals", count, tuple(violations))


def law_conditioned_product_marginals() -> LawResult:
    """Observing one block of a product leaves the other block unchanged."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("product-cond-%d" % i)
        first = random_generator_set(r, S1, count=2)
        second = random_generator_set(r, S2, count=2)
        prod = independent_product([first, second])
        for j in range(2):
            view = condition(prod, S1.assignment_at(j))
            for f in sample_gambles(S2, budget=8, seed=i):
                got = member(view, f)
                want = Tri.of(
                    natext_member(second, f) if not f.is_zero() else False
                )
                if got is not want:
                    violations.append(
                        "i=%d x=%d f=%s: conditioned %s vs factor %s"
                        % (i, j, f.values, got, want)
                    )
    return LawResult("conditioned_product_marginals", count, tuple(violations))


def law_conditioning_preserves_maximality() -> LawResult:
    """Observing an event in a maximal model leaves a maximal model."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("lex-cond-%d" % i)
        system = random_joint_lex(r)
        for piece, j in ((S1, 0), (S1, 1), (S2, 0), (S2, 1)):
            given = piece.assignment_at(j)
            cond = lex_condition(system, given)
            if not lex_is_maximal(cond):
                violations.append("i=%d %s: conditioned system not maximal" % (i, given))
                continue
            mask = indicator(given, S12)
            for g in sample_gambles(cond.scope, budget=6, seed=i):
                got = lex_member(cond, g)
                want = lex_member(system, mask * g.embed(S12))
                if got is not want:
                    violations.append(
                        "i=%d %s g=%s: %s vs %s" % (i, given, g.values, got, want)
                    )
                    break
    return LawResult("conditioning_preserves_maximality", count, tuple(violations))


def law_irrelevant_extension_marginals() -> LawResult:
    """The slice-constrained family and its extension both marginalise and
    condition back to the base model, and the family's slice table agrees
    with slices read one by one.

    The bases are coherent, so a nonnegative nonzero slice is a member:
    skipping nonnegative slices, as ``member`` does, and skipping zero
    slices, as the reference ``irr_member`` does, give one verdict."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("irrext-marg-%d" % i)
        if i % 2:
            base = strictly_desirable(random_credal(r, S2, count=2))
        else:
            base = random_generator_set(r, S2, count=2)
        family = IrrExt(base=base, irrelevant=S1, target=S12)
        ext = irrelevant_extension(base, S1, S12)
        for f in sample_gambles(S2, budget=8, seed=i):
            want = member(base, f)
            flat = irr_member(family, f.embed(S12))
            if flat is not want:
                violations.append(
                    "i=%d f=%s: family %s vs base %s" % (i, f.values, flat, want)
                )
                break
            for j in range(2):
                back = member(condition(ext, S1.assignment_at(j)), f)
                if back is not want:
                    violations.append(
                        "i=%d f=%s x=%d: conditioned extension %s vs base %s"
                        % (i, f.values, j, back, want)
                    )
                    break
        for g in sample_gambles(S12, budget=16, seed=i):
            tabled = member(family, g)
            sliced = irr_member(family, g)
            if tabled is not sliced:
                violations.append(
                    "i=%d g=%s: slice table %s vs slices %s"
                    % (i, g.values, tabled, sliced)
                )
                break
    return LawResult("irrelevant_extension_marginals", count, tuple(violations))


def law_zero_shift_balance() -> LawResult:
    """Buying a gamble at its conditional price, contingent on the event,
    is marginally acceptable: the joint price of the contingent deal is 0."""
    violations = []
    count = 20
    for i in range(count):
        r = _rng("balance-%d" % i)
        if i % 2:
            expr = strictly_desirable(random_credal(r, S12, count=2))
        else:
            expr = random_generator_set(r, S12, count=2)
        given = S1.assignment_at(i % 2)
        for _ in range(4):
            g = random_gamble(r, S2)
            residual = gbr_residual(expr, given, g)
            if residual != 0:
                violations.append(
                    "i=%d g=%s: residual %s" % (i, g.values, residual)
                )
    return LawResult("zero_shift_balance", count, tuple(violations))


LAWS = (
    law_natural_extension_dichotomy,
    law_rejected_gamble_coopt,
    law_strict_preference_axioms,
    law_witness_exclusivity,
    law_nested_marginals,
    law_extension_marginal_identity,
    law_conditioned_views_coherent,
    law_marginal_views_coherent,
    law_marginal_conditioning_commutes,
    law_sequential_updating,
    law_irrelevance_detects_masking,
    law_product_factorises,
    law_product_coherent,
    law_product_marginals,
    law_conditioned_product_marginals,
    law_conditioning_preserves_maximality,
    law_irrelevant_extension_marginals,
    law_zero_shift_balance,
)


def run_all_laws() -> list[LawResult]:
    return [law() for law in LAWS]
