"""Gambles held as integer numerators over one denominator.

A gamble keeps its values as ints over one positive denominator, and
every node kind decides membership on those ints.  The tests below check
three things:

* the int form is the rational value exactly: a gamble built from ints
  equals its ``Fraction``-built twin and hashes alike, and every operation
  agrees with the same operation done on ``Fraction`` values;
* rescaling is harmless: every node denotes a cone, so ``k * f`` and ``f``
  are members together for every rational ``k > 0``;
* the int path gives the verdicts of the ``Fraction`` path it replaced
  (``references.fraction_member`` and the ``fraction_*`` scans), field for
  field, on every LP-free node kind, on generator sets, whose reference
  is Fourier-Motzkin elimination, on strong products and on independent
  products, whose reference is the flat signature enumeration, nested
  ones included, on 2x2, 3x2 and 2x2x2 scopes.
"""

import copy
import gc
import math
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    Assignment,
    BudgetExceededError,
    DesirabilityError,
    ExactnessError,
    Gamble,
    IrrExt,
    LexSystem,
    Scope,
    Tri,
    UnsupportedQueryError,
    Variable,
    is_independent,
    is_irrelevant,
    member,
    strictly_desirable,
)
from desirability.desirable import (
    CellSet, ConditionalFamily, Conditioned, IndepProduct, StrongProduct, avoids_nonpositivity,
    scope_of,
)
from desirability.independence import factorisation_check, irrelevant_extension
from desirability.structure import condition, sample_gambles
from randgen import random_credal, random_generator_set, random_mass

from references import (
    depends_only_on,
    fraction_factorisation_check,
    fraction_is_independent,
    fraction_is_irrelevant,
    fraction_member,
    fraction_sample_gambles,
    fraction_values,
)

F = Fraction
A2 = Variable("A", ("a", "b"))
A3 = Variable("A", ("a", "b", "c"))
B2 = Variable("B", ("a", "b"))
C2 = Variable("C", ("a", "b"))


def one(*variables):
    return Scope.of(variables)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
positive = st.fractions(min_value=F(1, 9), max_value=40, max_denominator=9)


def fraction_gamble(rng, scope):
    """Values with mixed small denominators, zeros included."""
    return Gamble(
        scope,
        tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(scope.size)),
    )


# ---------------------------------------------------------------------------
# the int form is the rational value
# ---------------------------------------------------------------------------


@given(st.lists(rationals, min_size=4, max_size=4), st.integers(min_value=1, max_value=30))
def test_int_built_gamble_equals_its_fraction_twin(values, extra):
    scope = one(A2, B2)
    twin = Gamble(scope, tuple(values))
    # The same values over a denominator that is not the least one.
    den = extra * max(v.denominator for v in values) * 2520
    built = Gamble._from_ints(scope, tuple(v.numerator * den // v.denominator for v in values), den)
    assert built == twin
    assert hash(built) == hash(twin)
    assert built.values == twin.values
    assert (built.nums, built.den) == (twin.nums, twin.den)
    assert all(F(n, twin.den) == v for n, v in zip(twin.nums, values))


@given(st.lists(rationals, min_size=4, max_size=4))
def test_int_form_is_in_lowest_terms(values):
    g = Gamble(one(A2, B2), tuple(values))
    assert g.den == math.lcm(*[v.denominator for v in values])
    assert math.gcd(g.den, *g.nums) == 1


def test_public_constructors_reject_inexact_values():
    scope = one(A2)
    for bad in ((0.5, F(1)), (True, F(1)), (1, F(1))):
        with pytest.raises(ExactnessError):
            Gamble(scope, bad)
    for bad in ([0.5, 1], [True, 1], ["0.5", "1"]):
        with pytest.raises(ExactnessError):
            Gamble.on(scope, bad)
    with pytest.raises(ExactnessError):
        Gamble.constant(scope, 0.25)


def test_gambles_are_immutable_and_copy_by_value():
    g = Gamble.on(one(A2), ["1/2", 2])
    with pytest.raises(FrozenInstanceError):
        g.nums = (3, 4)
    with pytest.raises(FrozenInstanceError):
        del g.den
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.values == g.values


@given(
    st.lists(rationals, min_size=6, max_size=6),
    st.lists(rationals, min_size=2, max_size=2),
    rationals,
    st.integers(min_value=0, max_value=5),
)
def test_operations_agree_with_fraction_arithmetic(f_values, g_values, c, pick):
    f = Gamble(one(A3, B2), tuple(f_values))
    g = Gamble(one(B2), tuple(g_values))
    joint = f.scope
    fv, gv = fraction_values(f, joint), fraction_values(g, joint)

    def on_joint(values):
        return Gamble(joint, tuple(values))

    assert f + g == on_joint(a + b for a, b in zip(fv, gv))
    assert f - g == on_joint(a - b for a, b in zip(fv, gv))
    assert f * g == on_joint(a * b for a, b in zip(fv, gv))
    assert -f == on_joint(-a for a in fv)
    assert f * c == on_joint(c * a for a in fv)
    assert c * f == f * c
    assert f.shift(c) == on_joint(a + c for a in fv)
    assert g.embed(joint) == on_joint(gv)
    at = one(A3).assignment_at(pick % 3)
    assert f.slice_at(at).values == tuple(
        v for w, v in enumerate(fv) if joint.assignment_at(w).restrict(at.scope) == at
    )
    masked = [v if joint.assignment_at(w).restrict(at.scope) == at else F(0) for w, v in enumerate(fv)]
    assert f.mask(at) == on_joint(masked)
    assert (f + g).values == tuple(a + b for a, b in zip(fv, gv))
    assert f.is_zero() is all(v == 0 for v in fv)
    assert f.is_nonnegative() is all(v >= 0 for v in fv)
    assert f.is_nonpositive() is all(v <= 0 for v in fv)
    assert f.is_positive() is (all(v >= 0 for v in fv) and any(fv))
    flat, reduced = depends_only_on(g.embed(joint), one(B2))
    assert flat and reduced == g
    assert str(f) == "[" + ",".join(str(v) for v in fv) + "]"


def test_sampled_gambles_equal_their_fraction_twins():
    for scope, budget in ((one(A2, B2), 2000), (one(A3, B2, C2), 50)):
        for lo, hi in ((-3, 3), (0, 3)):
            got = sample_gambles(scope, budget=budget, seed=4, lo=lo, hi=hi)
            want = fraction_sample_gambles(scope, budget=budget, seed=4, lo=lo, hi=hi)
            assert got == want
            assert [hash(g) for g in got] == [hash(g) for g in want]


# ---------------------------------------------------------------------------
# models: every LP-free node kind and independent products, nested ones included
# ---------------------------------------------------------------------------


def maximal_lex(rng, scope):
    """A positive first mass, then unit masses on all outcomes but the last."""
    units = [tuple(F(int(w == u)) for w in range(scope.size)) for u in range(scope.size - 1)]
    rng.shuffle(units)
    return LexSystem(scope, (random_mass(rng, scope.size, positive=True),) + tuple(units))


# 2x2, 3x2 and 2x2x2: the base variable first, then the added ones.
SHAPES = ((A2, B2), (A3, B2), (A2, B2, C2))


def node_cases(seed):
    """(name, expression) pairs: every LP-free node kind on each shape, a
    generator set, a strong product of two strictly desirable sets, whose
    boundary queries are ``UNKNOWN``, with an extension and a conditioned
    node over it, and independent products: of a lexicographic, a strictly
    desirable or a generator marginal with a lexicographic one on 2x2 and
    3x2, next to the strong product of the two lexicographic marginals, and
    on 2x2x2 an extension and a conditioned node over a product.  Each case
    comes before the cases that wrap it.  The flat enumeration that decides
    products in ``fraction_member`` solves one LP per signature, so the
    nested products have few signatures (16 and 4), and the products do not
    depend on ``seed``, so that every test shares the verdicts
    ``references._enumerated`` keeps."""
    rng = random.Random("integer-gambles-%d" % seed)
    strong_rng = random.Random("integer-gambles-strong-%d" % seed)
    product_rng = random.Random("integer-gambles-product")
    cases = []
    for variables in SHAPES:
        a, b = variables[0], variables[1]
        joint = one(*variables)
        base = one(a)
        first_b = Assignment.of({b: "a"})
        first_a = Assignment.of({a: "a"})
        lex = maximal_lex(rng, joint)
        cells = strictly_desirable(random_credal(rng, joint, count=2))
        with_positives = CellSet(cells.scope, cells.cells, include_positive=True)
        lex_a = maximal_lex(rng, base)
        cells_ab = strictly_desirable(random_credal(rng, one(a, b), count=2))
        generators = random_generator_set(rng, one(a, b), count=2)
        cases += [
            ("lex", lex),
            ("lex-one-level", LexSystem(joint, lex.levels[:1])),
            ("cells", cells),
            ("cells-with-positives", with_positives),
            ("conditioned-lex", Conditioned(lex, first_a)),
            ("conditioned-cells", condition(cells, first_b)),
            ("irrext-lex", irrelevant_extension(lex_a, one(b), joint)),
            ("irrext-cells", irrelevant_extension(strictly_desirable(random_credal(rng, base)), one(b), joint)),
            ("cyl-lex", irrelevant_extension(lex_a, Scope.empty(), joint)),
            ("irrext-over-conditioned", irrelevant_extension(condition(cells_ab, first_b), one(b), joint)),
            ("conditioned-over-irrext", condition(irrelevant_extension(lex_a, one(b), joint), first_b)),
            ("irrext-over-irrext", IrrExt(irrelevant_extension(lex_a, one(b), one(a, b)), Scope.empty(), joint)),
            ("generators", generators),
            ("conditioned-generators", Conditioned(generators, first_b)),
            (
                "irrext-over-conditioned-generators",
                irrelevant_extension(Conditioned(generators, first_b), one(b), joint),
            ),
        ]
        strong = StrongProduct(tuple(
            strictly_desirable(random_credal(strong_rng, one(v))) for v in (a, b)
        ))
        cases += [
            ("strong", strong),
            ("irrext-strong", IrrExt(strong, Scope.empty(), joint)),
            ("conditioned-strong", Conditioned(strong, first_b)),
        ]
        lex_b = maximal_lex(product_rng, one(b))
        if len(variables) == 2:
            lex_base = maximal_lex(product_rng, base)
            cases += [
                ("strong-lex", StrongProduct((lex_base, lex_b))),
                ("product-lex", IndepProduct((lex_base, lex_b))),
                (
                    "product-cells",
                    IndepProduct((strictly_desirable(random_credal(product_rng, base)), lex_b)),
                ),
                (
                    "product-generators",
                    IndepProduct((random_generator_set(product_rng, base, count=1), lex_b)),
                ),
            ]
        else:
            c = variables[2]
            cells_ac = strictly_desirable(random_credal(product_rng, one(a, c)))
            generators_b = random_generator_set(product_rng, one(b), count=1)
            cases += [
                (
                    "irrext-product",
                    irrelevant_extension(
                        IndepProduct((maximal_lex(product_rng, base), lex_b)), one(c), joint
                    ),
                ),
                (
                    "conditioned-product",
                    Conditioned(IndepProduct((cells_ac, generators_b)), first_b),
                ),
            ]
    return cases


STRONG_KINDS = ("strong", "irrext-strong", "conditioned-strong")


def boundary_gambles(rng, expr, count):
    """Gambles on the first marginal of the strong product ``expr``, or of
    the one that ``expr`` wraps, shifted by their lower price, so that the
    marginal's lowest expectation is zero.  The strong product prices
    them, and their masked twins, at exactly zero: a boundary query,
    ``UNKNOWN`` unless the signs alone decide it."""
    product = expr if isinstance(expr, StrongProduct) else expr.base
    marginal = product.parts[0]
    shifted = []
    for _ in range(count):
        g = fraction_gamble(rng, marginal.scope)
        lower = min(sum(p * v for p, v in zip(mass, g.values)) for mass in marginal.from_credal)
        shifted.append(g.shift(-lower))
    return shifted


def test_cases_cover_every_node_kind():
    kinds = {type(expr).__name__ for _, expr in node_cases(0)}
    assert kinds == {
        "LexSystem", "CellSet", "Conditioned", "IrrExt", "IndepProduct", "GeneratorSet",
        "StrongProduct",
    }
    nested = [expr for _, expr in node_cases(0) if isinstance(expr, (IrrExt, Conditioned))]
    assert {type(expr.base).__name__ for expr in nested} >= {
        "LexSystem", "CellSet", "Conditioned", "IrrExt", "GeneratorSet", "StrongProduct",
        "IndepProduct",
    }


# ---------------------------------------------------------------------------
# scale invariance
# ---------------------------------------------------------------------------

SCALED_KINDS = (
    "lex", "cells", "irrext-lex", "conditioned-lex", "conditioned-cells", "irrext-over-conditioned",
)
# Each scaled node kind on the three shapes.
SCALED = {kind: [expr for name, expr in node_cases(1) if name == kind] for kind in SCALED_KINDS}


@pytest.mark.parametrize("name", sorted(SCALED))
@given(st.lists(rationals, min_size=8, max_size=8), positive, st.integers(min_value=0, max_value=2))
def test_membership_is_invariant_under_positive_scaling(name, values, k, shape):
    """``member(k * f) == member(f)`` for rational ``k > 0``: each node is a cone."""
    expr = SCALED[name][shape]
    scope = scope_of(expr)
    f = Gamble(scope, tuple(values[: scope.size]))
    scaled = Gamble(scope, tuple(k * v for v in f.values))
    assert member(expr, scaled) is member(expr, f)
    assert member(expr, scaled) is fraction_member(expr, f)


def _outcome(expr, f, budget):
    """The verdict on ``f``, or the type and message of the error raised."""
    try:
        return member(expr, f, budget=budget)
    except DesirabilityError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_node_kind_is_invariant_under_positive_scaling(seed):
    """``member(c * f) == member(f)`` for ``c`` in 1/3 and 7/2 on every node
    kind, and a query that raises raises the same error for both.

    Every kept test reads a gamble's numerators alone, so the products and
    generator sets, whose rows put those ints over the generators' lcm,
    must not depend on which positive multiple they get.  A budget of one
    stops the products and strong products that need more than one
    signature or vertex combination; a conditional family, and a product
    over a marginal that is not a leaf, answer no plain query."""
    rng = random.Random("integer-gambles-scaled-%d" % seed)
    lex_ac = maximal_lex(rng, one(A2, C2))
    unsupported = [
        ("family", ConditionalFamily(one(C2), ((Assignment.of({C2: "a"}), maximal_lex(rng, one(A2))),))),
        (
            "product-over-conditioned",
            IndepProduct((Conditioned(lex_ac, Assignment.of({C2: "b"})), maximal_lex(rng, one(B2)))),
        ),
    ]
    raised = set()
    for name, expr in node_cases(seed) + unsupported:
        scope = scope_of(expr)
        gambles = [fraction_gamble(rng, scope) for _ in range(30)]
        gambles += sample_gambles(scope, budget=30, seed=seed)
        for f in gambles:
            for budget in (100000, 1):
                want = _outcome(expr, f, budget)
                for c in (F(1, 3), F(7, 2)):
                    assert _outcome(expr, c * f, budget) == want, (name, f, c, budget)
                if not isinstance(want, Tri):
                    raised.add(want[0])
    assert raised == {BudgetExceededError, UnsupportedQueryError}


# ---------------------------------------------------------------------------
# the int path against the Fraction path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_membership_matches_the_fraction_path(seed):
    rng = random.Random("integer-gambles-queries-%d" % seed)
    seen = set()
    for name, expr in node_cases(seed):
        scope = scope_of(expr)
        gambles = [fraction_gamble(rng, scope) for _ in range(40)]
        gambles += sample_gambles(scope, budget=40, seed=seed)
        # A gamble on a subscope is identified with its extension.
        gambles += [fraction_gamble(rng, Scope(scope.variables[:1])) for _ in range(10)]
        if name in STRONG_KINDS:
            gambles += boundary_gambles(rng, expr, 10)
        for f in gambles:
            verdict = member(expr, f)
            assert verdict is fraction_member(expr, f), (name, f)
            seen.add((name, verdict))
    for name, _ in node_cases(seed):
        if name not in ("lex-one-level",):
            assert {(name, Tri.IN), (name, Tri.OUT)} <= seen, name
        if name in STRONG_KINDS:
            assert (name, Tri.UNKNOWN) in seen, name


def test_queried_nodes_copy_with_the_test_they_keep():
    """A queried node keeps its integer test; pickled or deep-copied, it
    equals the original and gives the same verdicts."""
    rng = random.Random("integer-gambles-copies")
    for name, expr in node_cases(5):
        scope = scope_of(expr)
        gambles = [fraction_gamble(rng, scope) for _ in range(30)]
        if name in STRONG_KINDS:
            gambles += boundary_gambles(rng, expr, 5)
        verdicts = [member(expr, f) for f in gambles]
        for twin in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
            assert twin == expr and hash(twin) == hash(expr), name
            assert vars(twin).keys() == vars(expr).keys(), name
            assert [member(twin, f) for f in gambles] == verdicts, name


def test_queried_nodes_are_freed_without_the_cycle_collector():
    """The test a node keeps never refers back to the node, so reference
    counting alone frees a queried node."""
    cases = node_cases(6)
    gc.disable()
    try:
        # Later cases may wrap earlier ones, so they are freed first.
        while cases:
            name, expr = cases.pop()
            member(expr, Gamble.on(scope_of(expr), range(-1, scope_of(expr).size - 1)))
            assert "_int_test" in vars(expr), name
            # The consistency cache keys on generator sets, not on their tests.
            avoids_nonpositivity.cache_clear()
            ref = weakref.ref(expr)
            del expr
            assert ref() is None, name
    finally:
        gc.enable()


def _scan_groups(expr):
    """(irrelevant, onto) pairs of single variables of the expression's scope."""
    variables = scope_of(expr).variables
    return [
        (one(u), one(v)) for u in variables for v in variables if u != v
    ]


def test_irrelevance_scans_match_the_fraction_path():
    for name, expr in node_cases(2):
        # The flat enumeration that decides products (and strong products
        # of lexicographic marginals) in ``fraction_member`` solves one LP
        # per signature, too many for the exhaustive grid of a ternary
        # variable: such a product on 3x2 runs the sampled scan alone.
        enumerated = isinstance(expr, IndepProduct) or name == "strong-lex"
        large_product = enumerated and scope_of(expr).size > 4
        for irrelevant, onto in _scan_groups(expr):
            for budget, seed in ((30, 3),) if large_product else ((2000, 0), (30, 3)):
                got = is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed)
                want = fraction_is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed)
                assert got == want, (name, irrelevant.names, onto.names)


def test_independence_scans_match_the_fraction_path():
    for name, expr in node_cases(3):
        blocks = [one(v) for v in scope_of(expr).variables]
        if len(blocks) < 2:
            continue
        got = is_independent(expr, blocks, budget=40, seed=1)
        assert got == fraction_is_independent(expr, blocks, budget=40, seed=1), name


def test_factorisation_checks_match_the_fraction_path():
    for name, expr in node_cases(4):
        for factor_scope, onto in _scan_groups(expr):
            got = factorisation_check(expr, factor_scope, onto, budget=12, seed=2)
            want = fraction_factorisation_check(expr, factor_scope, onto, budget=12, seed=2)
            assert got == want, (name, factor_scope.names, onto.names)
