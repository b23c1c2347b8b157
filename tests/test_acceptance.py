"""End-to-end acceptance checks, one per headline capability.

The first block replays the built-in worked examples with their frozen
prices and verdicts.  The randomised blocks then stress the engine from
the outside: witness constructions are re-verified by membership
queries, the two joint-price programs are compared for exact equality,
the independent product is checked for associativity, the algebraic law
suites are run in bulk, and the simplex core is compared against
independent oracles (Fourier-Motzkin projection, credal envelopes,
closed-form product expectations).
"""

import random
from fractions import Fraction

from desirability import (
    CredalSet,
    Gamble,
    GeneratorSet,
    LexSystem,
    Scope,
    Tri,
    Variable,
    avoids_nonpositivity,
    credal_vertices,
    credal_view,
    independent_product,
    inex_lower_prevision,
    inex_member,
    lex_is_maximal,
    lower_prevision,
    nonmaximality_witness,
)
from desirability.exactlp import GE, LinRow, LinSystem
from desirability.fixtures import two_vertex_models
from desirability.desirable import IndepProduct, member, natext_member
from randgen import random_maximal_binary_lex

from laws import run_all_laws
from references import fm_feasible

F = Fraction


def _scopes(sizes, tag="X"):
    variables = [
        Variable("%s%d" % (tag, i + 1), tuple("abc"[:k]))
        for i, k in enumerate(sizes)
    ]
    return [Scope.of([v]) for v in variables], Scope.of(variables)


def _random_gamble(r, scope, span=2, denom=4):
    return Gamble.on(
        scope, [F(r.randint(-span * denom, span * denom), denom) for _ in range(scope.size)]
    )


def _random_consistent_generators(r, scope, count):
    while True:
        gens = []
        while len(gens) < count:
            g = _random_gamble(r, scope, span=3)
            if not g.is_zero() and not g.is_nonpositive():
                gens.append(g)
        candidate = GeneratorSet.of(scope, gens)
        if avoids_nonpositivity(candidate).avoids:
            return candidate


def _fixture(example_results, name):
    result = example_results[name]
    assert result.passed, "%s: %s" % (name, result.detail)
    return result


# ---------------------------------------------------------------------------
# worked examples with frozen values
# ---------------------------------------------------------------------------


def test_two_vertex_boundary_membership_and_price_envelope(example_results):
    _fixture(example_results, "two-vertex-prices")
    _, _, joint, strict, widened = two_vertex_models()
    g = Gamble.on(joint, [2, -1, 0, 0])
    assert member(strict, g) is Tri.OUT
    assert member(widened, g) is Tri.IN


def test_conditional_prices_split_minimum_from_average(example_results):
    _fixture(example_results, "updated-prices")


def test_lexicographic_pair_product_rejects_both_orientations(example_results):
    _fixture(example_results, "product-nonmaximality")
    scopes, joint = _scopes([2, 2])
    half = (F(1, 2), F(1, 2))
    heads = (F(1), F(0))
    m1 = LexSystem(scopes[0], (half, heads))
    m2 = LexSystem(scopes[1], (half, heads))
    assert lex_is_maximal(m1) and lex_is_maximal(m2)
    h = Gamble.on(joint, [-1, 1, 1, -1])
    product = IndepProduct((m1, m2))
    assert inex_member(product, h) is Tri.OUT
    assert inex_member(product, -h) is Tri.OUT


def test_maximal_joint_strictly_contains_the_product(example_results):
    _fixture(example_results, "maximal-product-superset")


def test_strong_product_price_exceeds_the_independent_minimum(example_results):
    result = _fixture(example_results, "strong-vs-independent-gap")
    assert "-39/500" in result.detail


# ---------------------------------------------------------------------------
# randomised constructions, verified per instance
# ---------------------------------------------------------------------------


def test_every_random_maximal_pair_yields_a_verified_witness():
    r = random.Random("acceptance-witness")
    scopes, _ = _scopes([2, 2], tag="W")
    successes = 0
    degenerate_draws = 0
    for i in range(50):
        m1 = random_maximal_binary_lex(r, scopes[0])
        m2 = random_maximal_binary_lex(r, scopes[1])
        assert lex_is_maximal(m1) and lex_is_maximal(m2)
        degenerate_draws += (0 in m1.levels[0]) + (0 in m2.levels[0])
        # the constructor re-verifies both rejections and raises on failure
        w = nonmaximality_witness(m1, m2)
        assert not w.is_zero()
        if i % 10 == 0:
            product = independent_product([m1, m2])
            assert inex_member(product, w) is Tri.OUT
            assert inex_member(product, -w) is Tri.OUT
        successes += 1
    assert successes == 50
    assert degenerate_draws >= 5, "sampler never produced degenerate levels"


def test_joint_price_program_matches_collapsed_cone_price():
    r = random.Random("acceptance-bridge")
    size_plan = [(2, 2)] * 24 + [(2, 3)] * 5 + [(3, 3)]
    mismatches = []
    for pair_index, sizes in enumerate(size_plan):
        scopes, joint = _scopes(sizes)
        parts = [
            _random_consistent_generators(r, s, r.choice([1, 2])) for s in scopes
        ]
        product = independent_product(parts)
        credals = [credal_view(part) for part in parts]
        for _ in range(20):
            f = _random_gamble(r, joint)
            direct = lower_prevision(product, f)
            allocated = inex_lower_prevision(credals, f)
            if direct != allocated:
                mismatches.append((pair_index, f.values, direct, allocated))
    assert not mismatches, mismatches[:3]


def test_independent_product_is_associative_under_queries():
    r = random.Random("acceptance-associative")
    scopes, joint = _scopes([2, 2, 2])
    for trial in range(20):
        blocks = [
            _random_consistent_generators(r, s, r.choice([1, 2])) for s in scopes
        ]
        flat = independent_product(blocks)
        left = independent_product(
            [blocks[0], independent_product(blocks[1:])]
        )
        right = independent_product(
            [independent_product(blocks[:2]), blocks[2]]
        )
        assert isinstance(flat, GeneratorSet)
        # the collapse is canonical, so equal objects answer every query alike
        assert flat == left == right
        grouped = IndepProduct(
            (blocks[0], independent_product(blocks[1:]))
            if trial % 2
            else (independent_product(blocks[:2]), blocks[2])
        )
        for _ in range(4):
            f = _random_gamble(r, joint)
            assert (inex_member(grouped, f) is Tri.IN) == natext_member(flat, f)


def test_randomised_law_suites_hold():
    for result in run_all_laws():
        assert result.instances >= 20, result.name
        assert result.passed, "%s: %s" % (result.name, result.violations[:2])


# ---------------------------------------------------------------------------
# independent oracles for the solver core
# ---------------------------------------------------------------------------


def _membership_by_projection(gens, f):
    names = tuple("l%d" % i for i in range(len(gens.generators)))
    rows = [
        LinRow(
            tuple(-g.values[w] for g in gens.generators), GE, -f.values[w]
        )
        for w in range(gens.scope.size)
    ]
    for i in range(len(names)):
        unit = tuple(F(1 if j == i else 0) for j in range(len(names)))
        rows.append(LinRow(unit, GE, F(0)))
    return fm_feasible(LinSystem(len(names), tuple(rows)))


def test_engine_agrees_with_independent_oracles():
    r = random.Random("acceptance-oracles")

    # dominated-combination feasibility via Fourier-Motzkin projection
    for sizes in ([2], [3], [2, 2]):
        scopes, joint = _scopes(sizes, tag="O")
        for _ in range(8):
            gens = _random_consistent_generators(r, joint, 2)
            for _ in range(6):
                f = _random_gamble(r, joint)
                if f.is_zero():
                    continue
                assert natext_member(gens, f) == _membership_by_projection(
                    gens, f
                ), (sizes, f.values)

    # price queries against the enumerated credal envelope
    for sizes in ([2], [3]):
        _, joint = _scopes(sizes, tag="P")
        for _ in range(10):
            gens = _random_consistent_generators(r, joint, 2)
            vertices = credal_vertices(gens).vertices
            for _ in range(4):
                f = _random_gamble(r, joint)
                envelope = min(
                    sum(p[w] * f.values[w] for w in range(joint.size))
                    for p in vertices
                )
                assert lower_prevision(gens, f) == envelope

    # precise marginal blocks reduce to an ordinary product expectation
    scopes, joint = _scopes([2, 2], tag="Q")
    for _ in range(20):
        masses = []
        for scope in scopes:
            top = F(r.randint(0, 8), 8)
            masses.append(CredalSet.of(scope, [(top, 1 - top)]))
        f = _random_gamble(r, joint)
        expected = F(0)
        for i in range(2):
            for j in range(2):
                expected += (
                    masses[0].vertices[0][i]
                    * masses[1].vertices[0][j]
                    * f.values[2 * i + j]
                )
        assert inex_lower_prevision(masses, f) == expected
