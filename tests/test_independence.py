"""Irrelevance, independent products, and their refutation scans."""

import collections
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    BudgetExceededError,
    CredalSet,
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
    factorisation_check,
    independent_product,
    inex_member,
    is_independent,
    is_irrelevant,
    member,
    strictly_desirable,
)
from desirability import exactlp, fixtures, independence
from desirability.desirable import (
    Cell,
    CellRow,
    CellSet,
    ConditionalFamily,
    IndepProduct,
    StrongProduct,
    natext_member,
    scope_of,
    sign_cells,
    sign_chain,
)
from desirability.independence import conditional_inex, irrelevant_extension
from desirability.exactlp import EQ, GT
from desirability.model import load
from desirability.previsions import strong_member
from desirability.structure import cyl_ext
from fractions import Fraction as F

from desirability.maximal import lex_is_coherent, lex_is_maximal
from randgen import (
    random_credal,
    random_gamble,
    random_generator_set,
    random_mass,
    random_maximal_binary_lex,
)

import references
from references import indicator, inex_member_enumerated

V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)

DEMO = str(Path(__file__).resolve().parent.parent / "models" / "demo.json")

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

    def test_the_node_and_the_constructor_check_scopes_alike(self):
        # The node's constructor is the one check: built directly or by
        # ``irrelevant_extension``, whether the base collapses or not, a
        # target that misses a scope is named with the scopes it must hold.
        lex = LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])
        message = r"^extension target \('X1',\) must contain \('X1', 'X2'\)$"
        for build in (IrrExt, irrelevant_extension):
            for base in (LEAN2, lex):
                with pytest.raises(ScopeError, match=message):
                    build(base, S1, S1)
                with pytest.raises(ScopeError, match="^irrelevant variables overlap"):
                    build(base, S2, S12)

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

    def test_extended_product_keeps_the_budget(self):
        # ``inex_member`` hands an extension of a product to the dispatcher
        # with its budget: sixteen signatures are more than none.
        s1, s2, m1, m2 = fixtures._binary_pair()
        joint = s1.union(s2)
        x3 = Scope.of([Variable("X3", ("0", "1"))])
        extended = cyl_ext(IndepProduct((m1, m2)), joint.union(x3))
        h = Gamble.on(joint, [-1, -1, 2, 2])
        assert inex_member(extended, h) is Tri.IN
        for query in (inex_member, member):
            with pytest.raises(
                BudgetExceededError, match="needs 16 sign-cell signatures, over the budget of 0$"
            ):
                query(extended, h, budget=0)

    def test_lex_parts_stay_symbolic(self):
        m = LexSystem(S1, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        m2 = LexSystem(S2, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        prod = independent_product([m, m2])
        assert isinstance(prod, IndepProduct)
        assert inex_member(prod, Gamble.on(S12, [-1, 1, 1, -1])) is Tri.OUT
        assert inex_member(prod, Gamble.on(S12, [1, -1, -1, 1])) is Tri.OUT
        assert inex_member(prod, Gamble.on(S12, [1, 1, 1, -1])) is Tri.IN

    @pytest.mark.parametrize(
        "first, lps",
        [
            (LexSystem.on(S1, [["3/4", "1/4"]]), 2),
            (strictly_desirable(CredalSet.of(S1, [("1/3", "2/3")])), 2),
            (strictly_desirable(CredalSet.of(S1, [("1/3", "2/3"), ("3/4", "1/4")])), 2),
            (CellSet(S1, (Cell((CellRow(Gamble.on(S1, [1, 1]), GT),)),)), 2),
        ],
        ids=[
            "nonmaximal-lex", "credal-one-vertex", "credal-two-vertices",
            "cells-without-positives",
        ],
    )
    def test_a_block_whose_summand_vanishes(self, first, lps, signature_lps):
        # ``h`` lies in the second marginal and depends on X2 alone, so the
        # first block's summand may be zero on every slice: its model (not
        # maximal, a credal set's open cell, or without the positives)
        # takes zero only through its zero or orthant cell.  All four have
        # chains, the last its one cell and then the zero cell: one LP at
        # the first cells, and one after every pair has moved on.
        second = LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])
        h = Gamble.on(S2, [1, -1]).embed(S12)
        assert inex_member(independent_product([first, second]), h) is Tri.IN
        assert signature_lps["engine"] == lps

    def test_weighted_weak_rows_move_no_pair(self, signature_lps):
        # ``h`` depends on X2 alone and lies in the second marginal by its
        # second level.  The second signature's Farkas vector weights the
        # tie and ``>=`` rows of the first marginal's pairs, which sit on
        # their last cells, and the ``>`` row of one pair of the second
        # marginal: only that pair moves, and the third signature is
        # feasible.
        first = LexSystem.on(S1, [[1, 0], ["5/8", "3/8"]])
        second = LexSystem.on(S2, [["1/2", "1/2"], ["4/9", "5/9"]])
        h = Gamble.on(S12, [-1, 1, -1, 1])
        assert inex_member(IndepProduct((first, second)), h) is Tri.IN
        assert signature_lps["engine"] == 3

    @pytest.mark.parametrize(
        "values", [[1, 1, 1, 1], [1, -1, 2, -1], [0, 0, 0, 0], [-1, -1, -1, -1]]
    )
    def test_incoherent_lex_marginal_is_an_error_whatever_the_gamble(self, values):
        # ``bad`` gives X1 = b no mass at any level, so it fails
        # ``lex_is_coherent``: every product over it is an error before any
        # sign filter, as an inconsistent generator marginal is.
        bad = LexSystem.on(S1, [[1, 0]])
        good = LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])
        strict = strictly_desirable(CredalSet.of(S2, [("1/2", "1/2")]))
        h = Gamble.on(S12, values)
        queries = [
            lambda: member(independent_product([bad, good]), h),
            lambda: strong_member(StrongProduct((bad, good)), h),
            lambda: strong_member(StrongProduct((bad, strict)), h),
        ]
        for query in queries:
            with pytest.raises(IncoherentBaseError, match="incoherent lex system"):
                query()


def _near_member(rng, parts, joint):
    """A small random gamble plus a masked generator per slice of each
    generator marginal."""
    h = random_gamble(rng, joint, -1, 1)
    for part in parts:
        for at in joint.difference(part.scope).assignments():
            g = rng.choice(part.generators)
            h = h + g.mask(at).embed(joint) * rng.randint(0, 2)
    return h


V3 = Variable("X3", ("a", "b"))
S3 = Scope.of([V3])
S123 = S12.union(S3)


class TestNestedProducts:
    """A hand-built nested independent product is the flat product: its
    constructor flattens it, so it holds, compares, hashes and answers as
    ``independent_product`` over the same marginals."""

    L1 = LexSystem.on(S1, [["1/2", "1/2"], [1, 0]])
    L2 = LexSystem.on(S2, [["1/3", "2/3"], [0, 1]])
    L3 = LexSystem.on(S3, [["1/2", "1/2"], [1, 0]])

    @staticmethod
    def _nested(a, b, c):
        return (IndepProduct((IndepProduct((a, b)), c)), IndepProduct((a, IndepProduct((b, c)))))

    def test_nested_parts_are_flat_and_equal_the_flat_product(self):
        a, b, c = self.L1, self.L2, self.L3
        flat = IndepProduct((a, b, c))
        for nested in self._nested(a, b, c):
            assert nested.parts == (a, b, c)
            assert nested == flat and hash(nested) == hash(flat)
            assert nested.scope == S123

    def test_the_nested_lex_product_answers(self):
        # The walk reads leaf marginals only; a product part would raise
        # ``UnsupportedQueryError`` if the constructor did not flatten it.
        h = Gamble.on(S123, [1, -1, 2, -3, 1, 1, -1, 2])
        assert member(independent_product([self.L1, self.L2, self.L3]), h) is Tri.IN
        for nested in self._nested(self.L1, self.L2, self.L3):
            assert member(nested, h) is Tri.IN

    @pytest.mark.parametrize("kind", ["lex-lex-lex", "cell-lex-generator"])
    def test_nested_products_answer_as_the_smart_constructor(self, kind):
        rng = random.Random("nested-products/" + kind)
        for draw in range(3):
            if kind == "cell-lex-generator":
                parts = (
                    strictly_desirable(random_credal(rng, S1, rng.choice([1, 2]))),
                    _lex(rng, S2),
                    _generators(rng, S3),
                )
            elif draw == 0:
                parts = (self.L1, self.L2, self.L3)
            else:
                parts = tuple(_lex(rng, s) for s in (S1, S2, S3))
            flat = independent_product(parts)
            nested = self._nested(*parts)
            mixed = 0
            while mixed < 15:
                h = random_gamble(rng, S123, -3, 3)
                if min(h.values) >= 0 or max(h.values) <= 0:
                    continue
                mixed += 1
                want = member(flat, h)
                assert all(member(n, h) is want for n in nested), (kind, parts, h)

    def test_nested_lex_products_match_the_enumeration(self):
        # Twelve (block, slice) pairs with two cells each: 4096 signatures
        # at most.  Uniform draws are decided by the filters or by an early
        # signature.
        rng = random.Random("nested-products/enumerated")
        verdicts = set()
        for _ in range(3):
            parts = tuple(_lex(rng, s) for s in (S1, S2, S3))
            for nested in self._nested(*parts):
                for _ in range(4):
                    h = random_gamble(rng, S123, -3, 3)
                    verdict = member(nested, h)
                    assert verdict is inex_member_enumerated(nested, h, budget=4096), (parts, h)
                    verdicts.add(verdict)
        assert verdicts == {Tri.IN, Tri.OUT}

    def test_an_empty_product_is_still_an_error(self):
        with pytest.raises(ScopeError):
            IndepProduct(())

    def test_strong_products_stay_nested(self):
        inner = StrongProduct((self.L1, self.L2))
        assert len(StrongProduct((inner, self.L3)).parts) == 2


class TestThreeBlockProducts:
    """Blocks of 2, 3 and 2 outcomes; the middle block's slices are not
    contiguous in the joint enumeration."""

    def test_uncollapsed_generator_product_agrees_with_the_collapse(
        self, signature_lps
    ):
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
                h = _near_member(rng, parts, joint)
                signature_lps.clear()
                verdict = inex_member(product, h) is Tri.IN
                used = signature_lps["engine"]
                signature_lps.clear()
                assert verdict == natext_member(collapsed, h)
                # No (block, slice) pair has a choice: at most one LP on
                # each side, on the cone rows alone.
                assert used <= 1 and signature_lps["engine"] <= 1
                verdicts.append((verdict, used))
        assert 5 <= sum(v for v, _ in verdicts) <= len(verdicts) - 5
        assert (True, 1) in verdicts and (False, 1) in verdicts


def _lex(rng, scope, maximal=True):
    """A lexicographic model on ``scope``: maximal, or one level short of it."""
    size = scope.size
    if size == 2 and maximal:
        return random_maximal_binary_lex(rng, scope)
    while True:
        levels = tuple(random_mass(rng, size) for _ in range(size if maximal else size - 1))
        candidate = LexSystem(scope, levels)
        if lex_is_coherent(candidate) and lex_is_maximal(candidate) == maximal:
            return candidate


def _generators(rng, scope):
    return random_generator_set(rng, scope, count=rng.choice([1, 2]))


def _product(rng, kind):
    """A seeded product of the kind named, over binary blocks unless the
    kind says otherwise."""
    if kind == "three-lex":
        variables = [Variable(name, ("a", "b")) for name in "ABC"]
        return IndepProduct(tuple(_lex(rng, Scope.of([v])) for v in variables))
    if kind == "generator-generator-lex":
        a, b, c = (Scope.of([Variable(name, ("a", "b"))]) for name in "ABC")
        return IndepProduct((_generators(rng, a), _generators(rng, b), _lex(rng, c)))
    if kind == "layout-2x3":
        x3 = Variable("X3", ("a", "b", "c"))
        return IndepProduct(
            (_lex(rng, S1, rng.random() < 0.7), _lex(rng, Scope.of([x3]), rng.random() < 0.7))
        )
    second = _lex(rng, S2)
    if kind == "lex-lex":
        first = _lex(rng, S1)
    elif kind == "lex-lex-nonmaximal":
        first = _lex(rng, S1, maximal=False)
        if rng.random() < 0.5:
            second = _lex(rng, S2, maximal=False)
    elif kind == "cell-lex":
        first = strictly_desirable(random_credal(rng, S1, rng.choice([1, 2])))
    elif kind == "lex-generator":
        first, second = _lex(rng, S1), _generators(rng, S2)
    elif kind == "generator-cell":
        first = _generators(rng, S1)
        second = strictly_desirable(random_credal(rng, S2, rng.choice([1, 2])))
    elif kind == "multicell-lex":
        first = _two_cells(rng, S1)
    elif kind == "multicell-multicell":
        first, second = _two_cells(rng, S1), _two_cells(rng, S2)
    else:
        assert kind == "generator-lex"
        first = _generators(rng, S1)
    return IndepProduct((first, second))


def _two_cells(rng, scope):
    """A coherent cell set with two cells, and so no chain: the positives,
    the open cell of two distinct masses ``p`` and ``q``, and the face of
    that cell where ``p`` gives zero."""
    while True:
        p, q = (Gamble(scope, random_mass(rng, scope.size)) for _ in range(2))
        if p != q:
            break
    cells = (
        Cell((CellRow(p, GT), CellRow(q, GT))),
        Cell((CellRow(p, EQ), CellRow(q, GT))),
    )
    return CellSet(scope, cells, include_positive=True)


def _two_cell_product():
    """A two-cell marginal on X1, which has no chain, times a maximal lex
    marginal on X2."""
    cells = CellSet(
        S1,
        (
            Cell((CellRow(Gamble.on(S1, ["1/2", "1/2"]), GT),
                  CellRow(Gamble.on(S1, ["1/4", "3/4"]), GT))),
            Cell((CellRow(Gamble.on(S1, ["1/2", "1/2"]), EQ),
                  CellRow(Gamble.on(S1, ["1/4", "3/4"]), GT))),
        ),
        include_positive=True,
    )
    return IndepProduct((cells, LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])))


def _offer(rng, product):
    """A random gamble; half the time shifted at one outcome so that the
    product of the marginals' support masses gives it expectation zero,
    where the sign filters of ``inex_member`` decide nothing."""
    joint = scope_of(product)
    h = random_gamble(rng, joint, -3, 3)
    support = references._product_mass(product, joint)
    if support is None or rng.random() < 0.5:
        return h
    mass = support.values
    at = rng.choice([w for w, m in enumerate(mass) if m])
    values = list(h.values)
    values[at] -= h.dot(mass) / mass[at]
    return Gamble(joint, tuple(values))


_KINDS = (
    "lex-lex",
    "lex-lex-nonmaximal",
    "cell-lex",
    "generator-lex",
    "lex-generator",
    "generator-cell",
    "generator-generator-lex",
    "layout-2x3",
    "multicell-lex",
    "multicell-multicell",
)


def _count_signature_lps(monkeypatch):
    """Counts the strict LPs of ``inex_member`` and of the enumeration."""
    counts = collections.Counter()
    for key, module in (("engine", independence), ("enumerated", references)):
        solve = module.strict_feasible

        def counted(system, _solve=solve, _key=key):
            counts[_key] += 1
            return _solve(system)

        monkeypatch.setattr(module, "strict_feasible", counted)
    return counts


@pytest.fixture
def signature_lps(monkeypatch):
    return _count_signature_lps(monkeypatch)


def _chain_bound(product):
    """The most LPs ``inex_member`` may solve on ``product``: one walk per
    choice of a cell for each (block, slice) pair without a chain, and per
    walk one LP, and one per cell past the first of each chained pair's
    chain."""
    joint = scope_of(product)
    walks, per_walk = 1, 1
    for part in product.parts:
        if isinstance(part, GeneratorSet):
            continue
        slices = joint.size // part.scope.size
        chain = sign_chain(part)
        if chain is None:
            walks *= len(sign_cells(part)) ** slices
        else:
            per_walk += slices * (len(chain) - 1)
    return walks * per_walk


def _differential(product, h, counts):
    """The engine's verdict and LP count against the enumeration's; the
    engine stays within its bound."""
    counts.clear()
    got = inex_member(product, h)
    want = inex_member_enumerated(product, h)
    assert got is want, (product, h)
    assert counts["engine"] <= _chain_bound(product), (product, h)
    return got, counts["engine"], counts["enumerated"]


class TestPrunedSearch:
    """Product membership, by chain walks, against the flat enumeration
    (``references.inex_member_enumerated``)."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_the_enumeration(self, kind, signature_lps):
        rng = random.Random("pruned-search/" + kind)
        decided = collections.Counter()
        totals = collections.Counter()
        # The 2x3 layout has up to 72 signatures per query, the binary
        # products at most 36.
        products, offers = (4, 6) if kind == "layout-2x3" else (6, 10)
        for _ in range(products):
            product = _product(rng, kind)
            for _ in range(offers):
                verdict, engine, enumerated = _differential(
                    product, _offer(rng, product), signature_lps
                )
                if enumerated:
                    decided[verdict] += 1
                totals["engine"] += engine
                totals["enumerated"] += enumerated
        # Both verdicts are reached through LPs.  Over a kind with a chain
        # the walks solve fewer LPs than the enumeration; with none, each
        # walk solves one signature, in the enumeration's order.
        assert decided[Tri.IN] and decided[Tri.OUT], decided
        if kind == "multicell-multicell":
            assert totals["engine"] == totals["enumerated"], totals
        else:
            assert totals["engine"] < totals["enumerated"], totals

    def test_three_block_lex_product(self, signature_lps):
        # Twelve (block, slice) pairs with two cells each.  Uniform draws
        # are decided by the filters or by the first signature; a gamble of
        # zero expectation that is out costs the enumeration all 4096, and
        # the walk two LPs.
        rng = random.Random("pruned-search/three-lex")
        product = _product(rng, "three-lex")
        joint = scope_of(product)
        verdicts = [
            _differential(product, random_gamble(rng, joint, -3, 3), signature_lps)
            for _ in range(12)
        ]
        assert {v for v, _, enumerated in verdicts if enumerated} == {Tri.IN}
        assert Tri.OUT in {v for v, _, _ in verdicts}
        hard = Gamble.on(joint, [F(3, 8), -3, -2, -3, 0, 0, 2, -1])
        assert _differential(product, hard, signature_lps) == (Tri.OUT, 2, 4096)

    @given(st.sampled_from(_KINDS), st.integers(0, 2**32 - 1))
    def test_matches_the_enumeration_hypothesis(self, kind, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = _count_signature_lps(monkeypatch)
            rng = random.Random(seed)
            product = _product(rng, kind)
            for _ in range(3):
                _differential(product, _offer(rng, product), counts)

    @given(st.integers(0, 2**32 - 1))
    def test_three_block_lex_matches_the_enumeration_hypothesis(self, seed):
        # Uniform draws, as above: a shifted ``_offer`` is too often out
        # with a zero expectation, which costs the enumeration all 4096
        # signatures.
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = _count_signature_lps(monkeypatch)
            rng = random.Random(seed)
            product = _product(rng, "three-lex")
            _differential(product, random_gamble(rng, scope_of(product), -3, 3), counts)

    def test_product_nonmaximality_lp_count(self, signature_lps):
        # 96 signature LPs with the flat enumeration; the chain walk solves 12.
        assert fixtures.product_nonmaximality().passed
        assert signature_lps["engine"] == 12

    @pytest.mark.parametrize(
        "values, verdict, lps", [([-1, 1, 1, -1], Tri.OUT, 11), ([-1, -1, 2, 2], Tri.IN, 2)]
    )
    def test_two_cell_product_lp_count(self, values, verdict, lps, signature_lps):
        # The two-cell marginal has no chain: its two pairs take one of
        # three cells each, so up to nine walks along the lex marginal's
        # chains, and the gamble that is out takes all nine.
        h = Gamble.on(S12, values)
        assert inex_member(_two_cell_product(), h) is verdict
        assert signature_lps["engine"] == lps

    def test_budget_counts_every_signature(self, signature_lps):
        # Three cells on each of two slices, times two lex cells on each
        # of two: 36 signatures, counted before any LP.
        product = _two_cell_product()
        h = Gamble.on(S12, [-1, 1, 1, -1])
        message = "needs 36 sign-cell signatures, over the budget of 35$"
        with pytest.raises(BudgetExceededError, match=message):
            inex_member(product, h, budget=35)
        assert signature_lps["engine"] == 0
        assert inex_member(product, h, budget=36) is Tri.OUT


class TestGeneratorCone:
    """Generator marginals enter product membership as one masked cone in
    the domination rows, so a product of generator marginals alone answers
    as its collapse does."""

    @given(
        st.lists(st.integers(2, 3), min_size=2, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_generator_product_matches_the_collapse_hypothesis(self, sizes, seed):
        rng = random.Random(seed)
        variables = [Variable("G%d" % k, tuple("abc"[:n])) for k, n in enumerate(sizes)]
        parts = tuple(_generators(rng, Scope.of([v])) for v in variables)
        joint = Scope.of(variables)
        for _ in range(3):
            h = _near_member(rng, parts, joint)
            want = member(independent_product(parts), h)
            assert inex_member(IndepProduct(parts), h) is want, (parts, h)

    def test_demo_product_signature_systems(self, monkeypatch):
        # coin-lean (generators on X1) times fair-window (lex on X2): two
        # masked generator weights and four columns for the lex summand;
        # two weight rows, four domination rows and the lex branch rows.
        product = load(DEMO).sets["product"]
        joint = scope_of(product)
        shapes = []
        solve = independence.strict_feasible

        def recorded(system):
            shapes.append((system.n_vars, len(system.rows)))
            return solve(system)

        monkeypatch.setattr(independence, "strict_feasible", recorded)
        assert member(product, Gamble.on(joint, [-1, 2, 1, -1])) is Tri.IN
        assert shapes == [(6, 8)]
        shapes.clear()
        assert member(product, Gamble.on(joint, [-1, -1, 2, 2])) is Tri.OUT
        assert shapes == [(6, 8)]

    def test_pairless_products_read_no_budget(self):
        # A generator set, or a product of generator marginals alone, has no
        # (block, slice) pair to walk, so no budget stops its one LP.
        g1 = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1])])
        g2 = GeneratorSet.of(S2, [Gamble.on(S2, [2, -1])])
        rng = random.Random("pairless-budget")
        for model in (g1, g2, GeneratorSet.of(S2, []), IndepProduct((g1, g2))):
            scope = scope_of(model)
            gambles = [Gamble.on(scope, (values * 2)[: scope.size]) for values in ([2, -1], [1, -2])]
            gambles += [random_gamble(rng, scope) for _ in range(12)]
            for h in gambles:
                want = member(model, h)
                for budget in (0, -1):
                    assert member(model, h, budget=budget) is want, (model, h, budget)

    def test_zero_expectation_spends_no_lp(self, monkeypatch):
        # Over generator marginals alone the support mass is strictly
        # positive and every member has positive expectation under it, so
        # a mixed gamble of zero expectation is Out before any LP.
        g1 = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1])])
        g2 = GeneratorSet.of(S2, [Gamble.on(S2, [2, -1])])
        p = avoids_nonpositivity(g1).positive_mass
        q = avoids_nonpositivity(g2).positive_mass
        mass = (Gamble.on(S1, p).embed(S12) * Gamble.on(S2, q).embed(S12)).values
        h = Gamble.on(S12, [mass[1], -mass[0], 0, 0])
        want = member(independent_product((g1, g2)), h)
        lps = []
        engine = exactlp._solve_engine

        def solved(system, objective=None):
            lps.append(system)
            return engine(system, objective)

        monkeypatch.setattr(exactlp, "_solve_engine", solved)
        assert member(IndepProduct((g1, g2)), h) is Tri.OUT is want
        assert lps == []

    def test_vacuous_generator_set_and_its_product(self):
        # No generators: exactly the positive gambles.  Times a lex
        # marginal, the walk agrees with the plain enumeration.
        s3 = Scope.of([Variable("X3", ("a", "b", "c"))])
        vacuous = GeneratorSet.of(s3, [])
        for values in itertools.product(range(-2, 3), repeat=3):
            positive = min(values) >= 0 and max(values) > 0
            assert member(vacuous, Gamble.on(s3, values)) is Tri.of(positive), values
        product = IndepProduct((vacuous, LexSystem.on(S1, [["1/3", "2/3"], [1, 0]])))
        grid = list(itertools.product(range(-1, 2), repeat=6))
        for values in random.Random("vacuous-product").sample(grid, 60):
            h = Gamble.on(product.scope, values)
            assert member(product, h) is inex_member_enumerated(product, h), values


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
