"""Irrelevance scans against a reference scan, and the fast paths they use.

The reference below decides membership the plain way: masks are indicator
products, extension slices come from ``floor_onto`` and ``slice_at``, and
lexicographic and cell leaves take exact ``Fraction`` dot products.  The
engine's scans read index tables and decide leaves by integer sign tests;
both must return equal ``Verdict``s, field for field.  The scans as they
ran with one gamble per ``member`` query (``references.gamble_*``) are a
second reference, for every node kind, and for the queries themselves.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    Assignment,
    CellSet,
    Gamble,
    IrrExt,
    LexSystem,
    Scope,
    Tri,
    Variable,
    factorisation_check,
    independence,
    is_independent,
    is_irrelevant,
    member,
    strictly_desirable,
)
from desirability.desirable import (
    Cell,
    CellRow,
    ConditionalFamily,
    Conditioned,
    IndepProduct,
    scope_of,
)
from desirability.errors import UnsupportedQueryError
from desirability.model import load
from desirability.structure import condition, cyl_ext, sample_gambles
from desirability.maximal import lex_accepts
from desirability.exactlp import EQ, GE, GT
from desirability.independence import Verdict, irrelevant_extension
from randgen import random_credal, random_generator_set, random_mass

import references
from references import (
    floor_onto,
    gamble_factorisation_check,
    gamble_is_irrelevant,
    indicator,
)

F = Fraction
X3 = Variable("X1", ("a", "b", "c"))
Y3 = Variable("X2", ("a", "b", "c"))
X2 = Variable("X1", ("a", "b"))
Y2 = Variable("X2", ("a", "b"))
Z2 = Variable("Z", ("a", "b"))
W2 = Variable("W", ("a", "b"))


def one(*variables):
    return Scope.of(variables)


# ---------------------------------------------------------------------------
# reference membership and scan
# ---------------------------------------------------------------------------


def fraction_dot(f, coeffs):
    return sum((a * b for a, b in zip(f.values, coeffs)), F(0))


def ref_member(expr, f):
    f = f.embed(scope_of(expr))
    if isinstance(expr, LexSystem):
        for level in expr.levels:
            e = fraction_dot(f, level)
            if e != 0:
                return Tri.of(e > 0)
        return Tri.OUT
    if isinstance(expr, CellSet):
        if expr.include_positive and f.is_positive():
            return Tri.IN
        for cell in expr.cells:
            if cell.exclude_zero and f.is_zero():
                continue
            signs = [(fraction_dot(f, row.functional.values), row.rel) for row in cell.rows]
            if all(v >= 0 if rel == GE else v > 0 if rel == GT else v == 0 for v, rel in signs):
                return Tri.IN
        return Tri.OUT
    if isinstance(expr, Conditioned):
        lifted = indicator(expr.given) * f
        return ref_member(expr.base, lifted.embed(scope_of(expr.base)))
    if isinstance(expr, IrrExt):
        if f.is_zero():
            return Tri.OUT
        floor = floor_onto(f, expr.irrelevant.union(scope_of(expr.base)))
        for at in expr.irrelevant.assignments():
            piece = floor.slice_at(at)
            if not piece.is_nonnegative() and ref_member(expr.base, piece) is Tri.OUT:
                return Tri.OUT
        return Tri.IN
    raise AssertionError("no reference for %s" % type(expr).__name__)


def ref_is_irrelevant(expr, irrelevant, onto, budget, seed):
    mode = "exhaustive" if 7 ** onto.size <= budget else "sampled"
    checked = 0
    for f in sample_gambles(onto, budget=budget, seed=seed):
        plain = ref_member(expr, f)
        for at in irrelevant.assignments():
            checked += 1
            if ref_member(expr, indicator(at) * f) is not plain:
                detail = "membership changes after observing %s" % (at,)
                return Verdict(False, mode, checked, detail, (f, at))
    return Verdict(True, mode, checked, "%d membership pairs agree" % checked)


def maximal_lex(rng, scope):
    """A positive first mass, then unit masses on all outcomes but the last."""
    units = [tuple(F(int(w == u)) for w in range(scope.size)) for u in range(scope.size - 1)]
    rng.shuffle(units)
    return LexSystem(scope, (random_mass(rng, scope.size, positive=True),) + tuple(units))


def dependent_lex():
    """X2 = a makes X1 = a likely, X2 = b makes it unlikely."""
    scope = one(X2, Y2)
    first = (F(2, 5), F(1, 10), F(1, 10), F(2, 5))
    units = tuple(tuple(F(int(w == u)) for w in range(4)) for u in range(3))
    return LexSystem(scope, (first,) + units)


def scan_cases():
    """(name, expression, irrelevant, onto, budget) for the differential."""
    rng = random.Random("scan-differential")
    lex3 = maximal_lex(rng, one(X3))
    cell3 = strictly_desirable(random_credal(rng, one(X3), count=2))
    lex2 = maximal_lex(rng, one(X2))
    cond = condition(
        irrelevant_extension(lex2, one(Y2, Z2), one(X2, Y2, Z2)),
        Assignment.of({Z2: "b"}),
    )
    return [
        ("irrext-lex-3x3", irrelevant_extension(lex3, one(Y3), one(X3, Y3)), one(Y3), one(X3), 2000),
        ("irrext-lex-3x3-sampled", irrelevant_extension(lex3, one(Y3), one(X3, Y3)), one(Y3), one(X3), 40),
        ("irrext-cell-3x3", irrelevant_extension(cell3, one(Y3), one(X3, Y3)), one(Y3), one(X3), 2000),
        ("irrext-floor-2x2x2", irrelevant_extension(lex2, one(Y2), one(X2, Y2, Z2)), one(Y2), one(X2, Z2), 200),
        ("conditioned-2x2x2", cond, one(Y2), one(X2), 2000),
        ("dependent-lex", dependent_lex(), one(Y2), one(X2), 2000),
        ("dependent-cyl", cyl_ext(lex2, one(X2, Y2)), one(Y2), one(X2), 2000),
    ]


def case(name):
    return next(c for c in scan_cases() if c[0] == name)


class TestScanDifferential:
    def test_cases_have_the_intended_shapes(self):
        shapes = {name: type(expr).__name__ for name, expr, *_ in scan_cases()}
        assert shapes["irrext-lex-3x3"] == shapes["irrext-cell-3x3"] == "IrrExt"
        assert shapes["irrext-floor-2x2x2"] == "IrrExt"
        assert shapes["conditioned-2x2x2"] == "Conditioned"
        assert shapes["dependent-cyl"] == "IrrExt"
        assert case("dependent-cyl")[1].irrelevant == Scope.empty()

    def test_every_verdict_field_matches_the_reference(self):
        for name, expr, irrelevant, onto, budget in scan_cases():
            for seed in (0, 5):
                got = is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed)
                want = ref_is_irrelevant(expr, irrelevant, onto, budget, seed)
                assert got == want, name

    def test_membership_matches_the_reference(self):
        for name, expr, *_ in scan_cases():
            for f in sample_gambles(scope_of(expr), budget=150, seed=3):
                assert member(expr, f) is ref_member(expr, f), (name, f)

    def test_planted_dependence_is_refuted(self):
        for name, expr, irrelevant, onto, budget in scan_cases():
            verdict = is_irrelevant(expr, irrelevant, onto, budget=budget)
            assert verdict.passed is not name.startswith("dependent"), name
            if not verdict.passed:
                f, at = verdict.counterexample
                assert member(expr, f) is not member(expr, indicator(at) * f)


# ---------------------------------------------------------------------------
# cylindrical extension: an IrrExt with no irrelevant variables
# ---------------------------------------------------------------------------

CYL_GAMBLES = 300


def assert_agrees(expr, oracle, seed):
    """``member(expr, .)`` equals the reference on ``oracle`` on seeded gambles.

    The draws lean positive, entries in [-1, 3], so that on the larger
    scopes some gambles pass every slice.  Both verdicts must occur, so
    that the comparison is not vacuous.
    """
    gambles = sample_gambles(scope_of(expr), budget=CYL_GAMBLES, seed=seed, lo=-1)
    assert len(gambles) == CYL_GAMBLES
    seen = set()
    for f in gambles:
        verdict = member(expr, f)
        assert verdict is ref_member(oracle, f), f
        seen.add(verdict)
    assert seen == {Tri.IN, Tri.OUT}


class TestCylindricalExtension:
    """``cyl_ext`` against the floor reference, one base kind at a time."""

    def check(self, base, target, seed):
        ext = cyl_ext(base, target)
        assert ext == IrrExt(base, Scope.empty(), target)
        assert_agrees(ext, ext, seed)

    def test_lex_base(self):
        for seed in range(3):
            rng = random.Random("cyl-lex-%d" % seed)
            self.check(maximal_lex(rng, one(X3)), one(X3, Y3), seed)

    def test_cell_base(self):
        for seed in range(3):
            rng = random.Random("cyl-cell-%d" % seed)
            base = strictly_desirable(random_credal(rng, one(X3), count=2))
            self.check(base, one(X3, Y3), seed)

    def test_conditioned_base(self):
        for seed in range(3):
            rng = random.Random("cyl-conditioned-%d" % seed)
            joint = strictly_desirable(random_credal(rng, one(X2, Z2), count=2))
            base = condition(joint, Assignment.of({Z2: "b"}))
            assert isinstance(base, Conditioned)
            self.check(base, one(X2, Y2), seed)

    def test_nested_extension_flattens_to_one_node(self):
        """``cyl_ext(IrrExt(b, I, T1), T2)`` is ``IrrExt(b, I, T2)``.

        It is compared with the unflattened ``IrrExt(IrrExt(b, I, T1),
        Scope.empty(), T2)``, both through the engine and the reference.
        The added variable sorts last (``Z``) for the lex bases and first
        (``W``) for the cell bases.
        """
        for seed in range(3):
            rng = random.Random("cyl-nested-%d" % seed)
            cases = [
                (maximal_lex(rng, one(X2)), one(Y2), one(X2, Y2), one(X2, Y2, Z2)),
                (
                    strictly_desirable(random_credal(rng, one(X3), count=2)),
                    one(Y3),
                    one(X3, Y3),
                    one(W2, X3, Y3),
                ),
            ]
            for base, irrelevant, inner_target, target in cases:
                inner = irrelevant_extension(base, irrelevant, inner_target)
                assert inner == IrrExt(base, irrelevant, inner_target)
                flat = cyl_ext(inner, target)
                assert flat == IrrExt(base, irrelevant, target)
                nested = IrrExt(inner, Scope.empty(), target)
                assert_agrees(flat, nested, seed)
                assert_agrees(nested, nested, seed)


class TestScanWorkPins:
    """The scans keep every query: pinned to the counts of the plain scan.

    ``checked`` and the number of membership queries a scan sends through
    the ``independence`` module (its ``scaled_member`` calls) are the values
    the indicator-product scan gave with one ``member`` call per query; a
    faster scan must reach them too, not check fewer pairs.
    """

    def _count(self, monkeypatch, scan):
        calls = []
        inner = independence.scaled_member

        def counting(expr, nums, budget):
            calls.append(nums)
            return inner(expr, nums, budget)

        monkeypatch.setattr(independence, "scaled_member", counting)
        return scan(), len(calls)

    def test_irrelevant_extension_scan(self, monkeypatch):
        _, expr, irrelevant, onto, _ = case("irrext-lex-3x3")
        verdict, calls = self._count(
            monkeypatch, lambda: is_irrelevant(expr, irrelevant, onto, budget=2000)
        )
        assert (verdict.passed, verdict.checked, calls) == (True, 1029, 1372)

    def test_conditioned_scan(self, monkeypatch):
        _, expr, irrelevant, onto, _ = case("conditioned-2x2x2")
        verdict, calls = self._count(
            monkeypatch, lambda: is_irrelevant(expr, irrelevant, onto, budget=2000)
        )
        assert (verdict.passed, verdict.checked, calls) == (True, 98, 147)

    def test_independence_scan_of_a_dependent_model(self, monkeypatch):
        expr = dependent_lex()
        verdict, calls = self._count(
            monkeypatch, lambda: is_independent(expr, [one(X2), one(Y2)], budget=2000)
        )
        assert (verdict.passed, verdict.checked, calls) == (False, 10, 15)

    def test_factorisation_scan(self, monkeypatch):
        _, expr, irrelevant, onto, _ = case("irrext-lex-3x3")
        verdict, calls = self._count(
            monkeypatch, lambda: factorisation_check(expr, irrelevant, onto)
        )
        # 111 sampling queries (the 60th member is the 111th sample, and
        # sampling stops there), then 3600 factor queries; ``checked``
        # counts each member's unit factor too, which sampling settled.  It
        # was 3900 while all 240 samples were queried, and 3771 while each
        # member was queried again for its unit factor.
        assert (verdict.passed, verdict.checked, calls) == (True, 3660, 3711)


# ---------------------------------------------------------------------------
# the int scans against the scans that query ``member`` with gambles
# ---------------------------------------------------------------------------

DEMO = str(Path(__file__).resolve().parents[1] / "models" / "demo.json")


def gamble_scan_cases():
    """(name, expression, irrelevant, onto, budget) beyond ``scan_cases``.

    Generator sets, products and cell sets answer through ``member`` with
    a gamble; the "part" cases scan two groups whose joint scope is smaller
    than the expression's.
    """
    rng = random.Random("gamble-scan-differential")
    demo = load(DEMO)
    d1, d2 = (one(v) for v in scope_of(demo.sets["product"]).variables)
    lex2 = maximal_lex(rng, one(X2))
    cell2 = strictly_desirable(random_credal(rng, one(X2), count=2))
    part_cond = condition(
        irrelevant_extension(cell2, one(Y2, W2), one(W2, X2, Y2, Z2)),
        Assignment.of({W2: "a"}),
    )
    return [
        ("lex-joint", maximal_lex(rng, one(X2, Y2)), one(Y2), one(X2), 2000),
        ("strict-joint-3x3", strictly_desirable(random_credal(rng, one(X3, Y3), count=3)), one(X3), one(Y3), 60),
        ("cells-widened", demo.sets["widened"], d1, d2, 2000),
        ("cells-widened-back", demo.sets["widened"], d2, d1, 2000),
        ("credal-two-vertex", demo.sets["two-vertex"], d1, d2, 2000),
        ("part-irrext", irrelevant_extension(lex2, one(Y2), one(X2, Y2, Z2)), one(Y2), one(X2), 2000),
        ("part-conditioned", part_cond, one(Y2), one(X2), 2000),
        ("generators-extended", demo.sets["lean-extended"], d2, d1, 2000),
        ("generators-cylinder", demo.sets["joint-lean"], d2, d1, 2000),
        ("generators-joint", random_generator_set(rng, one(X2, Y2), count=2), one(X2), one(Y2), 30),
        ("inex-generators-lex", demo.sets["product"], d2, d1, 2000),
        ("inex-lex-lex", IndepProduct((lex2, maximal_lex(rng, one(Y2)))), one(X2), one(Y2), 2000),
        ("strong-pair", demo.sets["strong-pair"], d2, d1, 2000),
    ]


def all_scan_cases():
    return scan_cases() + gamble_scan_cases()


def case_of(name):
    return next(c for c in all_scan_cases() if c[0] == name)


class TestGambleScanDifferential:
    """``is_irrelevant`` and ``factorisation_check`` send full-scope ints
    to ``scaled_member``; the scans in ``references`` send gambles on the
    scanned groups to ``member``.  Verdicts must be equal field for field,
    and the queries equal as rational vectors on the expression's scope."""

    def test_cases_have_the_intended_shapes(self):
        kinds = {type(expr).__name__ for _, expr, *_ in all_scan_cases()}
        assert kinds == {
            "LexSystem", "CellSet", "Conditioned", "IrrExt", "GeneratorSet",
            "IndepProduct", "StrongProduct",
        }
        parts = [
            name for name, expr, irrelevant, onto, _ in all_scan_cases()
            if irrelevant.union(onto) != scope_of(expr)
        ]
        assert parts == ["part-irrext", "part-conditioned"]
        assert isinstance(case_of("part-conditioned")[1], Conditioned)
        _, expr, irrelevant, onto, _ = case_of("strong-pair")
        assert "boundary queries skipped" in is_irrelevant(expr, irrelevant, onto).detail

    def test_every_verdict_matches_the_gamble_scans(self):
        outcomes = set()
        for name, expr, irrelevant, onto, budget in all_scan_cases():
            for seed in (0, 5):
                got = is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed)
                assert got == gamble_is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed), name
                outcomes.add(("irrelevant", got.passed))
                got = factorisation_check(expr, irrelevant, onto, budget=8, seed=seed)
                assert got == gamble_factorisation_check(expr, irrelevant, onto, budget=8, seed=seed), name
                outcomes.add(("factorisation", got.passed))
        assert len(outcomes) == 4

    def test_random_draws_match_the_gamble_scans(self):
        rng = random.Random("gamble-scan-draws")
        for _ in range(12):
            kind = rng.choice(("lex", "credal", "irrext", "conditioned"))
            scope = rng.choice((one(X2, Y2), one(X3, Y2), one(X2, Y2, Z2)))
            if kind == "lex":
                expr = maximal_lex(rng, scope)
            elif kind == "credal":
                expr = strictly_desirable(random_credal(rng, scope, count=rng.randint(1, 3)))
            elif kind == "irrext":
                first = one(scope.variables[0])
                expr = irrelevant_extension(maximal_lex(rng, first), scope.difference(first), scope)
            else:
                joint = strictly_desirable(random_credal(rng, scope.union(one(W2)), count=2))
                expr = condition(joint, Assignment.of({W2: rng.choice(("a", "b"))}))
            names = list(scope.variables)
            rng.shuffle(names)
            irrelevant, onto = one(names[0]), one(*names[1:])
            if rng.random() < 0.5 and len(names) == 3:
                onto = one(names[1])
            budget, seed = rng.choice((5, 40, 2000)), rng.randint(0, 9)
            want = gamble_is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed)
            assert is_irrelevant(expr, irrelevant, onto, budget=budget, seed=seed) == want
            want = gamble_factorisation_check(expr, irrelevant, onto, budget=6, seed=seed)
            assert factorisation_check(expr, irrelevant, onto, budget=6, seed=seed) == want

    def test_a_conditional_family_raises_the_same_error(self):
        joint = maximal_lex(random.Random("family"), one(X2, Y2))
        family = ConditionalFamily(
            one(Z2), tuple((Assignment.of({Z2: z}), joint) for z in ("a", "b"))
        )
        for scan, reference in (
            (is_irrelevant, gamble_is_irrelevant),
            (factorisation_check, gamble_factorisation_check),
        ):
            with pytest.raises(UnsupportedQueryError) as want:
                reference(family, one(Y2), one(X2))
            with pytest.raises(UnsupportedQueryError) as got:
                scan(family, one(Y2), one(X2))
            assert str(got.value) == str(want.value)

    def test_queries_equal_the_gamble_queries(self, monkeypatch):
        """Every query, in order, as values on the expression's scope.

        The engine's int vectors must be the reference gambles' values
        themselves, not some other positive multiple; verdicts alone cannot
        show it, since every node is a cone.
        """
        sent, asked = [], []
        engine_query = independence.scaled_member
        reference_query = references.member

        def record_ints(expr, nums, budget):
            sent.append(tuple(nums))
            return engine_query(expr, nums, budget)

        def record_gamble(expr, f, **kwargs):
            asked.append(f.embed(scope_of(expr)).values)
            return reference_query(expr, f, **kwargs)

        monkeypatch.setattr(independence, "scaled_member", record_ints)
        monkeypatch.setattr(references, "member", record_gamble)
        for name, expr, irrelevant, onto, budget in all_scan_cases():
            budget = min(budget, 60)
            del sent[:], asked[:]
            got = is_irrelevant(expr, irrelevant, onto, budget=budget)
            assert got == gamble_is_irrelevant(expr, irrelevant, onto, budget=budget), name
            assert sent == asked, name
            del sent[:], asked[:]
            got = factorisation_check(expr, irrelevant, onto, budget=6)
            assert got == gamble_factorisation_check(expr, irrelevant, onto, budget=6), name
            assert sent == asked, name


# ---------------------------------------------------------------------------
# integer sign tests and masks against the Fraction arithmetic
# ---------------------------------------------------------------------------

values = st.fractions(min_value=-4, max_value=4, max_denominator=6)
weights = st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3).filter(any)
dens = st.lists(st.integers(min_value=1, max_value=7), min_size=3, max_size=3)


def _mass(ws, ds):
    """A mass with mixed denominators (and zeros) from weights over denominators."""
    raw = [F(w, d) for w, d in zip(ws, ds)]
    total = sum(raw, F(0))
    return tuple(v / total for v in raw)


@given(
    st.lists(st.tuples(weights, dens), min_size=1, max_size=3),
    st.lists(values, min_size=3, max_size=3),
)
def test_lex_sign_test_matches_fraction_expectations(levels, f_values):
    system = LexSystem(one(X3), tuple(_mass(ws, ds) for ws, ds in levels))
    f = Gamble(one(X3), tuple(f_values))
    assert lex_accepts(system.int_levels, f.nums) is (ref_member(system, f) is Tri.IN)


@given(st.lists(values, min_size=3, max_size=3), st.lists(values, min_size=3, max_size=3))
def test_cell_row_sign_test_matches_fraction_dot(functional, f_values):
    c = Gamble(one(X3), tuple(functional))
    f = Gamble(one(X3), tuple(f_values))
    # f as drawn, then moved onto the row's hyperplane and a step off it
    # to either side.
    gambles = [f]
    norm = fraction_dot(c, functional)
    if norm:
        onto_plane = fraction_dot(f, functional) / norm
        for step in (F(-1, 3), F(0), F(2, 5)):
            shifted = tuple(v - (onto_plane - step) * w for v, w in zip(f_values, functional))
            gambles.append(Gamble(f.scope, shifted))
    for rel in (GE, GT, EQ):
        row = CellRow(c, rel)
        for g in gambles:
            cells = CellSet(one(X3), (Cell((row,)),))
            assert member(cells, g) is ref_member(cells, g)


@given(
    st.lists(values, min_size=6, max_size=6),
    st.sampled_from(("X1", "Z", "X1,Z", "X2", "X1,X2")),
    st.integers(min_value=0, max_value=11),
)
def test_mask_matches_indicator_product(f_values, event, pick):
    f = Gamble(one(Y3, Z2), tuple(f_values))
    by_name = {"X1": X2, "X2": Y3, "Z": Z2}
    scope = one(*[by_name[n] for n in event.split(",")])
    at = scope.assignment_at(pick % scope.size)
    assert f.mask(at) == indicator(at) * f
