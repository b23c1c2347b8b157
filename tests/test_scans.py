"""Irrelevance scans against a reference scan, and the fast paths they use.

The reference below decides membership the plain way: masks are indicator
products, extension slices come from ``floor_onto`` and ``slice_at``, and
lexicographic and cell leaves take exact ``Fraction`` dot products.  The
engine's scans read index tables and decide leaves by integer sign tests;
both must return equal ``Verdict``s, field for field.
"""

import random
from fractions import Fraction

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
    independence,
    is_independent,
    is_irrelevant,
    member,
    strictly_desirable,
)
from desirability.desirable import Cell, CellRow, Conditioned, scope_of
from desirability.structure import condition, cyl_ext, sample_gambles
from desirability.maximal import lex_member
from desirability.exactlp import EQ, GE, GT
from desirability.independence import Verdict, irrelevant_extension
from randgen import random_credal, random_mass

from references import floor_onto, indicator

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

    ``checked`` and the number of ``member`` calls a scan makes through the
    ``independence`` module are the values the indicator-product scan gave;
    a faster scan must reach them too, not check fewer pairs.
    """

    def _count(self, monkeypatch, scan):
        calls = []
        inner = independence.member

        def counting(expr, f):
            calls.append(f)
            return inner(expr, f)

        monkeypatch.setattr(independence, "member", counting)
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
    assert lex_member(system, f) is (ref_member(system, f) is Tri.IN)


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
            want = ref_member(CellSet(one(X3), (Cell((row,)),)), g) is Tri.IN
            assert row.holds(g.nums) is want


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
