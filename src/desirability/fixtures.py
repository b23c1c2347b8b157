"""Built-in worked examples with frozen expected values.

Each fixture assembles a small model, runs exact queries against it, and
compares the answers with constants that were computed independently
(closed forms, exhaustive grids, or hand-checked certificates) before
being frozen here.  ``run_all`` backs the ``paper-suite`` command and the
regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .desirable import (
    Cell,
    CellRow,
    CellSet,
    StrongProduct,
    Tri,
    cellset_coherence_audit,
    member,
)
from .exactlp import EQ, GE, GT, Infeasible, LinRow, LinSystem, Optimal, solve
from .independence import independent_product, inex_member
from .maximal import (
    LexSystem,
    lex_condition,
    lex_equal,
    lex_is_maximal,
    maximal_product_check,
    nonmaximality_witness,
)
from .previsions import (
    CredalSet,
    conditional_lower_prevision,
    inex_lower_prevision,
    lower_prevision,
    strictly_desirable,
    strong_member,
    strong_product_lower,
)
from .space import Assignment, Gamble, Scope, Variable
from .structure import condition, gamble_grid

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

__all__ = [
    "FixtureResult",
    "maximal_product_superset",
    "product_nonmaximality",
    "run_all",
    "strong_vs_independent_gap",
    "two_vertex_models",
    "two_vertex_prices",
    "updated_prices",
]


@dataclass(frozen=True)
class FixtureResult:
    """Outcome of one built-in example: a name, a verdict, and a note."""

    name: str
    passed: bool
    detail: str


def _report(name: str, failures: list[str], ok_detail: str) -> FixtureResult:
    return FixtureResult(name, not failures, failures[0] if failures else ok_detail)


# ---------------------------------------------------------------------------
# a two-vertex credal model and its boundary-widened variant
# ---------------------------------------------------------------------------


def two_vertex_models() -> tuple[Variable, Variable, Scope, CellSet, CellSet]:
    """A strict price model with two extreme masses, plus a widened copy.

    Both masses live on the outcomes with ``X1 = b``, so conditioning on
    ``X1 = a`` probes behaviour on an event of upper probability zero.
    The widened copy additionally accepts gambles that vanish on the
    supported outcomes and have positive total on the unsupported ones,
    so it encodes stronger commitments at the same prices.
    """
    x1 = Variable("X1", ("a", "b"))
    x2 = Variable("X2", ("a", "b"))
    joint = Scope.of([x1, x2])
    credal = CredalSet.of(joint, (("0", "0", "1/2", "1/2"), ("0", "0", "1/4", "3/4")))
    strict = strictly_desirable(credal)

    def unit(i: int) -> Gamble:
        return Gamble.on(joint, [1 if k == i else 0 for k in range(4)])

    support = Cell(
        (
            CellRow(unit(2), EQ),
            CellRow(unit(3), EQ),
            CellRow(unit(0) + unit(1), GT),
        )
    )
    widened = CellSet(joint, strict.cells + (support,), include_positive=True)
    return x1, x2, joint, strict, widened


def two_vertex_prices() -> FixtureResult:
    """Boundary membership and the exact price envelope of the base model."""
    _, _, joint, strict, widened = two_vertex_models()
    failures: list[str] = []

    g = Gamble.on(joint, [2, -1, 0, 0])
    if member(strict, g) is not Tri.OUT:
        failures.append("boundary gamble wrongly accepted by the strict set")
    if member(widened, g) is not Tri.IN:
        failures.append("boundary gamble rejected by the widened set")

    for label, cs in (("strict", strict), ("widened", widened)):
        if not cellset_coherence_audit(cs).passed:
            failures.append("%s set failed the coherence audit" % label)

    checked = 0
    for f in gamble_grid(joint, -2, 2):
        expected = min(
            (f.values[2] + f.values[3]) / 2,
            (f.values[2] + 3 * f.values[3]) / 4,
        )
        got = lower_prevision(strict, f)
        if got != expected:
            failures.append(
                "price of %s: got %s, expected %s" % (f.values, got, expected)
            )
            break
        checked += 1

    return _report(
        "two-vertex-prices",
        failures,
        "%d grid prices matched the two-vertex envelope; "
        "boundary membership split the two sets as frozen" % checked,
    )


def updated_prices() -> FixtureResult:
    """Conditioning on the zero-probability event splits the two models.

    The strict model updates to the vacuous price (the minimum), the
    widened one to the average of the two outcomes.
    """
    x1, x2, _, strict, widened = two_vertex_models()
    at = Assignment.of({x1: "a"})
    rest = Scope.of([x2])
    failures: list[str] = []

    checked = 0
    for g in gamble_grid(rest, -3, 3):
        want_strict = min(g.values)
        want_widened = (g.values[0] + g.values[1]) / 2
        got_strict = conditional_lower_prevision(strict, at, g)
        got_widened = conditional_lower_prevision(widened, at, g)
        if got_strict != want_strict:
            failures.append(
                "strict update of %s: got %s, expected %s"
                % (g.values, got_strict, want_strict)
            )
            break
        if got_widened != want_widened:
            failures.append(
                "widened update of %s: got %s, expected %s"
                % (g.values, got_widened, want_widened)
            )
            break
        checked += 1

    spots = (
        ("strict", condition(strict, at), Gamble.on(rest, [1, 1]), Tri.IN),
        ("strict", condition(strict, at), Gamble.on(rest, [1, -1]), Tri.OUT),
        ("widened", condition(widened, at), Gamble.on(rest, [2, -1]), Tri.IN),
        ("widened", condition(widened, at), Gamble.on(rest, [1, -1]), Tri.OUT),
    )
    for label, expr, f, want in spots:
        if member(expr, f) is not want:
            failures.append(
                "updated %s set gave the wrong verdict on %s" % (label, f.values)
            )

    return _report(
        "updated-prices",
        failures,
        "%d conditional prices matched the minimum/average split" % checked,
    )


# ---------------------------------------------------------------------------
# products of maximal binary models
# ---------------------------------------------------------------------------


def _binary_pair() -> tuple[Scope, Scope, LexSystem, LexSystem]:
    x1 = Variable("X1", ("0", "1"))
    x2 = Variable("X2", ("0", "1"))
    s1 = Scope.of([x1])
    s2 = Scope.of([x2])
    levels = ((_HALF, _HALF), (_ONE, _ZERO))
    return s1, s2, LexSystem(s1, levels), LexSystem(s2, levels)


def product_nonmaximality(budget: int = 100000) -> FixtureResult:
    """The product of two maximal binary models is not maximal.

    Both orientations of the frozen diagonal gamble are rejected, and the
    general witness construction reproduces a rejected pair as well.
    """
    s1, s2, m1, m2 = _binary_pair()
    joint = s1.union(s2)
    failures: list[str] = []

    if not (lex_is_maximal(m1) and lex_is_maximal(m2)):
        failures.append("binary marginals are not maximal")

    product = independent_product((m1, m2))
    h = Gamble.on(joint, [-1, 1, 1, -1])
    for label, f in (("h", h), ("-h", -h)):
        if inex_member(product, f, budget=budget) is not Tri.OUT:
            failures.append("product failed to reject %s" % label)

    w = nonmaximality_witness(m1, m2)
    if (
        inex_member(product, w, budget=budget) is not Tri.OUT
        or inex_member(product, -w, budget=budget) is not Tri.OUT
    ):
        failures.append("constructed witness was not rejected both ways")

    return _report(
        "product-nonmaximality",
        failures,
        "both orientations of the diagonal gamble are rejected by the product",
    )


def maximal_product_superset(budget: int = 100000) -> FixtureResult:
    """A four-level maximal model containing the product of binary models.

    Its conditionals on every outcome of either variable collapse to the
    binary marginal, it passes the product decomposition check, and on an
    exhaustive grid every gamble the product accepts it accepts too.
    """
    s1, s2, m1, m2 = _binary_pair()
    joint = s1.union(s2)
    q = Fraction(1, 4)
    refined = LexSystem(
        joint,
        (
            (q, q, q, q),
            (_ONE, _ZERO, _ZERO, _ZERO),
            (_ZERO, _ONE, _ZERO, _ZERO),
            (_ZERO, _ZERO, _ONE, _ZERO),
        ),
    )
    failures: list[str] = []

    if not lex_is_maximal(refined):
        failures.append("refined four-level model is not maximal")
    if not maximal_product_check(refined):
        failures.append("refined model fails the product decomposition check")

    slices = (
        (Assignment.of({s1.variables[0]: "0"}), m2),
        (Assignment.of({s1.variables[0]: "1"}), m2),
        (Assignment.of({s2.variables[0]: "0"}), m1),
        (Assignment.of({s2.variables[0]: "1"}), m1),
    )
    for at, marginal in slices:
        if not lex_equal(lex_condition(refined, at), marginal):
            failures.append("conditional at %s is not the binary marginal" % at)

    product = independent_product((m1, m2))
    rejected = 0
    for g in gamble_grid(joint, -2, 2):
        if g.is_zero() or member(refined, g) is Tri.IN:
            continue
        rejected += 1
        if inex_member(product, g, budget=budget) is not Tri.OUT:
            failures.append(
                "product accepts %s which the refined model rejects" % (g.values,)
            )
            break

    return _report(
        "maximal-product-superset",
        failures,
        "all %d grid gambles rejected by the refined model are rejected "
        "by the product" % rejected,
    )


# ---------------------------------------------------------------------------
# the gap between sum decompositions and envelope products
# ---------------------------------------------------------------------------


def _gap_programs(
    h: Gamble, masses: tuple[tuple[tuple[int, ...], ...], int]
) -> tuple[object, object]:
    """Two programs over two-summand decompositions of ``h``.

    Variables are the eight values of summands ``u`` and ``v`` on the
    joint space.  The first program maximises a fixed componentwise
    positive weighting of ``u + v`` subject to ``u + v <= h``; the
    weighting, five times the domination multipliers of the second
    program's infeasibility certificate, is held as ints, so the optimum
    exposes five times the negative value directly.  The second program
    additionally requires every slice of ``u`` along the first variable
    and of ``v`` along the second to have nonnegative expectation under
    both marginal masses, given as ints over one positive denominator
    (``CredalSet._vertex_ints``), and has no feasible point at all.
    """
    weights = (2, 3, 3, 3)

    domination = []
    for w in range(4):
        nums = [0] * 9
        nums[w] = nums[4 + w] = -h.den
        nums[8] = -h.nums[w]
        domination.append(LinRow._from_ints(tuple(nums), GE, h.den))

    best = solve(LinSystem(8, tuple(domination)), weights + weights)

    vertices, mass_den = masses
    slice_rows = []
    for offset, pairs in ((0, ((0, 1), (2, 3))), (4, ((0, 2), (1, 3)))):
        for i, j in pairs:
            for mass in vertices:
                nums = [0] * 9
                nums[offset + i] = mass[0]
                nums[offset + j] = mass[1]
                slice_rows.append(LinRow._from_ints(tuple(nums), GE, mass_den))
    tightened = solve(LinSystem(8, tuple(domination) + tuple(slice_rows)))
    return best, tightened


def strong_vs_independent_gap(budget: int = 100000) -> FixtureResult:
    """The envelope product prices a gamble the sum decomposition rejects.

    With identical two-vertex marginals, the frozen diagonal gamble has
    strong (envelope) lower price exactly 1/100 while no acceptable sum
    decomposition exists: the sum-decomposition price is negative, the
    product membership verdicts split, and the decomposition programs
    return the frozen bound -39/500 and an infeasibility certificate.
    ``inex_lower_prevision`` computes the sum-decomposition price as the
    minimum of ``h`` over joint masses with slices in the marginal
    credal cones; by LP duality that is the same number as the best sum
    decomposition.
    """
    x1 = Variable("X1", ("0", "1"))
    x2 = Variable("X2", ("0", "1"))
    s1 = Scope.of([x1])
    s2 = Scope.of([x2])
    joint = s1.union(s2)
    m1 = CredalSet.of(s1, (("2/5", "3/5"), ("1/2", "1/2")))
    m2 = CredalSet.of(s2, (("2/5", "3/5"), ("1/2", "1/2")))
    h = Gamble.on(joint, ["51/100", "-49/100", "-49/100", "51/100"])
    failures: list[str] = []

    strong = strong_product_lower((m1, m2), h, budget=budget)
    if strong != Fraction(1, 100):
        failures.append("strong lower price %s differs from 1/100" % strong)

    summed = inex_lower_prevision((m1, m2), h)
    if summed >= 0:
        failures.append("sum-decomposition price %s is not negative" % summed)

    d1 = strictly_desirable(m1)
    d2 = strictly_desirable(m2)
    if inex_member(independent_product((d1, d2)), h, budget=budget) is not Tri.OUT:
        failures.append("sum-decomposition product accepted the diagonal gamble")
    if strong_member(StrongProduct((d1, d2)), h, budget=budget) is not Tri.IN:
        failures.append("strong product rejected the diagonal gamble")

    best, tightened = _gap_programs(h, m1._vertex_ints)
    if not (isinstance(best, Optimal) and best.value / 5 == Fraction(-39, 500)):
        failures.append("weighted decomposition bound differs from -39/500")
    if not isinstance(tightened, Infeasible):
        failures.append("tightened decomposition system is unexpectedly feasible")

    return _report(
        "strong-vs-independent-gap",
        failures,
        "strong price 1/100 vs negative sum-decomposition price %s; "
        "decomposition bound -39/500 reproduced" % summed,
    )


def run_all(budget: int = 100000) -> list[FixtureResult]:
    """Run every built-in example and collect the verdicts."""
    return [
        two_vertex_prices(),
        updated_prices(),
        product_nonmaximality(budget),
        maximal_product_superset(budget),
        strong_vs_independent_gap(budget),
    ]
