"""Buying prices, credal sets, and independent joints of lower previsions.

The lower prevision of a gamble ``f`` under a set model is the supremum
acceptable buying price ``sup {mu : f - mu is a member}``; the upper
prevision is its conjugate ``-lower(-f)``.  This module computes those
suprema exactly for every representation with a decidable buying-price
procedure, enumerates the vertices of the credal set of a generator
cone, builds strictly desirable models from credal sets, prices the
most conservative independent joint of marginal credal sets through the
dual over joint masses (one exact linear program whose joint mass has
every block slice in that block's credal cone), and evaluates strong
products (lower envelopes of products of dominating linear previsions)
by scanning vertex combinations.

Prices are built for re-use, and every program on ints.  A joint-mass
program's rows depend only on the credal sets, so they are built once per
tuple of sets and kept on the first set; a price builds only its int
objective, and ``solve`` runs phase 2 alone from the phase 1 that the
kept rows ran once.  A generator-cone price builds its rows from the
cone's generator ints, kept on the cone, and the gamble's; the strong
scan multiplies ints, with each credal set's vertex ints kept on the set.

All suprema are reported even when not attained: a result ``mu*`` means
prices strictly below ``mu*`` are always acceptable, while ``mu*``
itself may sit on an excluded boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .desirable import (
    Cell,
    CellRow,
    CellSet,
    Conditioned,
    DesirableSetExpr,
    GeneratorSet,
    StrongProduct,
    Tri,
    avoids_nonpositivity,  # noqa: F401 - perfbench/tracer.py wraps this binding
    check_coherent,
    cone_program,
    member,
    scope_of,
    sign_cells,
    sign_verdict,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EngineError,
    ExactnessError,
    IncoherentBaseError,
    ScopeError,
    UnsupportedQueryError,
)
from .exactlp import (
    EQ, GE, GT, Feasible, LinRow, LinSystem, Optimal, forward_eliminate, scaled_to_ints,
    solve, unit_rows,
)
from .maximal import LexSystem
from .space import (
    Assignment,
    Gamble,
    Scope,
    _restriction_map,
    _slice_map,
    as_rational,
    disjoint_union,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

__all__ = [
    "CredalSet",
    "conditional_lower_prevision",
    "credal_vertices",
    "credal_view",
    "gbr_residual",
    "inex_lower_prevision",
    "lower_prevision",
    "strictly_desirable",
    "strong_member",
    "strong_product_lower",
    "upper_prevision",
]


# ---------------------------------------------------------------------------
# the shift interval of one sign-constraint piece
# ---------------------------------------------------------------------------
#
# A buying price is the sup of the shifts {mu : value + mu*direction is a
# member}, direction nonzero and nonpositive (the constant -1, or
# -indicator for conditional prices).  Cell and lexicographic models are
# the unions of their ``sign_cells``, pieces cut out by sign constraints on
# functionals e, and e(value + mu*direction) = b + a*mu, so the shifts of a
# piece form an interval with endpoints among the roots -b/a: closed form,
# no LP.  a and b are read on ints, each a positive multiple of the
# rational dot product, which leaves every sign and root as it is.  A piece
# that excludes zero drops the shift where the gamble vanishes, which moves
# a supremum only when it is that single shift.

_UNBOUNDED = "unbounded buying price: the modelled set accepts every sure loss"


def _shift_sup(
    constraints: Iterable[tuple[int, int, str]],
    zero_mu: Optional[Fraction] = None,
) -> Optional[Fraction]:
    """Supremum of ``{mu : b + a*mu rel 0 for every (a, b, rel)}``.

    ``None`` when the set is empty or is the single shift ``zero_mu``, the
    shift at which the gamble vanishes, passed to carve the zero gamble
    out.  Reading stops at the first constraint that empties the set.  A
    set unbounded above raises ``IncoherentBaseError``.
    """
    # Bounds are (root, open) below and (root, closed) above: tuple order is
    # tightness, so max and min tighten them and ``lo >= hi`` means empty.
    lo: Optional[tuple[Fraction, bool]] = None
    hi: Optional[tuple[Fraction, bool]] = None
    for a, b, rel in constraints:
        if a == 0:
            if b < 0 or (b == 0 and rel == GT) or (b > 0 and rel == EQ):
                return None
            continue
        root = Fraction(-b, a)
        if a > 0 or rel == EQ:
            bound = (root, rel == GT)
            lo = bound if lo is None else max(lo, bound)
        if a < 0 or rel == EQ:
            bound = (root, rel != GT)
            hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None and lo >= hi:
            return None
    if hi is None:
        raise IncoherentBaseError(_UNBOUNDED)
    if lo is not None and lo[0] == hi[0] == zero_mu:
        return None
    return hi[0]


def _zero_shift(value: Sequence[int], direction: Sequence[int]) -> Optional[Fraction]:
    """The unique mu with ``value + mu*direction = 0``, if one exists, for
    two gambles' ints over one denominator."""
    v0, d0 = next(((v, d) for v, d in zip(value, direction) if d), (0, 0))
    # Each ``v + mu*d``, times ``d0``, for ``mu = -v0/d0``.
    if not d0 or any(v * d0 != v0 * d for v, d in zip(value, direction)):
        return None
    return Fraction(-v0, d0)


# ---------------------------------------------------------------------------
# per-representation supremum procedures
# ---------------------------------------------------------------------------


def _generator_sup(
    cone: GeneratorSet, value: Gamble, direction: Gamble
) -> Optional[Fraction]:
    """LP supremum of ``{mu : value + mu*direction in E(cone)}``.

    Membership in the natural extension holds iff the gamble is nonzero
    and dominates some nonnegative combination of the generators.  The
    feasible shift set is a down-closed interval, and dropping the
    single boundary shift where the gamble degenerates to zero never
    changes the supremum for a consistent assessment, so maximising mu
    over the dominance closure is exact.

    The program is solved from the sure price ``m0``, the largest shift
    that keeps ``value + m0*direction`` nonnegative wherever the direction
    is negative: it prices ``value + m0*direction`` and adds ``m0`` back,
    which is exact for any ``m0`` because the supremum moves with the
    shift.  Every cone row then holds at the origin, apart from the rows
    where the shifted gamble is zero (its argmin, and with a masked
    direction the outcomes outside the observed event), so the simplex
    starts on their surplus columns and phase 1 has at most those
    degenerate rows to clear.
    """
    check_coherent(cone)
    # The least ratio v / -d over the outcomes where d < 0, compared on the
    # ints: ``v * e' < v' * e`` with ``e = -d > 0``.
    least: Optional[tuple[int, int]] = None
    for v, d in zip(value.nums, direction.nums):
        if d < 0 and (least is None or v * least[1] < least[0] * -d):
            least = (v, -d)
    m0 = _ZERO if least is None else Fraction(least[0] * direction.den, least[1] * value.den)
    if m0:
        value = value + m0 * direction
    # Bounded behind the gate: its mass p > 0 gives each generator positive
    # expectation, so a feasible shift has p.(value + mu*direction) >= 0,
    # that is mu <= p.value / p.(-direction).
    program = cone_program(cone._negated_ints, value.nums, value.den, direction)
    outcome = solve(program, (1,) + (0,) * len(cone.generators))
    if isinstance(outcome, Optimal):
        return m0 + outcome.value
    return None


def _set_sup(
    expr: DesirableSetExpr, value: Gamble, direction: Gamble
) -> Optional[Fraction]:
    """Dispatch ``sup {mu : value + mu*direction is a member}``.

    ``direction`` must be nonpositive and nonzero; conditioning recurses
    with both the value and the direction masked by the observed event,
    so conditional prices reuse the unconditional machinery.  A cell or
    lexicographic model takes the largest ``_shift_sup`` over its
    ``sign_cells``, a lexicographic one after ``check_coherent``.  It
    reads ints alone: each functional's ``nums``, and the value and the
    direction over one denominator, so a ``Fraction`` is made only for a
    root.
    """
    if isinstance(expr, GeneratorSet):
        return _generator_sup(expr, value, direction)
    if isinstance(expr, (CellSet, LexSystem)):
        check_coherent(expr)
        den = math.lcm(value.den, direction.den)
        d_ints, v_ints = [[n * (den // g.den) for n in g.nums] for g in (direction, value)]
        zero_mu = _zero_shift(v_ints, d_ints)
        # A lexicographic level leads one cell and ties in every later one:
        # each shared functional is dotted once, keyed by identity while the
        # cells are alive.  Zero terms are skipped: unit rows and masked
        # gambles are mostly zeros.
        line: dict[int, tuple[int, ...]] = {}

        def constraints(cell: Cell) -> Iterator[tuple[int, int, str]]:
            for row in cell.rows:
                e = row.functional
                if id(e) not in line:
                    line[id(e)] = tuple([
                        sum([c * v for c, v in zip(e.nums, g) if c and v]) for g in (d_ints, v_ints)
                    ])
                yield line[id(e)] + (row.rel,)

        sups = [
            _shift_sup(constraints(cell), zero_mu if cell.exclude_zero else None)
            for cell in sign_cells(expr)
        ]
        return max((s for s in sups if s is not None), default=None)
    if isinstance(expr, Conditioned):
        base_scope = scope_of(expr.base)
        return _set_sup(
            expr.base,
            value.mask(expr.given).embed(base_scope),
            direction.mask(expr.given).embed(base_scope),
        )
    raise UnsupportedQueryError(
        "no exact buying-price procedure for %s" % type(expr).__name__
    )


# ---------------------------------------------------------------------------
# public prevision API
# ---------------------------------------------------------------------------


def lower_prevision(expr: DesirableSetExpr, f: Gamble) -> Fraction:
    """Supremum acceptable buying price ``sup {mu : f - mu is a member}``.

    The supremum need not be attained: the set may exclude the boundary
    gamble ``f - mu*``.
    """
    scope = scope_of(expr)
    value = f.embed(scope)
    direction = Gamble.constant(scope, -_ONE)
    result = _set_sup(expr, value, direction)
    if result is None:
        raise IncoherentBaseError("no buying price is acceptable: the set is empty")
    return result


def upper_prevision(expr: DesirableSetExpr, f: Gamble) -> Fraction:
    """Conjugate selling price ``-lower_prevision(-f)``."""
    return -lower_prevision(expr, -f)


def conditional_lower_prevision(
    expr: DesirableSetExpr, given: Assignment, g: Gamble
) -> Fraction:
    """Buying price for ``g`` contingent on observing ``given``.

    Equals ``sup {mu : indicator(given) * (g - mu) is a member}``; on an
    empty observation ``condition`` returns the model unchanged.
    """
    from .structure import condition

    return lower_prevision(condition(expr, given), g)


def gbr_residual(expr: DesirableSetExpr, given: Assignment, g: Gamble) -> Fraction:
    """Joint price of the contingent claim at its conditional price.

    Returns ``lower_prevision(indicator(given) * (g - p))`` where ``p``
    is the conditional lower prevision of ``g``; coherence forces the
    residual to vanish, making this a self-consistency probe.
    """
    price = conditional_lower_prevision(expr, given, g)
    masked = g.shift(-price).mask(given)
    return lower_prevision(expr, masked)


# ---------------------------------------------------------------------------
# credal sets
# ---------------------------------------------------------------------------


def _check_vertex_length(p: Sequence[object], scope: Scope) -> None:
    if len(p) != scope.size:
        raise DimensionMismatchError(
            "vertex of length %d on a %d-outcome scope" % (len(p), scope.size)
        )


@dataclass(frozen=True)
class CredalSet:
    """A polytope of probability mass functions, held by its vertices."""

    scope: Scope
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a credal set needs at least one vertex")
        for p in self.vertices:
            _check_vertex_length(p, self.scope)
            total = _ZERO
            for v in p:
                if not isinstance(v, Fraction):
                    raise ExactnessError("vertex masses must be Fractions")
                if v < 0:
                    raise ValueError("vertex has a negative mass")
                total += v
            if total != 1:
                raise ValueError("vertex masses sum to %s, not 1" % (total,))

    @staticmethod
    def of(scope: Scope, vertices: Sequence[Sequence[object]]) -> "CredalSet":
        """Canonicalise: exact rationals, dedupe, extreme points only, sorted.

        For points that do not come from vertex enumeration and may repeat
        or include non-extreme points: ``strict_from_credal`` model
        entries, ``credal_view`` of cell and lex models, fixtures and
        random draws.  Each point costs one convex-combination LP.
        ``credal_vertices`` needs none of this and builds its result
        directly.  A point whose length is not the scope's size raises
        ``DimensionMismatchError`` before any LP.
        """
        rows = sorted({tuple(as_rational(v) for v in p) for p in vertices})
        for p in rows:
            _check_vertex_length(p, scope)
        keep = [
            p
            for i, p in enumerate(rows)
            if not _convex_combination(p, rows[:i] + rows[i + 1 :])
        ]
        return CredalSet(scope, tuple(keep))

    @cached_property
    def _vertex_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Every vertex times the lcm ``den`` of all their denominators, as
        ints, and ``den``: the form the joint-mass program and the strong
        scan read, computed once."""
        den = math.lcm(*[v.denominator for p in self.vertices for v in p])
        return tuple([
            tuple([v.numerator * (den // v.denominator) for v in p]) for p in self.vertices
        ]), den


def _convex_combination(
    target: tuple[Fraction, ...], others: Sequence[tuple[Fraction, ...]]
) -> bool:
    """Is ``target`` a convex combination of ``others``? (exact LP)"""
    if not others:
        return False
    rows = []
    for w in range(len(target)):
        ints, den = scaled_to_ints([p[w] for p in others] + [target[w]])
        rows.append(LinRow._from_ints(tuple(ints), EQ, den))
    rows.append(LinRow._from_ints((1,) * (len(others) + 1), EQ))
    rows.extend(unit_rows(len(others), GE))
    return isinstance(solve(LinSystem(len(others), tuple(rows))), Feasible)


def credal_vertices(assessment: GeneratorSet, *, budget: int = 200000) -> CredalSet:
    """Vertices of ``{p : p >= 0, sum p = 1, p.g >= 0 for all generators}``.

    Enumerates basic feasible solutions: every vertex solves the
    normalisation equality together with some ``size - 1`` active
    constraints picked from the sign and generator rows, so scanning all
    such square systems and keeping the feasible solutions is exhaustive.
    Conversely each feasible solution of a nonsingular such system has
    ``size`` linearly independent active constraints, so it is a vertex:
    the points found are returned as they are (deduplicated and sorted),
    with no convex-combination LP from ``CredalSet.of``.

    Each square system is solved on ints by ``exactlp.forward_eliminate``,
    the elimination the simplex and lexicographic canonical forms share,
    on the rows ``[1 ... 1 | 1]`` and ``[c | 0]`` per chosen constraint
    ``c``.  Fewer than ``size`` kept pivots among the coefficient columns
    mark a singular basis, which is skipped.

    The polytope may lie on the boundary of the simplex: assessments too
    strong for a desirability reading can still bound prices.  Only an
    empty polytope (no dominating linear prevision at all) is an error.
    """
    scope = assessment.scope
    d = scope.size
    if d == 1:
        if any(g.values[0] < 0 for g in assessment.generators):
            raise IncoherentBaseError(
                "no linear prevision dominates the assessment; "
                "the credal set is empty"
            )
        return CredalSet.of(scope, ((_ONE,),))
    # Constraint rows as ints: a positive multiple of a generator has the
    # same zero set and the same sign at every point.
    constraints = [[int(i == w) for i in range(d)] for w in range(d)]
    constraints.extend(list(g.nums) for g in assessment.generators)
    total = math.comb(len(constraints), d - 1)
    if total > budget:
        raise BudgetExceededError(
            "vertex enumeration needs %d basis candidates, over the budget of %d"
            % (total, budget)
        )
    generators = constraints[d:]
    found: set[tuple[Fraction, ...]] = set()
    ones = [1] * (d + 1)
    for chosen in itertools.combinations([c + [0] for c in constraints], d - 1):
        kept = forward_eliminate((ones,) + chosen)
        if sum(pivot < d for _, pivot in kept) < d:
            continue  # a singular basis
        # Back-substitution in reverse insertion order: each kept row is zero
        # at the pivots kept before it, so its other entries are at pivots
        # already solved.  The point is xs / den with den > 0.
        xs = [0] * d
        den = 1
        for row, pivot in reversed(kept):
            a = row[pivot]
            num = row[d] * den - sum([r * x for r, x in zip(row, xs) if x])
            if a < 0:
                a, num = -a, -num
            if a != 1:
                xs = [x * a for x in xs]
                den *= a
            xs[pivot] = num
        if any(x < 0 for x in xs):
            continue
        if any(sum([c * x for c, x in zip(g, xs) if c]) < 0 for g in generators):
            continue
        found.add(tuple([Fraction(x, den) for x in xs]))
    if not found:
        raise IncoherentBaseError(
            "no linear prevision dominates the assessment; the credal set is empty"
        )
    return CredalSet(scope, tuple(sorted(found)))


def strictly_desirable(credal: CredalSet) -> CellSet:
    """Smallest coherent set inducing the credal set's lower envelope.

    A gamble belongs iff it is positive or every vertex gives it
    strictly positive expectation.  The result's ``from_credal`` reads
    the vertices back from its rows, exactly and in order.
    """
    rows = tuple(CellRow(Gamble(credal.scope, p), GT) for p in credal.vertices)
    return CellSet(credal.scope, (Cell(rows),), include_positive=True)


def credal_view(expr: DesirableSetExpr, *, budget: int = 200000) -> CredalSet:
    """The credal set of the lower prevision induced by a marginal model.

    Generator cones enumerate their vertices; strictly desirable cell
    models, built by ``strictly_desirable`` or written by hand,
    canonicalise the masses ``from_credal`` reads from their cells;
    lexicographic models induce the linear prevision of their first level
    (deeper levels only break ties at price zero, which a supremum never
    sees).
    """
    if isinstance(expr, CredalSet):
        return expr
    if isinstance(expr, GeneratorSet):
        return credal_vertices(expr, budget=budget)
    if isinstance(expr, CellSet) and expr.from_credal is not None:
        # Canonicalised once per set and kept with it: its cells never
        # change, and each canonical vertex costs an LP.
        view = expr.__dict__.get("_credal_view")
        if view is None:
            view = expr.__dict__["_credal_view"] = CredalSet.of(expr.scope, expr.from_credal)
        return view
    if isinstance(expr, LexSystem):
        return CredalSet.of(expr.scope, (expr.levels[0],))
    raise UnsupportedQueryError(
        "no credal view available for %s" % type(expr).__name__
    )


# ---------------------------------------------------------------------------
# independent joint of marginal credal sets (one joint-mass LP)
# ---------------------------------------------------------------------------


def inex_lower_prevision(credals: Sequence[CredalSet], f: Gamble) -> Fraction:
    """Most conservative independent joint lower prevision, evaluated at f.

    The price is the minimum of ``f . mu`` over the joint masses ``mu``
    whose every block slice lies in the cone of that block's vertices: the
    independent natural extension as the lower envelope of such masses
    (De Cooman, Miranda & Zaffalon, "Independent natural extension", AIJ
    175, 2011).  It is the LP dual of the allocation program that spreads
    ``f`` over per-block gambles priced by their vertex envelopes, so the
    two give the same number.

    The rows do not depend on ``f``: ``_joint_mass_program`` builds them
    once per tuple of credal sets and keeps them on the first set, and every
    price of that tuple solves them under its own objective, so phase 1
    runs on the first price alone (``LinSystem._phase1``).  The objective
    is built here on ints from ``f.nums`` and the vertex ints: ``solve``
    maximises ``-(f . mu) * den``, with ``den`` the gamble's denominator
    times the masses', and the price is ``-value / den``.

    The program is feasible (any product of vertices is a point) and
    bounded (``mu`` lies in the simplex), so any outcome other than
    ``Optimal`` is an engine fault.
    """
    if not credals:
        raise ScopeError("at least one marginal credal set is required")
    joint, block0, mass_den, program = _joint_mass_program(credals)
    fitted = f.embed(joint)
    nums = fitted.nums
    objective = [0] * program.n_vars
    for j, masses in block0:
        objective[j] = -sum([nums[w] * m for w, m in masses])
    outcome = solve(program, tuple(objective))
    if isinstance(outcome, Optimal):
        return -outcome.value / (fitted.den * mass_den)
    raise EngineError(
        "the joint-mass program must be bounded and feasible; got %s"
        % type(outcome).__name__
    )


def _joint_mass_program(
    credals: Sequence[CredalSet],
) -> tuple[Scope, tuple[tuple[int, tuple[tuple[int, int], ...]], ...], int, LinSystem]:
    """The joint scope, block 0's columns, their mass denominator, and the
    rows of the joint-mass program of ``credals``.

    The program is built once and kept on the first set, for the latest
    tuple that set leads: the prices of one product share it, and it goes
    with the sets, so no cache outlives the models.

    * Columns: one ``lam[n, z, p] >= 0`` per block ``n``, assignment ``z``
      of the other blocks and vertex ``p`` of block ``n``; block ``n``'s
      mass at the joint outcome ``(k, z)`` is ``sum_p lam[n, z, p] * p[k]``.
      Each column carries a single-coefficient ``>= 0`` row (``unit_rows``),
      which the simplex folds into a nonnegative column: nothing is split.
    * Rows: block 0's columns sum to 1, and for each later block and each
      joint outcome its mass equals block 0's.
    * Objective: minimise ``f . mu`` with ``mu`` read from block 0, so
      ``mu`` needs no columns of its own.  Its vertices sum to 1, so the
      first row is ``sum mu = 1``.  Per column of block 0, the
      ``(joint index, mass)`` pairs it adds give its objective entry; the
      masses are block 0's ``_vertex_ints``, over the returned denominator.

    Rows are built on the vertex ints: a balance row of block ``n`` holds
    block ``n``'s masses over ``den_n`` and block 0's negated masses over
    ``den_0``, so its ints are scaled onto ``den_0 * den_n``.  The layout
    comes from ``space``: ``_slice_map`` gives the joint indices of each
    block slice.
    """
    first, rest = credals[0], tuple(credals[1:])
    kept = first.__dict__.get("_joint_mass")
    if kept is not None and kept[0] == rest:
        return kept[1]
    joint = disjoint_union(c.scope for c in credals)
    tables = [c._vertex_ints for c in credals]
    # Per column, its block and the (joint index, int mass) pairs it adds.
    columns: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for n, (c, (vertices, _)) in enumerate(zip(credals, tables)):
        for z in joint.difference(c.scope).assignments():
            cell_index = _slice_map(joint, z)[0]
            for p in vertices:
                columns.append((n, tuple([(w, m) for w, m in zip(cell_index, p) if m])))
    width = len(columns)
    rows = [LinRow._from_ints(tuple([int(n == 0) for n, _ in columns] + [1]), EQ)]
    den0 = tables[0][1]
    for n in range(1, len(credals)):
        den_n = tables[n][1]
        balance = [[0] * (width + 1) for _ in range(joint.size)]
        for j, (block, masses) in enumerate(columns):
            if block == n:
                for w, m in masses:
                    balance[w][j] = m * den0
            elif block == 0:
                for w, m in masses:
                    balance[w][j] = -m * den_n
        rows.extend([LinRow._from_ints(tuple(coeffs), EQ, den0 * den_n) for coeffs in balance])
    rows.extend(unit_rows(width, GE))
    block0 = tuple([(j, masses) for j, (n, masses) in enumerate(columns) if n == 0])
    program = joint, block0, den0, LinSystem(width, tuple(rows))
    object.__setattr__(first, "_joint_mass", (rest, program))
    return program


# ---------------------------------------------------------------------------
# strong products
# ---------------------------------------------------------------------------


def strong_product_lower(
    credals: Sequence[CredalSet], f: Gamble, *, budget: int = 100000
) -> Fraction:
    """Lower envelope over products of dominating linear previsions.

    The product expectation is linear in each factor separately, so the
    infimum over the credal polytopes is attained at a combination of
    vertices; enumerating combinations is exact.  The scan runs on ints:
    every combination's expectation is an int over the one denominator
    ``f.den * prod_n den_n``, with each set's vertices read from its
    ``_vertex_ints`` over ``den_n``, so the least int gives the price.
    """
    if not credals:
        raise ScopeError("at least one marginal credal set is required")
    joint = disjoint_union(c.scope for c in credals)
    fitted = f.embed(joint)
    combos = 1
    for c in credals:
        combos *= len(c.vertices)
    if combos > budget:
        raise BudgetExceededError(
            "strong product needs %d vertex combinations, over the budget of %d"
            % (combos, budget)
        )
    tables = [c._vertex_ints for c in credals]
    den = fitted.den
    for _, vertex_den in tables:
        den *= vertex_den
    block_index = [_restriction_map(joint, c.scope) for c in credals]
    # Per joint outcome where f is nonzero, its value and its index in each block.
    terms = [
        (v, [index[w] for index in block_index]) for w, v in enumerate(fitted.nums) if v
    ]
    best: Optional[int] = None
    for combo in itertools.product(*[vertices for vertices, _ in tables]):
        total = 0
        for weight, at in terms:
            for p, k in zip(combo, at):
                weight *= p[k]
            total += weight
        if best is None or total < best:
            best = total
    assert best is not None
    return Fraction(best, den)


def strong_member(
    expr: StrongProduct, f: Gamble, *, budget: int = 100000
) -> Tri:
    """Membership in the strong product of the marginal models: ``member``
    on the product, which decides on the test the product keeps.

    Before any verdict, each marginal passes ``check_coherent``: a
    generator marginal that fails the consistency check, or a
    lexicographic marginal that is not coherent, raises
    ``IncoherentBaseError``, whatever the gamble.  When every marginal is
    a lexicographic model the strong product coincides with the
    independent product of the marginals, so the product keeps that
    product's test.  Otherwise it keeps ``_strong_test``.
    """
    return member(expr, f, budget=budget)


def _strong_test(data: tuple, nums: Sequence[int], budget: int) -> Tri:
    """Strong-product membership of the gamble ``nums`` over the marginals
    and joint scope in ``data``.

    ``sign_verdict`` puts zero and nonpositive gambles out and positive
    gambles in, as every coherent set does, before any marginal's credal
    set is enumerated (so ``budget`` never stops them).  The strong lower
    prevision decides everything else except its own zero level: strictly
    positive strong price is in, strictly negative strong price means out,
    and the boundary stays ``UNKNOWN`` because membership there depends on
    which dominating linear previsions the marginal models admit.
    """
    parts, scope = data
    verdict = sign_verdict(nums)
    if verdict is not None:
        return Tri.of(verdict)
    views = [credal_view(p, budget=budget) for p in parts]
    value = strong_product_lower(views, Gamble._from_ints(scope, tuple(nums)), budget=budget)
    if value > 0:
        return Tri.IN
    if value < 0:
        return Tri.OUT
    return Tri.UNKNOWN
