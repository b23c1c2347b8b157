"""Buying prices, credal sets, and independent joints of lower previsions.

The lower prevision of a gamble ``f`` under a set model is the supremum
acceptable buying price ``sup {mu : f - mu is a member}``; the upper
prevision is its conjugate ``-lower(-f)``.  This module computes those
suprema exactly for every representation with a decidable buying-price
procedure, enumerates the vertices of the credal set of a generator
cone, builds strictly desirable models from credal sets, evaluates the
most conservative independent joint of marginal credal sets as a single
exact linear program, and evaluates strong products (lower envelopes of
products of dominating linear previsions) by scanning vertex
combinations.

All suprema are reported even when not attained: a result ``mu*`` means
prices strictly below ``mu*`` are always acceptable, while ``mu*``
itself may sit on an excluded boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .desirable import (
    Cell,
    CellRow,
    CellSet,
    Conditioned,
    CylExt,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    IrrExt,
    StrongProduct,
    Tri,
    avoids_nonpositivity,
    cone_program,
    scope_of,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EngineError,
    ExactnessError,
    IncoherentBaseError,
    UnsupportedQueryError,
)
from .exactlp import EQ, GE, GT, Feasible, LinRow, LinSystem, Optimal, Unbounded, solve
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
    "LowerPrevisionView",
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
# exact one-variable interval arithmetic over the shift parameter mu
# ---------------------------------------------------------------------------
#
# Every buying-price query reduces to the sup of a set of shifts
# {mu : value + mu * direction is a member}, where direction is a
# nonzero, nonpositive gamble (the constant -1, or -indicator for
# conditional prices).  For cell systems each constraint row is linear
# in mu, so the per-cell shift set is an interval computable in closed
# form; no linear programming is needed.


@dataclass(frozen=True)
class _MuInterval:
    """An interval of shifts; ``None`` bounds mean unbounded."""

    lo: Optional[Fraction]
    lo_open: bool
    hi: Optional[Fraction]
    hi_open: bool

    def is_singleton(self) -> bool:
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_open
            and not self.hi_open
        )


_FULL_LINE = _MuInterval(None, False, None, False)


def _normalised(iv: _MuInterval) -> Optional[_MuInterval]:
    if iv.lo is None or iv.hi is None:
        return iv
    if iv.lo > iv.hi:
        return None
    if iv.lo == iv.hi and (iv.lo_open or iv.hi_open):
        return None
    return iv


def _with_lower(iv: _MuInterval, bound: Fraction, is_open: bool) -> Optional[_MuInterval]:
    lo, lo_open = iv.lo, iv.lo_open
    if lo is None or bound > lo or (bound == lo and is_open and not lo_open):
        lo, lo_open = bound, is_open
    return _normalised(_MuInterval(lo, lo_open, iv.hi, iv.hi_open))


def _with_upper(iv: _MuInterval, bound: Fraction, is_open: bool) -> Optional[_MuInterval]:
    hi, hi_open = iv.hi, iv.hi_open
    if hi is None or bound < hi or (bound == hi and is_open and not hi_open):
        hi, hi_open = bound, is_open
    return _normalised(_MuInterval(iv.lo, iv.lo_open, hi, hi_open))


def _constrain(
    iv: _MuInterval, a: Fraction, b: Fraction, rel: str
) -> Optional[_MuInterval]:
    """Intersect with ``{mu : b + a*mu rel 0}``; ``None`` means empty."""
    if a == 0:
        if rel == GE:
            return iv if b >= 0 else None
        if rel == GT:
            return iv if b > 0 else None
        return iv if b == 0 else None
    root = -b / a
    if rel == EQ:
        narrowed = _with_lower(iv, root, False)
        if narrowed is None:
            return None
        return _with_upper(narrowed, root, False)
    is_open = rel == GT
    if a > 0:
        return _with_lower(iv, root, is_open)
    return _with_upper(iv, root, is_open)


def _zero_shift(value: Gamble, direction: Gamble) -> Optional[Fraction]:
    """The unique mu with ``value + mu*direction = 0``, if one exists."""
    mu: Optional[Fraction] = None
    for v, d in zip(value.values, direction.values):
        if d != 0:
            mu = -v / d
            break
    if mu is None:
        return None
    for v, d in zip(value.values, direction.values):
        if v + mu * d != 0:
            return None
    return mu


def _interval_sup(
    iv: _MuInterval, zero_mu: Optional[Fraction], excludes_zero: bool
) -> Optional[Fraction]:
    """Sup of the interval, with the zero gamble carved out if required."""
    if excludes_zero and zero_mu is not None and iv.is_singleton() and iv.lo == zero_mu:
        return None
    if iv.hi is None:
        raise IncoherentBaseError(
            "unbounded buying price: the modelled set accepts every sure loss"
        )
    return iv.hi


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
    """
    certificate = avoids_nonpositivity(cone)
    if not certificate.avoids:
        raise IncoherentBaseError(
            "the assessment does not avoid non-positivity; prices are undefined"
        )
    outcome = solve(cone_program(cone, value, direction))
    if isinstance(outcome, Optimal):
        return outcome.value
    if isinstance(outcome, Unbounded):
        raise IncoherentBaseError(
            "unbounded buying price: the modelled set accepts every sure loss"
        )
    return None


def _cellset_sup(
    model: CellSet, value: Gamble, direction: Gamble
) -> Optional[Fraction]:
    """Closed-form supremum over a union of cells.

    Each cell's shift set is the intersection of one interval per row;
    the overall supremum is the best over nonempty cells, plus the
    all-positive region when the model includes it.
    """
    zero_mu = _zero_shift(value, direction)
    best: Optional[Fraction] = None
    for cell in model.cells:
        iv: Optional[_MuInterval] = _FULL_LINE
        for row in cell.rows:
            a = direction.dot(row.functional.values)
            b = value.dot(row.functional.values)
            iv = _constrain(iv, a, b, row.rel)
            if iv is None:
                break
        if iv is None:
            continue
        candidate = _interval_sup(iv, zero_mu, cell.exclude_zero)
        if candidate is not None and (best is None or candidate > best):
            best = candidate
    if model.include_positive:
        iv = _FULL_LINE
        for w in range(model.scope.size):
            iv = _constrain(iv, direction.values[w], value.values[w], GE)
            if iv is None:
                break
        if iv is not None:
            candidate = _interval_sup(iv, zero_mu, True)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
    return best


def _lex_sup(
    system: LexSystem, value: Gamble, direction: Gamble
) -> Optional[Fraction]:
    """Level walk for lexicographic models.

    Writing ``e_k(mu)`` for the level-k expectation of
    ``value + mu*direction``, membership means the first nonzero entry
    of ``(e_1(mu), e_2(mu), ...)`` is positive.  Walk the levels: while
    every earlier level is identically zero in mu, a level with slope
    ``a < 0`` accepts exactly the shifts below its root and pins deeper
    search to the root itself; on a pinned shift the first level with a
    nonzero expectation settles membership.
    """
    candidates: list[Fraction] = []
    pinned: Optional[Fraction] = None
    for level in system.levels:
        a = direction.dot(level)
        b = value.dot(level)
        if pinned is None:
            if a == 0:
                if b > 0:
                    raise IncoherentBaseError(
                        "unbounded buying price: the modelled set accepts every sure loss"
                    )
                if b < 0:
                    break
                continue
            if a > 0:
                raise IncoherentBaseError(
                    "unbounded buying price: the modelled set accepts every sure loss"
                )
            root = -b / a
            candidates.append(root)
            pinned = root
        else:
            e = b + a * pinned
            if e > 0:
                candidates.append(pinned)
                break
            if e < 0:
                break
    if not candidates:
        return None
    return max(candidates)


def _collapsed(expr: DesirableSetExpr) -> Optional[DesirableSetExpr]:
    """Rebuild composite nodes whose smart constructors fold to leaves."""
    from .independence import independent_product, irrelevant_extension
    from .structure import cyl_ext

    if isinstance(expr, CylExt):
        built = cyl_ext(expr.base, expr.target)
        return None if isinstance(built, CylExt) else built
    if isinstance(expr, IrrExt):
        built = irrelevant_extension(expr.base, expr.irrelevant, expr.target)
        return None if isinstance(built, IrrExt) else built
    if isinstance(expr, IndepProduct):
        built = independent_product(expr.parts)
        return None if isinstance(built, IndepProduct) else built
    return None


def _set_sup(
    expr: DesirableSetExpr, value: Gamble, direction: Gamble
) -> Optional[Fraction]:
    """Dispatch ``sup {mu : value + mu*direction is a member}``.

    ``direction`` must be nonpositive and nonzero; conditioning recurses
    with both the value and the direction masked by the observed event,
    so conditional prices reuse the unconditional machinery.
    """
    if isinstance(expr, GeneratorSet):
        return _generator_sup(expr, value, direction)
    if isinstance(expr, CellSet):
        return _cellset_sup(expr, value, direction)
    if isinstance(expr, LexSystem):
        return _lex_sup(expr, value, direction)
    if isinstance(expr, Conditioned):
        base_scope = scope_of(expr.base)
        return _set_sup(
            expr.base,
            value.mask(expr.given).embed(base_scope),
            direction.mask(expr.given).embed(base_scope),
        )
    if isinstance(expr, (CylExt, IrrExt, IndepProduct)):
        built = _collapsed(expr)
        if built is not None:
            return _set_sup(built, value, direction)
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

    Equals ``sup {mu : indicator(given) * (g - mu) is a member}``; an
    empty observation reduces to the unconditional price.
    """
    if len(given.items) == 0:
        return lower_prevision(expr, g)
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


@dataclass(frozen=True)
class CredalSet:
    """A polytope of probability mass functions, held by its vertices."""

    scope: Scope
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a credal set needs at least one vertex")
        for p in self.vertices:
            if len(p) != self.scope.size:
                raise DimensionMismatchError(
                    "vertex of length %d on a %d-outcome scope"
                    % (len(p), self.scope.size)
                )
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
        directly.
        """
        rows = sorted({tuple(as_rational(v) for v in p) for p in vertices})
        keep = [
            p
            for i, p in enumerate(rows)
            if not _convex_combination(p, rows[:i] + rows[i + 1 :])
        ]
        return CredalSet(scope, tuple(keep))

    def lower_expectation(self, f: Gamble) -> Fraction:
        """Lower envelope ``min_v v . f`` over the vertices."""
        fitted = f.embed(self.scope)
        return min(fitted.dot(p) for p in self.vertices)


def _convex_combination(
    target: tuple[Fraction, ...], others: Sequence[tuple[Fraction, ...]]
) -> bool:
    """Is ``target`` a convex combination of ``others``? (exact LP)"""
    if not others:
        return False
    names = tuple(["lam%d" % j for j in range(len(others))])
    rows = [
        LinRow(tuple([p[w] for p in others]), EQ, target[w])
        for w in range(len(target))
    ]
    rows.append(LinRow((_ONE,) * len(others), EQ, _ONE))
    for j in range(len(others)):
        unit = [_ZERO] * len(others)
        unit[j] = _ONE
        rows.append(LinRow(tuple(unit), GE, _ZERO))
    return isinstance(solve(LinSystem(names, tuple(rows))), Feasible)


def _solve_square(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Unique solution of a square system, or ``None`` if singular."""
    n = len(matrix)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


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
    constraints: list[tuple[Fraction, ...]] = []
    for w in range(d):
        unit = [_ZERO] * d
        unit[w] = _ONE
        constraints.append(tuple(unit))
    constraints.extend(g.values for g in assessment.generators)
    total = math.comb(len(constraints), d - 1)
    if total > budget:
        raise BudgetExceededError(
            "vertex enumeration needs %d basis candidates, over the budget of %d"
            % (total, budget)
        )
    found: set[tuple[Fraction, ...]] = set()
    ones = [[_ONE] * d]
    for chosen in itertools.combinations(constraints, d - 1):
        matrix = ones + [list(c) for c in chosen]
        point = _solve_square(matrix, [_ONE] + [_ZERO] * (d - 1))
        if point is None:
            continue
        if any(v < 0 for v in point):
            continue
        if any(
            sum(c * x for c, x in zip(g.values, point)) < 0
            for g in assessment.generators
        ):
            continue
        found.add(tuple(point))
    if not found:
        raise IncoherentBaseError(
            "no linear prevision dominates the assessment; the credal set is empty"
        )
    return CredalSet(scope, tuple(sorted(found)))


def strictly_desirable(credal: CredalSet) -> CellSet:
    """Smallest coherent set inducing the credal set's lower envelope.

    A gamble belongs iff it is positive or every vertex gives it
    strictly positive expectation; the credal provenance is kept on the
    result so product queries can recover the vertices exactly.
    """
    rows = tuple(CellRow(Gamble(credal.scope, p), GT) for p in credal.vertices)
    return CellSet(
        credal.scope,
        (Cell(rows),),
        include_positive=True,
        from_credal=credal.vertices,
    )


def credal_view(expr: DesirableSetExpr, *, budget: int = 200000) -> CredalSet:
    """The credal set of the lower prevision induced by a marginal model.

    Generator cones enumerate their vertices; strictly desirable cell
    models recover their provenance; lexicographic models induce the
    linear prevision of their first level (deeper levels only break
    ties at price zero, which a supremum never sees).
    """
    if isinstance(expr, CredalSet):
        return expr
    if isinstance(expr, GeneratorSet):
        return credal_vertices(expr, budget=budget)
    if isinstance(expr, CellSet) and expr.from_credal is not None:
        return CredalSet.of(expr.scope, expr.from_credal)
    if isinstance(expr, LexSystem):
        return CredalSet.of(expr.scope, (expr.levels[0],))
    raise UnsupportedQueryError(
        "no credal view available for %s" % type(expr).__name__
    )


# ---------------------------------------------------------------------------
# independent joint of marginal credal sets (single exact LP)
# ---------------------------------------------------------------------------


def inex_lower_prevision(credals: Sequence[CredalSet], f: Gamble) -> Fraction:
    """Most conservative independent joint lower prevision, evaluated at f.

    The joint price is the max over per-block allocations ``h_n`` of
    ``min_w [f - sum_n h_n](w) + sum_n (block-n lower prevision of h_n
    at the other blocks' outcome in w)``.  The inner lower previsions
    are concave minima over vertices, so epigraph variables bounded by
    every vertex expectation turn the whole thing into one LP, exact by
    duality.  The layout comes from ``space``: ``_slice_map`` gives the
    joint indices of each block slice, ``_restriction_map`` the slice each
    joint outcome lies in.
    """
    if not credals:
        raise ValueError("at least one marginal credal set is required")
    joint = disjoint_union(c.scope for c in credals)
    fitted = f.embed(joint)
    size = joint.size
    names: list[str] = ["t"]
    h_offset: list[int] = []
    s_offset: list[int] = []
    rests: list[Scope] = []
    for n, c in enumerate(credals):
        h_offset.append(len(names))
        names.extend("h%d_%d" % (n, w) for w in range(size))
        rest = joint.difference(c.scope)
        rests.append(rest)
        s_offset.append(len(names))
        names.extend("s%d_%d" % (n, z) for z in range(rest.size))
    width = len(names)
    rows: list[LinRow] = []
    for n, c in enumerate(credals):
        for zi, z in enumerate(rests[n].assignments()):
            cell_index = _slice_map(joint, z)[0]
            for p in c.vertices:
                coeffs = [_ZERO] * width
                for k, w in enumerate(cell_index):
                    coeffs[h_offset[n] + w] += p[k]
                coeffs[s_offset[n] + zi] -= _ONE
                rows.append(LinRow(tuple(coeffs), GE, _ZERO))
    rest_maps = [_restriction_map(joint, rest) for rest in rests]
    for w in range(size):
        coeffs = [_ZERO] * width
        coeffs[0] = -_ONE
        for n in range(len(credals)):
            coeffs[h_offset[n] + w] -= _ONE
            coeffs[s_offset[n] + rest_maps[n][w]] += _ONE
        rows.append(LinRow(tuple(coeffs), GE, -fitted.values[w]))
    objective = tuple([_ONE if i == 0 else _ZERO for i in range(width)])
    outcome = solve(LinSystem(tuple(names), tuple(rows), objective, "max"))
    if isinstance(outcome, Optimal):
        return outcome.value
    raise EngineError(
        "the joint lower-prevision program must be bounded and feasible; got %s"
        % type(outcome).__name__
    )


# ---------------------------------------------------------------------------
# strong products
# ---------------------------------------------------------------------------


def strong_product_lower(
    credals: Sequence[CredalSet], f: Gamble, *, budget: int = 100000
) -> Fraction:
    """Lower envelope over products of dominating linear previsions.

    The product expectation is linear in each factor separately, so the
    infimum over the credal polytopes is attained at a combination of
    vertices; enumerating combinations is exact.
    """
    if not credals:
        raise ValueError("at least one marginal credal set is required")
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
    block_index = [_restriction_map(joint, c.scope) for c in credals]
    best: Optional[Fraction] = None
    for combo in itertools.product(*(c.vertices for c in credals)):
        total = _ZERO
        for w in range(joint.size):
            weight = fitted.values[w]
            if weight == 0:
                continue
            for n, p in enumerate(combo):
                weight *= p[block_index[n][w]]
            total += weight
        if best is None or total < best:
            best = total
    assert best is not None
    return best


def strong_member(
    expr: StrongProduct, f: Gamble, *, budget: int = 100000
) -> Tri:
    """Membership in the strong product of the marginal models.

    When every marginal is a lexicographic model the strong product
    coincides with the independent product of the marginals, so the
    verdict delegates to the exact product-membership procedure.
    Otherwise the strong lower prevision decides everything except its
    own zero level: positive gambles and gambles with strictly positive
    strong price are in, strictly negative strong price means out, and
    the boundary stays ``UNKNOWN`` because membership there depends on
    which dominating linear previsions the marginal models admit.
    """
    parts = expr.parts
    if all(isinstance(p, LexSystem) for p in parts):
        from .independence import independent_product, inex_member

        return inex_member(independent_product(parts), f, budget=budget)
    fitted = f.embed(scope_of(expr))
    views = [credal_view(p, budget=budget) for p in parts]
    if fitted.is_zero():
        return Tri.OUT
    if fitted.is_positive():
        return Tri.IN
    value = strong_product_lower(views, fitted, budget=budget)
    if value > 0:
        return Tri.IN
    if value < 0:
        return Tri.OUT
    return Tri.UNKNOWN


# ---------------------------------------------------------------------------
# convenience view bundling the conjugate prices of one source
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerPrevisionView:
    """Buying/selling prices of one model, conjugate by construction."""

    source: Union[DesirableSetExpr, CredalSet]

    def lower(self, f: Gamble) -> Fraction:
        if isinstance(self.source, CredalSet):
            return self.source.lower_expectation(f)
        return lower_prevision(self.source, f)

    def upper(self, f: Gamble) -> Fraction:
        if isinstance(self.source, CredalSet):
            return -self.source.lower_expectation(-f)
        return upper_prevision(self.source, f)

    def conditional_lower(self, given: Assignment, g: Gamble) -> Fraction:
        if isinstance(self.source, CredalSet):
            raise UnsupportedQueryError(
                "conditional prices need a set model, not a bare credal set"
            )
        return conditional_lower_prevision(self.source, given, g)

    def conditional_upper(self, given: Assignment, g: Gamble) -> Fraction:
        return -self.conditional_lower(given, -g)
