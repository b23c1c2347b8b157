"""Set-of-desirable-gambles representations and their decision procedures.

A belief model here is a cone of gambles the agent strictly prefers to the
status quo.  There are eight node kinds.  Three are leaves:

* ``GeneratorSet`` — a finite assessment; it denotes the smallest coherent
  superset: every gamble that dominates some nonnegative combination of the
  generators (plus all positive gambles).
* ``CellSet`` — a finite union of relatively open polyhedral cones given by
  linear sign constraints, optionally together with all positive gambles.
* ``LexSystem`` (see the ``maximal`` module) — ordered mass functions with
  lexicographic-positivity membership.

Five expression nodes compose them:

* ``Conditioned`` — the updated model after observing an assignment.
* ``IrrExt`` — the irrelevant natural extension to a larger scope; with no
  irrelevant variables it is the cylindrical extension.
* ``IndepProduct`` and ``StrongProduct`` — the independent natural
  extension and the strong product of models on disjoint scopes.
* ``ConditionalFamily`` — a table of models, one per assignment.

``member`` decides membership for every node exactly, except for strong
products, whose boundary queries are honestly three-valued.  Every node
kind decides it on the gamble's integer numerators, by a test each node
builds on its first query and keeps (``scaled_member``); a conditional
family answers only conditioned queries and keeps nothing.

The central reductions:

* generator membership: ``f`` belongs iff ``f != 0`` and some ``lam >= 0``
  has ``sum(lam_k * g_k) <= f`` pointwise — the positive part of the
  combination is absorbed by the residual ``f - sum(lam_k * g_k) >= 0``.
  The product walk decides it, with one block and no pair (``_int_test``).
* consistency: no convex combination of the generators may be everywhere
  nonpositive; the dual witness is a strictly positive mass function giving
  every generator positive expectation, which doubles as a one-dot-product
  rejection filter for membership queries.
* irrelevant extensions over a coherent base: ``f`` belongs iff ``f != 0``
  and, for every assignment of the irrelevant variables, the pointwise
  floor over the remaining added variables is either nonnegative or a
  member of the base.  Dominating some base member is the same as being
  one, because coherent sets absorb nonnegative slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DimensionMismatchError,
    EngineError,
    IncoherentBaseError,
    MissingConditionError,
    ScopeError,
    UnsupportedQueryError,
)
from .exactlp import (
    EQ, GE, GT, Feasible, LinRow, LinSystem, strict_feasible, unit_rows,
    solve,  # noqa: F401 - perfbench/tracer.py wraps this binding
)
from .maximal import LexSystem, lex_accepts, lex_is_maximal
from .space import (
    CACHE_MAXSIZE,
    Assignment,
    Gamble,
    Scope,
    _restriction_map,
    _slice_map,
    disjoint_union,
    format_rational,
)

_ZERO = Fraction(0)


class Tri(Enum):
    """Three-valued membership verdict.

    ``UNKNOWN`` arises only from strong-product boundary queries; every
    other node answers exactly.  Truthiness is disabled on purpose: compare
    against ``Tri.IN`` / ``Tri.OUT`` explicitly.
    """

    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"

    @staticmethod
    def of(flag: bool) -> "Tri":
        return Tri.IN if flag else Tri.OUT

    def __bool__(self) -> bool:
        raise TypeError("Tri verdicts must be compared explicitly")


# ---------------------------------------------------------------------------
# generator sets and their consistency gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSet:
    """A finite assessment denoting its smallest coherent superset."""

    scope: Scope
    generators: tuple[Gamble, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.scope != self.scope:
                raise ScopeError(
                    "generator scope %r does not match %r"
                    % (g.scope.names, self.scope.names)
                )
            if g.is_zero():
                raise ValueError("the zero gamble cannot be a generator")

    @staticmethod
    def of(scope: Scope, gambles: Iterable[Gamble]) -> "GeneratorSet":
        """Embed into ``scope``, drop exact duplicates, sort canonically."""
        seen: set[Gamble] = set()
        gens: list[Gamble] = []
        for g in gambles:
            lifted = g.embed(scope)
            if lifted not in seen:
                seen.add(lifted)
                gens.append(lifted)
        gens.sort(key=lambda g: g.values)
        return GeneratorSet(scope, tuple(gens))

    @cached_property
    def _negated_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Per outcome ``w``, the ints ``-g_k(w) * den`` of every generator,
        and the lcm ``den`` of the generators' denominators, computed once:
        the generator part of each outcome row of ``previsions._cone_sup``
        and of the walk's domination rows (``independence._walk_data``)."""
        den = math.lcm(*[g.den for g in self.generators])
        columns = [[v * (den // g.den) for v in g.nums] for g in self.generators]
        return tuple([
            tuple([-column[w] for column in columns]) for w in range(self.scope.size)
        ]), den


@dataclass(frozen=True)
class ConsistencyCertificate:
    """Outcome of the consistency check for an assessment.

    Exactly one of the two witnesses is present, and both come from the one
    strict program that ``avoids_nonpositivity`` solves: a strictly positive
    mass function giving every generator positive expectation (its feasible
    point, so the assessment is consistent), or the convex weights of an
    everywhere-nonpositive combination (its Farkas multipliers on the
    generator rows, so it is not).
    """

    avoids: bool
    positive_mass: Optional[tuple[Fraction, ...]]
    nonpositive_combination: Optional[tuple[Fraction, ...]]


@lru_cache(maxsize=CACHE_MAXSIZE)
def avoids_nonpositivity(assessment: GeneratorSet) -> ConsistencyCertificate:
    """Can no convex combination of the generators be everywhere <= 0?

    One strict program over mass functions decides it: ``p_w > 0`` for
    every outcome and ``p . g_k > 0`` for every generator.  By Motzkin's
    theorem of the alternative, either it has a point, which normalised is
    the positive mass, or Farkas multipliers ``y >= 0``, not all zero, with
    ``sum_w y_w e_w + sum_k y_k g_k = 0``.  The generator multipliers then
    combine the generators to ``-sum_w y_w e_w <= 0``, and they are not all
    zero because the unit rows alone cannot cancel.  Normalised, they are
    the nonpositive combination, re-checked by substitution before it is
    returned.
    """
    gens = assessment.generators
    size = assessment.scope.size
    if not gens:
        uniform = tuple(Fraction(1, size) for _ in range(size))
        return ConsistencyCertificate(True, uniform, None)

    rows = list(unit_rows(size, GT))
    for g in gens:
        rows.append(LinRow._from_ints(g.nums + (0,), GT, g.den))
    outcome = strict_feasible(LinSystem(size, tuple(rows)))
    if isinstance(outcome, Feasible):
        total = sum(outcome.witness, _ZERO)
        mass = tuple([v / total for v in outcome.witness])
        return ConsistencyCertificate(True, mass, None)

    weights = outcome.farkas[size:]
    total = sum(weights, _ZERO)
    combination = tuple([v / total for v in weights]) if total else weights
    columns = [g.values for g in gens]
    combined = [
        sum((v * column[w] for v, column in zip(combination, columns)), _ZERO)
        for w in range(size)
    ]
    if min(combination) < 0 or sum(combination, _ZERO) != 1 or max(combined) > 0:
        raise EngineError(
            "nonpositive combination failed its substitution check (engine bug)"
        )
    return ConsistencyCertificate(False, None, combination)


def check_coherent(model: DesirableSetExpr) -> Optional[ConsistencyCertificate]:
    """The gate before a model is queried: raise ``IncoherentBaseError`` for
    a generator set that fails the consistency check or a lexicographic
    system that leaves an outcome without mass.  A generator set's
    certificate is returned; other models pass with ``None``."""
    if isinstance(model, GeneratorSet):
        certificate = avoids_nonpositivity(model)
        if not certificate.avoids:
            raise IncoherentBaseError(
                "assessment admits a nonpositive combination (%s)"
                % ",".join(map(format_rational, certificate.nonpositive_combination))
            )
        return certificate
    if isinstance(model, LexSystem) and not model.covers_outcomes:
        raise IncoherentBaseError(
            "incoherent lex system: its levels leave an outcome without mass"
        )
    return None


def sign_verdict(nums: Sequence[int]) -> Optional[bool]:
    """The verdict of every coherent set on the gamble ``nums`` from its
    signs alone: ``False`` for zero and every nonpositive gamble, ``True``
    for every positive one, ``None`` when it takes both signs.  The product
    walk and the strong-product procedure read it after their gate."""
    if max(nums) <= 0:
        return False
    if min(nums) >= 0:
        return True
    return None


def natext_member(assessment: GeneratorSet, f: Gamble) -> bool:
    """Does ``f`` dominate a nonnegative combination of the generators?

    Decides membership in the smallest coherent set containing the
    assessment: ``member`` on it, which decides by the product walk the set
    keeps as its one block (``independence._walk_test``).  Raises
    ``IncoherentBaseError`` when the assessment fails the consistency check
    (``check_coherent``: the extension would be everything).
    """
    return member(assessment, f) is Tri.IN


# ---------------------------------------------------------------------------
# cell sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellRow:
    """One linear sign constraint: <functional, f> rel 0."""

    functional: Gamble
    rel: str

    def __post_init__(self) -> None:
        if self.rel not in (GE, GT, EQ):
            raise ValueError("unknown relation %r" % (self.rel,))


@dataclass(frozen=True)
class Cell:
    """A relatively open polyhedral cone piece."""

    rows: tuple[CellRow, ...]
    exclude_zero: bool = False


def _cell_accepts(
    exclude_zero: bool, rows: Sequence[tuple[Sequence[int], str]], nums: Sequence[int]
) -> bool:
    """Does the gamble ``nums``, or any positive multiple of it, lie in the
    cell with this ``exclude_zero`` and these rows, each its functional's
    ``nums`` and its relation?  Each row's verdict is the sign of an
    integer dot product, so it is that of the exact rational one."""
    if exclude_zero and not any(nums):
        return False
    for ints, rel in rows:
        value = sum(map(mul, ints, nums))
        if not (value > 0 if rel == GT else value == 0 if rel == EQ else value >= 0):
            return False
    return True


@dataclass(frozen=True)
class CellSet:
    """A finite union of cells, optionally together with all positives.

    A set of the positives and one cell of ``>`` rows whose functionals
    are nonnegative and nonzero is the strictly desirable set of a credal
    set, whose vertex masses ``from_credal`` reads from the cells.  Those
    masses unlock structural coherence verdicts, credal views and the
    product's support mass, whether the set was built by
    ``strictly_desirable`` or written by hand.
    """

    scope: Scope
    cells: tuple[Cell, ...]
    include_positive: bool = False

    def __post_init__(self) -> None:
        for cell in self.cells:
            for row in cell.rows:
                if row.functional.scope != self.scope:
                    raise ScopeError(
                        "cell functional scope %r does not match %r"
                        % (row.functional.scope.names, self.scope.names)
                    )

    @cached_property
    def from_credal(self) -> Optional[tuple[tuple[Fraction, ...], ...]]:
        """The masses of the credal set whose strictly desirable set this
        is, each row's functional scaled to sum to one, in row order, or
        ``None`` when the set has another shape."""
        if not self.include_positive or len(self.cells) != 1 or not self.cells[0].rows:
            return None
        masses = []
        for row in self.cells[0].rows:
            nums, total = row.functional.nums, sum(row.functional.nums)
            if row.rel != GT or min(nums) < 0 or not total:
                return None
            masses.append(tuple([Fraction(v, total) for v in nums]))
        return tuple(masses)


def _unit_cell(scope: Scope, rel: str) -> Cell:
    """One ``rel 0`` row per outcome's unit functional, zero excluded."""
    size = scope.size
    units = [tuple([int(j == w) for j in range(size)]) for w in range(size)]
    rows = tuple([CellRow(Gamble._from_ints(scope, u), rel) for u in units])
    return Cell(rows, exclude_zero=True)


def sign_cells(model: Union[CellSet, LexSystem]) -> tuple[Cell, ...]:
    """A cell set or lexicographic system as a finite union of sign cells.

    Honouring each cell's ``exclude_zero``, the union is the model's set, as
    prices read it; ignoring it, the union is the set together with zero, as
    product membership reads a summand's slice.

    * A cell set: the positive orthant first (a ``>=`` unit row per outcome)
      when positives are included; then its own cells; otherwise the zero
      cell last (an ``=`` unit row per outcome).
    * A lexicographic system: one cell per lead level, the earlier levels
      ``=`` and the lead level ``>``, each level one functional shared by
      its cells.  In a maximal system the last cell is ``>=`` with zero
      excluded (only zero has every level expectation zero); any other
      system ends with the zero cell.
    """
    if isinstance(model, CellSet):
        if model.include_positive:
            return (_unit_cell(model.scope, GE),) + model.cells
        return model.cells + (_unit_cell(model.scope, EQ),)
    functionals = [Gamble(model.scope, level) for level in model.levels]
    ties = [CellRow(g, EQ) for g in functionals]
    cells = [Cell(tuple(ties[:k]) + (CellRow(g, GT),)) for k, g in enumerate(functionals)]
    if lex_is_maximal(model):
        last = CellRow(functionals[-1], GE)
        cells[-1] = Cell(tuple(ties[:-1]) + (last,), exclude_zero=True)
    else:
        cells.append(_unit_cell(model.scope, EQ))
    return tuple(cells)


def sign_chain(model: Union[CellSet, LexSystem]) -> Optional[tuple[Cell, ...]]:
    """The model's ``sign_cells`` ordered as a chain, or ``None`` when they
    form none.

    In a chain each cell's weak relaxation (``>`` read as ``>=``, zero
    admitted) contains every later cell, and the last cell has no ``>``
    row.  A lexicographic system's cells are a chain as ``sign_cells``
    lists them: a later cell ties the earlier cells' lead levels.  So are
    a cell set's of one cell without the positives, that cell and then the
    zero cell, which meets every homogeneous weak row.  A strictly
    desirable set's, one with ``from_credal`` masses, are one in reverse,
    its open cell before the orthant, which every nonnegative functional
    keeps at ``>= 0``.  Other cell sets have no chain; product membership
    walks each of their cells as a chain of its own, which it never moves
    past.
    """
    if isinstance(model, LexSystem) or (len(model.cells) == 1 and not model.include_positive):
        return sign_cells(model)
    return sign_cells(model)[::-1] if model.from_credal is not None else None


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

DesirableSetExpr = Union[
    GeneratorSet,
    CellSet,
    LexSystem,
    "Conditioned",
    "IrrExt",
    "IndepProduct",
    "StrongProduct",
    "ConditionalFamily",
]


@dataclass(frozen=True)
class Conditioned:
    """The updated model after observing an assignment.

    Membership is rewritten, never materialised: ``g`` belongs iff the
    base accepts ``g.mask(given)``, i.e. ``indicator(given) * g``.  The
    node holds its base, the observation and its scope, the base's minus
    the observed variables; its mask table lives in its integer test.
    """

    base: DesirableSetExpr
    given: Assignment
    scope: Scope = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        base_scope = scope_of(self.base)
        if not self.given.scope.issubset(base_scope):
            raise ScopeError(
                "conditioning event %s is outside scope %r"
                % (self.given, base_scope.names)
            )
        if not self.given.items:
            raise ValueError("conditioning on the empty assignment is a no-op")
        object.__setattr__(self, "scope", base_scope.difference(self.given.scope))


@dataclass(frozen=True)
class IrrExt:
    """Smallest joint making some variables irrelevant to the base's.

    Denotes the natural extension of the family of gambles whose every
    slice along the irrelevant variables lies in the base model (or is 0),
    cylindrically extended to the target scope.  With no irrelevant
    variables it is the cylindrical extension of the base itself, which
    ``structure.cyl_ext`` builds.

    Its constructor is the one place an extension's scopes are checked:
    the irrelevant variables must miss the base's, and the target must
    contain both.  ``structure.irrelevant_extension`` builds the node and
    only collapses or widens it; the slice columns live in the node's
    integer test.
    """

    base: DesirableSetExpr
    irrelevant: Scope
    target: Scope

    def __post_init__(self) -> None:
        base_scope = scope_of(self.base)
        if not base_scope.isdisjoint(self.irrelevant):
            raise ScopeError("irrelevant variables overlap the base scope")
        kept = base_scope.union(self.irrelevant)
        if not kept.issubset(self.target):
            raise ScopeError(
                "extension target %r must contain %r" % (self.target.names, kept.names)
            )


def _support_mass(part: DesirableSetExpr) -> Optional[tuple[Fraction, ...]]:
    """A nonnegative mass giving every member nonnegative expectation."""
    if isinstance(part, GeneratorSet):
        return avoids_nonpositivity(part).positive_mass
    if isinstance(part, LexSystem):
        return part.levels[0]
    if isinstance(part, CellSet) and part.from_credal:
        return part.from_credal[0]
    return None


@dataclass(frozen=True)
class _Product:
    """Marginal models on disjoint scopes, at least one: the body of both
    product kinds, holding its parts and their joint scope.  Its equality
    also compares the class, so the kinds never compare equal."""

    parts: tuple[DesirableSetExpr, ...]
    scope: Scope = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.parts:
            raise ScopeError("a product needs at least one marginal")
        object.__setattr__(self, "scope", disjoint_union(scope_of(part) for part in self.parts))


class IndepProduct(_Product):
    """Independent natural extension of marginal models on disjoint scopes.

    The independent natural extension is associative, so a part that is
    itself an independent product is replaced by its parts when the
    product is built: ``parts`` is always flat, and a nested product
    compares, hashes and answers as the flat one.  Its walk rows and
    support mass live in its integer test (``independence._walk_data``).
    """

    def __post_init__(self) -> None:
        flat: list[DesirableSetExpr] = []
        for part in self.parts:
            flat.extend(part.parts if isinstance(part, IndepProduct) else (part,))
        object.__setattr__(self, "parts", tuple(flat))
        super().__post_init__()


class StrongProduct(_Product):
    """Strong product of marginal models on disjoint scopes.

    Decided through credal views; boundary queries may be ``UNKNOWN``
    unless every marginal is a lexicographic system.
    """


@dataclass(frozen=True)
class ConditionalFamily:
    """A table of updated models, one per assignment of some variables."""

    on: Scope
    entries: tuple[tuple[Assignment, DesirableSetExpr], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a conditional family needs at least one entry")
        shared = scope_of(self.entries[0][1])
        for at, expr in self.entries:
            if at.scope != self.on:
                raise ScopeError(
                    "table key %s is not an assignment of %r" % (at, self.on.names)
                )
            if scope_of(expr) != shared:
                raise ScopeError("conditional family entries must share one scope")

    def at(self, given: Assignment) -> DesirableSetExpr:
        for key, expr in self.entries:
            if key == given:
                return expr
        raise MissingConditionError(
            "no table entry for %s" % (given,)
        )


def scope_of(expr: DesirableSetExpr) -> Scope:
    """The variable scope an expression's members live on."""
    if isinstance(expr, (GeneratorSet, CellSet, LexSystem, Conditioned, _Product)):
        return expr.scope
    if isinstance(expr, IrrExt):
        return expr.target
    if isinstance(expr, ConditionalFamily):
        return scope_of(expr.entries[0][1])
    raise TypeError("not a desirable-set expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# membership dispatcher
# ---------------------------------------------------------------------------


def member(expr: DesirableSetExpr, f: Gamble, *, budget: int = 100000) -> Tri:
    """Exact membership verdict of ``f`` in the denoted set.

    Gambles on a subscope are identified with their cylindrical extension.
    ``UNKNOWN`` can only arise from strong-product boundaries.  ``budget``
    caps the enumerative work of product queries: it is handed to the
    product walk and the strong-product scan, also below conditioned and
    extended nodes, and no other procedure reads it.  A walk with no
    (block, slice) pair, such as a generator set's, reads none.

    Every node kind decides on the gamble's numerators alone
    (``scaled_member``), by a test each node builds once; a conditional
    family raises there.
    """
    return scaled_member(expr, f.embed(scope_of(expr)).nums, budget)


def scaled_member(expr: DesirableSetExpr, nums: Sequence[int], budget: int) -> Tri:
    """Membership of the gamble ``nums``, or any positive multiple of it,
    on the scope of ``expr``.

    Every node denotes a cone, so a gamble's numerators decide it without
    its denominator.  Every node kind builds its integer membership test
    once, on its first query, and keeps it (``_int_test``): a query reads
    it from the node's ``__dict__`` and calls it.  A conditional family
    builds none and raises.  Besides ``member``, the scans and
    ``inex_member`` in ``independence`` call it directly, with ints lifted
    once onto the scope of ``expr``.
    """
    test, data = expr.__dict__.get("_int_test") or _int_test(expr)
    return test(data, nums, budget)


def _int_test(expr: DesirableSetExpr) -> tuple:
    """The test that decides ``scaled_member`` for ``expr``: a module-level
    function and the plain data it reads, ``(test, data)``.

    Every node denotes a cone, so ``nums``, a positive multiple of the
    gamble, decides every test: the leaves read integer signs, the walk's
    domination rows put ``nums`` over the generators' lcm, and the nodes
    that wrap a base hand it ints.

    * a generator set or an independent product: its walk data, a
      generator set's as a product of one block
      (``independence._walk_data``, read by ``_walk_test`` there);
    * a lexicographic system: its ``int_levels`` (``_lex_test``);
    * a cell set: its size, whether it includes the positives, and per
      cell its ``exclude_zero`` and rows, each its functional's ``nums``
      and its relation (``_cellset_test``);
    * a conditioned node: its mask table, for each base outcome the index
      of the conditioned outcome it agrees with, or ``scope.size`` where
      ``given`` fails, and its base (``_conditioned_test``);
    * an extension: one row per assignment of the irrelevant variables,
      in canonical order, and its base (``_slices_test``).  Each base
      outcome of a row stands for the group of target outcomes that agree
      with it and the assignment, one per outcome of the other added
      variables, which the floor minimises over; so the row is kept as its
      columns: the first outcome of every group, and the further columns,
      none when the target is base and irrelevant scope together.
    * a strong product: over lexicographic marginals alone, the test of
      their independent product, which it equals; otherwise its marginals
      and scope (``previsions._strong_test``).

    The gates run while the test is built: a lexicographic system must
    cover every outcome, and a generator set, an extension's base and
    every marginal of a product must pass ``check_coherent``.  A gate that
    raises keeps nothing, so an incoherent leaf raises on every query.  A
    base is queried through ``scaled_member`` only when a slice needs it,
    so it builds its own test then.  The test is kept in the node's
    ``__dict__`` and never refers back to the node, so a node is freed as
    soon as it is unreferenced and pickles as it is.  A conditional family
    keeps nothing: it raises ``UnsupportedQueryError`` on every plain
    query.
    """
    if isinstance(expr, LexSystem):
        if not expr.covers_outcomes:
            check_coherent(expr)
        kept = _lex_test, expr.int_levels
    elif isinstance(expr, CellSet):
        cells = tuple([
            (cell.exclude_zero, tuple([(row.functional.nums, row.rel) for row in cell.rows]))
            for cell in expr.cells
        ])
        kept = _cellset_test, (expr.scope.size, expr.include_positive, cells)
    elif isinstance(expr, Conditioned):
        base_scope = scope_of(expr.base)
        table = [expr.scope.size] * base_scope.size
        for k, w in enumerate(_slice_map(base_scope, expr.given)[0]):
            table[w] = k
        kept = _conditioned_test, (tuple(table), expr.base)
    elif isinstance(expr, IrrExt):
        check_coherent(expr.base)
        scope = expr.irrelevant.union(scope_of(expr.base))
        groups: list[list[int]] = [[] for _ in range(scope.size)]
        for w, k in enumerate(_restriction_map(expr.target, scope)):
            groups[k].append(w)
        rows = []
        for at in expr.irrelevant.assignments():
            first, *rest = zip(*[groups[k] for k in _slice_map(scope, at)[0]])
            rows.append((first, tuple(rest)))
        kept = _slices_test, (tuple(rows), expr.base)
    elif isinstance(expr, (GeneratorSet, _Product)):
        from .independence import _walk_data, _walk_test, independent_product
        from .previsions import _strong_test

        parts = (expr,) if isinstance(expr, GeneratorSet) else expr.parts
        for part in parts:
            check_coherent(part)
        if not isinstance(expr, StrongProduct):
            kept = _walk_test, _walk_data(parts, expr.scope)
        elif all(isinstance(part, LexSystem) for part in expr.parts):
            kept = _int_test(independent_product(expr.parts))
        else:
            kept = _strong_test, (expr.parts, expr.scope)
    else:
        # The eighth kind, a conditional family (``scope_of`` has rejected
        # anything else), answers no plain query.
        raise UnsupportedQueryError(
            "conditional families answer only conditioned queries; "
            "condition on an assignment of %r first" % (expr.on.names,)
        )
    expr.__dict__["_int_test"] = kept
    return kept


def _lex_test(levels: tuple, nums: Sequence[int], budget: int) -> Tri:
    """``lex_accepts`` on the kept ``int_levels``."""
    return Tri.IN if lex_accepts(levels, nums) else Tri.OUT


def _cellset_test(data: tuple, nums: Sequence[int], budget: int) -> Tri:
    """In iff ``nums`` is positive and the set includes the positives, or
    some cell accepts it (``_cell_accepts``)."""
    size, include_positive, cells = data
    if len(nums) != size:
        raise DimensionMismatchError(
            "expected %d values for the functional, got %d" % (size, len(nums))
        )
    if include_positive and min(nums) >= 0 and any(nums):
        return Tri.IN
    for exclude_zero, rows in cells:
        if _cell_accepts(exclude_zero, rows, nums):
            return Tri.IN
    return Tri.OUT


def _conditioned_test(data: tuple, nums: Sequence[int], budget: int) -> Tri:
    """The base's verdict on ``indicator(given) * nums``: the ints
    gathered through the mask table, with 0 where ``given`` fails."""
    table, base = data
    padded = [*nums, 0]
    return scaled_member(base, [padded[k] for k in table], budget)


def _slices_test(data: tuple, nums: Sequence[int], budget: int) -> Tri:
    """Slice decomposition of irrelevant-extension membership.

    The gamble ``nums`` lives on the target.  It belongs iff it is nonzero
    and, for every assignment of the irrelevant variables, the floor of
    the gamble over the remaining added variables, sliced at that
    assignment, is nonnegative or a member of the base.  A nonnegative slice is skipped
    without asking the base: zero slack dominates it.  Each slice is read
    straight from the table as ints: the first column, lowered entry by
    entry by each further column, is the minimum of ``nums`` over each
    group, and the base decides it on those ints.  The per-slice
    choices are independent because a dominating gamble can be
    assembled slice by slice.  ``budget`` goes to each base query, as in
    ``member``.
    """
    table, base = data
    if not any(nums):
        return Tri.OUT
    unknown = False
    for first, rest in table:
        piece = [nums[w] for w in first]
        for layer in rest:
            piece = list(map(min, piece, [nums[w] for w in layer]))
        if min(piece) >= 0:
            continue
        verdict = scaled_member(base, piece, budget)
        if verdict is Tri.OUT:
            return Tri.OUT
        if verdict is Tri.UNKNOWN:
            unknown = True
    return Tri.UNKNOWN if unknown else Tri.IN


# ---------------------------------------------------------------------------
# coherence audit for cell sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditFinding:
    """One axiom's verdict: how it was decided and why it holds or fails."""

    axiom: str
    passed: bool
    mode: str  # "exact" | "structural" | "sampled"
    detail: str
    counterexample: Optional[Gamble] = None


@dataclass(frozen=True)
class CoherenceReport:
    excludes_zero: AuditFinding
    accepts_positives: AuditFinding
    posi_closed: AuditFinding

    @property
    def findings(self) -> tuple[AuditFinding, AuditFinding, AuditFinding]:
        return (self.excludes_zero, self.accepts_positives, self.posi_closed)

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.findings)


def _negated_rows(cell: Cell) -> list[CellRow]:
    """Branches of one row each whose union is the complement of the cell
    (within f != 0)."""
    rows: list[CellRow] = []
    for row in cell.rows:
        if row.rel == GE:
            rows.append(CellRow(-row.functional, GT))
        elif row.rel == GT:
            rows.append(CellRow(-row.functional, GE))
        else:
            rows += [CellRow(row.functional, GT), CellRow(-row.functional, GT)]
    return rows


def _positives_covered(cs: CellSet, budget: int) -> tuple[Optional[bool], Optional[Gamble]]:
    """Exactly decide whether every positive gamble lies in some cell.

    Enumerates one negated row per cell and asks for a positive gamble
    satisfying all negations.  Returns (None, None) when the branch count
    exceeds the budget.
    """
    per_cell = [_negated_rows(cell) for cell in cs.cells]
    count = 1
    for options in per_cell:
        count *= max(len(options), 1)
        if count > budget:
            return None, None
    size = cs.scope.size
    base_rows = list(unit_rows(size, GE))
    base_rows.append(LinRow._from_ints((1,) * size + (0,), GT))
    for choice in itertools.product(*per_cell):
        rows = list(base_rows)
        for negated in choice:
            e = negated.functional
            rows.append(LinRow._from_ints(e.nums + (0,), negated.rel, e.den))
        outcome = strict_feasible(LinSystem(size, tuple(rows)))
        if isinstance(outcome, Feasible):
            return False, Gamble(cs.scope, outcome.witness)
    return True, None


# Negated-row branches the exact positives check may enumerate.
AUDIT_BRANCH_BUDGET = 4096
# Gambles (and member pairs) a sampled axiom check draws.
AUDIT_SAMPLES = 200


def cellset_coherence_audit(cs: CellSet) -> CoherenceReport:
    """Audit the three coherence axioms for a cell set.

    Zero exclusion is exact: a cell holds the zero gamble iff it does not
    exclude zero and has no ``>`` row.  Acceptance of all positives is
    structural when the positives are included wholesale, exact via
    complement decomposition within ``AUDIT_BRANCH_BUDGET`` branches, and
    checked on ``structure.sample_gambles`` beyond it.  Closure under
    positive combinations is structural for a set with ``from_credal``
    masses and for a single cell, and checked on sampled members
    otherwise; a sampled counterexample is still a definitive failure.
    """
    zero = Gamble.zero(cs.scope)
    zero_cells = [
        i
        for i, cell in enumerate(cs.cells)
        if not cell.exclude_zero and all(row.rel != GT for row in cell.rows)
    ]
    excludes_zero = AuditFinding(
        "excludes-zero",
        not zero_cells,
        "exact",
        "no cell accepts the zero gamble"
        if not zero_cells
        else "cells %r accept the zero gamble" % (zero_cells,),
        None if not zero_cells else zero,
    )

    if cs.include_positive:
        accepts_positives = AuditFinding(
            "accepts-positives", True, "structural", "positives included wholesale"
        )
    else:
        verdict, witness = _positives_covered(cs, AUDIT_BRANCH_BUDGET)
        if verdict is None:
            from .structure import sample_gambles

            bad = None
            samples = sample_gambles(cs.scope, budget=AUDIT_SAMPLES, lo=0, hi=3)
            for f in samples:
                if f.is_positive() and scaled_member(cs, f.nums, 0) is not Tri.IN:
                    bad = f
                    break
            accepts_positives = AuditFinding(
                "accepts-positives",
                bad is None,
                "sampled",
                "complement decomposition over budget; %d positive samples checked"
                % len(samples)
                if bad is None
                else "positive gamble outside every cell",
                bad,
            )
        else:
            accepts_positives = AuditFinding(
                "accepts-positives",
                verdict,
                "exact",
                "cell complements exclude every positive gamble"
                if verdict
                else "positive gamble outside every cell",
                witness,
            )

    posi_closed = _audit_posi_closed(cs)
    return CoherenceReport(excludes_zero, accepts_positives, posi_closed)


def _audit_posi_closed(cs: CellSet) -> AuditFinding:
    if cs.from_credal is not None:
        return AuditFinding(
            "posi-closed",
            True,
            "structural",
            "strict lower-envelope family: combinations keep every strict row",
        )
    if len(cs.cells) == 1 and not cs.include_positive:
        cell = cs.cells[0]
        if any(row.rel == GT for row in cell.rows) or not cell.exclude_zero:
            return AuditFinding(
                "posi-closed",
                True,
                "structural",
                "single cell: an intersection of homogeneous sign constraints",
            )
    from .structure import sample_gambles

    members = [
        f
        for f in sample_gambles(cs.scope, budget=AUDIT_SAMPLES * 4)
        if scaled_member(cs, f.nums, 0) is Tri.IN
    ]
    checked = 0
    pairs = itertools.combinations(members, 2)
    for f, g in itertools.islice(pairs, AUDIT_SAMPLES):
        total = f + g
        if scaled_member(cs, total.nums, 0) is not Tri.IN:
            return AuditFinding(
                "posi-closed", False, "sampled", "sum of two members left the set", total
            )
        checked += 1
    return AuditFinding(
        "posi-closed",
        True,
        "sampled",
        "no violation among %d sampled combinations" % checked,
    )
