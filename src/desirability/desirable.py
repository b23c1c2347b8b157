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
products, whose boundary queries are honestly three-valued.
Lexicographic, cell, conditioned and extension nodes decide it on the
gamble's integer numerators, by a test each node builds on its first
query and keeps (``scaled_member``).

The central reductions:

* generator membership: ``f`` belongs iff ``f != 0`` and some ``lam >= 0``
  has ``sum(lam_k * g_k) <= f`` pointwise — the positive part of the
  combination is absorbed by the residual ``f - sum(lam_k * g_k) >= 0``.
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
    EQ, GE, GT, Feasible, LinRow, LinSystem, scaled_to_ints, solve, strict_feasible, unit_rows,
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
_ONE = Fraction(1)


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
# generator sets and the natural-extension decision procedure
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
        and the lcm ``den`` of the generators' denominators: the generator
        part of each outcome row of ``cone_program``, computed once."""
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

    @cached_property
    def int_mass(self) -> list[int]:
        """The positive mass times the lcm of its denominators, computed once."""
        return scaled_to_ints(self.positive_mass)[0]


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


def cone_program(
    cone: GeneratorSet, value: Gamble, direction: Optional[Gamble] = None
) -> LinSystem:
    """The rows of the dominance program ``value + mu*direction >= sum_k lam_k g_k``.

    One unit row ``lam_k >= 0`` per generator weight comes first, then one
    row per outcome.  Without a direction the system is feasible exactly
    when ``value`` dominates a nonnegative combination of the generators.
    With one, the shift ``mu`` leads the variables, and
    ``previsions._generator_sup`` maximises it.  ``independence.inex_member``
    appends the columns of a product's cell and lexicographic summands to
    these rows.

    The rows are built on ints, with no ``Fraction``: the unit rows are
    shared (``unit_rows``), and each outcome row joins the cone's
    ``_negated_ints`` to the gamble's and the direction's ints over the lcm
    of their denominators.
    """
    n = len(cone.generators)
    lead = 0 if direction is None else 1
    rows = list(unit_rows(lead + n, GE, lead))
    negated, gen_den = cone._negated_ints
    den = math.lcm(gen_den, value.den, 1 if direction is None else direction.den)
    a, b = den // gen_den, den // value.den
    values = value.nums
    for w, gs in enumerate(negated):
        if a != 1:
            gs = tuple([a * v for v in gs])
        if direction is not None:
            gs = (direction.nums[w] * (den // direction.den),) + gs
        rows.append(LinRow._from_ints(gs + (-b * values[w],), GE, den))
    return LinSystem(lead + n, tuple(rows))


def sign_verdict(f: Gamble) -> Optional[bool]:
    """The verdict of every coherent set on ``f`` from its signs alone:
    ``False`` for zero and every nonpositive gamble, ``True`` for every
    positive one, ``None`` when ``f`` takes both signs.  The product and
    natural-extension procedures read it after their gate."""
    if f.is_positive():
        return True
    if f.is_nonpositive():
        return False
    return None


def natext_member(assessment: GeneratorSet, f: Gamble) -> bool:
    """Does ``f`` dominate a nonnegative combination of the generators?

    Decides membership in the smallest coherent set containing the
    assessment.  Raises ``IncoherentBaseError`` when the assessment fails
    the consistency check (``check_coherent``: the extension would be
    everything).
    """
    f = f.embed(assessment.scope)
    certificate = check_coherent(assessment)
    verdict = sign_verdict(f)
    if verdict is not None:
        return verdict
    # Every member has strictly positive expectation under the certificate.
    if sum(map(mul, certificate.int_mass, f.nums)) <= 0:
        return False
    if not assessment.generators:
        return False
    return isinstance(solve(cone_program(assessment, f)), Feasible)


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

    def holds(self, nums: Sequence[int]) -> bool:
        """Does the gamble with values ``nums`` satisfy the constraint?

        ``nums`` may be the values times any positive factor, such as a
        gamble's ``nums``.  The verdict is the sign of an integer dot
        product with the functional's ``nums``, its values times its
        positive denominator, so it is that of the exact rational one.
        """
        ints = self.functional.nums
        _check_length(len(ints), nums)
        return _cell_accepts(False, ((ints, self.rel),), nums)


@dataclass(frozen=True)
class Cell:
    """A relatively open polyhedral cone piece."""

    rows: tuple[CellRow, ...]
    exclude_zero: bool = False

    def accepts(self, nums: Sequence[int]) -> bool:
        """Does the gamble with values ``nums`` (or a positive multiple) lie in the cell?"""
        for row in self.rows:
            _check_length(len(row.functional.nums), nums)
        return _cell_accepts(self.exclude_zero, _int_rows(self), nums)


def _check_length(size: int, nums: Sequence[int]) -> None:
    if len(nums) != size:
        raise DimensionMismatchError(
            "expected %d values for the functional, got %d" % (size, len(nums))
        )


def _int_rows(cell: Cell) -> tuple[tuple[tuple[int, ...], str], ...]:
    """Each row of ``cell`` as its functional's ``nums`` and its relation."""
    return tuple([(row.functional.nums, row.rel) for row in cell.rows])


def _cell_accepts(
    exclude_zero: bool, rows: Sequence[tuple[Sequence[int], str]], nums: Sequence[int]
) -> bool:
    """``Cell.accepts`` on the cell's ``exclude_zero`` and ``_int_rows``:
    each row's verdict is the sign of an integer dot product."""
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

    ``from_credal`` carries provenance when the set was built as the
    strictly desirable set of a credal set: the raw vertex mass functions.
    That unlocks structural coherence verdicts and credal views.
    """

    scope: Scope
    cells: tuple[Cell, ...]
    include_positive: bool = False
    from_credal: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self) -> None:
        for cell in self.cells:
            for row in cell.rows:
                if row.functional.scope != self.scope:
                    raise ScopeError(
                        "cell functional scope %r does not match %r"
                        % (row.functional.scope.names, self.scope.names)
                    )


def _unit_cell(scope: Scope, rel: str) -> Cell:
    """One ``rel 0`` row per outcome's unit functional, zero excluded."""
    size = scope.size
    units = [tuple([_ONE if j == w else _ZERO for j in range(size)]) for w in range(size)]
    return Cell(tuple([CellRow(Gamble(scope, u), rel) for u in units]), exclude_zero=True)


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


def _is_strict_credal(cs: CellSet) -> bool:
    """Is the set the positives and one cell of ``>`` rows with nonnegative
    functionals, as ``strictly_desirable`` builds?"""
    return (
        cs.include_positive
        and len(cs.cells) == 1
        and all(row.rel == GT and min(row.functional.nums) >= 0 for row in cs.cells[0].rows)
    )


def sign_chain(model: Union[CellSet, LexSystem]) -> Optional[tuple[Cell, ...]]:
    """The model's ``sign_cells`` ordered as a chain, or ``None`` when they
    form none.

    In a chain each cell's weak relaxation (``>`` read as ``>=``, zero
    admitted) contains every later cell, and the last cell has no ``>``
    row.  A lexicographic system's cells are a chain as ``sign_cells``
    lists them: a later cell ties the earlier cells' lead levels.  So are
    a cell set's of one cell without the positives, that cell and then the
    zero cell, which meets every homogeneous weak row.  A strictly
    desirable credal set's are one in reverse, its open cell before the
    orthant, which every nonnegative functional keeps at ``>= 0``.  Other
    cell sets have no chain; product membership walks each of their cells
    as a chain of its own, which it never moves past.
    """
    if isinstance(model, LexSystem) or (len(model.cells) == 1 and not model.include_positive):
        return sign_cells(model)
    return sign_cells(model)[::-1] if _is_strict_credal(model) else None


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
    node's integer test (``_conditioned_test``) masks through
    ``mask_table``, an index table the node computes once, on first use,
    and keeps.
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

    @cached_property
    def mask_table(self) -> tuple[int, ...]:
        """For each base outcome, the index of the conditioned outcome it
        agrees with, or ``scope.size`` where ``given`` fails."""
        base_scope = scope_of(self.base)
        table = [self.scope.size] * base_scope.size
        for k, w in enumerate(_slice_map(base_scope, self.given)[0]):
            table[w] = k
        return tuple(table)


@dataclass(frozen=True)
class IrrExt:
    """Smallest joint making some variables irrelevant to the base's.

    Denotes the natural extension of the family of gambles whose every
    slice along the irrelevant variables lies in the base model (or is 0),
    cylindrically extended to the target scope.  With no irrelevant
    variables it is the cylindrical extension of the base itself, which
    ``structure.cyl_ext`` builds.

    Membership reads each slice through ``slice_table``, an index table
    the node computes once, on first use, and keeps.  The node's integer
    test (``_slices_test``) is built from it after the base passes its
    coherence gate.
    """

    base: DesirableSetExpr
    irrelevant: Scope
    target: Scope

    def __post_init__(self) -> None:
        base_scope = scope_of(self.base)
        if not base_scope.isdisjoint(self.irrelevant):
            raise ScopeError("irrelevant variables overlap the base scope")
        if not base_scope.union(self.irrelevant).issubset(self.target):
            raise ScopeError("extension target must contain base and irrelevant scopes")

    @cached_property
    def slice_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Target indices behind every entry of every slice.

        One row per assignment of the irrelevant variables, in canonical
        order.  A row holds, for each base outcome in canonical order, the
        indices of the target outcomes that agree with both: the outcomes
        of the other added variables, which the floor minimises over.
        """
        kept = self.irrelevant.union(scope_of(self.base))
        groups: list[list[int]] = [[] for _ in range(kept.size)]
        for w, k in enumerate(_restriction_map(self.target, kept)):
            groups[k].append(w)
        return tuple(
            tuple(tuple(groups[k]) for k in _slice_map(kept, at)[0])
            for at in self.irrelevant.assignments()
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
    """Marginal models on disjoint scopes: the body of both product kinds.
    Its equality also compares the class, so the kinds never compare equal."""

    parts: tuple[DesirableSetExpr, ...]
    scope: Scope = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.parts:
            raise ScopeError("a product needs at least one marginal")
        object.__setattr__(self, "scope", disjoint_union(scope_of(part) for part in self.parts))


class IndepProduct(_Product):
    """Independent natural extension of marginal models on disjoint scopes."""

    @cached_property
    def support_mass(self) -> Optional[list[int]]:
        """A joint mass giving every member nonnegative expectation, scaled
        to ints, or ``None`` when some marginal has no support mass.

        The product of the marginals' masses (``_support_mass``), computed
        once per product.
        """
        masses = [_support_mass(part) for part in self.parts]
        if any(m is None for m in masses):
            return None
        joint = scope_of(self)
        block_maps = [_restriction_map(joint, scope_of(part)) for part in self.parts]
        values = []
        for w in range(joint.size):
            v = _ONE
            for block_map, mass in zip(block_maps, masses):
                v *= mass[block_map[w]]
            values.append(v)
        return scaled_to_ints(values)[0]


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
    caps the enumerative work of product queries: it is handed to
    ``inex_member`` and ``strong_member``, also below conditioned and
    extended nodes, and no other procedure reads it.

    Lexicographic, cell, conditioned and extension nodes decide on the
    gamble's ints (``scaled_member``), by a test each node builds once.
    """
    f = f.embed(scope_of(expr))
    if isinstance(expr, GeneratorSet):
        return Tri.of(natext_member(expr, f))
    if isinstance(expr, IndepProduct):
        from .independence import inex_member

        return inex_member(expr, f, budget=budget)
    if isinstance(expr, StrongProduct):
        from .previsions import strong_member

        return strong_member(expr, f, budget=budget)
    if isinstance(expr, ConditionalFamily):
        raise UnsupportedQueryError(
            "conditional families answer only conditioned queries; "
            "condition on an assignment of %r first" % (expr.on.names,)
        )
    return scaled_member(expr, f.nums, f.den, budget)


def scaled_member(
    expr: DesirableSetExpr, nums: Sequence[int], den: int, budget: int
) -> Tri:
    """Membership of the gamble ``nums / den`` on the scope of ``expr``.

    Lexicographic, cell, conditioned and extension nodes each build their
    integer membership test once, on their first query, and keep it
    (``_int_test``): a query reads it from the node's ``__dict__`` and
    calls it.  Any other node receives the gamble ``nums / den`` through
    ``member``.  Besides ``member``, the scans in ``independence`` call it
    directly, with ints lifted once onto the scope of ``expr``.
    """
    test, data = expr.__dict__.get("_int_test") or _int_test(expr)
    return test(data, nums, den, budget)


def _int_test(expr: DesirableSetExpr) -> tuple:
    """The test that decides ``scaled_member`` for ``expr``: a module-level
    function and the plain data it reads, ``(test, data)``.

    Every node denotes a cone, so ``nums`` alone, a positive multiple of the
    gamble, decides the leaves: their tests read integer signs.

    * a lexicographic system: its ``int_levels`` (``_lex_test``);
    * a cell set: its size, whether it includes the positives, and per
      cell its ``exclude_zero`` and ``_int_rows`` (``_cellset_test``);
    * a conditioned node: its ``mask_table`` and its base
      (``_conditioned_test``);
    * an extension: its ``slice_table`` and its base (``_slices_test``).
      The groups of a row all have one outcome per assignment of the
      other added variables, so the row is kept as its columns: the first
      outcome of every group, and the further columns, none when the
      target is base and irrelevant scope together.

    The gates run while the test is built: a lexicographic system must
    cover every outcome, and an extension's base must pass
    ``check_coherent``.  A gate that raises keeps nothing, so an
    incoherent leaf raises on every query.  A base is queried through
    ``scaled_member`` only when a slice needs it, so it builds its own
    test then.  The test is kept in the node's ``__dict__`` and never
    refers back to the node, so a node is freed as soon as it is
    unreferenced and pickles as it is.  Any other node gets
    ``_gamble_test`` and the node itself, which is not kept.
    """
    if isinstance(expr, LexSystem):
        if not expr.covers_outcomes:
            check_coherent(expr)
        kept = _lex_test, expr.int_levels
    elif isinstance(expr, CellSet):
        cells = tuple([(cell.exclude_zero, _int_rows(cell)) for cell in expr.cells])
        kept = _cellset_test, (expr.scope.size, expr.include_positive, cells)
    elif isinstance(expr, Conditioned):
        kept = _conditioned_test, (expr.mask_table, expr.base)
    elif isinstance(expr, IrrExt):
        check_coherent(expr.base)
        columns = [tuple(zip(*row)) for row in expr.slice_table]
        kept = _slices_test, (tuple([(c[0], c[1:]) for c in columns]), expr.base)
    else:
        return _gamble_test, expr
    expr.__dict__["_int_test"] = kept
    return kept


def _lex_test(levels: tuple, nums: Sequence[int], den: int, budget: int) -> Tri:
    """``lex_accepts`` on the kept ``int_levels``."""
    return Tri.IN if lex_accepts(levels, nums) else Tri.OUT


def _cellset_test(data: tuple, nums: Sequence[int], den: int, budget: int) -> Tri:
    """In iff ``nums`` is positive and the set includes the positives, or
    some cell accepts it (``_cell_accepts``)."""
    size, include_positive, cells = data
    _check_length(size, nums)
    if include_positive and min(nums) >= 0 and any(nums):
        return Tri.IN
    for exclude_zero, rows in cells:
        if _cell_accepts(exclude_zero, rows, nums):
            return Tri.IN
    return Tri.OUT


def _conditioned_test(data: tuple, nums: Sequence[int], den: int, budget: int) -> Tri:
    """The base's verdict on ``indicator(given) * f``: the ints gathered
    through the mask table, with 0 where ``given`` fails."""
    table, base = data
    padded = [*nums, 0]
    return scaled_member(base, [padded[k] for k in table], den, budget)


def _slices_test(data: tuple, nums: Sequence[int], den: int, budget: int) -> Tri:
    """Slice decomposition of irrelevant-extension membership.

    ``nums / den`` lives on the target.  It belongs iff it is nonzero and,
    for every assignment of the irrelevant variables, the floor of the
    gamble over the remaining added variables, sliced at that assignment,
    is nonnegative or a member of the base.  A nonnegative slice is skipped
    without asking the base: zero slack dominates it.  Each slice is read
    straight from the table as ints: the first column, lowered entry by
    entry by each further column, is the minimum of ``nums`` over each
    group, and the base decides it over the same ``den``.  The per-slice
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
        verdict = scaled_member(base, piece, den, budget)
        if verdict is Tri.OUT:
            return Tri.OUT
        if verdict is Tri.UNKNOWN:
            unknown = True
    return Tri.UNKNOWN if unknown else Tri.IN


def _gamble_test(expr: DesirableSetExpr, nums: Sequence[int], den: int, budget: int) -> Tri:
    """``member`` on the gamble ``nums / den``, built on the scope of ``expr``."""
    return member(expr, Gamble._from_ints(scope_of(expr), tuple(nums), den), budget=budget)


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


def _negated_rows(cell: Cell) -> list[list[CellRow]]:
    """Branches whose union is the complement of the cell (within f != 0)."""
    options: list[list[CellRow]] = []
    for row in cell.rows:
        if row.rel == GE:
            options.append([CellRow(-row.functional, GT)])
        elif row.rel == GT:
            options.append([CellRow(-row.functional, GE)])
        else:
            options.append([CellRow(row.functional, GT), CellRow(-row.functional, GT)])
    flat: list[list[CellRow]] = []
    for option in options:
        flat.extend([negated] for negated in option)
    return flat


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
    for choice in itertools.product(*per_cell) if per_cell else [()]:
        rows = list(base_rows)
        for negated_list in choice:
            for negated in negated_list:
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

    Zero exclusion is exact.  Acceptance of all positives is structural
    when the positives are included wholesale, exact via complement
    decomposition within ``AUDIT_BRANCH_BUDGET`` branches, and checked on
    ``structure.sample_gambles`` beyond it.  Closure under positive
    combinations is structural for the canonical families and checked on
    sampled members otherwise; a sampled counterexample is still a
    definitive failure.
    """
    zero = Gamble.zero(cs.scope)
    zero_cells = [i for i, cell in enumerate(cs.cells) if cell.accepts(zero.nums)]
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
                if f.is_positive() and scaled_member(cs, f.nums, f.den, 0) is not Tri.IN:
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
    if _is_strict_credal(cs):
        return AuditFinding(
            "posi-closed",
            True,
            "structural",
            "positives plus one strict cell with nonnegative functionals",
        )
    from .structure import sample_gambles

    members = [
        f
        for f in sample_gambles(cs.scope, budget=AUDIT_SAMPLES * 4)
        if scaled_member(cs, f.nums, f.den, 0) is Tri.IN
    ]
    checked = 0
    pairs = itertools.combinations(members, 2)
    for f, g in itertools.islice(pairs, AUDIT_SAMPLES):
        total = f + g
        if scaled_member(cs, total.nums, total.den, 0) is not Tri.IN:
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
