"""Plain reference implementations that only the tests use.

Each one decides its question the direct way, independent of the engine's
fast paths, so a test can compare the two:

* ``fm_project`` / ``fm_feasible`` — Fourier-Motzkin elimination, an exact
  feasibility oracle for small systems that shares no code with the
  simplex;
* ``indicator`` and ``floor_onto`` — gambles built value by value, against
  which masks and extension slices are checked;
* ``depends_only_on`` — whether a gamble is a function of some variables
  alone, and its reduction to them;
* ``strictly_prefers``, ``marginal_member`` and ``condition_bar_member`` —
  strict preference, marginal membership and contingent desirability, each
  as a membership question asked through ``member``;
* ``irr_member`` — membership in the slice family behind an ``IrrExt``,
  with slices read by ``Gamble.slice_at`` rather than the node's slice
  table;
* ``fraction_member``, ``fraction_is_irrelevant``,
  ``fraction_is_independent`` and ``fraction_factorisation_check`` — the
  membership path and the scans as they ran on ``Fraction`` values, before
  lexicographic, cell, conditioned and extension nodes decided on a
  gamble's ints: every value they read is ``Gamble.values``, and every
  gamble they build is built from ``Fraction``s;
* ``gamble_is_irrelevant`` and ``gamble_factorisation_check`` — the
  scans as they ran before they queried ``scaled_member`` on full-scope
  ints: one ``Gamble`` per query, built on the scanned groups' joint
  scope and handed to ``member``, which embeds it;
* ``lower_expectation`` — a credal set's lower envelope, read off its
  vertices one dot product at a time;
* ``inex_lower_prevision_primal`` — the independent joint lower prevision
  as the primal allocation program, the LP dual of the joint-mass program
  that ``previsions.inex_lower_prevision`` solves;
* ``rebuilt_unit_rows``, ``rebuilt_cone_program``, ``rebuilt_generator_sup``,
  ``rebuilt_inex_lower_prevision`` and ``fraction_strong_product_lower`` —
  the price programs as they were built on ``Fraction``s, from scratch on
  every price: the unit rows, the generator-cone program and its supremum,
  the joint-mass program with its own phase 1 per gamble, and the strong
  vertex scan multiplying ``Fraction``s.  The engine compiles the
  joint-mass rows once per tuple of credal sets and re-solves only phase
  2, builds cone rows from the gambles' ints, and scans on vertex ints;
  prices and witnesses must be the same;
* ``inex_member_enumerated`` — product membership with one strict LP per
  combined signature, the flat enumeration that the pruned search in
  ``independence.inex_member`` replaced.  It keeps its own branch builder
  (``_leaf_branches``), in which a generator marginal is one branch per
  (block, slice) pair over auxiliary weight columns, where the engine puts
  the masked generators into the cone rows;
* ``original_multipliers`` — the mapping of ``_Simplex.multipliers`` on
  ``Fraction``s, the reference for its int recovery;
* ``ArtificialStartSimplex`` / ``solve_artificial_start`` — the simplex
  that folds only zero lower bounds and starts every tableau row on an
  artificial, against which the slack-basis start is checked.  It keeps
  the fourth outcome, ``Unbounded``, that the engine's ``solve`` no longer
  has, so a differential can find the programs on which ``solve`` must
  raise;
* ``loads_eagerly`` — the model loader that resolves and canonicalises
  every set while it loads, against which the loader that validates on
  load and builds on first read is checked.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from desirability import (
    BudgetExceededError,
    CredalSet,
    EngineError,
    Gamble,
    IrrExt,
    Scope,
    ScopeError,
    Tri,
    member,
)
from desirability.desirable import (
    Cell,
    CellRow,
    CellSet,
    Conditioned,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    StrongProduct,
    _support_mass,
    check_coherent,
    scope_of,
)
from desirability.exactlp import (
    EQ,
    GE,
    GT,
    Feasible,
    Infeasible,
    LinRow,
    LinSystem,
    LPOutcome,
    Optimal,
    _MAX_ITERATIONS,
    _eliminate,
    _Simplex,
    scaled_to_ints,
    solve,
    strict_feasible,
)
from desirability.errors import (
    ModelFormatError,
    UnsupportedQueryError,
)
from desirability.independence import (
    PAIR_BUDGET,
    Verdict,
    _check_budget,
    _scan_mode,
    independent_product,
    irrelevant_extension,
)
from desirability.maximal import LexSystem, lex_is_maximal
from desirability.model import (
    ModelDocument,
    _assignment,
    _need,
    _parse_variables,
    _rational_list,
    _reject_float,
    _rel_from_name,
    parse_assignment,
)
from desirability.previsions import credal_view, strictly_desirable
from desirability.space import (
    Assignment,
    _restriction_map,
    _slice_map,
    disjoint_union,
    format_rational,
)
from desirability.structure import condition, cyl_ext, sample_gambles

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------


def _normalise_row(row: LinRow) -> LinRow:
    lead = next((c for c in row.coeffs if c), None)
    if lead is None:
        return row
    scale = _ONE / abs(lead)
    return LinRow(tuple(c * scale for c in row.coeffs), row.rel, row.rhs * scale)


def fm_project(
    system: LinSystem,
    eliminate: Sequence[int],
    *,
    max_rows: int = 10000,
    max_vars: int = 32,
) -> LinSystem:
    """Eliminate the columns ``eliminate`` by Fourier-Motzkin, exactly,
    strict rows included.

    Columns are indices into ``system`` and are eliminated in the order
    given; the kept columns keep their relative order.  Raises
    ``BudgetExceededError`` when intermediate row counts or the variable
    count exceed the guards.
    """
    if system.n_vars > max_vars:
        raise BudgetExceededError(
            "fm_project limited to %d variables, got %d" % (max_vars, system.n_vars)
        )
    columns = list(range(system.n_vars))
    rows = [LinRow(r.coeffs, r.rel, r.rhs) for r in system.rows]
    for column in eliminate:
        if column not in columns:
            raise ValueError("cannot eliminate unknown column %r" % (column,))
        j = columns.index(column)
        pivot = next(
            (r for r in rows if r.rel == EQ and r.coeffs[j] != 0), None
        )
        new_rows: list[LinRow] = []
        if pivot is not None:
            pc = pivot.coeffs[j]
            for r in rows:
                if r is pivot:
                    continue
                f = r.coeffs[j] / pc
                if f:
                    coeffs = tuple(a - f * b for a, b in zip(r.coeffs, pivot.coeffs))
                    r = LinRow(coeffs, r.rel, r.rhs - f * pivot.rhs)
                new_rows.append(r)
        else:
            pos = [r for r in rows if r.coeffs[j] > 0]
            neg = [r for r in rows if r.coeffs[j] < 0]
            new_rows.extend(r for r in rows if r.coeffs[j] == 0)
            for rp in pos:
                for rn in neg:
                    fp = _ONE / rp.coeffs[j]
                    fn = -_ONE / rn.coeffs[j]
                    coeffs = tuple(
                        fp * a + fn * b for a, b in zip(rp.coeffs, rn.coeffs)
                    )
                    rel = GT if GT in (rp.rel, rn.rel) else GE
                    new_rows.append(LinRow(coeffs, rel, fp * rp.rhs + fn * rn.rhs))
        # Drop the eliminated coordinate and deduplicate.
        seen = set()
        rows = []
        for r in new_rows:
            coeffs = r.coeffs[:j] + r.coeffs[j + 1 :]
            r2 = _normalise_row(LinRow(coeffs, r.rel, r.rhs))
            key = (r2.coeffs, r2.rel, r2.rhs)
            if key not in seen:
                seen.add(key)
                rows.append(r2)
        columns.pop(j)
        if len(rows) > max_rows:
            raise BudgetExceededError(
                "fm_project exceeded %d rows while eliminating column %d"
                % (max_rows, column)
            )
    return LinSystem(len(columns), tuple(rows))


def fm_feasible(system: LinSystem, **guards) -> bool:
    """Feasibility by full projection; the constant rows tell the answer."""
    projected = fm_project(system, range(system.n_vars), **guards)
    for row in projected.rows:
        if row.rel == GE and not (0 >= row.rhs):
            return False
        if row.rel == GT and not (0 > row.rhs):
            return False
        if row.rel == EQ and row.rhs != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# gambles built value by value
# ---------------------------------------------------------------------------


def indicator(at: Assignment, scope: Optional[Scope] = None) -> Gamble:
    """The gamble that pays 1 exactly when ``at`` obtains, on ``at.scope``.

    Pass ``scope`` to get the cylindrical extension in one step.
    """
    base = at.scope
    values = [Fraction(0)] * base.size
    values[base.index_of(at)] = Fraction(1)
    g = Gamble(base, tuple(values))
    return g.embed(scope) if scope is not None else g


def floor_onto(f: Gamble, onto: Scope) -> Gamble:
    """Pointwise minimum of ``f`` over the variables outside ``onto``.

    This is the largest gamble on ``onto`` whose cylindrical extension is
    dominated by ``f``.
    """
    if not onto.issubset(f.scope):
        raise ScopeError("scope %r is not part of %r" % (onto.names, f.scope.names))
    best: list[Optional[Fraction]] = [None] * onto.size
    for full_idx, red_idx in enumerate(_restriction_map(f.scope, onto)):
        v = f.values[full_idx]
        seen = best[red_idx]
        if seen is None or v < seen:
            best[red_idx] = v
    return Gamble(onto, tuple(best))  # type: ignore[arg-type]


def depends_only_on(f: Gamble, onto: Scope) -> tuple[bool, Optional[Gamble]]:
    """Whether the value of ``f`` is a function of ``onto`` alone.

    Returns ``(True, reduced)`` with the reduced gamble on ``onto`` when it
    is, and ``(False, None)`` otherwise.
    """
    if not onto.issubset(f.scope):
        raise ScopeError("scope %r is not part of %r" % (onto.names, f.scope.names))
    rmap = _restriction_map(f.scope, onto)
    first: list[int] = [-1] * onto.size
    for full_idx, red_idx in enumerate(rmap):
        if first[red_idx] < 0:
            first[red_idx] = full_idx
        elif f.nums[first[red_idx]] != f.nums[full_idx]:
            return False, None
    return True, f._gathered(onto, first)


# ---------------------------------------------------------------------------
# membership questions asked through ``member``
# ---------------------------------------------------------------------------


def strictly_prefers(expr: DesirableSetExpr, f: Gamble, g: Gamble) -> Tri:
    """Is exchanging ``g`` for ``f`` strictly desirable, i.e. f - g in E?"""
    if f.scope != g.scope:
        raise ScopeError("compared gambles must share a scope")
    return member(expr, f - g)


def marginal_member(expr: DesirableSetExpr, onto: Scope, f: Gamble) -> Tri:
    """Membership of ``f`` in the marginal of ``expr`` onto ``onto``.

    In iff ``f`` depends only on ``onto`` and its identification with a
    gamble on the full scope is a member.
    """
    full = scope_of(expr)
    if not onto.issubset(full):
        raise ScopeError(
            "marginal scope %r is not part of %r" % (onto.names, full.names)
        )
    if not f.scope.issubset(full):
        raise ScopeError(
            "gamble scope %r does not fit expression scope %r"
            % (f.scope.names, full.names)
        )
    flat, reduced = depends_only_on(f, onto.intersection(f.scope))
    if not flat:
        return Tri.OUT
    assert reduced is not None
    return member(expr, reduced)


def condition_bar_member(
    expr: DesirableSetExpr, given: Assignment, f: Gamble
) -> Tri:
    """Contingent-desirability membership after observing ``given``.

    In iff ``f`` is positive outright, or the slice of ``f`` at the
    observed assignment belongs to the updated model.
    """
    f = f.embed(scope_of(expr))
    if f.is_positive():
        return Tri.IN
    return member(condition(expr, given), f.slice_at(given))


def irr_member(ext: IrrExt, h: Gamble) -> Tri:
    """Membership in the family of slice-constrained gambles behind ``ext``.

    In iff ``h`` is nonzero and every slice along the irrelevant variables
    lies in the base model or vanishes.  ``h`` lives on the irrelevant and
    base variables; its slices come from ``Gamble.slice_at``.
    """
    h = h.embed(ext.irrelevant.union(scope_of(ext.base)))
    if h.is_zero():
        return Tri.OUT
    unknown = False
    for at in ext.irrelevant.assignments():
        piece = h.slice_at(at)
        if piece.is_zero():
            continue
        verdict = member(ext.base, piece)
        if verdict is Tri.OUT:
            return Tri.OUT
        if verdict is Tri.UNKNOWN:
            unknown = True
    return Tri.UNKNOWN if unknown else Tri.IN


# ---------------------------------------------------------------------------
# membership and scans on Fraction values
# ---------------------------------------------------------------------------


def fraction_values(f: Gamble, target: Scope) -> tuple[Fraction, ...]:
    """The values of ``f`` on the larger scope ``target``, as Fractions."""
    if f.scope == target:
        return f.values
    return tuple([f.values[i] for i in _restriction_map(target, f.scope)])


def _fraction_mask(f: Gamble, at: Assignment) -> Gamble:
    joint = f.scope.union(at.scope)
    values = fraction_values(f, joint)
    masked = [_ZERO] * joint.size
    for i in _slice_map(joint, at)[0]:
        masked[i] = values[i]
    return Gamble(joint, tuple(masked))


def _fraction_product(f: Gamble, g: Gamble) -> Gamble:
    joint = f.scope.union(g.scope)
    pairs = zip(fraction_values(f, joint), fraction_values(g, joint))
    return Gamble(joint, tuple([a * b for a, b in pairs]))


def _fraction_holds(row: CellRow, values: Sequence[Fraction]) -> bool:
    value = sum((c * v for c, v in zip(row.functional.values, values)), _ZERO)
    if row.rel == GE:
        return value >= 0
    if row.rel == GT:
        return value > 0
    return value == 0


def fraction_member(expr: DesirableSetExpr, f: Gamble, *, budget: int = 100000) -> Tri:
    """``member`` with lexicographic, cell, conditioned and extension nodes
    decided on ``Fraction`` values: exact expectations, masks that copy
    values, and slice floors taken over the target's assignments, one per
    assignment ``z`` of the irrelevant variables and outcome ``x`` of the
    base: the minimum over every target outcome whose restriction to base
    and irrelevant scope is ``z.union(x)``.  No engine table is read.
    Independent products answer by ``inex_member_enumerated``.  A generator
    set, once it passes ``check_coherent``, holds every nonzero gamble
    whose ``rebuilt_cone_program`` is feasible by ``fm_feasible``.  A strong
    product gates its marginals, answers as the independent product when
    all are lexicographic, and otherwise reads the signs and then the sign
    of ``fraction_strong_product_lower``."""
    scope = scope_of(expr)
    values = fraction_values(f, scope)
    if isinstance(expr, GeneratorSet):
        check_coherent(expr)
        nonzero = any(v != 0 for v in values)
        return Tri.of(nonzero and fm_feasible(rebuilt_cone_program(expr, Gamble(scope, values))))
    if isinstance(expr, StrongProduct):
        for part in expr.parts:
            check_coherent(part)
        if all(isinstance(part, LexSystem) for part in expr.parts):
            return fraction_member(independent_product(expr.parts), f, budget=budget)
        if all(v <= 0 for v in values):
            return Tri.OUT
        if all(v >= 0 for v in values):
            return Tri.IN
        views = [credal_view(part, budget=budget) for part in expr.parts]
        price = fraction_strong_product_lower(views, Gamble(scope, values), budget=budget)
        return Tri.IN if price > 0 else Tri.OUT if price < 0 else Tri.UNKNOWN
    if isinstance(expr, LexSystem):
        for level in expr.levels:
            e = sum((p * v for p, v in zip(level, values)), _ZERO)
            if e != 0:
                return Tri.of(e > 0)
        return Tri.OUT
    if isinstance(expr, CellSet):
        nonzero = any(v != 0 for v in values)
        if expr.include_positive and nonzero and all(v >= 0 for v in values):
            return Tri.IN
        for cell in expr.cells:
            if cell.exclude_zero and not nonzero:
                continue
            if all(_fraction_holds(row, values) for row in cell.rows):
                return Tri.IN
        return Tri.OUT
    if isinstance(expr, Conditioned):
        masked = _fraction_mask(Gamble(scope, values), expr.given)
        return fraction_member(expr.base, masked, budget=budget)
    if isinstance(expr, IrrExt):
        if all(v == 0 for v in values):
            return Tri.OUT
        base_scope = scope_of(expr.base)
        kept = base_scope.union(expr.irrelevant)
        outcomes = list(zip(expr.target.assignments(), values))
        unknown = False
        for z in expr.irrelevant.assignments():
            piece = tuple([
                min([v for w, v in outcomes if w.restrict(kept) == z.union(x)])
                for x in base_scope.assignments()
            ])
            if all(v >= 0 for v in piece):
                continue
            verdict = fraction_member(expr.base, Gamble(base_scope, piece), budget=budget)
            if verdict is Tri.OUT:
                return Tri.OUT
            if verdict is Tri.UNKNOWN:
                unknown = True
        return Tri.UNKNOWN if unknown else Tri.IN
    if isinstance(expr, IndepProduct):
        f = Gamble(scope, values)
        divisor = math.gcd(*f.nums) or 1
        return _enumerated(expr, tuple([v // divisor for v in f.nums]), budget)
    return member(expr, Gamble(scope, values), budget=budget)


@functools.lru_cache(maxsize=None)
def _enumerated(expr: IndepProduct, nums: tuple[int, ...], budget: int) -> Tri:
    """``inex_member_enumerated`` on the primitive integer gamble ``nums``.

    Every product is a cone, so a gamble and its positive multiples share
    one verdict.  The scans ask many gambles more than once, and the
    enumeration solves one LP per signature, so each verdict is kept.
    """
    values = tuple([Fraction(v) for v in nums])
    return inex_member_enumerated(expr, Gamble(scope_of(expr), values), budget=budget)


def fraction_sample_gambles(
    scope: Scope, *, budget: int = 2000, seed: int = 0, lo: int = -3, hi: int = 3
) -> list[Gamble]:
    """``structure.sample_gambles`` with every value built as a Fraction."""
    total = (hi - lo + 1) ** scope.size
    if total <= budget:
        span = [Fraction(v) for v in range(lo, hi + 1)]
        return [Gamble(scope, values) for values in itertools.product(span, repeat=scope.size)]
    rng = random.Random(seed)
    return [
        Gamble(scope, tuple(Fraction(rng.randint(lo, hi)) for _ in range(scope.size)))
        for _ in range(budget)
    ]


def fraction_is_irrelevant(
    expr: DesirableSetExpr, irrelevant: Scope, onto: Scope, *, budget: int = 2000, seed: int = 0
) -> Verdict:
    """``is_irrelevant`` with Fraction masks and ``fraction_member``."""
    _check_budget(budget)
    full = scope_of(expr)
    if not irrelevant.issubset(full) or not onto.issubset(full):
        raise ScopeError("irrelevance scopes must be part of the expression scope")
    if not irrelevant.isdisjoint(onto):
        raise ScopeError("irrelevance scopes must be disjoint")
    if not irrelevant.variables or not onto.variables:
        return Verdict(True, "vacuous", 0, "an empty variable group is always irrelevant")
    joint = irrelevant.union(onto)
    checked = 0
    skipped = 0
    for f in fraction_sample_gambles(onto, budget=budget, seed=seed):
        plain = fraction_member(expr, f)
        if plain is Tri.UNKNOWN:
            skipped += 1
            continue
        lifted = Gamble(joint, fraction_values(f, joint))
        for at in irrelevant.assignments():
            masked = fraction_member(expr, _fraction_mask(lifted, at))
            if masked is Tri.UNKNOWN:
                skipped += 1
                continue
            checked += 1
            if plain is not masked:
                return Verdict(
                    False,
                    _scan_mode(onto, budget, -3, 3),
                    checked,
                    "membership changes after observing %s" % (at,),
                    (f, at),
                )
    detail = "%d membership pairs agree" % checked
    if skipped:
        detail += " (%d boundary queries skipped)" % skipped
    return Verdict(True, _scan_mode(onto, budget, -3, 3), checked, detail)


def fraction_is_independent(
    expr: DesirableSetExpr, blocks: Sequence[Scope], *, budget: int = 2000, seed: int = 0
) -> Verdict:
    """``is_independent`` over ``fraction_is_irrelevant``."""
    _check_budget(budget)
    if disjoint_union(blocks) != scope_of(expr):
        raise ScopeError("blocks must partition the expression scope")
    if len(blocks) <= 1:
        return Verdict(True, "vacuous", 0, "a single block is trivially independent")
    needed = 3 ** len(blocks) - 2 * 2 ** len(blocks) + 1
    if needed > PAIR_BUDGET:
        raise BudgetExceededError("independence scan needs %d irrelevance checks" % needed)
    total = 0
    mode = "exhaustive"
    for labels in itertools.product((0, 1, 2), repeat=len(blocks)):
        if not (1 in labels and 2 in labels):
            continue
        side_i = disjoint_union(b for k, b in zip(labels, blocks) if k == 1)
        side_o = disjoint_union(b for k, b in zip(labels, blocks) if k == 2)
        verdict = fraction_is_irrelevant(expr, side_i, side_o, budget=budget, seed=seed)
        total += verdict.checked
        if verdict.mode == "sampled":
            mode = "sampled"
        if not verdict.passed:
            return Verdict(
                False,
                verdict.mode,
                total,
                "%s fails for irrelevant=%r onto=%r"
                % (verdict.detail, side_i.names, side_o.names),
                verdict.counterexample,
            )
    return Verdict(True, mode, total, "%d membership pairs agree" % total)


def fraction_factorisation_check(
    expr: DesirableSetExpr, factor_scope: Scope, onto: Scope, *, budget: int = 60, seed: int = 0
) -> Verdict:
    """``factorisation_check`` with Fraction products and ``fraction_member``."""
    _check_budget(budget)
    full = scope_of(expr)
    if not factor_scope.issubset(full) or not onto.issubset(full):
        raise ScopeError("factorisation scopes must be part of the expression scope")
    if not factor_scope.isdisjoint(onto):
        raise ScopeError("factorisation scopes must be disjoint")
    members = [
        f
        for f in fraction_sample_gambles(onto, budget=budget * 4, seed=seed)
        if fraction_member(expr, f) is Tri.IN
    ][:budget]
    factors = [
        g
        for g in fraction_sample_gambles(factor_scope, budget=budget * 4, seed=seed + 1, lo=0, hi=3)
        if all(v >= 0 for v in g.values) and any(v != 0 for v in g.values)
    ][:budget]
    unit = Gamble(factor_scope, (_ONE,) * factor_scope.size)
    checked = 0
    for f in members:
        if fraction_member(expr, _fraction_product(f, unit)) is not Tri.IN:
            return Verdict(
                False, "sampled", checked, "member rejected after unit factor", (f, None)
            )
        checked += 1
        for g in factors:
            product = _fraction_product(f, g)
            if fraction_member(expr, product) is not Tri.IN:
                return Verdict(
                    False,
                    "sampled",
                    checked,
                    "member rejected after a positive factor",
                    (product, None),
                )
            checked += 1
    return Verdict(True, "sampled", checked, "%d factored members accepted" % checked)


def _product_mass(product: IndepProduct, joint: Scope) -> Optional[Gamble]:
    """The product of the marginals' support masses, on Fractions, as
    ``inex_member`` computed it on every call."""
    masses = [_support_mass(part) for part in product.parts]
    if any(m is None for m in masses):
        return None
    block_maps = [_restriction_map(joint, scope_of(part)) for part in product.parts]
    values = []
    for w in range(joint.size):
        v = _ONE
        for block_map, mass in zip(block_maps, masses):
            v *= mass[block_map[w]]
        values.append(v)
    return Gamble(joint, tuple(values))


# ---------------------------------------------------------------------------
# scans that query ``member`` with one gamble per query
# ---------------------------------------------------------------------------


def gamble_is_irrelevant(
    expr: DesirableSetExpr, irrelevant: Scope, onto: Scope, *, budget: int = 2000, seed: int = 0
) -> Verdict:
    """``is_irrelevant`` with each query a gamble on ``irrelevant ∪ onto``."""
    _check_budget(budget)
    full = scope_of(expr)
    if not irrelevant.issubset(full) or not onto.issubset(full):
        raise ScopeError("irrelevance scopes must be part of the expression scope")
    if not irrelevant.isdisjoint(onto):
        raise ScopeError("irrelevance scopes must be disjoint")
    if not irrelevant.variables or not onto.variables:
        return Verdict(True, "vacuous", 0, "an empty variable group is always irrelevant")
    joint = irrelevant.union(onto)
    size = joint.size
    masks = []
    for at in irrelevant.assignments():
        table = [size] * size
        for i in _slice_map(joint, at)[0]:
            table[i] = i
        masks.append((at, table))
    checked = 0
    skipped = 0
    for f in sample_gambles(onto, budget=budget, seed=seed):
        lifted = f.embed(joint)
        plain = member(expr, lifted)
        if plain is Tri.UNKNOWN:
            skipped += 1
            continue
        values = [*lifted.nums, 0]
        for at, table in masks:
            masked = member(
                expr, Gamble._from_ints(joint, tuple([values[i] for i in table]), lifted.den)
            )
            if masked is Tri.UNKNOWN:
                skipped += 1
                continue
            checked += 1
            if plain is not masked:
                return Verdict(
                    False,
                    _scan_mode(onto, budget, -3, 3),
                    checked,
                    "membership changes after observing %s" % (at,),
                    (f, at),
                )
    detail = "%d membership pairs agree" % checked
    if skipped:
        detail += " (%d boundary queries skipped)" % skipped
    return Verdict(True, _scan_mode(onto, budget, -3, 3), checked, detail)


def gamble_factorisation_check(
    expr: DesirableSetExpr, factor_scope: Scope, onto: Scope, *, budget: int = 60, seed: int = 0
) -> Verdict:
    """``factorisation_check`` with each query the gamble ``f * g``.

    Like the engine's scan, it stops sampling at the ``budget``-th member,
    and counts each member's unit factor without querying it again;
    ``fraction_factorisation_check`` still queries every sample and every
    unit factor, so the two references also show that neither changes a
    verdict.
    """
    _check_budget(budget)
    full = scope_of(expr)
    if not factor_scope.issubset(full) or not onto.issubset(full):
        raise ScopeError("factorisation scopes must be part of the expression scope")
    if not factor_scope.isdisjoint(onto):
        raise ScopeError("factorisation scopes must be disjoint")
    members = []
    for f in sample_gambles(onto, budget=budget * 4, seed=seed):
        if member(expr, f) is Tri.IN:
            members.append(f)
            if len(members) == budget:
                break
    factors = [
        g
        for g in sample_gambles(factor_scope, budget=budget * 4, seed=seed + 1, lo=0, hi=3)
        if g.is_positive()
    ][:budget]
    checked = 0
    for f in members:
        checked += 1
        for g in factors:
            if member(expr, f * g) is not Tri.IN:
                return Verdict(
                    False,
                    "sampled",
                    checked,
                    "member rejected after a positive factor",
                    (f * g, None),
                )
            checked += 1
    return Verdict(True, "sampled", checked, "%d factored members accepted" % checked)


# ---------------------------------------------------------------------------
# the independent joint lower prevision as a primal allocation program
# ---------------------------------------------------------------------------


def lower_expectation(credal: CredalSet, f: Gamble) -> Fraction:
    """Lower envelope ``min_v v . f`` over the vertices of ``credal``."""
    fitted = f.embed(credal.scope)
    return min(fitted.dot(p) for p in credal.vertices)



def inex_lower_prevision_primal(credals: Sequence[CredalSet], f: Gamble) -> Fraction:
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
    # Columns: the price ``t``, then per block its allocation ``h_n`` (one
    # per joint outcome) and its epigraph values ``s_n`` (one per slice).
    width = 1
    h_offset: list[int] = []
    s_offset: list[int] = []
    rests: list[Scope] = []
    for c in credals:
        rest = joint.difference(c.scope)
        rests.append(rest)
        h_offset.append(width)
        s_offset.append(width + size)
        width += size + rest.size
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
    outcome = solve(LinSystem(width, tuple(rows)), (1,) + (0,) * (width - 1))
    if isinstance(outcome, Optimal):
        return outcome.value
    raise EngineError(
        "the joint lower-prevision program must be bounded and feasible; got %s"
        % type(outcome).__name__
    )


# ---------------------------------------------------------------------------
# price programs rebuilt from Fractions on every price
# ---------------------------------------------------------------------------
#
# The bodies below are the engine's as they were before the joint-mass rows
# were compiled once per tuple of credal sets, cone rows were built from
# the gambles' ints and the strong scan ran on vertex ints.  The names they
# call differ: ``rebuilt_unit_rows`` for ``unit_rows``, which now returns a
# shared tuple, and ``rebuilt_cone_program`` for the rows that a generator
# set's price test now builds inline (``previsions._cone_sup``).  So does
# the way they hand ``solve`` an objective: as its argument, on ints, and
# maximised, so the joint-mass program maximises its negated objective.


def rebuilt_unit_rows(width: int, rel: str, start: int = 0) -> list[LinRow]:
    """One row ``x_j  rel  0`` over ``width`` variables for each ``j`` from
    ``start`` on: the sign rows of the package's LP builders."""
    return [
        LinRow(tuple([_ONE if i == j else _ZERO for i in range(width)]), rel, _ZERO)
        for j in range(start, width)
    ]


def rebuilt_cone_program(
    cone: GeneratorSet, value: Gamble, direction: Optional[Gamble] = None
) -> LinSystem:
    """The rows of the dominance program ``value + mu*direction >= sum_k lam_k g_k``.

    One unit row ``lam_k >= 0`` per generator weight comes first, then one
    row per outcome.  Without a direction the system is feasible exactly
    when ``value`` dominates a nonnegative combination of the generators.
    With one, the shift ``mu`` leads the variables, and
    ``rebuilt_generator_sup`` maximises it.
    """
    gens = cone.generators
    n = len(gens)
    lead = 0 if direction is None else 1
    rows = rebuilt_unit_rows(lead + n, GE, lead)
    columns = [g.values for g in gens]
    values = value.values
    shifts = None if direction is None else direction.values
    for w in range(cone.scope.size):
        shift = [] if shifts is None else [shifts[w]]
        rows.append(LinRow(tuple(shift + [-column[w] for column in columns]), GE, -values[w]))
    return LinSystem(lead + n, tuple(rows))


def rebuilt_generator_sup(
    cone: GeneratorSet, value: Gamble, direction: Gamble
) -> Optional[Fraction]:
    """LP supremum of ``{mu : value + mu*direction in E(cone)}``, priced
    from the sure price ``m0`` found on ``Fraction``s."""
    check_coherent(cone)
    m0 = min([v / -d for v, d in zip(value.values, direction.values) if d < 0],
             default=_ZERO)
    if m0:
        value = value + m0 * direction
    objective = (1,) + (0,) * len(cone.generators)
    outcome = solve(rebuilt_cone_program(cone, value, direction), objective)
    if isinstance(outcome, Optimal):
        return m0 + outcome.value
    return None


def rebuilt_inex_lower_prevision(credals: Sequence[CredalSet], f: Gamble) -> Fraction:
    """Most conservative independent joint lower prevision, evaluated at f,
    with the joint-mass program built and solved from scratch.

    * Columns: one ``lam[n, z, p] >= 0`` per block ``n``, assignment ``z``
      of the other blocks and vertex ``p`` of block ``n``; block ``n``'s
      mass at the joint outcome ``(k, z)`` is ``sum_p lam[n, z, p] * p[k]``.
    * Rows: block 0's columns sum to 1, and for each later block and each
      joint outcome its mass equals block 0's.
    * Objective: minimise ``f . mu`` with ``mu`` read from block 0, as the
      maximum of its negation scaled to ints.
    """
    if not credals:
        raise ScopeError("at least one marginal credal set is required")
    joint = disjoint_union(c.scope for c in credals)
    fitted = f.embed(joint).values
    # Per column, its block and the (joint index, mass) pairs it adds.
    columns: list[tuple[int, list[tuple[int, Fraction]]]] = []
    for n, c in enumerate(credals):
        for z in joint.difference(c.scope).assignments():
            cell_index = _slice_map(joint, z)[0]
            for p in c.vertices:
                columns.append((n, [(w, m) for w, m in zip(cell_index, p) if m]))
    width = len(columns)
    block0 = [j for j, (n, _) in enumerate(columns) if n == 0]
    objective = [_ZERO] * width
    unit_mass = [_ZERO] * width
    for j in block0:
        objective[j] = sum([fitted[w] * m for w, m in columns[j][1]], _ZERO)
        unit_mass[j] = _ONE
    rows = [LinRow(tuple(unit_mass), EQ, _ONE)]
    for n in range(1, len(credals)):
        balance = [[_ZERO] * width for _ in range(joint.size)]
        for j, (block, masses) in enumerate(columns):
            if block == n:
                for w, m in masses:
                    balance[w][j] = m
            elif block == 0:
                for w, m in masses:
                    balance[w][j] = -m
        rows.extend(LinRow(tuple(coeffs), EQ, _ZERO) for coeffs in balance)
    rows.extend(rebuilt_unit_rows(width, GE))
    ints, den = scaled_to_ints(objective)
    outcome = solve(LinSystem(width, tuple(rows)), tuple([-c for c in ints]))
    if isinstance(outcome, Optimal):
        return -outcome.value / den
    raise EngineError(
        "the joint-mass program must be bounded and feasible; got %s"
        % type(outcome).__name__
    )


def fraction_strong_product_lower(
    credals: Sequence[CredalSet], f: Gamble, *, budget: int = 100000
) -> Fraction:
    """Lower envelope over products of dominating linear previsions, by
    enumerating vertex combinations and multiplying ``Fraction``s."""
    if not credals:
        raise ScopeError("at least one marginal credal set is required")
    joint = disjoint_union(c.scope for c in credals)
    fitted = f.embed(joint).values
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
            weight = fitted[w]
            if weight == 0:
                continue
            for n, p in enumerate(combo):
                weight *= p[block_index[n][w]]
            total += weight
        if best is None or total < best:
            best = total
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# product membership by flat signature enumeration
# ---------------------------------------------------------------------------


# A branch row ``slice_coeffs . s + aux_coeffs . lam  rel  0`` on the slice
# ``s`` of one summand and the marginal's nonnegative auxiliary weights.
_Row = tuple[tuple[Fraction, ...], tuple[Fraction, ...], str]


def _unit(size: int, at: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if j == at else _ZERO for j in range(size))


def _leaf_branches(part: DesirableSetExpr) -> tuple[int, list[tuple[_Row, ...]]]:
    """The marginal's auxiliary weight count, and the sign patterns (branches)
    whose union is exactly (part's set) together with 0.

    Only a generator marginal has auxiliary weights, and it has exactly one
    branch, so a product's auxiliary columns do not depend on the signature.
    The marginal must have passed ``check_coherent``.
    """
    if isinstance(part, GeneratorSet):
        size = part.scope.size
        gens = part.generators
        rows = tuple(
            (_unit(size, w), tuple(-g.values[w] for g in gens), GE)
            for w in range(size)
        )
        return len(gens), [rows]
    if isinstance(part, LexSystem):
        branches = []
        levels = part.levels
        maximal = lex_is_maximal(part)
        for lead in range(len(levels)):
            rows = [(levels[i], (), EQ) for i in range(lead)]
            merged = maximal and lead == len(levels) - 1
            rows.append((levels[lead], (), GE if merged else GT))
            branches.append(tuple(rows))
        if not maximal:
            size = part.scope.size
            branches.append(tuple((_unit(size, w), (), EQ) for w in range(size)))
        return 0, branches
    if isinstance(part, CellSet):
        size = part.scope.size
        branches = []
        if part.include_positive:
            branches.append(tuple((_unit(size, w), (), GE) for w in range(size)))
        for cell in part.cells:
            branches.append(
                tuple((row.functional.values, (), row.rel) for row in cell.rows)
            )
        if not part.include_positive:
            branches.append(tuple((_unit(size, w), (), EQ) for w in range(size)))
        return 0, branches
    raise UnsupportedQueryError(
        "product membership needs leaf marginals (generators, cells, or lex)"
    )


def inex_member_enumerated(
    expr: DesirableSetExpr, h: Gamble, *, budget: int = 100000
) -> Tri:
    """Membership in an independent natural extension, by plain enumeration.

    The engine's former body of ``inex_member``: one strict LP per combined
    signature, in ``itertools.product`` order, with no pruning.
    ``independence.inex_member`` must give its verdict, its chain walks
    within their own bound.

    Collapsed (generator) products answer through the plain dispatcher.
    Products over cell or lexicographic marginals enumerate one sign
    pattern per (block, slice) pair and solve a feasibility problem per
    combined signature; ``budget`` caps the number of signatures.

    Each (block, slice) pair reads its joint indices from ``_slice_map``.
    The auxiliary columns do not depend on the signature, so every (block,
    slice, branch) row is built once per query, and a signature only joins
    its rows to the domination and auxiliary rows.
    """
    if not isinstance(expr, IndepProduct):
        return member(expr, h)
    for part in expr.parts:
        check_coherent(part)
    joint = scope_of(expr)
    h = h.embed(joint)
    if h.is_zero():
        return Tri.OUT
    if h.is_positive():
        return Tri.IN
    if h.is_nonpositive():
        return Tri.OUT
    mass = _product_mass(expr, joint)
    if mass is not None and h.dot(mass.values) < 0:
        return Tri.OUT

    parts = expr.parts
    # One entry per (block, slice) pair: block, joint indices of the slice,
    # auxiliary weight count and branches of the block's marginal.
    pairs: list[tuple[int, tuple[int, ...], int, list[tuple[_Row, ...]]]] = []
    for n, part in enumerate(parts):
        aux, branches = _leaf_branches(part)
        rest = joint.difference(scope_of(part))
        for z in rest.assignments():
            pairs.append((n, _slice_map(joint, z)[0], aux, branches))

    if math.prod(len(branches) for *_, branches in pairs) > budget:
        raise BudgetExceededError(
            "signature enumeration needs more than %d problems" % budget
        )

    size = joint.size
    block = len(parts) * size
    aux_total = sum(aux for _, _, aux, _ in pairs)
    width = block + aux_total
    fixed: list[LinRow] = []
    for w in range(size):
        coeffs = [_ZERO] * width
        for n in range(len(parts)):
            coeffs[n * size + w] = -_ONE
        fixed.append(LinRow(tuple(coeffs), GE, -h.values[w]))
    for j in range(aux_total):
        fixed.append(LinRow(_unit(width, block + j), GE, _ZERO))
    menu: list[list[list[LinRow]]] = []
    aux_offset = block
    for n, indices, aux, branches in pairs:
        options = []
        for branch in branches:
            rendered = []
            for slice_coeffs, aux_coeffs, rel in branch:
                coeffs = [_ZERO] * width
                for j, idx in enumerate(indices):
                    coeffs[n * size + idx] = slice_coeffs[j]
                for j, c in enumerate(aux_coeffs):
                    coeffs[aux_offset + j] = c
                rendered.append(LinRow(tuple(coeffs), rel, _ZERO))
            options.append(rendered)
        menu.append(options)
        aux_offset += aux

    for signature in itertools.product(*menu):
        rows = tuple(itertools.chain(fixed, *signature))
        outcome = strict_feasible(LinSystem(width, rows))
        if isinstance(outcome, Feasible):
            return Tri.IN
    return Tri.OUT


# ---------------------------------------------------------------------------
# certificate multipliers on Fractions
# ---------------------------------------------------------------------------


def original_multipliers(
    system: LinSystem, simplex: _Simplex, y_std: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Map the standardised-row multipliers of ``simplex``, built from
    ``system``, back to the rows of ``system``.

    Folded bound rows get the residual needed to cancel the coefficient of
    their nonnegative variable exactly.
    """
    lam = [_ZERO] * len(system.rows)
    for k, i in enumerate(simplex.row_orig):
        lam[i] = simplex.sigma[k] * y_std[k]
    for j, bound_row in simplex.bound_row_of.items():
        acc = _ZERO
        for i, row in enumerate(system.rows):
            if lam[i]:
                acc += lam[i] * row.coeffs[j]
        lam[bound_row] = -acc / system.rows[bound_row].coeffs[j]
    return tuple(lam)


# ---------------------------------------------------------------------------
# the simplex that starts every row on an artificial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unbounded:
    """The reference simplex's answer for an unbounded objective: an
    improving ray."""

    ray: tuple[Fraction, ...]


class _UnboundedSignal(Exception):
    def __init__(self, column: int):
        self.column = column


class ArtificialStartSimplex:
    """Two-phase tableau simplex on the weak rows of a system.

    Every tableau row, and the cost row, is a list of Python ints over one
    positive int denominator, kept in lowest terms.  A pivot scales each
    other row by the pivot entry and subtracts the pivot row on its nonzero
    columns only (see ``_eliminate``), so no rational is built or normalised
    inside the iteration.  Pricing and the ratio test compare ints directly:
    a row's shared positive denominator never changes a sign or, in the
    ratio ``rhs / entry``, survives at all.  ``Fraction``s appear only at the
    boundary: building the tableau, and reading points, rays and multipliers
    out of it.

    Free variables are split into positive and negative parts unless a row of
    the form ``c * x_j >= 0`` (single positive coefficient, zero rhs) lets the
    variable be folded into a single nonnegative column.  Folded rows do not
    enter the tableau; their certificate multipliers are reconstructed from
    the reduced costs afterwards.

    Multipliers are recovered on ints.  ``phase1`` and ``duals_phase2`` read
    int numerators over the cost row's one denominator, and the residual of
    each folded bound row is summed on the row ints that construction
    already computed with ``scaled_to_ints``.  One ``Fraction`` is built per
    nonzero multiplier.
    """

    def __init__(self, system: LinSystem):
        self.system = system
        n = system.n_vars
        self.bound_row_of: dict[int, int] = {}
        bound_scale: dict[int, Fraction] = {}
        tableau_rows: list[int] = []
        for i, row in enumerate(system.rows):
            j = self._simple_bound(row)
            if j is not None and j not in self.bound_row_of:
                self.bound_row_of[j] = i
                bound_scale[j] = row.coeffs[j]
            else:
                tableau_rows.append(i)
        self.bound_scale = bound_scale

        # Column layout: per variable either one folded column or a +/- pair,
        # then one surplus column per inequality row, then one artificial per
        # tableau row.  The last tableau entry of each row is the rhs.
        self.cols: list[tuple[str, int]] = []
        self.var_cols: list[tuple[int, Optional[int]]] = []
        for j in range(n):
            if j in self.bound_row_of:
                self.var_cols.append((self._add_col("xn", j), None))
            else:
                plus = self._add_col("x+", j)
                minus = self._add_col("x-", j)
                self.var_cols.append((plus, minus))

        self.row_orig: list[int] = []
        self.sigma: list[int] = []
        surplus_of: list[Optional[int]] = []
        for i in tableau_rows:
            row = system.rows[i]
            self.row_orig.append(i)
            self.sigma.append(1 if row.rhs >= 0 else -1)
            surplus_of.append(self._add_col("s", len(self.row_orig) - 1)
                              if row.rel == GE else None)
        self.art_col: list[int] = []
        for k in range(len(self.row_orig)):
            self.art_col.append(self._add_col("a", k))

        width = len(self.cols) + 1
        self.T: list[list[int]] = []
        self.den: list[int] = []
        # Each tableau row as given, for ``_original_multipliers``.
        self.row_ints: list[tuple[list[int], int]] = []
        for k, i in enumerate(self.row_orig):
            # The row over the lcm of its denominators, which leaves it in
            # lowest terms (the artificial column holds the denominator).
            row = system.rows[i]
            sig = self.sigma[k]
            ints, den = scaled_to_ints(row.coeffs + (row.rhs,))
            self.row_ints.append((ints, den))
            line = [0] * width
            for (plus, minus), v in zip(self.var_cols, ints):
                if not v:
                    continue
                line[plus] = sig * v
                if minus is not None:
                    line[minus] = -sig * v
            if surplus_of[k] is not None:
                line[surplus_of[k]] = -sig * den
            line[self.art_col[k]] = den
            line[-1] = sig * ints[-1]
            self.T.append(line)
            self.den.append(den)
        self.basis: list[int] = list(self.art_col)
        self.live: list[bool] = [True] * len(self.T)
        self._entering_allowed = [kind != "a" for kind, _ in self.cols]
        # The active cost row, over its own positive denominator.  Its last
        # slot holds the negated objective value and updates like any other.
        self.cost: list[int] = []
        self.cost_den = 1
        self.pivots = 0

    @staticmethod
    def _simple_bound(row: LinRow) -> Optional[int]:
        if row.rel != GE or row.rhs != 0:
            return None
        nz = [j for j, c in enumerate(row.coeffs) if c]
        if len(nz) == 1 and row.coeffs[nz[0]] > 0:
            return nz[0]
        return None

    def _add_col(self, kind: str, payload: int) -> int:
        self.cols.append((kind, payload))
        return len(self.cols) - 1

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, prow: int, pcol: int) -> None:
        T = self.T
        line = T[prow]
        if line[pcol] < 0:
            line = [-v for v in line]
        g = math.gcd(*line)
        if g != 1:
            line = [v // g for v in line]
        # The pivot row now reads line / line[pcol], which is 1 at pcol.
        T[prow] = line
        self.den[prow] = line[pcol]
        nz = [j for j, v in enumerate(line) if v]
        for r, other in enumerate(T):
            if r == prow or not self.live[r]:
                continue
            if other[pcol]:
                T[r], self.den[r] = _eliminate(other, self.den[r], line, nz, pcol)
        if self.cost[pcol]:
            self.cost, self.cost_den = _eliminate(self.cost, self.cost_den, line, nz, pcol)
        self.basis[prow] = pcol
        self.pivots += 1

    def _run(self, bland_after: int) -> None:
        """Minimise the cost row until no reduced cost is negative."""
        ncols = len(self.cols)
        allowed = self._entering_allowed
        iteration = 0
        while True:
            iteration += 1
            if iteration > _MAX_ITERATIONS:
                raise EngineError("simplex failed to terminate (engine bug)")
            cost = self.cost
            enter = -1
            if iteration > bland_after:
                for c in range(ncols):
                    if allowed[c] and cost[c] < 0:
                        enter = c
                        break
            else:
                best = 0
                for c in range(ncols):
                    if allowed[c] and cost[c] < best:
                        best = cost[c]
                        enter = c
            if enter < 0:
                return
            # Minimum ratio rhs / a over rows with a > 0; the row denominator
            # cancels, and rhs / a < rhs' / a' is compared as rhs * a' < rhs' * a.
            prow = -1
            best_rhs = best_a = 0
            for r, line in enumerate(self.T):
                if not self.live[r]:
                    continue
                a = line[enter]
                if a > 0:
                    rhs = line[-1]
                    if prow >= 0:
                        lhs, rhs_best = rhs * best_a, best_rhs * a
                        if not (lhs < rhs_best or (lhs == rhs_best
                                                   and self.basis[r] < self.basis[prow])):
                            continue
                    best_rhs, best_a = rhs, a
                    prow = r
            if prow < 0:
                raise _UnboundedSignal(enter)
            self._pivot(prow, enter)

    # -- phases -----------------------------------------------------------

    def phase1(self) -> Optional[tuple[Fraction, ...]]:
        """Returns None when feasible, else the Farkas multipliers."""
        ncols = len(self.cols)
        # Cost: minus the sum of the rows, zero on the artificial columns.
        den = math.lcm(*self.den)
        cost = [0] * (ncols + 1)
        for line, d in zip(self.T, self.den):
            scale = den // d
            for c, v in enumerate(line):
                if v:
                    cost[c] -= v * scale
        for c in self.art_col:
            cost[c] = 0
        g = math.gcd(den, *cost)
        self.cost = [v // g for v in cost]
        self.cost_den = den // g
        self._run(bland_after=200 + 10 * len(self.T))
        if self.cost[-1] < 0:
            den = self.cost_den
            ys = [den - self.cost[c] for c in self.art_col]
            return self._original_multipliers(ys, den)
        # Pivot out any artificial still basic (at level zero), dropping
        # redundant rows.
        for r in range(len(self.T)):
            if not self.live[r] or self.cols[self.basis[r]][0] != "a":
                continue
            done = False
            for c in range(ncols):
                if self._entering_allowed[c] and self.T[r][c] != 0:
                    self._pivot(r, c)
                    done = True
                    break
            if not done:
                self.live[r] = False
        return None

    def phase2(self, cost_min: Sequence[Fraction]) -> Optional[int]:
        """Minimise ``cost_min . x``; returns the entering column on unboundedness."""
        ncols = len(self.cols)
        q = [_ZERO] * (ncols + 1)
        for j, cj in enumerate(cost_min):
            if not cj:
                continue
            plus, minus = self.var_cols[j]
            q[plus] += cj
            if minus is not None:
                q[minus] -= cj
        cost, den = scaled_to_ints(q)
        # Price out the basis: each basic column reads den_r in its own row.
        for r, line in enumerate(self.T):
            if not self.live[r]:
                continue
            b = self.basis[r]
            if cost[b]:
                nz = [j for j, v in enumerate(line) if v]
                cost, den = _eliminate(cost, den, line, nz, b)
        self.cost, self.cost_den = cost, den
        try:
            self._run(bland_after=200 + 10 * len(self.T))
        except _UnboundedSignal as sig:
            return sig.column
        return None

    # -- extraction ---------------------------------------------------------

    def point(self) -> tuple[Fraction, ...]:
        level = {self.basis[r]: Fraction(self.T[r][-1], self.den[r])
                 for r in range(len(self.T)) if self.live[r]}
        out = []
        for plus, minus in self.var_cols:
            v = level.get(plus, _ZERO)
            if minus is not None:
                v -= level.get(minus, _ZERO)
            out.append(v)
        return tuple(out)

    def ray(self, enter: int) -> tuple[Fraction, ...]:
        d = {enter: _ONE}
        for r in range(len(self.T)):
            if self.live[r]:
                a = self.T[r][enter]
                if a:
                    d[self.basis[r]] = Fraction(-a, self.den[r])
        out = []
        for plus, minus in self.var_cols:
            v = d.get(plus, _ZERO)
            if minus is not None:
                v -= d.get(minus, _ZERO)
            out.append(v)
        return tuple(out)

    def duals_phase2(self) -> tuple[list[int], int]:
        """Optimal duals of the tableau rows, read off the final phase-2 costs,
        as int numerators over one positive denominator."""
        return [-self.cost[c] for c in self.art_col], self.cost_den

    def _original_multipliers(self, ys: Sequence[int], den: int) -> tuple[Fraction, ...]:
        """Map standardised-row multipliers ``ys / den`` back to original rows.

        Folded bound rows get the residual needed to cancel the coefficient of
        their nonnegative variable exactly.  The residual is summed on ints:
        each tableau row as given is ``ints / row_den`` (``row_ints``), so
        every used row is weighted onto the lcm of those denominators, and
        one ``Fraction`` is built per nonzero output entry.
        """
        lam = [_ZERO] * len(self.system.rows)
        used = []
        for k, y in enumerate(ys):
            if y and self.live[k]:
                y *= self.sigma[k]
                lam[self.row_orig[k]] = Fraction(y, den)
                used.append((y, self.row_ints[k]))
        common = math.lcm(*[row_den for _, (_, row_den) in used])
        weighted = [(y * (common // row_den), ints) for y, (ints, row_den) in used]
        for j, bound_row in self.bound_row_of.items():
            acc = 0
            for y, ints in weighted:
                if ints[j]:
                    acc += y * ints[j]
            if acc:
                scale = self.bound_scale[j]
                lam[bound_row] = Fraction(-acc * scale.denominator,
                                          den * common * scale.numerator)
        return tuple(lam)


def solve_artificial_start(
    system: LinSystem, objective: Optional[Sequence[int]] = None
) -> LPOutcome | Unbounded:
    """``exactlp.solve`` on ``ArtificialStartSimplex``, without the gates.

    The engine's simplex before it started from the slack basis: it folds
    only ``c * x_j >= 0`` bound rows and gives every tableau row an
    artificial.  The caller checks certificates against ``system``.
    """
    simplex = ArtificialStartSimplex(system)
    farkas = simplex.phase1()
    if farkas is not None:
        return Infeasible(farkas)
    if objective is None:
        return Feasible(simplex.point())
    enter = simplex.phase2(tuple([-c for c in objective]))
    if enter is not None:
        return Unbounded(simplex.ray(enter))
    witness = simplex.point()
    return Optimal(sum([c * x for c, x in zip(objective, witness)], _ZERO), witness)


# ---------------------------------------------------------------------------
# the eager model loader
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(
        self, variables: tuple[Variable, ...], raw_sets: Mapping[str, object]
    ) -> None:
        self.by_id = {v.name: v for v in variables}
        self.raw = raw_sets
        self.done: dict[str, DesirableSetExpr] = {}
        self.entries: dict[str, object] = {}
        self.visiting: list[str] = []

    # -- scopes and references ------------------------------------------

    def scope(self, raw: object, where: str) -> Scope:
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(i, str) for i in raw)
        ):
            raise ModelFormatError("%s: scope must be a list of variable ids" % where)
        missing = [i for i in raw if i not in self.by_id]
        if missing:
            raise ModelFormatError(
                "%s: unknown variable id %r" % (where, missing[0])
            )
        if len(set(raw)) != len(raw):
            raise ModelFormatError("%s: scope repeats a variable" % where)
        return Scope.of([self.by_id[i] for i in raw])

    def ref(self, name: object, where: str) -> DesirableSetExpr:
        if not isinstance(name, str):
            raise ModelFormatError("%s: set reference must be a string" % where)
        return self.resolve(name)

    def resolve(self, name: str) -> DesirableSetExpr:
        if name in self.done:
            return self.done[name]
        if name in self.visiting:
            raise ModelFormatError(
                "cyclic reference: %s" % " -> ".join(self.visiting + [name])
            )
        if name not in self.raw:
            raise ModelFormatError("reference to undeclared set %r" % name)
        payload = self.raw[name]
        if not isinstance(payload, dict):
            raise ModelFormatError("set %r must be an object" % name)
        self.visiting.append(name)
        try:
            expr, canonical = self.build(name, payload)
        except ModelFormatError:
            raise
        except ValueError as exc:
            # A payload the constructors reject (zero generator, bad masses,
            # scope or length mismatch) is a malformed document.
            raise ModelFormatError("set %r: %s" % (name, exc)) from None
        finally:
            self.visiting.pop()
        self.done[name] = expr
        self.entries[name] = canonical
        return expr

    # -- kinds ------------------------------------------------------------

    def build(
        self, name: str, payload: Mapping[str, object]
    ) -> tuple[DesirableSetExpr, object]:
        kind = _need(payload, "kind", "set %r" % name)
        where = "set %r" % name
        if kind == "generators":
            return self.build_generators(payload, where)
        if kind == "cells":
            return self.build_cells(payload, where)
        if kind == "lex":
            return self.build_lex(payload, where)
        if kind == "strict_from_credal":
            return self.build_strict(payload, where)
        if kind == "expr":
            return self.build_expr(payload, where)
        raise ModelFormatError("%s has unknown kind %r" % (where, kind))

    def build_generators(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[DesirableSetExpr, object]:
        scope = self.scope(_need(payload, "scope", where), where)
        raw_rows = _need(payload, "rows", where)
        if not isinstance(raw_rows, list):
            raise ModelFormatError("%s: 'rows' must be a list" % where)
        gambles = [
            Gamble.on(scope, _rational_list(row, "%s rows[%d]" % (where, k)))
            for k, row in enumerate(raw_rows)
        ]
        built = GeneratorSet.of(scope, gambles)
        canonical = {
            "kind": "generators",
            "scope": list(scope.names),
            "rows": [
                [format_rational(v) for v in g.values] for g in built.generators
            ],
        }
        return built, canonical

    def build_cells(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[DesirableSetExpr, object]:
        scope = self.scope(_need(payload, "scope", where), where)
        include_positive = payload.get("include_positive", False)
        if not isinstance(include_positive, bool):
            raise ModelFormatError("%s: 'include_positive' must be a boolean" % where)
        raw_cells = _need(payload, "cells", where)
        if not isinstance(raw_cells, list):
            raise ModelFormatError("%s: 'cells' must be a list" % where)
        cells = []
        for k, raw_cell in enumerate(raw_cells):
            cwhere = "%s cells[%d]" % (where, k)
            if not isinstance(raw_cell, dict):
                raise ModelFormatError("%s must be an object" % cwhere)
            exclude_zero = raw_cell.get("exclude_zero", False)
            if not isinstance(exclude_zero, bool):
                raise ModelFormatError("%s: 'exclude_zero' must be a boolean" % cwhere)
            raw_rows = _need(raw_cell, "rows", cwhere)
            if not isinstance(raw_rows, list):
                raise ModelFormatError("%s: 'rows' must be a list" % cwhere)
            rows = []
            for j, raw_row in enumerate(raw_rows):
                rwhere = "%s rows[%d]" % (cwhere, j)
                if not isinstance(raw_row, dict):
                    raise ModelFormatError("%s must be an object" % rwhere)
                functional = Gamble.on(
                    scope,
                    _rational_list(_need(raw_row, "functional", rwhere), rwhere),
                )
                rel = _rel_from_name(_need(raw_row, "rel", rwhere), rwhere)
                rows.append(CellRow(functional, rel))
            cells.append(Cell(tuple(rows), exclude_zero=exclude_zero))
        built = CellSet(scope, tuple(cells), include_positive=include_positive)
        canonical = {
            "kind": "cells",
            "scope": list(scope.names),
            "include_positive": include_positive,
            "cells": [
                {
                    "exclude_zero": cell.exclude_zero,
                    "rows": [
                        {
                            "functional": [
                                format_rational(v) for v in row.functional.values
                            ],
                            "rel": row.rel,
                        }
                        for row in cell.rows
                    ],
                }
                for cell in built.cells
            ],
        }
        return built, canonical

    def build_lex(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[DesirableSetExpr, object]:
        scope = self.scope(_need(payload, "scope", where), where)
        raw_levels = _need(payload, "levels", where)
        if not isinstance(raw_levels, list) or not raw_levels:
            raise ModelFormatError("%s: 'levels' must be a nonempty list" % where)
        levels = tuple(
            _rational_list(level, "%s levels[%d]" % (where, k))
            for k, level in enumerate(raw_levels)
        )
        built = LexSystem(scope, levels)
        canonical = {
            "kind": "lex",
            "scope": list(scope.names),
            "levels": [[format_rational(v) for v in level] for level in built.levels],
        }
        return built, canonical

    def build_strict(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[DesirableSetExpr, object]:
        scope = self.scope(_need(payload, "scope", where), where)
        raw_vertices = _need(payload, "vertices", where)
        if not isinstance(raw_vertices, list) or not raw_vertices:
            raise ModelFormatError("%s: 'vertices' must be a nonempty list" % where)
        vertices = tuple(
            _rational_list(v, "%s vertices[%d]" % (where, k))
            for k, v in enumerate(raw_vertices)
        )
        credal = CredalSet.of(scope, vertices)
        built = strictly_desirable(credal)
        canonical = {
            "kind": "strict_from_credal",
            "scope": list(scope.names),
            "vertices": [
                [format_rational(v) for v in vertex] for vertex in credal.vertices
            ],
        }
        return built, canonical

    # -- composite expressions ---------------------------------------------

    def build_expr(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[DesirableSetExpr, object]:
        op = _need(payload, "op", where)
        if op == "condition":
            base = self.ref(_need(payload, "of", where), where)
            raw_given = _need(payload, "given", where)
            if not isinstance(raw_given, dict):
                raise ModelFormatError(
                    "%s: 'given' must map variable ids to outcome labels" % where
                )
            given = _assignment(raw_given.items(), self.by_id)
            built = condition(base, given)
            canonical = {
                "kind": "expr",
                "op": "condition",
                "of": payload["of"],
                "given": {v.name: label for v, label in given.items},
            }
            return built, canonical
        if op == "cyl_ext":
            base = self.ref(_need(payload, "of", where), where)
            target = self.scope(_need(payload, "target", where), where)
            built = cyl_ext(base, target)
            canonical = {
                "kind": "expr",
                "op": "cyl_ext",
                "of": payload["of"],
                "target": list(target.names),
            }
            return built, canonical
        if op == "irr_ext":
            base = self.ref(_need(payload, "of", where), where)
            irrelevant = self.scope(_need(payload, "irrelevant", where), where)
            target = self.scope(_need(payload, "target", where), where)
            built = irrelevant_extension(base, irrelevant, target)
            canonical = {
                "kind": "expr",
                "op": "irr_ext",
                "of": payload["of"],
                "irrelevant": list(irrelevant.names),
                "target": list(target.names),
            }
            return built, canonical
        if op in ("inex", "strong"):
            raw_parts = _need(payload, "of", where)
            if not isinstance(raw_parts, list) or not raw_parts:
                raise ModelFormatError(
                    "%s: 'of' must be a nonempty list of set names" % where
                )
            parts = tuple(self.ref(p, where) for p in raw_parts)
            built = (
                independent_product(parts)
                if op == "inex"
                else StrongProduct(parts)
            )
            canonical = {
                "kind": "expr",
                "op": op,
                "of": list(raw_parts),
            }
            return built, canonical
        if op == "conditional_family":
            on = self.scope(_need(payload, "on", where), where)
            raw_table = _need(payload, "table", where)
            if not isinstance(raw_table, dict) or not raw_table:
                raise ModelFormatError(
                    "%s: 'table' must map assignments to set names" % where
                )
            entries = []
            canon_table: dict[str, object] = {}
            for key, ref_name in raw_table.items():
                at = parse_assignment(key, self.by_id)
                if str(at) in canon_table:
                    raise ModelFormatError(
                        "%s: table repeats the assignment %s" % (where, at)
                    )
                canon_table[str(at)] = ref_name
                entries.append((at, self.ref(ref_name, where)))
            entries.sort(key=lambda pair: str(pair[0]))
            built = ConditionalFamily(on, tuple(entries))
            canonical = {
                "kind": "expr",
                "op": "conditional_family",
                "on": list(on.names),
                "table": canon_table,
            }
            return built, canonical
        raise ModelFormatError("%s has unknown op %r" % (where, op))



def loads_eagerly(text: str) -> ModelDocument:
    """Parse and resolve a document, canonicalising every payload.

    A malformed document raises ``ModelFormatError``; when a set's
    constructor rejects its payload, the message names the set.
    """
    try:
        raw = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("invalid JSON: %s" % exc) from None
    if not isinstance(raw, dict):
        raise ModelFormatError("the document root must be an object")
    variables = _parse_variables(_need(raw, "variables", "document"))
    raw_sets = _need(raw, "sets", "document")
    if not isinstance(raw_sets, dict):
        raise ModelFormatError("'sets' must be an object of named sets")
    for name in raw_sets:
        if not isinstance(name, str) or not name:
            raise ModelFormatError("set names must be nonempty strings")
    resolver = _Resolver(variables, raw_sets)
    for name in raw_sets:
        resolver.resolve(name)
    sets = {name: resolver.done[name] for name in raw_sets}
    entries = {name: resolver.entries[name] for name in raw_sets}
    return ModelDocument(variables, sets, entries)
