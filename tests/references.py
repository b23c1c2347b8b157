"""Plain reference implementations that only the tests use.

Each one decides its question the direct way, independent of the engine's
fast paths, so a test can compare the two:

* ``fm_project`` / ``fm_feasible`` — Fourier-Motzkin elimination, an exact
  feasibility oracle for small systems that shares no code with the
  simplex;
* ``indicator`` and ``floor_onto`` — gambles built value by value, against
  which masks and extension slices are checked;
* ``strictly_prefers`` — strict preference as membership of a difference;
* ``irr_member`` — membership in the slice family behind an ``IrrExt``,
  with slices read by ``Gamble.slice_at`` rather than the node's slice
  table;
* ``inex_lower_prevision_primal`` — the independent joint lower prevision
  as the primal allocation program, the LP dual of the joint-mass program
  that ``previsions.inex_lower_prevision`` solves;
* ``inex_member_enumerated`` — product membership with one strict LP per
  combined signature, the flat enumeration that the pruned search in
  ``independence.inex_member`` replaced;
* ``original_multipliers`` — ``_Simplex._original_multipliers`` on
  ``Fraction``s, the reference for its int recovery.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

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
from desirability.desirable import DesirableSetExpr, IndepProduct, scope_of
from desirability.exactlp import (
    EQ,
    GE,
    GT,
    Feasible,
    LinRow,
    LinSystem,
    Optimal,
    _Simplex,
    solve,
    strict_feasible,
)
from desirability.independence import _Row, _leaf_branches, _product_mass, _unit
from desirability.space import Assignment, _restriction_map, _slice_map, disjoint_union

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


# ---------------------------------------------------------------------------
# membership questions asked through ``member``
# ---------------------------------------------------------------------------


def strictly_prefers(expr: DesirableSetExpr, f: Gamble, g: Gamble) -> Tri:
    """Is exchanging ``g`` for ``f`` strictly desirable, i.e. f - g in E?"""
    if f.scope != g.scope:
        raise ScopeError("compared gambles must share a scope")
    return member(expr, f - g)


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
# the independent joint lower prevision as a primal allocation program
# ---------------------------------------------------------------------------


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
    objective = tuple([_ONE if i == 0 else _ZERO for i in range(width)])
    outcome = solve(LinSystem(width, tuple(rows), objective, "max"))
    if isinstance(outcome, Optimal):
        return outcome.value
    raise EngineError(
        "the joint lower-prevision program must be bounded and feasible; got %s"
        % type(outcome).__name__
    )


# ---------------------------------------------------------------------------
# product membership by flat signature enumeration
# ---------------------------------------------------------------------------


def inex_member_enumerated(
    expr: DesirableSetExpr, h: Gamble, *, budget: int = 100000
) -> Tri:
    """Membership in an independent natural extension, by plain enumeration.

    The engine's former body of ``inex_member``: one strict LP per combined
    signature, in ``itertools.product`` order, with no pruning.  The search
    in ``independence.inex_member`` must give its verdict with at most as
    many LPs.

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
    simplex: _Simplex, y_std: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Map standardised-row multipliers back to original rows.

    Folded bound rows get the residual needed to cancel the coefficient of
    their nonnegative variable exactly.
    """
    lam = [_ZERO] * len(simplex.system.rows)
    for k, i in enumerate(simplex.row_orig):
        if simplex.live[k]:
            lam[i] = simplex.sigma[k] * y_std[k]
    for j, bound_row in simplex.bound_row_of.items():
        acc = _ZERO
        for i, row in enumerate(simplex.system.rows):
            if lam[i]:
                acc += lam[i] * row.coeffs[j]
        lam[bound_row] = -acc / simplex.bound_scale[j]
    return tuple(lam)
