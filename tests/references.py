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
  table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from desirability import BudgetExceededError, Gamble, IrrExt, Scope, ScopeError, Tri, member
from desirability.desirable import DesirableSetExpr, scope_of
from desirability.exactlp import EQ, GE, GT, LinRow, LinSystem
from desirability.space import Assignment, _restriction_map

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
