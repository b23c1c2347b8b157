"""Exact rational linear programming with self-verifying answers.

Answers and certificates are ``fractions.Fraction``s; a row (``LinRow``) is
held as ints over one positive denominator, which the package's builders
make straight from a gamble's ints, and an objective is a tuple of ints,
one per variable, that ``solve`` maximises.  Inside, the solver is a
two-phase tableau simplex on fraction-free rows (cf. Bareiss 1968, Edmonds
1967): each tableau row is a list of Python ints over one positive int
denominator, reduced by its gcd after every update, and a pivot touches
only the pivot row's nonzero columns.  Tableau rows start from the rows'
ints, and ``_eliminate`` makes every update: each pivot, and the cost row
of either phase, priced out over the basis the phase starts from;
``forward_eliminate`` applies the same step in input order, without pivot
search, for the rest of the package's exact linear algebra: lexicographic
rank and canonical form and credal vertex enumeration.  The simplex prices
with Dantzig's rule for speed and falls back to Bland's rule after a fixed
number of pivots, which guarantees termination under exact arithmetic.

The simplex starts as close to the slack basis as the input allows.  A
one-variable lower bound ``c * x_j >= r`` (``c > 0``, any ``r``) is folded
into the variable by the substitution ``x_j = r/c + x'_j``, so it never
becomes a tableau row, and a ``>=`` row that the shifted origin satisfies
strictly starts basic on its own surplus.  Only the remaining rows get an
artificial, and phase 1 minimises their sum alone.  The artificials are
the last columns, and a row that phase 1 finds redundant stays in the
tableau as a zero row on its artificial.

A linear program is its rows: phase 1 reads no objective, so every system
keeps the tableau its first solve's phase 1 leaves (``LinSystem._phase1``),
and each solve with an objective copies it and runs phase 2 alone.  A
program priced under many objectives runs phase 1 once:
``previsions.inex_lower_prevision`` keeps its joint-mass rows once per
tuple of credal sets.  Generator-cone prices change the right-hand sides
with the gamble, so each builds its own rows, sharing the unit rows
(``unit_rows``, built once per shape) and the cone's generator ints.
Every solve still enters through ``solve`` and passes the gates.

Every answer is re-checked by substitution before it is returned:

* ``Feasible`` carries a point satisfying every row;
* ``Optimal`` carries a point achieving the reported value;
* ``Infeasible`` carries a combination of rows that contradicts itself
  (nonnegative multipliers on inequality rows, any sign on equalities).

The gates (``verify_point``, ``verify_farkas``) decide the
exact rational predicate on Python ints: each point or multiplier vector is
scaled once by the lcm of its denominators (``_gate_ints``), and each row
is read as it is held, ints over its own denominator.  The factors are
positive, so no sign and no equality changes.  The gates share no code
with the simplex, so a scaling fault in one cannot hide a fault in the
other.

An objective must be bounded above on its rows: an improving column with
no ratio row raises ``EngineError``.  Each caller's is:
``previsions._generator_sup`` maximises the shift behind the coherence
gate, whose positive mass bounds it; ``previsions.inex_lower_prevision``
maximises ``-(f . mu)`` over masses in the simplex; ``_strict_slack``
maximises a gap capped by ``eps <= 1``; ``fixtures._gap_programs``
weights ``u + v`` positively under ``u + v <= h``.

Strict inequalities are not handled by ``solve`` directly; ``strict_feasible``
reduces them exactly, either by homogenisation (replace ``> 0`` by ``>= 1``
when every right-hand side is zero) or by maximising a slack bounded by 1 and
testing whether the optimum is positive.  The input decides which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .errors import DimensionMismatchError, EngineError, ExactnessError
from .space import CACHE_MAXSIZE

GE = ">="
EQ = "="
GT = ">"

_ALL_RELS = (GE, EQ, GT)

_ZERO = Fraction(0)

# Pricing rounds one ``_Simplex._run`` may take before it gives up.  Bland's
# rule terminates, so reaching the cap means an engine bug.
_MAX_ITERATIONS = 100000


@dataclass(frozen=True, init=False)
class LinRow:
    """One linear constraint ``coeffs . x  rel  rhs``.

    A row is held as ints: ``nums`` lists the coefficient numerators and
    then the rhs numerator, over one positive denominator ``den``, in
    lowest terms (no prime divides ``den`` and every numerator).  That form
    is unique, so equality and hashing read it.  The simplex and the gates
    read these ints as they are; ``coeffs`` and ``rhs`` give the same
    values as ``Fraction``s, ``coeffs`` made on first read unless the row
    was built from them.

    ``LinRow(coeffs, rel, rhs)`` takes ``Fraction``s only and computes the
    ints in the sweep that checks them.  The package's LP builders, which
    start from a gamble's ints, use ``_from_ints`` and build no
    ``Fraction``.  A row does not evaluate itself: the gates
    ``verify_point`` and ``verify_farkas`` check points and multipliers
    against rows.

    The builders make ``nums`` with ``tuple([...])``, not from a generator:
    CPython sizes a tuple built from a generator by resizing, and on
    release files it under its final size in a per-size free list that
    only a full garbage collection empties.  The integer simplex allocates
    too few tracked objects to trigger one often, so rows built from
    generators would hold a few MB of free-listed tuples for good.
    """

    nums: tuple[int, ...]
    den: int
    rel: str

    def __init__(self, coeffs: Sequence[Fraction], rel: str, rhs: Fraction) -> None:
        if rel not in _ALL_RELS:
            raise ValueError("unknown relation %r" % (rel,))
        if not isinstance(rhs, Fraction):
            raise ExactnessError("row rhs must be a Fraction, got %r" % (rhs,))
        coeffs = tuple(coeffs)
        den = rhs.denominator
        for c in coeffs:
            if not isinstance(c, Fraction):
                raise ExactnessError("row coefficients must be Fractions")
            d = c.denominator
            if den % d:
                den = den // math.gcd(den, d) * d
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        nums.append(rhs.numerator * (den // rhs.denominator))
        _fill(self, tuple(nums), den, rel)
        self.__dict__["coeffs"] = coeffs

    @staticmethod
    def _from_ints(nums: tuple[int, ...], rel: str, den: int = 1) -> "LinRow":
        """The row ``nums[:-1] / den . x  rel  nums[-1] / den``, brought to
        lowest terms.  Internal and unchecked: ``nums`` are ints, ``den`` is
        a positive int and ``rel`` is a relation."""
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = tuple([v // g for v in nums])
                den //= g
        row = object.__new__(LinRow)
        _fill(row, nums, den, rel)
        return row

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(v, den) if v else _ZERO for v in self.nums[:-1]])

    @property
    def rhs(self) -> Fraction:
        v = self.nums[-1]
        return Fraction(v, self.den) if v else _ZERO


def _fill(row: LinRow, nums: tuple[int, ...], den: int, rel: str) -> None:
    fields = row.__dict__
    fields["nums"] = nums
    fields["den"] = den
    fields["rel"] = rel


@dataclass(frozen=True)
class LinSystem:
    """A finite list of rows over ``n_vars`` variables.

    Each ``LinRow`` has checked its own relation, rhs and coefficients, so a
    system checks only that every row has ``n_vars`` of them.  The
    objective is not part of the system but an argument of ``solve``.

    Phase 1 reads the rows alone, so a system runs it once, on its first
    solve, and keeps the tableau it leaves (``_phase1``).  Each solve with
    an objective copies that tableau and runs phase 2 alone.
    """

    n_vars: int
    rows: tuple[LinRow, ...]

    def __post_init__(self) -> None:
        want = self.n_vars + 1
        for k, row in enumerate(self.rows):
            if len(row.nums) != want:
                raise DimensionMismatchError(
                    "row %d has %d coefficients, expected %d"
                    % (k, len(row.nums) - 1, self.n_vars)
                )

    @cached_property
    def _phase1(self) -> tuple["_Simplex", Optional[tuple[Fraction, ...]]]:
        """The simplex after phase 1 and, when infeasible, the Farkas
        multipliers, computed once.  The kept simplex holds no reference
        back to this system, so the two form no cycle for the garbage
        collector to find, and drops the phase-1 cost row, which phase 2
        replaces."""
        simplex = _Simplex(self)
        farkas = simplex.phase1()
        simplex.system = None
        simplex.cost = []
        return simplex, farkas


@lru_cache(maxsize=CACHE_MAXSIZE)
def unit_rows(width: int, rel: str, start: int = 0) -> tuple[LinRow, ...]:
    """One row ``x_j  rel  0`` over ``width`` variables for each ``j`` from
    ``start`` on: the sign rows of the package's LP builders.  Built once
    per shape and shared by every program that has it."""
    return tuple([
        LinRow._from_ints(tuple([int(i == j) for i in range(width)] + [0]), rel)
        for j in range(start, width)
    ])


@dataclass(frozen=True)
class Feasible:
    witness: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    farkas: tuple[Fraction, ...]


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    witness: tuple[Fraction, ...]


LPOutcome = Union[Feasible, Infeasible, Optimal]


def _gate_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm ``s`` of their denominators, as ints, and ``s``.

    The gates' own scaling of points and multipliers.  It is kept apart
    from ``scaled_to_ints``, the simplex's, so that a scaling fault in one
    cannot hide a fault in the other.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def verify_point(system: LinSystem, point: Sequence[Fraction]) -> bool:
    """Substitution check: does ``point`` satisfy every row?

    The point is scaled once by the lcm ``D`` of its denominators, giving
    ints ``P_j = x_j * D``.  Each row is read as it is held: ints ``C_j``
    and ``R`` over its positive denominator ``S``, so ``c_j = C_j / S`` and
    ``rhs = R / S``.  The row ``c . x  rel  rhs`` is then decided as
    ``sum_j C_j P_j  rel  R * D`` on ints.  ``S * D`` is positive, so the
    predicate is unchanged, strict rows included.  A point of the wrong
    length fails.
    """
    if len(point) != system.n_vars:
        return False
    xs, xden = _gate_ints(point)
    nz = [(j, x) for j, x in enumerate(xs) if x]
    for row in system.rows:
        scaled = row.nums
        lhs = 0
        for j, x in nz:
            lhs += scaled[j] * x
        rhs = scaled[-1] * xden
        if row.rel == GE:
            ok = lhs >= rhs
        elif row.rel == EQ:
            ok = lhs == rhs
        else:
            ok = lhs > rhs
        if not ok:
            return False
    return True


def verify_farkas(system: LinSystem, farkas: Sequence[Fraction]) -> bool:
    """Substitution check for an infeasibility certificate.

    The multipliers must be nonnegative on inequality rows, combine the
    coefficient vectors to zero, and yield either a positive combined
    right-hand side or a zero one with positive mass on strict rows.

    The signs are checked on the multipliers scaled once by the lcm of
    their denominators.  Each row with a nonzero multiplier is read as it
    is held, ints over its own positive denominator, and weighted onto the
    lcm of those denominators, so the combination, its rhs and the strict
    mass are summed on ints.  Every factor is positive: no sign and no zero
    changes, and the predicate is unchanged.  A multiplier vector of the
    wrong length fails.
    """
    rows = system.rows
    if len(farkas) != len(rows):
        return False
    lams, _ = _gate_ints(farkas)
    used = []
    for lam, row in zip(lams, rows):
        if row.rel != EQ and lam < 0:
            return False
        if lam:
            used.append((lam, row.rel, row.nums, row.den))
    den = math.lcm(*[row_den for _, _, _, row_den in used])
    combined = [0] * (system.n_vars + 1)
    strict_mass = 0
    for lam, rel, scaled, row_den in used:
        weight = lam * (den // row_den)
        for j, c in enumerate(scaled):
            if c:
                combined[j] += weight * c
        if rel == GT:
            strict_mass += lam
    combined_rhs = combined.pop()
    if any(combined):
        return False
    return combined_rhs > 0 or (combined_rhs == 0 and strict_mass > 0)


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------


def scaled_to_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm ``den`` of their denominators, as ints, and ``den``.

    The result is in lowest terms: no prime divides ``den`` and every int.
    ``den`` is positive, so a dot product with the ints has the sign of the
    same dot product with ``values``.  Ints pass through, as rationals over 1.
    """
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def _eliminate(
    row: list[int], den: int, prow: list[int], nz: Sequence[int], pcol: int
) -> tuple[list[int], int]:
    """Clear column ``pcol`` of ``row / den`` with the pivot row ``prow / a``.

    ``a = prow[pcol]`` must be positive and ``nz`` must list the columns where
    ``prow`` is nonzero.  The update is ``(row * a - c * prow) / (den * a)``
    with ``c = row[pcol]``; only the columns in ``nz`` are subtracted, and the
    result is returned in lowest terms with a positive denominator.
    """
    a = prow[pcol]
    c = row[pcol]
    out = [v * a for v in row] if a != 1 else list(row)
    for j in nz:
        out[j] -= c * prow[j]
    den *= a
    g = math.gcd(den, *out)
    if g != 1:
        out = [v // g for v in out]
        den //= g
    return out, den


def forward_eliminate(rows: Sequence[Sequence[Fraction]]) -> list[tuple[list[int], int]]:
    """In-order, fraction-free forward elimination of ``rows``.

    Each row is scaled to ints by ``scaled_to_ints`` and cleared, with
    ``_eliminate``, at the pivot columns of the rows kept before it, in the
    order they were kept.  It is kept when something is left, with its first
    nonzero column as its pivot.  Kept rows are never reduced by later ones,
    so this is an echelon form up to column order, not the reduced one.

    Returns ``(ints, pivot)`` per kept row, in input order.  ``ints`` is a
    positive multiple of the row as eliminated, so its signs are exact; it
    is zero at the pivots of the rows kept before it.  The kept rows number
    the rank of ``rows``.  The simplex pivots with the same ``_eliminate``;
    lexicographic rank and canonical form (``maximal``) and credal vertex
    enumeration (``previsions``) call this routine.
    """
    kept: list[tuple[list[int], int]] = []
    pivots: list[tuple[list[int], list[int], int]] = []
    for values in rows:
        row, den = scaled_to_ints(values)
        for prow, nz, pcol in pivots:
            if row[pcol]:
                row, den = _eliminate(row, den, prow, nz, pcol)
        pcol = next((j for j, v in enumerate(row) if v), -1)
        if pcol < 0:
            continue
        kept.append((row, pcol))
        prow = row if row[pcol] > 0 else [-v for v in row]
        pivots.append((prow, [j for j, v in enumerate(prow) if v], pcol))
    return kept


class _Simplex:
    """Two-phase tableau simplex on the weak rows of a system, started from
    the slack basis wherever the origin allows.

    Every tableau row, and the cost row, is a list of Python ints over one
    positive int denominator, kept in lowest terms.  A pivot scales each
    other row by the pivot entry and subtracts the pivot row on its nonzero
    columns only (see ``_eliminate``), so no rational is built or normalised
    inside the iteration.  Pricing and the ratio test compare ints directly:
    a row's shared positive denominator never changes a sign or, in the
    ratio ``rhs / entry``, survives at all.  Tableau rows start from the
    rows' own ints and the cost row from the objective's, so ``Fraction``s
    appear only at the boundary: the shifts of folded bounds, and reading
    points and multipliers out of the tableau.

    The first row of the form ``c * x_j >= r`` (one positive coefficient)
    for a variable folds it: ``x_j = r/c + x'_j`` with ``x'_j >= 0`` becomes
    one nonnegative column, and every tableau row gives up ``a_j * r/c``
    from its right-hand side.  Other variables are split into positive and
    negative parts.  Folded rows do not enter the tableau; ``point`` adds
    the shifts back, and their certificate multipliers are reconstructed
    from the reduced costs afterwards.

    The columns are index ranges: the variable columns (``var_cols``), one
    surplus per ``>=`` tableau row, and from ``first_artificial`` to
    ``ncols`` the artificials, which never enter; the rhs comes last.  Each
    tableau row starts on one unit column (``unit_col``): a ``>=`` row whose
    shifted right-hand side is negative holds at the origin, so it is
    negated and starts on its surplus, and every other row on an
    artificial.  Both phases price their column costs out over the basis
    (``_price``): phase 1 costs 1 on each artificial, phase 2 the
    objective.  An artificial that phase 1 cannot pivot out stays basic at
    level zero on a redundant row, zero on every column that may enter: no
    pivot or ratio test touches the row, and its unit column keeps a
    reduced cost of 0, so its multiplier is 0.  Farkas multipliers and
    phase-2 duals are read from the reduced costs of the starting unit
    columns.

    Multipliers are recovered on ints.  ``phase1`` and ``duals_phase2`` read
    int numerators over the cost row's one denominator, and the residual of
    each folded bound row is summed on the tableau rows' starting ints
    (``row_ints``).  One ``Fraction`` is built per nonzero multiplier.

    ``copy`` gives a tableau of its own to each solve that starts from the
    phase 1 a system keeps (``LinSystem._phase1``).
    """

    def __init__(self, system: LinSystem):
        self.system = system
        n = system.n_vars
        self.bound_row_of: dict[int, int] = {}
        tableau_rows: list[int] = []
        for i, row in enumerate(system.rows):
            j = self._simple_bound(row)
            if j is not None and j not in self.bound_row_of:
                self.bound_row_of[j] = i
            else:
                tableau_rows.append(i)
        # The nonzero lower bounds ``r / c`` of the folded variables; the
        # row's denominator cancels.
        self.shift: dict[int, Fraction] = {}
        for j, i in self.bound_row_of.items():
            nums = system.rows[i].nums
            if nums[-1]:
                self.shift[j] = Fraction(nums[-1], nums[j])
        shifts = [(j, l.numerator, l.denominator) for j, l in self.shift.items()]

        # Per variable either one folded column or a +/- pair.
        self.var_cols: list[tuple[int, Optional[int]]] = []
        col = 0
        for j in range(n):
            folded = j in self.bound_row_of
            self.var_cols.append((col, None if folded else col + 1))
            col += 1 if folded else 2

        self.row_orig: list[int] = []
        self.sigma: list[int] = []
        # Each tableau row with its rhs shifted, as ints over one positive
        # denominator in lowest terms: the row's own ints where no shift
        # applies.  ``_original_multipliers`` reads the coefficients.
        self.row_ints: list[tuple[Sequence[int], int]] = []
        surplus_of: list[Optional[int]] = []
        for i in tableau_rows:
            row = system.rows[i]
            ints, den = row.nums, row.den
            if shifts:
                # rhs - sum_j a_j * p_j / q_j, over the lcm ``q`` of the q_j used.
                q = math.lcm(*[sq for j, _, sq in shifts if ints[j]])
                give = sum([ints[j] * p * (q // sq) for j, p, sq in shifts if ints[j]])
                if give:
                    ints = [v * q for v in ints] if q != 1 else list(ints)
                    den *= q
                    ints[-1] -= give
                    g = math.gcd(den, *ints)
                    if g != 1:
                        ints = [v // g for v in ints]
                        den //= g
            self.row_orig.append(i)
            self.row_ints.append((ints, den))
            self.sigma.append(1 if ints[-1] >= 0 else -1)
            if row.rel == GE:
                surplus_of.append(col)
                col += 1
            else:
                surplus_of.append(None)
        # The column each row starts basic on: its surplus where the origin
        # satisfies a ``>=`` row strictly, else a new artificial.  A row with
        # rhs zero keeps its artificial: a surplus start there is feasible
        # too, but gives other Farkas vectors, and on product membership,
        # whose chain moves are read from them, more LPs.
        self.first_artificial = col
        self.unit_col: list[int] = []
        for k, surplus in enumerate(surplus_of):
            if surplus is not None and self.sigma[k] < 0:
                self.unit_col.append(surplus)
            else:
                self.unit_col.append(col)
                col += 1
        self.ncols = col

        width = col + 1
        self.T: list[list[int]] = []
        self.den: list[int] = []
        for k, (ints, den) in enumerate(self.row_ints):
            sig = self.sigma[k]
            line = [0] * width
            for (plus, minus), v in zip(self.var_cols, ints):
                if not v:
                    continue
                line[plus] = sig * v
                if minus is not None:
                    line[minus] = -sig * v
            if surplus_of[k] is not None:
                line[surplus_of[k]] = -sig * den
            line[self.unit_col[k]] = den
            line[-1] = sig * ints[-1]
            self.T.append(line)
            self.den.append(den)
        self.basis: list[int] = list(self.unit_col)
        # The active cost row, over its own positive denominator.  Its last
        # slot holds the negated objective value and updates like any other.
        self.cost: list[int] = []
        self.cost_den = 1
        self.pivots = 0

    @staticmethod
    def _simple_bound(row: LinRow) -> Optional[int]:
        """The variable of a ``c * x_j >= r`` row with ``c > 0``, else None."""
        if row.rel != GE:
            return None
        nums = row.nums
        j = -1
        for k in range(len(nums) - 1):
            if nums[k]:
                if j >= 0:
                    return None
                j = k
        return j if j >= 0 and nums[j] > 0 else None

    def copy(self, system: LinSystem) -> "_Simplex":
        """This simplex for ``system``, whose rows it was built from, on a
        tableau of its own.  Pivots replace tableau rows and never change
        one in place, so copying the outer lists is enough."""
        twin = object.__new__(_Simplex)
        twin.__dict__.update(self.__dict__)
        twin.system = system
        twin.T = list(self.T)
        twin.den = list(self.den)
        twin.basis = list(self.basis)
        return twin

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
            if r != prow and other[pcol]:
                T[r], self.den[r] = _eliminate(other, self.den[r], line, nz, pcol)
        if self.cost[pcol]:
            self.cost, self.cost_den = _eliminate(self.cost, self.cost_den, line, nz, pcol)
        self.basis[prow] = pcol
        self.pivots += 1

    def _price(self, cost: list[int]) -> None:
        """Make the column costs ``cost`` (ints, with a 0 rhs slot) the cost
        row, priced out over the basis: each basic column reads ``den_r`` in
        its own row and 0 in every other."""
        den = 1
        for line, b in zip(self.T, self.basis):
            if cost[b]:
                nz = [j for j, v in enumerate(line) if v]
                cost, den = _eliminate(cost, den, line, nz, b)
        self.cost, self.cost_den = cost, den

    def _run(self, bland_after: int) -> None:
        """Minimise the cost row until no reduced cost is negative."""
        enterable = range(self.first_artificial)
        iteration = 0
        while True:
            iteration += 1
            if iteration > _MAX_ITERATIONS:
                raise EngineError("simplex failed to terminate (engine bug)")
            cost = self.cost
            enter = -1
            if iteration > bland_after:
                for c in enterable:
                    if cost[c] < 0:
                        enter = c
                        break
            else:
                best = 0
                for c in enterable:
                    if cost[c] < best:
                        best = cost[c]
                        enter = c
            if enter < 0:
                return
            # Minimum ratio rhs / a over rows with a > 0; the row denominator
            # cancels, and rhs / a < rhs' / a' is compared as rhs * a' < rhs' * a.
            prow = -1
            best_rhs = best_a = 0
            for r, line in enumerate(self.T):
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
                raise EngineError("unbounded program: no ratio row (engine bug)")
            self._pivot(prow, enter)

    # -- phases -----------------------------------------------------------

    def phase1(self) -> Optional[tuple[Fraction, ...]]:
        """Returns None when feasible, else the Farkas multipliers."""
        first = self.first_artificial
        if first == self.ncols:
            return None
        self._price([0] * first + [1] * (self.ncols - first) + [0])
        self._run(bland_after=200 + 10 * len(self.T))
        if self.cost[-1] < 0:
            # A row's multiplier is its unit column's phase-1 cost (1 on an
            # artificial, 0 on a surplus) less that column's reduced cost.
            den = self.cost_den
            ys = [(den if c >= first else 0) - self.cost[c] for c in self.unit_col]
            return self._original_multipliers(ys, den)
        # Pivot out each artificial still basic (at level zero).  One whose
        # row is zero below ``first_artificial`` stays, on a redundant row.
        for r, b in enumerate(self.basis):
            if b >= first:
                line = self.T[r]
                c = next((c for c in range(first) if line[c]), -1)
                if c >= 0:
                    self._pivot(r, c)
        return None

    def phase2(self, cost_min: Sequence[int]) -> None:
        """Minimise ``cost_min . x``, which must be bounded below."""
        cost = [0] * (self.ncols + 1)
        for j, cj in enumerate(cost_min):
            if not cj:
                continue
            plus, minus = self.var_cols[j]
            cost[plus] += cj
            if minus is not None:
                cost[minus] -= cj
        self._price(cost)
        self._run(bland_after=200 + 10 * len(self.T))

    # -- extraction ---------------------------------------------------------

    def point(self) -> tuple[Fraction, ...]:
        level = {b: Fraction(line[-1], d)
                 for line, b, d in zip(self.T, self.basis, self.den)}
        out = []
        for plus, minus in self.var_cols:
            v = level.get(plus, _ZERO)
            if minus is not None:
                v -= level.get(minus, _ZERO)
            out.append(v)
        for j, l in self.shift.items():
            out[j] += l
        return tuple(out)

    def duals_phase2(self) -> tuple[list[int], int]:
        """Optimal duals of the tableau rows, read off the final phase-2 costs
        of their starting unit columns (cost 0 in phase 2), as int numerators
        over one positive denominator."""
        return [-self.cost[c] for c in self.unit_col], self.cost_den

    def _original_multipliers(self, ys: Sequence[int], den: int) -> tuple[Fraction, ...]:
        """Map standardised-row multipliers ``ys / den`` back to original rows.

        Folded bound rows get the residual needed to cancel the coefficient of
        their nonnegative variable exactly.  The residual is summed on ints:
        each tableau row as given is ``ints / row_den`` (``row_ints``), so
        every used row is weighted onto the lcm of those denominators, and
        one ``Fraction`` is built per nonzero output entry.  The bound row
        ``c * x_j >= r`` then takes ``-residual / c``, with ``c`` read from
        its own ints.
        """
        lam = [_ZERO] * len(self.system.rows)
        used = []
        for k, y in enumerate(ys):
            if y:
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
                row = self.system.rows[bound_row]
                lam[bound_row] = Fraction(-acc * row.den, den * common * row.nums[j])
        return tuple(lam)


def _engine_check(ok: bool, what: str) -> None:
    if not ok:
        raise EngineError("exactlp self-verification failed: %s (engine bug)" % what)


def _solve_engine(
    system: LinSystem, objective: Optional[Sequence[int]] = None
) -> tuple[LPOutcome, _Simplex]:
    for row in system.rows:
        if row.rel == GT:
            raise ValueError("solve handles weak rows only; use strict_feasible")
    if objective is not None:
        if len(objective) != system.n_vars:
            raise DimensionMismatchError(
                "objective has %d coefficients, expected %d"
                % (len(objective), system.n_vars)
            )
        for c in objective:
            if type(c) is not int:
                raise ExactnessError("objective must hold ints, got %r" % (c,))

    start, farkas = system._phase1
    if farkas is not None:
        _engine_check(verify_farkas(system, farkas), "farkas")
        return Infeasible(farkas), start
    if objective is None:
        witness = start.point()
        _engine_check(verify_point(system, witness), "feasible point")
        return Feasible(witness), start

    simplex = start.copy(system)
    simplex.phase2([-c for c in objective])
    witness = simplex.point()
    _engine_check(verify_point(system, witness), "optimal point")
    point, point_den = scaled_to_ints(witness)
    value = Fraction(sum([c * x for c, x in zip(objective, point) if c]), point_den)
    return Optimal(value, witness), simplex


def solve(system: LinSystem, objective: Optional[Sequence[int]] = None) -> LPOutcome:
    """Solve a weak-relation system exactly.

    Without an objective the answer is ``Feasible`` or ``Infeasible``.  With
    one, ints with one entry per variable, it is ``Optimal`` (the maximum of
    ``objective . x``, which must be bounded: see the module docstring) or
    ``Infeasible``.  A caller that minimises maximises the negated
    objective.  An objective of the wrong length raises
    ``DimensionMismatchError``, one with an entry that is not an int
    ``ExactnessError``.  Strict rows are rejected here; use
    :func:`strict_feasible`.
    """
    return _solve_engine(system, objective)[0]


# ---------------------------------------------------------------------------
# strict feasibility
# ---------------------------------------------------------------------------


def strict_feasible(system: LinSystem) -> Union[Feasible, Infeasible]:
    """Decide whether the system, strict rows included, has a solution.

    Without strict rows this is ``solve``.  With them, the exact reduction
    is picked from the input: ``_strict_homogeneous`` when every rhs is
    zero, ``_strict_slack`` otherwise.
    """
    if not any(row.rel == GT for row in system.rows):
        outcome = solve(system)
        assert isinstance(outcome, (Feasible, Infeasible))
        return outcome
    if not any(row.nums[-1] for row in system.rows):
        return _strict_homogeneous(system)
    return _strict_slack(system)


def _strict_homogeneous(system: LinSystem) -> Union[Feasible, Infeasible]:
    """Replace each ``> 0`` row by ``>= 1``; valid when every rhs is zero.

    A solution of the strict system scales positively to one of the weak
    system, so the two are feasible together.
    """
    rows = tuple([
        LinRow._from_ints(r.nums[:-1] + (r.den,), GE, r.den) if r.rel == GT else r
        for r in system.rows
    ])
    outcome = solve(LinSystem(system.n_vars, rows))
    if isinstance(outcome, Feasible):
        _engine_check(verify_point(system, outcome.witness), "strict point")
        return Feasible(outcome.witness)
    assert isinstance(outcome, Infeasible)
    _engine_check(verify_farkas(system, outcome.farkas), "strict farkas")
    return Infeasible(outcome.farkas)


def _strict_slack(system: LinSystem) -> Union[Feasible, Infeasible]:
    """Maximise a strictness gap bounded by 1; feasible iff the optimum is positive.

    A variable ``eps`` is appended, each strict row becomes
    ``coeffs.x - eps >= rhs``, and ``0 <= eps <= 1``.
    """
    rows = []
    for r in system.rows:
        eps = -r.den if r.rel == GT else 0
        rows.append(LinRow._from_ints(r.nums[:-1] + (eps, r.nums[-1]), GE if eps else r.rel, r.den))
    zeros = (0,) * system.n_vars
    rows.append(LinRow._from_ints(zeros + (-1, -1), GE))
    rows.append(LinRow._from_ints(zeros + (1, 0), GE))
    relaxed = LinSystem(system.n_vars + 1, tuple(rows))
    outcome, simplex = _solve_engine(relaxed, zeros + (1,))
    if isinstance(outcome, Infeasible):
        lam = outcome.farkas[: len(system.rows)]
        _engine_check(verify_farkas(system, lam), "strict farkas")
        return Infeasible(tuple(lam))
    assert isinstance(outcome, Optimal), "slack objective is bounded by its cap"
    if outcome.value > 0:
        witness = outcome.witness[: system.n_vars]
        _engine_check(verify_point(system, witness), "strict point")
        return Feasible(tuple(witness))
    # Optimum zero: only boundary points exist.  The optimal duals of the
    # slack program combine into a Motzkin-style certificate over the
    # original rows.
    lam_all = simplex._original_multipliers(*simplex.duals_phase2())
    lam = tuple(lam_all[: len(system.rows)])
    _engine_check(verify_farkas(system, lam), "strict farkas at zero optimum")
    return Infeasible(lam)
