"""Lexicographic probability systems: maximally committal coherent sets.

A ``LexSystem`` holds an ordered list of probability mass functions (levels)
on a scope.  A gamble belongs to the denoted set exactly when its vector of
level expectations is lexicographically positive: the first nonzero
expectation is positive.  Such sets are always closed under positive linear
combinations and never contain zero; they accept every positive gamble iff
the level supports cover the space, and they are maximal (one of f, -f is
accepted for every nonzero f) iff the levels span the whole gamble space.

Conditioning restricts every level to the observed event, drops the levels
that give it no mass at all, and renormalises; the membership biconditional
with the unconditioned system holds by construction and maximality is
preserved.

``nonmaximality_witness`` constructs, for two maximal binary marginals, a
gamble rejected together with its negation by their independent product,
showing that the product is never maximal.  The construction follows a case
split on whether the first-level masses are degenerate, and the returned
witness is verified through two independent-product membership queries
before being handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .errors import (
    DegenerateConditioningError,
    DimensionMismatchError,
    EngineError,
    ExactnessError,
    ScopeError,
)
from .exactlp import forward_eliminate, scaled_to_ints
from .space import CACHE_MAXSIZE, Assignment, Gamble, Scope

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LexSystem:
    """An ordered tuple of probability mass functions over one scope."""

    scope: Scope
    levels: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a lexicographic system needs at least one level")
        for k, level in enumerate(self.levels):
            if len(level) != self.scope.size:
                raise ScopeError(
                    "level %d has %d entries for a %d-outcome scope"
                    % (k, len(level), self.scope.size)
                )
            total = _ZERO
            for v in level:
                if not isinstance(v, Fraction):
                    raise ExactnessError("levels must hold Fractions, got %r" % (v,))
                if v < 0:
                    raise ValueError("level %d has a negative mass" % k)
                total += v
            if total != 1:
                raise ValueError("level %d sums to %s, not 1" % (k, total))

    @staticmethod
    def on(scope: Scope, levels: Sequence[Sequence[object]]) -> "LexSystem":
        from .space import as_rational

        return LexSystem(
            scope, tuple(tuple(as_rational(v) for v in level) for level in levels)
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Computed once: systems key ``lex_is_maximal``'s cache.  It comes
        from ``str`` hashes, which differ between processes, so it is not
        pickled: a loaded system computes its own."""
        return hash((self.scope, self.levels))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @cached_property
    def int_levels(self) -> tuple[list[int], ...]:
        """Each level times the lcm of its denominators, computed once."""
        return tuple([scaled_to_ints(level)[0] for level in self.levels])

    @cached_property
    def covers_outcomes(self) -> bool:
        """Every outcome has mass in some level, decided once per system:
        masses are nonnegative, so an outcome is covered iff some level's
        scaled mass there is nonzero.  Every leaf query reads it."""
        return all(map(any, zip(*self.int_levels)))


def lex_member(system: LexSystem, f: Gamble) -> bool:
    """First nonzero level expectation positive?"""
    if len(f.nums) != system.scope.size:
        raise DimensionMismatchError(
            "expected %d values for scope %r, got %d"
            % (system.scope.size, system.scope.names, len(f.nums))
        )
    return lex_accepts(system.int_levels, f.nums)


def lex_accepts(levels: Sequence[Sequence[int]], nums: Sequence[int]) -> bool:
    """``lex_member`` of the gamble with values ``nums``, on a system's
    ``int_levels``.

    ``nums`` may be the values times any positive factor, such as a
    gamble's ``nums``.  Each level is scaled to ints once per system
    (``int_levels``), also by a positive factor, so every integer dot
    product has the sign of the exact expectation it stands for.
    """
    for level in levels:
        e = sum(map(mul, level, nums))
        if e:
            return e > 0
    return False


@lru_cache(maxsize=CACHE_MAXSIZE)
def lex_is_maximal(system: LexSystem) -> bool:
    """The levels span every direction, so f or -f is accepted for f != 0.

    The rank is the number of rows ``exactlp.forward_eliminate`` keeps.
    """
    return len(forward_eliminate(system.levels)) == system.scope.size


def lex_is_coherent(system: LexSystem) -> bool:
    """Positivity of each outcome's indicator, i.e. the supports cover
    (``LexSystem.covers_outcomes``)."""
    return system.covers_outcomes


def lex_condition(system: LexSystem, given: Assignment) -> LexSystem:
    """Observe ``given``: restrict, drop massless levels, renormalise."""
    if not given.scope.issubset(system.scope):
        raise ScopeError(
            "conditioning event %s is outside scope %r"
            % (given, system.scope.names)
        )
    if not given.items:
        return system
    kept: list[tuple[Fraction, ...]] = []
    for level in system.levels:
        restricted = Gamble(system.scope, level).slice_at(given)
        mass = sum(restricted.values, _ZERO)
        if mass > 0:
            kept.append(tuple(v / mass for v in restricted.values))
    if not kept:
        raise DegenerateConditioningError(
            "every level gives zero mass to %s" % (given,)
        )
    result = LexSystem(system.scope.difference(given.scope), tuple(kept))
    if lex_is_maximal(system) and not lex_is_maximal(result):
        raise EngineError("conditioning a maximal system produced a non-maximal one")
    return result


def lex_canonical(system: LexSystem) -> tuple[tuple[Fraction, ...], ...]:
    """A canonical matrix denoting the same set.

    Uses only transformations that leave membership untouched: positive
    scaling of a level, subtracting multiples of earlier levels from later
    ones, and dropping levels linearly dependent on earlier ones.  Each kept
    row is scaled so its leading entry has magnitude one.  Two maximal
    systems denote the same set exactly when these matrices coincide.

    The rows are those of ``exactlp.forward_eliminate``, the elimination
    the simplex and credal vertex enumeration share.  It eliminates
    forward only: reducing an earlier row by a later one would subtract a
    later level from an earlier one, which can change membership.
    """
    return tuple([
        tuple([Fraction(v, abs(row[pivot])) for v in row])
        for row, pivot in forward_eliminate(system.levels)
    ])


def lex_equal(a: LexSystem, b: LexSystem) -> bool:
    return a.scope == b.scope and lex_canonical(a) == lex_canonical(b)


# ---------------------------------------------------------------------------
# products of maximal binary models
# ---------------------------------------------------------------------------


def _require_maximal_binary(system: LexSystem, which: str) -> None:
    if len(system.scope) != 1 or system.scope.variables[0].size != 2:
        raise ScopeError("%s must live on a single binary variable" % which)
    if not lex_is_maximal(system):
        raise ValueError("%s is not maximal" % which)


def _included_boundary(system: LexSystem) -> Gamble:
    """The first-level-null direction that the system accepts."""
    p1 = system.levels[0]
    v = Gamble(system.scope, (p1[1], -p1[0]))
    if lex_member(system, v):
        return v
    return -v


def _favoured_index(system: LexSystem) -> int:
    """Index of the outcome where accepted boundary gambles are positive."""
    v = _included_boundary(system)
    return 0 if v.values[0] > 0 else 1


def nonmaximality_witness(m1: LexSystem, m2: LexSystem) -> Gamble:
    """A gamble h with both h and -h outside the independent product.

    The construction splits on degeneracy of the first-level masses; the
    returned witness is re-verified by two membership queries and an engine
    error is raised if verification fails.
    """
    _require_maximal_binary(m1, "first marginal")
    _require_maximal_binary(m2, "second marginal")
    if not m1.scope.isdisjoint(m2.scope):
        raise ScopeError("marginals must live on distinct variables")

    deg1 = any(v == 0 for v in m1.levels[0])
    deg2 = any(v == 0 for v in m2.levels[0])
    if deg2 and not deg1:
        flipped = nonmaximality_witness(m2, m1)
        return flipped  # the joint scope is the same either way

    var1 = m1.scope.variables[0]
    var2 = m2.scope.variables[0]
    a1 = _favoured_index(m1)
    b1 = 1 - a1
    a2 = _favoured_index(m2)
    b2 = 1 - a2
    p1 = m1.levels[0]
    p2 = m2.levels[0]

    entries: dict[tuple[int, int], Fraction] = {}
    if not deg1 and not deg2:
        entries[(a1, a2)] = _ZERO
        entries[(b1, b2)] = _ZERO
        entries[(a1, b2)] = p1[b1] * p2[a2]
        entries[(b1, a2)] = -p1[a1] * p2[b2]
    elif deg1 and deg2:
        entries[(a1, a2)] = _ZERO
        entries[(b1, b2)] = _ZERO
        entries[(b1, a2)] = _ONE
        entries[(a1, b2)] = -_ONE
    else:
        # Only the first marginal is degenerate here.
        h2 = -_included_boundary(m2)
        entries[(a1, a2)] = _ONE
        entries[(a1, b2)] = _ONE
        entries[(b1, a2)] = h2.values[a2]
        entries[(b1, b2)] = h2.values[b2]

    joint = m1.scope.union(m2.scope)
    values = [_ZERO] * joint.size
    for (i1, i2), v in entries.items():
        at = Assignment.of(
            {var1: var1.outcomes[i1], var2: var2.outcomes[i2]}
        )
        values[joint.index_of(at)] = v
    witness = Gamble(joint, tuple(values))

    from .desirable import Tri, member
    from .independence import independent_product

    product = independent_product((m1, m2))
    if member(product, witness) is not Tri.OUT or member(product, -witness) is not Tri.OUT:
        raise EngineError("constructed witness failed its rejection checks")
    return witness


def maximal_product_check(m12: LexSystem) -> bool:
    """Is a maximal set on two variables an independent product?

    True exactly when conditioning on every outcome of either variable gives
    one single marginal per variable (canonical forms compared).
    """
    if len(m12.scope) != 2:
        raise ScopeError("maximal_product_check needs a two-variable scope")
    if not lex_is_maximal(m12):
        raise ValueError("maximal_product_check needs a maximal system")
    for var in m12.scope.variables:
        forms = []
        for label in var.outcomes:
            at = Assignment.of({var: label})
            forms.append(lex_canonical(lex_condition(m12, at)))
        if any(form != forms[0] for form in forms[1:]):
            return False
    return True
