"""Finite product possibility spaces and exact-rational gambles.

A gamble is an uncertain reward: a map from the joint outcomes of a finite
set of variables to exact rationals.  Everything downstream (cones of
desirable gambles, lower previsions, products) is built on the three scope
operations defined here: embedding a gamble into a larger scope, slicing it
at a partial assignment, and projecting it onto a smaller scope.

Joint outcomes are enumerated row-major: variables sorted by name, the first
variable varying slowest, each variable's outcomes in declared order.  The
empty scope is a first-class space with exactly one outcome (the empty
assignment), so constants are gambles like any other.

The joint layout of a product of models on disjoint blocks comes from here
as well, and from nowhere else: ``disjoint_union`` forms the joint scope,
``_restriction_map`` sends each joint index to its index in a block (or in
the other blocks), and ``_slice_map`` lists the joint indices of each slice
of a block along an assignment of the other blocks.

All values are ``fractions.Fraction``; floats are rejected outright.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DimensionMismatchError, ExactnessError, OutcomeError, ScopeError

# Entries kept by each process-wide ``lru_cache`` in the package.  The largest
# working set seen in the benchmark's traced runs is 26 entries; a bound keeps
# a long-lived process from holding every model it has ever seen.
CACHE_MAXSIZE = 64

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ``Fraction``, ``int`` and strings like ``"3"`` or ``"-5/7"``.
    Floats (and float-looking strings) raise :class:`ExactnessError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ExactnessError("booleans are not rationals: %r" % (value,))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise ExactnessError("not an exact rational literal: %r" % (value,))
        return Fraction(value.strip())
    raise ExactnessError(
        "exact rational required (Fraction, int or 'n/d' string), got %r" % (value,)
    )


def format_rational(value: Fraction) -> str:
    """Canonical string form, ``n`` or ``n/d`` with positive denominator."""
    return str(value)


@dataclass(frozen=True)
class Variable:
    """A named variable with a finite tuple of outcome labels."""

    name: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be nonempty")
        if not self.outcomes:
            raise ValueError("variable %r needs at least one outcome" % self.name)
        if len(set(self.outcomes)) != len(self.outcomes):
            raise OutcomeError("duplicate outcome labels for %r" % self.name)

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise OutcomeError(
                "%r is not an outcome of %s %r" % (label, self.name, self.outcomes)
            ) from None


def _check_compatible(a: Variable, b: Variable) -> None:
    if a.name == b.name and a.outcomes != b.outcomes:
        raise ScopeError(
            "conflicting declarations of variable %r: %r vs %r"
            % (a.name, a.outcomes, b.outcomes)
        )


@dataclass(frozen=True)
class Scope:
    """An ordered set of variables; the product of their outcome sets.

    Variables are kept sorted by name so that equal variable sets give equal
    scopes and a single canonical enumeration order.
    """

    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if names != sorted(names):
            raise ScopeError("scope variables must be sorted by name; use Scope.of")
        if len(set(names)) != len(names):
            raise ScopeError("duplicate variable names in scope: %r" % (names,))

    @staticmethod
    def of(variables: Iterable[Variable]) -> "Scope":
        vs = sorted(set(variables), key=lambda v: v.name)
        for i in range(1, len(vs)):
            _check_compatible(vs[i - 1], vs[i])
        return Scope(tuple(vs))

    @staticmethod
    def empty() -> "Scope":
        return _EMPTY_SCOPE

    @property
    def size(self) -> int:
        n = 1
        for v in self.variables:
            n *= v.size
        return n

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def strides(self) -> tuple[int, ...]:
        """Row-major strides: the first variable is the most significant."""
        strides = [1] * len(self.variables)
        for i in range(len(self.variables) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.variables[i + 1].size
        return tuple(strides)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Variable):
            return item in self.variables
        if isinstance(item, str):
            return any(v.name == item for v in self.variables)
        return False

    def __len__(self) -> int:
        return len(self.variables)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ScopeError("no variable named %r in scope %r" % (name, self.names))

    def issubset(self, other: "Scope") -> bool:
        for v in self.variables:
            for w in other.variables:
                _check_compatible(v, w)
        return all(v in other.variables for v in self.variables)

    def union(self, other: "Scope") -> "Scope":
        return Scope.of(self.variables + other.variables)

    def difference(self, other: "Scope") -> "Scope":
        for v in self.variables:
            for w in other.variables:
                _check_compatible(v, w)
        return Scope(tuple(v for v in self.variables if v not in other.variables))

    def intersection(self, other: "Scope") -> "Scope":
        return Scope(tuple(v for v in self.variables if v in other.variables))

    def isdisjoint(self, other: "Scope") -> bool:
        return self.intersection(other).variables == ()

    def index_of(self, at: "Assignment") -> int:
        """Joint index of a full assignment of this scope."""
        if at.scope != self:
            raise ScopeError(
                "assignment scope %r does not match %r" % (at.scope.names, self.names)
            )
        strides = self.strides
        idx = 0
        for k, (var, label) in enumerate(at.items):
            idx += strides[k] * var.index(label)
        return idx

    def assignments(self) -> Iterator["Assignment"]:
        """All joint outcomes in canonical (row-major) order."""
        if not self.variables:
            yield Assignment(())
            return
        for labels in _cartesian(*(v.outcomes for v in self.variables)):
            yield Assignment(tuple(zip(self.variables, labels)))

    def assignment_at(self, index: int) -> "Assignment":
        if not 0 <= index < self.size:
            raise IndexError(index)
        labels = []
        for stride, v in zip(self.strides, self.variables):
            digit, index = divmod(index, stride)
            labels.append((v, v.outcomes[digit]))
        return Assignment(tuple(labels))


_EMPTY_SCOPE = Scope(())


def disjoint_union(scopes: Iterable[Scope]) -> Scope:
    """The joint scope of blocks that must share no variable.

    Raises :class:`ScopeError` naming the shared variables when two blocks
    overlap.  No blocks give the empty scope.
    """
    joint = _EMPTY_SCOPE
    for scope in scopes:
        shared = joint.intersection(scope)
        if shared.variables:
            raise ScopeError(
                "blocks must have pairwise disjoint scopes; they share %s"
                % ", ".join(shared.names)
            )
        joint = joint.union(scope)
    return joint


@dataclass(frozen=True)
class Assignment:
    """A partial joint outcome: labels for the variables of some scope."""

    items: tuple[tuple[Variable, str], ...]

    def __post_init__(self) -> None:
        names = [v.name for v, _ in self.items]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ScopeError("assignment items must be name-sorted and unique")
        for v, label in self.items:
            v.index(label)

    @staticmethod
    def of(mapping: Mapping[Variable, str]) -> "Assignment":
        items = tuple(sorted(mapping.items(), key=lambda kv: kv[0].name))
        return Assignment(items)

    @staticmethod
    def empty() -> "Assignment":
        return Assignment(())

    @property
    def scope(self) -> Scope:
        return Scope(tuple(v for v, _ in self.items))

    def __getitem__(self, var: Union[Variable, str]) -> str:
        name = var.name if isinstance(var, Variable) else var
        for v, label in self.items:
            if v.name == name:
                return label
        raise KeyError(name)

    def restrict(self, onto: Scope) -> "Assignment":
        return Assignment(tuple((v, l) for v, l in self.items if v in onto.variables))

    def union(self, other: "Assignment") -> "Assignment":
        merged = dict(self.items)
        for v, label in other.items:
            if v in merged and merged[v] != label:
                raise ScopeError(
                    "inconsistent assignments for %r: %r vs %r" % (v.name, merged[v], label)
                )
            merged[v] = label
        return Assignment.of(merged)

    def __str__(self) -> str:
        return ",".join("%s=%s" % (v.name, l) for v, l in self.items) or "()"


@lru_cache(maxsize=CACHE_MAXSIZE)
def _restriction_map(target: Scope, base: Scope) -> tuple[int, ...]:
    """For each joint index of ``target``, the index of its restriction to ``base``."""
    if not base.issubset(target):
        raise ScopeError(
            "scope %r is not part of %r" % (base.names, target.names)
        )
    base_pos = {v: k for k, v in enumerate(base.variables)}
    base_strides = base.strides
    out = []
    for digits in _cartesian(*(range(v.size) for v in target.variables)):
        idx = 0
        for k, v in enumerate(target.variables):
            p = base_pos.get(v)
            if p is not None:
                idx += base_strides[p] * digits[k]
        out.append(idx)
    return tuple(out)


@lru_cache(maxsize=CACHE_MAXSIZE)
def _slice_map(scope: Scope, at: Assignment) -> tuple[tuple[int, ...], Scope]:
    """Indices into ``scope`` for each joint outcome of ``scope`` minus ``at``."""
    if not at.scope.issubset(scope):
        raise ScopeError(
            "assignment %s is not within scope %r" % (at, scope.names)
        )
    rest = scope.difference(at.scope)
    strides = scope.strides
    pos = {v: k for k, v in enumerate(scope.variables)}
    offset = 0
    for v, label in at.items:
        offset += strides[pos[v]] * v.index(label)
    indices = []
    for digits in _cartesian(*(range(v.size) for v in rest.variables)):
        idx = offset
        for k, v in enumerate(rest.variables):
            idx += strides[pos[v]] * digits[k]
        indices.append(idx)
    return tuple(indices), rest


@dataclass(frozen=True)
class Gamble:
    """An exact-rational reward function on the joint outcomes of a scope."""

    scope: Scope
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.scope.size:
            raise _dimension_error(self.scope, len(self.values))
        for v in self.values:
            if not isinstance(v, Fraction):
                raise ExactnessError(
                    "gamble values must be Fractions, got %r" % (v,)
                )

    # -- construction -----------------------------------------------------

    @staticmethod
    def on(scope: Scope, values: Sequence[RationalLike]) -> "Gamble":
        return Gamble(scope, tuple(as_rational(v) for v in values))

    @staticmethod
    def constant(scope: Scope, value: RationalLike) -> "Gamble":
        c = as_rational(value)
        return Gamble(scope, (c,) * scope.size)

    @staticmethod
    def zero(scope: Scope) -> "Gamble":
        return Gamble.constant(scope, 0)

    # -- pointwise queries -------------------------------------------------

    def __getitem__(self, at: Assignment) -> Fraction:
        if at.scope == self.scope:
            return self.values[self.scope.index_of(at)]
        return self.values[self.scope.index_of(at.restrict(self.scope))]

    def min_value(self) -> Fraction:
        return min(self.values)

    def max_value(self) -> Fraction:
        return max(self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    def is_positive(self) -> bool:
        """Nonnegative and not identically zero."""
        return self.is_nonnegative() and not self.is_zero()

    def is_nonpositive(self) -> bool:
        return all(v <= 0 for v in self.values)

    def dot(self, coeffs: Sequence[Fraction]) -> Fraction:
        if len(coeffs) != len(self.values):
            raise _dimension_error(self.scope, len(coeffs))
        return sum((c * v for c, v in zip(coeffs, self.values)), Fraction(0))

    # -- arithmetic (scopes are merged by cylindrical extension) -----------

    def _aligned(self, other: "Gamble") -> tuple["Gamble", "Gamble"]:
        if self.scope == other.scope:
            return self, other
        joint = self.scope.union(other.scope)
        return self.embed(joint), other.embed(joint)

    def __add__(self, other: "Gamble") -> "Gamble":
        a, b = self._aligned(other)
        return Gamble(a.scope, tuple(x + y for x, y in zip(a.values, b.values)))

    def __sub__(self, other: "Gamble") -> "Gamble":
        a, b = self._aligned(other)
        return Gamble(a.scope, tuple(x - y for x, y in zip(a.values, b.values)))

    def __neg__(self) -> "Gamble":
        return Gamble(self.scope, tuple(-x for x in self.values))

    def __mul__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            a, b = self._aligned(other)
            return Gamble(a.scope, tuple(x * y for x, y in zip(a.values, b.values)))
        c = as_rational(other)
        return Gamble(self.scope, tuple(c * x for x in self.values))

    def __rmul__(self, other: RationalLike) -> "Gamble":
        return self.__mul__(other)

    def mask(self, at: Assignment) -> "Gamble":
        """The values where ``at`` holds and zero elsewhere.

        Lives on ``scope ∪ at.scope`` and equals ``indicator(at) * self``,
        without building the indicator or multiplying by zero and one.
        """
        joint = self.scope.union(at.scope)
        values = self.embed(joint).values
        masked = [_ZERO] * joint.size
        for i in _slice_map(joint, at)[0]:
            masked[i] = values[i]
        return Gamble(joint, tuple(masked))

    def shift(self, value: RationalLike) -> "Gamble":
        """Add a constant to every outcome."""
        c = as_rational(value)
        return Gamble(self.scope, tuple(x + c for x in self.values))

    # -- scope operations ---------------------------------------------------

    def embed(self, target: Scope) -> "Gamble":
        """View this gamble on a larger scope (value ignores the added variables)."""
        if target == self.scope:
            return self
        rmap = _restriction_map(target, self.scope)
        return Gamble(target, tuple(self.values[i] for i in rmap))

    def slice_at(self, at: Assignment) -> "Gamble":
        """The gamble on the remaining variables once ``at`` is observed."""
        indices, rest = _slice_map(self.scope, at)
        return Gamble(rest, tuple(self.values[i] for i in indices))

    def depends_only_on(self, onto: Scope) -> tuple[bool, "Gamble | None"]:
        """Whether the value is a function of ``onto`` alone.

        Returns ``(True, reduced)`` with the reduced gamble on ``onto`` when it
        is, and ``(False, None)`` otherwise.
        """
        if not onto.issubset(self.scope):
            raise ScopeError(
                "scope %r is not part of %r" % (onto.names, self.scope.names)
            )
        rmap = _restriction_map(self.scope, onto)
        reduced: list[Fraction | None] = [None] * onto.size
        for full_idx, red_idx in enumerate(rmap):
            seen = reduced[red_idx]
            if seen is None:
                reduced[red_idx] = self.values[full_idx]
            elif seen != self.values[full_idx]:
                return False, None
        return True, Gamble(onto, tuple(v for v in reduced))  # type: ignore[misc]

    def floor_onto(self, onto: Scope) -> "Gamble":
        """Pointwise minimum over the variables outside ``onto``.

        This is the largest gamble on ``onto`` whose cylindrical extension is
        dominated by this one.
        """
        if not onto.issubset(self.scope):
            raise ScopeError(
                "scope %r is not part of %r" % (onto.names, self.scope.names)
            )
        rmap = _restriction_map(self.scope, onto)
        best: list[Fraction | None] = [None] * onto.size
        for full_idx, red_idx in enumerate(rmap):
            v = self.values[full_idx]
            seen = best[red_idx]
            if seen is None or v < seen:
                best[red_idx] = v
        return Gamble(onto, tuple(v for v in best))  # type: ignore[misc]

    def __str__(self) -> str:
        return "[" + ",".join(format_rational(v) for v in self.values) + "]"


def _dimension_error(scope: Scope, got: int) -> DimensionMismatchError:
    return DimensionMismatchError(
        "expected %d values for scope %r, got %d" % (scope.size, scope.names, got)
    )


def scaled_to_ints(values: Sequence[Fraction]) -> tuple[int, ...]:
    """``values`` times the lcm of their denominators, as ints.

    The factor is positive, so every sign of a dot product with the result
    is the sign of the same dot product with ``values``.
    """
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return tuple([v.numerator for v in values])
    return tuple([v.numerator * (den // v.denominator) for v in values])


def indicator(at: Assignment, scope: Scope | None = None) -> Gamble:
    """The gamble that pays 1 exactly when ``at`` obtains, on ``at.scope``.

    Pass ``scope`` to get the cylindrical extension in one step.
    """
    base = at.scope
    values = [Fraction(0)] * base.size
    values[base.index_of(at)] = Fraction(1)
    g = Gamble(base, tuple(values))
    return g.embed(scope) if scope is not None else g
