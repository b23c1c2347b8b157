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

Values are exact rationals at every boundary: ``Gamble`` takes
``Fraction``s (``Gamble.on`` also ints and rational strings), floats and
booleans are rejected outright, and ``Gamble.values`` reads back
``Fraction``s.  Inside, a gamble holds integer numerators over one positive
denominator, computed once.  The decision procedures that solve no linear
program read those ints and may drop the denominator, that is, decide on
the gamble times a positive number.  That is exact only because every model
here denotes a cone: ``k * f`` and ``f`` are members together for every
rational ``k > 0``.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from math import gcd
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DimensionMismatchError, ExactnessError, OutcomeError, ScopeError

# Entries kept by each process-wide ``lru_cache`` in the package.  The largest
# working set seen in the benchmark's traced runs is 26 entries; a bound keeps
# a long-lived process from holding every model it has ever seen.
CACHE_MAXSIZE = 64

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)

# The gate for rational strings; it captures the numerator (with its sign)
# and the denominator, so a literal is parsed once.
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


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
        match = _RATIONAL_RE.match(value.strip())
        if match is None:
            raise ExactnessError("not an exact rational literal: %r" % (value,))
        numerator, denominator = match.groups()
        if denominator is None:
            return Fraction(int(numerator))
        return Fraction(int(numerator), int(denominator))
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
    scopes and a single canonical enumeration order.  The number of joint
    outcomes (``size``) and the hash are computed once, on construction:
    scopes size every gamble and key the layout caches below.
    """

    variables: tuple[Variable, ...]
    size: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if names != sorted(names):
            raise ScopeError("scope variables must be sorted by name; use Scope.of")
        if len(set(names)) != len(names):
            raise ScopeError("duplicate variable names in scope: %r" % (names,))
        size = 1
        for v in self.variables:
            size *= v.size
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_hash", hash(self.variables))

    @staticmethod
    def of(variables: Iterable[Variable]) -> "Scope":
        vs = sorted(set(variables), key=lambda v: v.name)
        for i in range(1, len(vs)):
            _check_compatible(vs[i - 1], vs[i])
        return Scope(tuple(vs))

    @staticmethod
    def empty() -> "Scope":
        return _EMPTY_SCOPE

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # The hash comes from ``str`` hashes, which differ between
        # processes, so a loaded scope computes its own.
        return Scope, (self.variables,)

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

    def __len__(self) -> int:
        return len(self.variables)

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

    @cached_property
    def scope(self) -> Scope:
        return Scope(tuple(v for v, _ in self.items))

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


class Gamble:
    """An exact-rational reward function on the joint outcomes of a scope.

    Held as integer numerators ``nums`` over one positive denominator
    ``den``, in lowest terms: the value at outcome ``w`` is
    ``nums[w] / den``, and no prime divides ``den`` and every numerator.
    That form is unique, so equality and hashing read it, and they agree
    with equality of the rational values.  ``values`` holds the same values
    as ``Fraction``s; a gamble that an operation built from ints makes them
    on first read.  Gambles are immutable.

    ``Gamble(scope, values)`` takes ``Fraction``s only and computes the
    ints in the sweep that checks them; ``on`` and ``constant`` also accept
    ints and rational strings.  Scope operations (``embed``, ``mask``,
    ``slice_at``) gather the ints, and the ``Fraction``s too where they
    have been made; arithmetic runs on the ints.
    """

    __slots__ = ("scope", "nums", "den", "_values")

    scope: Scope
    nums: tuple[int, ...]
    den: int

    def __init__(self, scope: Scope, values: Sequence[Fraction]) -> None:
        values = tuple(values)
        if len(values) != scope.size:
            raise _dimension_error(scope, len(values))
        den = 1
        for v in values:
            if not isinstance(v, Fraction):
                raise ExactnessError("gamble values must be Fractions, got %r" % (v,))
            d = v.denominator
            if den % d:
                den = den // gcd(den, d) * d
        if den == 1:
            nums = tuple([v.numerator for v in values])
        else:
            nums = tuple([v.numerator * (den // v.denominator) for v in values])
        _fill(self, scope, nums, den, values)

    @staticmethod
    def _from_ints(
        scope: Scope,
        nums: tuple[int, ...],
        den: int = 1,
        values: Optional[tuple[Fraction, ...]] = None,
    ) -> "Gamble":
        """The gamble ``nums / den``, brought to lowest terms.

        Internal and unchecked: ``nums`` are ints, one per outcome of
        ``scope``, ``den`` is a positive int, and ``values``, when given,
        are the same values as ``Fraction``s.
        """
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple([n // g for n in nums])
                den //= g
        g = object.__new__(Gamble)
        _fill(g, scope, nums, den, values)
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gamble):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums and self.scope == other.scope

    def __hash__(self) -> int:
        return hash((self.scope, self.den, self.nums))

    def __repr__(self) -> str:
        return "Gamble(scope=%r, values=%r)" % (self.scope, self.values)

    def __reduce__(self) -> tuple:
        return Gamble._from_ints, (self.scope, self.nums, self.den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as ``Fraction``s, made once on first read."""
        values = self._values
        if values is None:
            den = self.den
            values = tuple([Fraction(n, den) if n else _ZERO for n in self.nums])
            object.__setattr__(self, "_values", values)
        return values

    # -- construction -----------------------------------------------------

    @staticmethod
    def on(scope: Scope, values: Sequence[RationalLike]) -> "Gamble":
        return Gamble(scope, tuple(as_rational(v) for v in values))

    @staticmethod
    def constant(scope: Scope, value: RationalLike) -> "Gamble":
        c = as_rational(value)
        size = scope.size
        return Gamble._from_ints(scope, (c.numerator,) * size, c.denominator, (c,) * size)

    @staticmethod
    def zero(scope: Scope) -> "Gamble":
        return Gamble.constant(scope, 0)

    # -- pointwise queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_nonnegative(self) -> bool:
        return min(self.nums) >= 0

    def is_positive(self) -> bool:
        """Nonnegative and not identically zero."""
        return min(self.nums) >= 0 and any(self.nums)

    def is_nonpositive(self) -> bool:
        return max(self.nums) <= 0

    def dot(self, coeffs: Sequence[Fraction]) -> Fraction:
        if len(coeffs) != len(self.nums):
            raise _dimension_error(self.scope, len(coeffs))
        return sum((c * v for c, v in zip(coeffs, self.values)), _ZERO)

    # -- arithmetic (scopes are merged by cylindrical extension) -----------

    def _aligned(self, other: "Gamble") -> tuple["Gamble", "Gamble"]:
        if self.scope == other.scope:
            return self, other
        joint = self.scope.union(other.scope)
        return self.embed(joint), other.embed(joint)

    def __add__(self, other: "Gamble") -> "Gamble":
        a, b = self._aligned(other)
        if a.den == b.den:
            return Gamble._from_ints(a.scope, tuple(map(add, a.nums, b.nums)), a.den)
        nums = [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)]
        return Gamble._from_ints(a.scope, tuple(nums), a.den * b.den)

    def __sub__(self, other: "Gamble") -> "Gamble":
        return self + -other

    def __neg__(self) -> "Gamble":
        return Gamble._from_ints(self.scope, tuple([-n for n in self.nums]), self.den)

    def __mul__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            a, b = self._aligned(other)
            return Gamble._from_ints(a.scope, tuple(map(mul, a.nums, b.nums)), a.den * b.den)
        c = as_rational(other)
        p = c.numerator
        return Gamble._from_ints(
            self.scope, tuple([p * n for n in self.nums]), self.den * c.denominator
        )

    def __rmul__(self, other: RationalLike) -> "Gamble":
        return self.__mul__(other)

    def mask(self, at: Assignment) -> "Gamble":
        """The values where ``at`` holds and zero elsewhere.

        Lives on ``scope ∪ at.scope`` and equals ``indicator(at) * self``,
        without building the indicator or multiplying by zero and one.
        """
        joint = self.scope.union(at.scope)
        lifted = self.embed(joint)
        keep = _slice_map(joint, at)[0]
        nums = [0] * joint.size
        for i in keep:
            nums[i] = lifted.nums[i]
        values = lifted._values
        if values is not None:
            masked = [_ZERO] * joint.size
            for i in keep:
                masked[i] = values[i]
            values = tuple(masked)
        return Gamble._from_ints(joint, tuple(nums), lifted.den, values)

    def shift(self, value: RationalLike) -> "Gamble":
        """Add a constant to every outcome."""
        return self + Gamble.constant(self.scope, value)

    # -- scope operations ---------------------------------------------------

    def _gathered(self, scope: Scope, indices: Sequence[int]) -> "Gamble":
        """The gamble on ``scope`` whose value at ``k`` is this one's at
        ``indices[k]``."""
        nums = self.nums
        values = self._values
        if values is not None:
            values = tuple([values[i] for i in indices])
        return Gamble._from_ints(scope, tuple([nums[i] for i in indices]), self.den, values)

    def embed(self, target: Scope) -> "Gamble":
        """View this gamble on a larger scope (value ignores the added variables)."""
        if target == self.scope:
            return self
        return self._gathered(target, _restriction_map(target, self.scope))

    def slice_at(self, at: Assignment) -> "Gamble":
        """The gamble on the remaining variables once ``at`` is observed."""
        indices, rest = _slice_map(self.scope, at)
        return self._gathered(rest, indices)

    def __str__(self) -> str:
        return "[" + ",".join(format_rational(v) for v in self.values) + "]"


_set_slot = object.__setattr__


def _fill(
    g: Gamble,
    scope: Scope,
    nums: tuple[int, ...],
    den: int,
    values: Optional[tuple[Fraction, ...]],
) -> None:
    _set_slot(g, "scope", scope)
    _set_slot(g, "nums", nums)
    _set_slot(g, "den", den)
    _set_slot(g, "_values", values)


def _dimension_error(scope: Scope, got: int) -> DimensionMismatchError:
    return DimensionMismatchError(
        "expected %d values for scope %r, got %d" % (scope.size, scope.names, got)
    )
