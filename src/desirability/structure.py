"""Cylindrical and irrelevant extension, and conditioning.

Conditioning wraps the base expression and rewrites queries through
indicator products; lexicographic leaves are materialised instead, since
their conditioned form is again a leaf.  Cylindrical extension is the
irrelevant extension with no irrelevant variables, and one constructor
builds both: a generator leaf collapses to its generators, masked by each
assignment of the irrelevant variables and re-scoped; other bases get an
``IrrExt`` node, decided by the floor reduction in the membership
dispatcher.

Also hosts the shared sampling policy for "query-equivalent on sampled
gambles" checks: exhaustive integer grids when small enough, seeded
uniform draws otherwise.  ``sample_ints`` draws the int vectors, which the
scans query as they are; ``sample_gambles`` wraps each in a ``Gamble``.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .desirable import (
    Conditioned,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IrrExt,
    member,  # noqa: F401 - perfbench/tracer.py wraps this binding
    scope_of,
)
from .errors import ScopeError
from .maximal import LexSystem, lex_condition
from .space import Assignment, Gamble, Scope


def masked_generators(base: GeneratorSet, added: Scope) -> list[Gamble]:
    """Each generator of ``base``, masked by each assignment of ``added``.

    The generators of the irrelevant natural extension along ``added``;
    with no added variables, the generators themselves.
    """
    return [g.mask(at) for at in added.assignments() for g in base.generators]


def irrelevant_extension(
    base: DesirableSetExpr, irrelevant: Scope, target: Scope
) -> DesirableSetExpr:
    """Smallest coherent joint on ``target`` with ``irrelevant`` irrelevant
    to the base model's variables.

    Generator leaves collapse: the family of indicator-masked generators
    spans the same cone, one LP per membership query.  Other bases become
    an ``IrrExt``.  With no irrelevant variables this is the cylindrical
    extension, and extending an ``IrrExt`` then only widens its target:
    flooring over the new variables and then over the old added ones is
    one floor over all of them, and a nonnegative outer floor leaves every
    slice nonnegative.
    """
    base_scope = scope_of(base)
    if not base_scope.isdisjoint(irrelevant):
        raise ScopeError("irrelevant variables overlap the base scope")
    kept = base_scope.union(irrelevant)
    if not kept.issubset(target):
        raise ScopeError(
            "extension target %r must contain %r" % (target.names, kept.names)
        )
    if base_scope == target:
        return base
    if isinstance(base, GeneratorSet):
        return GeneratorSet.of(target, masked_generators(base, irrelevant))
    if isinstance(base, IrrExt) and not irrelevant.variables:
        return IrrExt(base.base, base.irrelevant, target)
    return IrrExt(base, irrelevant, target)


def cyl_ext(base: DesirableSetExpr, target: Scope) -> DesirableSetExpr:
    """Most conservative extension of ``base`` to the scope ``target``:
    the irrelevant extension with no irrelevant variables."""
    return irrelevant_extension(base, Scope.empty(), target)


def conditioning_scope(expr: DesirableSetExpr) -> Scope:
    """The variables an observation may fix when ``expr`` is conditioned.

    That is the scope of ``expr``, and for a conditional family also its
    ``on`` variables, which its scope leaves out.
    """
    scope = scope_of(expr)
    if isinstance(expr, ConditionalFamily):
        return scope.union(expr.on)
    return scope


def condition(expr: DesirableSetExpr, given: Assignment) -> DesirableSetExpr:
    """The updated model after observing ``given`` (empty: no update).

    Sequential updates merge into one assignment; lexicographic leaves are
    materialised through their own conditioning rule.  ``given`` must lie
    in ``conditioning_scope(expr)``.
    """
    scope = conditioning_scope(expr)
    if not given.scope.issubset(scope):
        raise ScopeError(
            "conditioning event %s is outside scope %r" % (given, scope.names)
        )
    if not given.items:
        return expr
    if isinstance(expr, ConditionalFamily):
        if not expr.on.issubset(given.scope):
            raise ScopeError(
                "conditional family needs an assignment of all of %r"
                % (expr.on.names,)
            )
        entry = expr.at(given.restrict(expr.on))
        rest = Assignment(
            tuple(item for item in given.items if item[0] not in expr.on.variables)
        )
        return condition(entry, rest)
    if isinstance(expr, Conditioned):
        return Conditioned(expr.base, expr.given.union(given))
    if isinstance(expr, LexSystem):
        return lex_condition(expr, given)
    return Conditioned(expr, given)


# ---------------------------------------------------------------------------
# sampling policy for query-equivalence checks
# ---------------------------------------------------------------------------


def gamble_grid(scope: Scope, lo: int = -3, hi: int = 3) -> Iterator[Gamble]:
    """All integer-valued gambles on ``scope`` with entries in [lo, hi]."""
    for nums in itertools.product(range(lo, hi + 1), repeat=scope.size):
        yield Gamble._from_ints(scope, nums)


def sample_ints(
    scope: Scope,
    *,
    budget: int = 2000,
    seed: int = 0,
    lo: int = -3,
    hi: int = 3,
) -> list[tuple[int, ...]]:
    """Integer value vectors on ``scope``: the exhaustive grid over
    [lo, hi] in ``gamble_grid``'s order when it fits the budget, else
    ``budget`` seeded draws."""
    if (hi - lo + 1) ** scope.size <= budget:
        return list(itertools.product(range(lo, hi + 1), repeat=scope.size))
    rng = random.Random(seed)
    return [tuple([rng.randint(lo, hi) for _ in range(scope.size)]) for _ in range(budget)]


def sample_gambles(
    scope: Scope,
    *,
    budget: int = 2000,
    seed: int = 0,
    lo: int = -3,
    hi: int = 3,
) -> list[Gamble]:
    """``sample_ints`` with each vector as a gamble."""
    return [
        Gamble._from_ints(scope, nums)
        for nums in sample_ints(scope, budget=budget, seed=seed, lo=lo, hi=hi)
    ]
