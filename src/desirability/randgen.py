"""Seeded random generation of gambles and models for tests and scripts.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a seed.  Model draws are rejection samples: candidates are drawn
from simple integer grids and kept only when they satisfy the relevant
consistency predicate exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .desirable import GeneratorSet, avoids_nonpositivity
from .errors import BudgetExceededError
from .maximal import LexSystem, lex_is_maximal
from .previsions import CredalSet
from .space import Gamble, Scope

_ZERO = Fraction(0)
_ONE = Fraction(1)

__all__ = [
    "random_credal",
    "random_gamble",
    "random_generator_set",
    "random_mass",
    "random_maximal_binary_lex",
]


def random_gamble(
    rng: random.Random,
    scope: Scope,
    lo: int = -3,
    hi: int = 3,
    nonzero: bool = False,
) -> Gamble:
    """A gamble with integer values drawn uniformly from ``[lo, hi]``."""
    while True:
        g = Gamble.on(scope, [rng.randint(lo, hi) for _ in range(scope.size)])
        if not nonzero or not g.is_zero():
            return g


def random_generator_set(
    rng: random.Random,
    scope: Scope,
    count: int = 2,
    lo: int = -3,
    hi: int = 3,
    attempts: int = 1000,
) -> GeneratorSet:
    """A consistent assessment of ``count`` nonzero integer gambles.

    Draw-and-check: candidates failing the exact consistency check are
    discarded, so the result always avoids non-positivity.  Raises
    ``BudgetExceededError`` when ``attempts`` draws all fail.
    """
    for _ in range(attempts):
        gens = [random_gamble(rng, scope, lo, hi, nonzero=True) for _ in range(count)]
        candidate = GeneratorSet.of(scope, gens)
        if avoids_nonpositivity(candidate).avoids:
            return candidate
    raise BudgetExceededError(
        "no consistent assessment of %d gambles found in %d attempts"
        % (count, attempts)
    )


def random_mass(
    rng: random.Random, size: int, positive: bool = False
) -> tuple[Fraction, ...]:
    """A random probability mass function with small rational entries."""
    floor = 1 if positive else 0
    while True:
        weights = [rng.randint(floor, 5) for _ in range(size)]
        total = sum(weights)
        if total > 0:
            return tuple(Fraction(w, total) for w in weights)


def random_maximal_binary_lex(
    rng: random.Random, scope: Scope, degenerate_rate: float = 0.3
) -> LexSystem:
    """A maximal lexicographic model on a two-outcome scope.

    With probability ``degenerate_rate`` the first level puts all its
    mass on one outcome, exercising the boundary constructions.
    """
    if scope.size != 2:
        raise ValueError("binary draw needs a two-outcome scope")
    if rng.random() < degenerate_rate:
        first = (_ONE, _ZERO) if rng.random() < 0.5 else (_ZERO, _ONE)
    else:
        den = rng.randint(2, 9)
        num = rng.randint(1, den - 1)
        first = (Fraction(num, den), Fraction(den - num, den))
    while True:
        second = random_mass(rng, 2)
        candidate = LexSystem(scope, (first, second))
        if lex_is_maximal(candidate):
            return candidate


def random_credal(
    rng: random.Random, scope: Scope, count: int = 2
) -> CredalSet:
    """A credal set spanned by ``count`` random mass functions."""
    return CredalSet.of(
        scope, tuple(random_mass(rng, scope.size) for _ in range(count))
    )

