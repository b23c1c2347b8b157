#!/usr/bin/env python3
"""Randomised search for gambles rejected in both orientations.

Draws random pairs of maximal lexicographic models on two binary
variables, builds the witness gamble for each pair, and re-verifies by
direct membership queries that the independent product rejects both the
witness and its negation — demonstrating that the product of maximal
marginals need not be maximal.

    python3 scripts/search_nonmaximal_witnesses.py --pairs 20 --seed 3
"""

import argparse
import random
import sys
from fractions import Fraction

from desirability import (
    LexSystem,
    Tri,
    Scope,
    Variable,
    format_rational,
    independent_product,
    inex_member,
    lex_is_maximal,
    nonmaximality_witness,
)


def random_mass(rng: random.Random, size: int) -> tuple:
    """A random probability mass function with small rational entries."""
    while True:
        weights = [rng.randint(0, 5) for _ in range(size)]
        total = sum(weights)
        if total > 0:
            return tuple(Fraction(w, total) for w in weights)


def random_maximal_binary_lex(
    rng: random.Random, scope: Scope, degenerate_rate: float
) -> LexSystem:
    """A maximal lexicographic model on a two-outcome scope.

    With probability ``degenerate_rate`` the first level puts all its
    mass on one outcome, exercising the boundary constructions.
    """
    if rng.random() < degenerate_rate:
        first = (Fraction(1), Fraction(0)) if rng.random() < 0.5 else (Fraction(0), Fraction(1))
    else:
        den = rng.randint(2, 9)
        num = rng.randint(1, den - 1)
        first = (Fraction(num, den), Fraction(den - num, den))
    while True:
        candidate = LexSystem(scope, (first, random_mass(rng, 2)))
        if lex_is_maximal(candidate):
            return candidate


def _fmt(values) -> str:
    return "(" + ",".join(format_rational(v) for v in values) + ")"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10, help="pairs to draw")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--degenerate-rate",
        type=float,
        default=0.3,
        help="chance that a first level is a point mass",
    )
    args = parser.parse_args(argv)

    r = random.Random(args.seed)
    s1 = Scope.of([Variable("X1", ("a", "b"))])
    s2 = Scope.of([Variable("X2", ("a", "b"))])

    failures = 0
    for i in range(args.pairs):
        m1 = random_maximal_binary_lex(r, s1, args.degenerate_rate)
        m2 = random_maximal_binary_lex(r, s2, args.degenerate_rate)
        assert lex_is_maximal(m1) and lex_is_maximal(m2)
        w = nonmaximality_witness(m1, m2)
        product = independent_product([m1, m2])
        rejected = (
            inex_member(product, w) is Tri.OUT
            and inex_member(product, -w) is Tri.OUT
        )
        failures += not rejected
        print(
            "pair %2d: first=%s then %s | second=%s then %s | witness=%s %s"
            % (
                i,
                _fmt(m1.levels[0]),
                _fmt(m1.levels[1]),
                _fmt(m2.levels[0]),
                _fmt(m2.levels[1]),
                _fmt(w.values),
                "ok" if rejected else "NOT REJECTED",
            )
        )
    print("%d/%d witnesses verified" % (args.pairs - failures, args.pairs))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
