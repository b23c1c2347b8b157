"""Possibility spaces, assignments, and exact-rational gambles."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    Assignment,
    DimensionMismatchError,
    ExactnessError,
    Gamble,
    OutcomeError,
    Scope,
    ScopeError,
    Variable,
    format_rational,
)
from desirability.space import as_rational

from references import depends_only_on, indicator

A = Variable("A", ("x", "y"))
B = Variable("B", ("u", "v", "w"))
SA = Scope.of([A])
SB = Scope.of([B])
SAB = SA.union(SB)

ints = st.integers(min_value=-9, max_value=9)


class TestRationals:
    def test_accepts_integers_strings_and_fractions(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("-5/7") == Fraction(-5, 7)
        assert as_rational("4") == Fraction(4)
        assert as_rational(Fraction(2, 6)) == Fraction(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(ExactnessError):
            as_rational(0.5)
        with pytest.raises(ExactnessError):
            as_rational("0.5")

    def test_format_round_trip(self):
        for value in (Fraction(0), Fraction(-3), Fraction(22, 7)):
            assert as_rational(format_rational(value)) == value


# Literals the gate accepts, built from their parts: a sign, a numerator
# with leading zeros or non-ASCII digits, an optional denominator that does
# not start with zero, and surrounding whitespace.
SIGNS = ("", "+", "-")
SPACES = ("", " ", "\t", "\n ", "\u3000")
NON_ASCII_DIGITS = "\u0660\u0663\u06f5\u0967\uff17"


def _literal(sign, numerator, denominator, before, after):
    body = sign + numerator + ("" if denominator is None else "/" + denominator)
    return before + body + after


digit_strings = st.text(
    alphabet=st.sampled_from("0123456789" + NON_ASCII_DIGITS), min_size=1, max_size=30
)
literals = st.builds(
    _literal,
    st.sampled_from(SIGNS),
    digit_strings,
    st.one_of(
        st.none(),
        st.builds(lambda head, tail: head + tail, st.sampled_from("123456789"), digit_strings | st.just("")),
    ),
    st.sampled_from(SPACES),
    st.sampled_from(SPACES),
)


class TestRationalStrings:
    """``as_rational`` parses a string once; ``Fraction`` is the reference."""

    @pytest.mark.parametrize(
        "text",
        ["0", "-0", "+7", "-007/40", "  12/18\n", "\t-3/9 ", "\u0663/4", "+\u0660\u0667"]
        + ["9" * 200, "-" + "1" * 200 + "/" + "7" * 200],
    )
    def test_accepted_literals_match_fraction(self, text):
        value = as_rational(text)
        assert type(value) is Fraction and value == Fraction(text.strip())

    def test_seeded_literals_match_fraction(self):
        rng = random.Random("as-rational")
        digits = "0123456789" + NON_ASCII_DIGITS
        for _ in range(2000):
            numerator = "".join(rng.choice(digits) for _ in range(rng.randint(1, 200)))
            denominator = None
            if rng.random() < 0.5:
                denominator = rng.choice("123456789") + "".join(
                    rng.choice(digits) for _ in range(rng.randint(0, 200))
                )
            text = _literal(
                rng.choice(SIGNS), numerator, denominator, rng.choice(SPACES), rng.choice(SPACES)
            )
            assert as_rational(text) == Fraction(text.strip())

    @given(literals)
    def test_generated_literals_match_fraction(self, text):
        assert as_rational(text) == Fraction(text.strip())

    @given(st.text(alphabet=st.sampled_from("0123456789+-/ ._e" + NON_ASCII_DIGITS), max_size=12))
    def test_any_string_is_the_fraction_or_rejected(self, text):
        try:
            value = as_rational(text)
        except ExactnessError:
            return
        assert value == Fraction(text.strip())

    @pytest.mark.parametrize(
        "text", ["1/0", "1/-2", "0.5", "1e3", "1_000", "", "  ", "1/", "/2", "1/02", "--1", "1 /2"]
    )
    def test_rejected_literals_raise_exactness_error(self, text):
        with pytest.raises(ExactnessError, match="not an exact rational literal"):
            as_rational(text)


class TestScope:
    def test_variables_sorted_by_name(self):
        assert Scope.of([B, A]).names == ("A", "B")

    def test_size_is_product_of_outcome_counts(self):
        assert SAB.size == 6
        assert Scope.empty().size == 1

    def test_conflicting_redeclaration_rejected(self):
        clash = Variable("A", ("x", "z"))
        with pytest.raises(ScopeError):
            Scope.of([A, clash])

    def test_set_algebra(self):
        assert SAB.difference(SA) == SB
        assert SAB.intersection(SA) == SA
        assert SA.isdisjoint(SB)
        assert SA.issubset(SAB)
        assert not SAB.issubset(SA)

    def test_assignment_enumeration_is_indexable(self):
        seen = []
        for i in range(SAB.size):
            at = SAB.assignment_at(i)
            assert SAB.index_of(at) == i
            seen.append(str(at))
        assert len(set(seen)) == SAB.size

    def test_enumeration_order_varies_last_variable_fastest(self):
        labels = [str(SAB.assignment_at(i)) for i in range(3)]
        assert labels == ["A=x,B=u", "A=x,B=v", "A=x,B=w"]

    def test_unknown_outcome_rejected(self):
        with pytest.raises(OutcomeError):
            Assignment.of({A: "nope"})


class TestAssignment:
    def test_string_form(self):
        at = Assignment.of({A: "x", B: "v"})
        assert str(at) == "A=x,B=v"
        assert str(Assignment.empty()) == "()"

    def test_union_rejects_conflicts(self):
        with pytest.raises(ScopeError):
            Assignment.of({A: "x"}).union(Assignment.of({A: "y"}))

    def test_restrict_keeps_named_variables(self):
        at = Assignment.of({A: "x", B: "v"})
        assert at.restrict(SA) == Assignment.of({A: "x"})

    def test_indicator_is_one_exactly_on_the_event(self):
        at = Assignment.of({A: "x"})
        mask = indicator(at, SAB)
        for i in range(SAB.size):
            expected = 1 if SAB.assignment_at(i).restrict(SA) == at else 0
            assert mask.values[i] == expected


class TestGamble:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Gamble.on(SA, [1, 2, 3])

    def test_float_values_rejected(self):
        with pytest.raises(ExactnessError):
            Gamble.on(SA, [0.5, 1])

    @given(st.lists(ints, min_size=2, max_size=2), st.lists(ints, min_size=2, max_size=2))
    def test_pointwise_algebra(self, left, right):
        f = Gamble.on(SA, left)
        g = Gamble.on(SA, right)
        assert (f + g).values == tuple(a + b for a, b in zip(f.values, g.values))
        assert (f - g).values == tuple(a - b for a, b in zip(f.values, g.values))
        assert (-f).values == tuple(-a for a in f.values)
        assert (f * Fraction(1, 2)).values == tuple(a / 2 for a in f.values)
        assert f.shift(3).values == tuple(a + 3 for a in f.values)

    @given(st.lists(ints, min_size=2, max_size=2))
    def test_sign_predicates(self, values):
        f = Gamble.on(SA, values)
        assert f.is_zero() == all(v == 0 for v in values)
        assert f.is_positive() == (
            all(v >= 0 for v in values) and any(v > 0 for v in values)
        )
        assert f.is_nonpositive() == all(v <= 0 for v in values)

    @given(st.lists(ints, min_size=2, max_size=2))
    def test_embed_then_slice_is_identity(self, values):
        f = Gamble.on(SA, values)
        lifted = f.embed(SAB)
        for j in range(SB.size):
            at = SB.assignment_at(j)
            assert lifted.slice_at(at).values == f.values

    @given(st.lists(ints, min_size=6, max_size=6))
    def test_masking_keeps_only_the_event_slice(self, values):
        f = Gamble.on(SAB, values)
        at = Assignment.of({A: "y"})
        mask = indicator(at, SAB)
        sliced = f.slice_at(at).embed(SAB)
        assert (mask * f).values == (mask * sliced).values

    @given(st.lists(ints, min_size=6, max_size=6))
    def test_flatness_detection(self, values):
        f = Gamble.on(SAB, values)
        flat, reduced = depends_only_on(f, SA)
        by_slice = [f.slice_at(SA.assignment_at(i)) for i in range(SA.size)]
        constant_slices = all(
            len(set(s.values)) == 1 for s in by_slice
        )
        assert flat == constant_slices
        if flat:
            assert reduced.scope == SA
            assert reduced.embed(SAB).values == f.values

    def test_dot_product(self):
        f = Gamble.on(SA, [3, -2])
        assert f.dot((Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)


# Builds a scope, a queried lexicographic system on it and a gamble; run in
# processes with different string-hash seeds by the test below.
_PICKLED_TRIO = """
import pickle, sys
from desirability import Gamble, Scope, Tri, Variable, member
from desirability.maximal import LexSystem

scope = Scope.of([Variable("X1", ("a", "b")), Variable("X2", ("a", "b", "c"))])
lex = LexSystem.on(scope, [["1/6"] * 6, [1, 0, 0, 0, 0, 0]])
gamble = Gamble.on(scope, [1, -1, "1/2", 0, 2, -1])
assert member(lex, gamble) is Tri.IN and hash(lex) is not None
trio = (scope, lex, gamble)
if sys.argv[1] == "dump":
    sys.stdout.write(pickle.dumps(trio).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    for twin, copy in zip(trio, loaded):
        assert copy == twin and hash(copy) == hash(twin) and twin in {copy}, type(twin)
    sys.stdout.write("ok")
"""


def test_hashes_survive_pickling_across_hash_seeds():
    # Hashes built from ``str`` hashes differ between processes, so a
    # loaded scope or lexicographic system must compute its own; a gamble
    # hashes through its scope.
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    outputs = []
    for seed, mode in (("1", "dump"), ("2", "load")):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-c", _PICKLED_TRIO, mode],
            input=outputs[-1] if outputs else "",
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[-1] == "ok"
