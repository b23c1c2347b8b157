"""The certificate gates against a ``Fraction`` reference, and how often they run.

``verify_point`` and ``verify_farkas`` decide on ints.  The
reference below decides the same predicates by summing ``Fraction``
products; every differential here requires the same verdict from both.
"""

import collections
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desirability import desirable, exactlp, fixtures, maximal, space
from desirability.exactlp import (
    EQ,
    GE,
    GT,
    LinRow,
    LinSystem,
    verify_farkas,
    verify_point,
)

F = Fraction
_ZERO = F(0)


# -- the Fraction reference ---------------------------------------------------


def value_at(row, point):
    return sum((c * x for c, x in zip(row.coeffs, point)), _ZERO)


def holds_at(row, point):
    v = value_at(row, point)
    if row.rel == GE:
        return v >= row.rhs
    if row.rel == EQ:
        return v == row.rhs
    return v > row.rhs


def reference_point(system, point):
    return all(holds_at(row, point) for row in system.rows)


def reference_farkas(system, farkas):
    combined = [_ZERO] * system.n_vars
    combined_rhs = _ZERO
    strict_mass = _ZERO
    for lam, row in zip(farkas, system.rows):
        if row.rel != EQ and lam < 0:
            return False
        for j, c in enumerate(row.coeffs):
            combined[j] += lam * c
        combined_rhs += lam * row.rhs
        if row.rel == GT:
            strict_mass += lam
    if any(c != 0 for c in combined):
        return False
    return combined_rhs > 0 or (combined_rhs == 0 and strict_mass > 0)


# -- strategies -----------------------------------------------------------------

# Small, mixed and large denominators (two large primes among them), so rows
# and vectors rarely share a denominator.
DENOMINATORS = (1, 1, 2, 3, 4, 7, 10, 12, 1000003, 2**61 - 1)

rationals = st.one_of(
    st.just(_ZERO),
    st.builds(F, st.integers(-9, 9), st.sampled_from(DENOMINATORS)),
    st.builds(F, st.integers(-(10**20), 10**20), st.sampled_from(DENOMINATORS)),
)
relations = st.sampled_from((GE, EQ, GT))


def coefficient_vectors(n):
    """Random coefficients, zero coordinates likely, and sometimes a zero row."""
    return st.one_of(
        st.just((_ZERO,) * n),
        st.lists(rationals, min_size=n, max_size=n).map(tuple),
    )


def offsets():
    """Zero, or plus or minus 1/10^k: exactly on a hyperplane or just off it."""
    return st.builds(
        lambda sign, k: sign * F(1, 10**k),
        st.sampled_from((0, 0, 1, -1)),
        st.integers(1, 30),
    )


@st.composite
def point_cases(draw):
    n = draw(st.integers(1, 4))
    point = tuple(draw(st.lists(rationals, min_size=n, max_size=n)))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(coefficient_vectors(n))
        if draw(st.booleans()):
            rhs = draw(rationals)
        else:
            rhs = sum((c * x for c, x in zip(coeffs, point)), _ZERO) + draw(offsets())
        rows.append(LinRow(coeffs, draw(relations), rhs))
    return LinSystem(n, tuple(rows)), point


@st.composite
def farkas_cases(draw):
    """Systems with multipliers that often cancel the coefficients exactly.

    The row with the last nonzero multiplier is solved for, so the combined
    coefficients vanish and the combined rhs is zero, 1/10^k off zero, or
    arbitrary; sometimes one coefficient is then moved off by 1/10^k.
    Multipliers are zero, nonnegative, or of any sign on equality rows, and
    now and then negative on an inequality row.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    rels = [draw(relations) for _ in range(m)]
    lams = []
    for rel in rels:
        lam = abs(draw(rationals))
        if rel == EQ and draw(st.booleans()):
            lam = -lam
        lams.append(lam)
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, m - 1))
        lams[k] = -abs(lams[k]) or F(-1)
    rows = [[draw(coefficient_vectors(n)), rel, draw(rationals)] for rel in rels]
    last = max((i for i in range(m) if lams[i]), default=None)
    if last is not None and draw(st.integers(0, 4)):
        others = [i for i in range(m) if i != last]
        coeffs = [
            -sum((lams[i] * rows[i][0][j] for i in others), _ZERO) / lams[last]
            for j in range(n)
        ]
        if draw(st.integers(0, 5)) == 0:
            coeffs[draw(st.integers(0, n - 1))] += draw(offsets())
        target = draw(st.one_of(offsets(), rationals))
        rest = sum((lams[i] * rows[i][2] for i in others), _ZERO)
        rows[last] = [tuple(coeffs), rels[last], (target - rest) / lams[last]]
    system = LinSystem(n, tuple(LinRow(*row) for row in rows))
    return system, tuple(lams)


# -- differentials ----------------------------------------------------------------


class TestGatesAgreeWithFractionReference:
    @settings(max_examples=400)
    @given(point_cases())
    def test_point(self, case):
        system, point = case
        assert verify_point(system, point) == reference_point(system, point)
        for row in system.rows:
            alone = LinSystem(system.n_vars, (row,))
            assert verify_point(alone, point) == holds_at(row, point)

    @settings(max_examples=400)
    @given(farkas_cases())
    def test_farkas(self, case):
        system, farkas = case
        assert verify_farkas(system, farkas) == reference_farkas(system, farkas)


def rows_of(*rows):
    return tuple(LinRow(tuple(F(c) for c in coeffs), rel, F(rhs)) for coeffs, rel, rhs in rows)


class TestGateCases:
    """Named boundary cases, each checked against the reference too."""

    @pytest.mark.parametrize(
        "rows, point, expected",
        [
            # On the hyperplane: GE and EQ hold, GT does not.
            ((((F(1, 3), F(1, 2)), GE, F(5, 6)),), (1, 1), True),
            ((((F(1, 3), F(1, 2)), EQ, F(5, 6)),), (1, 1), True),
            ((((F(1, 3), F(1, 2)), GT, F(5, 6)),), (1, 1), False),
            # 10^-30 off the hyperplane, on either side.
            ((((F(1, 3), F(1, 2)), GT, F(5, 6) - F(1, 10**30)),), (1, 1), True),
            ((((F(1, 3), F(1, 2)), GE, F(5, 6) + F(1, 10**30)),), (1, 1), False),
            ((((F(1, 3), F(1, 2)), EQ, F(5, 6) + F(1, 10**30)),), (1, 1), False),
            # Mixed denominators in the point and the row.
            ((((F(2, 7), F(-3, 10**12 + 39)), EQ, F(2, 7 * 5) - F(3, (10**12 + 39) * 11)),),
             (F(1, 5), F(1, 11)), True),
            # A zero row holds exactly when ``0 rel rhs`` does.
            ((((0, 0), GE, 0), ((0, 0), EQ, 0)), (F(1, 3), 0), True),
            ((((0, 0), GT, 0),), (F(1, 3), 0), False),
            ((((0, 0), GE, F(1, 10**20)),), (0, 0), False),
        ],
    )
    def test_point(self, rows, point, expected):
        system = LinSystem(2, rows_of(*rows))
        point = tuple(F(x) for x in point)
        assert reference_point(system, point) == expected
        assert verify_point(system, point) == expected

    @pytest.mark.parametrize(
        "rows, farkas, expected",
        [
            # Equality rows take multipliers of either sign.
            ((((1,), EQ, 1), ((1,), EQ, 2)), (-1, 1), True),
            ((((1,), EQ, 1), ((1,), EQ, 2)), (1, -1), False),
            ((((F(1, 3),), EQ, 1), ((F(1, 2),), EQ, 2)), (F(-3, 1), 2), True),
            # A negative multiplier on an inequality row is no certificate,
            # even where it would combine correctly.
            ((((1,), GE, 1), ((-1,), GE, 0)), (1, 1), True),
            ((((1,), GE, 1), ((1,), GE, 0)), (1, -1), False),
            ((((1,), GT, 0), ((1,), EQ, 1)), (-1, 1), False),
            # Combined rhs zero: a certificate only with positive strict mass.
            ((((1,), GT, 0), ((-1,), GE, 0)), (1, 1), True),
            ((((1,), GE, 0), ((-1,), GE, 0)), (1, 1), False),
            ((((1,), GT, 0), ((1,), GE, 0), ((-1,), GE, 0)), (0, 1, 1), False),
            ((((F(1, 7),), GT, 0), ((F(-1, 3),), GT, 0)), (7, 3), True),
            # Combined rhs 10^-20 below or above zero.
            ((((1,), GE, 0), ((-1,), GE, F(-1, 10**20))), (1, 1), False),
            ((((1,), GE, 0), ((-1,), GE, F(1, 10**20))), (1, 1), True),
            # Zero multipliers, and rows of mixed denominators weighted
            # onto a common one.
            ((((5,), GE, 9), ((F(1, 3),), GE, F(1, 2)), ((F(-1, 2),), GE, 0)),
             (0, 3, 2), True),
            ((((5,), GE, 9), ((F(1, 3),), GE, F(1, 2)), ((F(-1, 2),), GE, 0)),
             (0, 3, 1), False),
            ((((5,), GE, 9), ((F(1, 3),), GE, F(1, 2))), (0, 0), False),
        ],
    )
    def test_farkas(self, rows, farkas, expected):
        system = LinSystem(1, rows_of(*rows))
        farkas = tuple(F(lam) for lam in farkas)
        assert reference_farkas(system, farkas) == expected
        assert verify_farkas(system, farkas) == expected


class TestVectorLength:
    """A vector of the wrong length is no certificate."""

    system = LinSystem(2, rows_of(((1, 1), GE, 1), ((0, 1), GE, 0)))

    def test_point(self):
        assert verify_point(self.system, (F(1), F(0)))
        assert not verify_point(self.system, (F(1),))
        assert not verify_point(self.system, (F(1), F(0), F(7)))

    def test_farkas(self):
        infeasible = LinSystem(1, rows_of(((1,), GE, 1), ((-1,), GE, 0)))
        assert verify_farkas(infeasible, (F(1), F(1)))
        assert not verify_farkas(infeasible, (F(1),))
        assert not verify_farkas(infeasible, (F(1), F(1), F(0)))


class TestGateWork:
    def test_run_all_gate_and_solve_counts(self, monkeypatch):
        # Every LP of the worked examples is solved and every answer passes
        # its gate.  These are gates on the gates: a speed-up must not come
        # from fewer checks, so never change a count to let one pass.
        desirable.avoids_nonpositivity.cache_clear()
        maximal.lex_is_maximal.cache_clear()
        space._restriction_map.cache_clear()
        space._slice_map.cache_clear()
        counts = collections.Counter()
        for name in ("verify_point", "verify_farkas"):
            gate = getattr(exactlp, name)

            def counted(system, vector, _gate=gate, _name=name):
                ok = _gate(system, vector)
                counts[_name, ok] += 1
                return ok

            monkeypatch.setattr(exactlp, name, counted)
        engine = exactlp._solve_engine

        def solved(system):
            outcome, simplex = engine(system)
            counts[type(outcome).__name__] += 1
            return outcome, simplex

        monkeypatch.setattr(exactlp, "_solve_engine", solved)
        assert all(result.passed for result in fixtures.run_all())
        assert counts == {
            ("verify_point", True): 50,
            ("verify_farkas", True): 111,
            "Optimal": 50,
            "Infeasible": 62,
        }

    def test_run_all_pivot_count(self, monkeypatch):
        # The simplex work of the worked examples: pivots over all 112 LPs,
        # both phases.  A pin that may only fall; it was 6145 when every
        # tableau row started on an artificial, and 4883 over 623 LPs
        # before product membership walked chains of sign cells.
        desirable.avoids_nonpositivity.cache_clear()
        maximal.lex_is_maximal.cache_clear()
        space._restriction_map.cache_clear()
        space._slice_map.cache_clear()
        counts = collections.Counter()
        engine = exactlp._solve_engine

        def solved(system):
            outcome, simplex = engine(system)
            counts["lps"] += 1
            counts["pivots"] += simplex.pivots
            return outcome, simplex

        monkeypatch.setattr(exactlp, "_solve_engine", solved)
        assert all(result.passed for result in fixtures.run_all())
        assert counts == {"lps": 112, "pivots": 702}
