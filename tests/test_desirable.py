"""Set expressions: exact membership, consistency certificates, audits."""

import pickle
import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desirability import (
    BudgetExceededError,
    CellSet,
    CredalSet,
    DesirabilityError,
    EngineError,
    Gamble,
    GeneratorSet,
    IncoherentBaseError,
    IrrExt,
    LexSystem,
    MissingConditionError,
    Scope,
    ScopeError,
    Tri,
    UnsupportedQueryError,
    Variable,
    avoids_nonpositivity,
    conditional_lower_prevision,
    inex_lower_prevision,
    inex_member,
    lower_prevision,
    member,
    strictly_desirable,
    strong_product_lower,
)
from desirability import desirable, independence
from desirability.desirable import (
    Cell,
    CellRow,
    Conditioned,
    ConditionalFamily,
    IndepProduct,
    StrongProduct,
    cellset_coherence_audit,
    check_coherent,
    cone_program,
    natext_member,
    scaled_member,
    scope_of,
    sign_cells,
    sign_chain,
)
from desirability.independence import conditional_inex, independent_product
from desirability.previsions import credal_view, strong_member
from desirability.exactlp import EQ, GE, GT, Infeasible, solve
from desirability.maximal import lex_accepts, lex_is_coherent, lex_is_maximal
from desirability.space import CACHE_MAXSIZE, _restriction_map, _slice_map
from desirability.structure import cyl_ext
from randgen import random_credal, random_gamble, random_generator_set
from references import _product_mass, condition_bar_member, lower_expectation

V1 = Variable("X1", ("a", "b"))
V2 = Variable("X2", ("a", "b"))
S1 = Scope.of([V1])
S2 = Scope.of([V2])
S12 = S1.union(S2)
V3 = Variable("X3", ("a", "b", "c"))
S3 = Scope.of([V3])


def lean(scope=S1):
    return GeneratorSet.of(scope, [Gamble.on(scope, [1, -1])])


class TestTri:
    def test_values_do_not_coerce_to_bool(self):
        with pytest.raises(TypeError):
            bool(Tri.IN)

    def test_of_maps_booleans(self):
        assert Tri.of(True) is Tri.IN
        assert Tri.of(False) is Tri.OUT


class TestGeneratorSet:
    def test_deduplicates_and_sorts(self):
        f = Gamble.on(S1, [1, -1])
        g = Gamble.on(S1, [0, 1])
        built = GeneratorSet.of(S1, [f, g, f])
        assert built.generators == tuple(sorted([f, g], key=lambda x: x.values))

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            GeneratorSet.of(S1, [Gamble.zero(S1)])

    def test_embeds_marginal_generators(self):
        built = GeneratorSet.of(S12, [Gamble.on(S1, [1, -1])])
        assert built.generators[0].scope == S12


class TestConsistency:
    def test_opposed_pair_is_inconsistent(self):
        gens = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [-1, 1])])
        cert = avoids_nonpositivity(gens)
        assert not cert.avoids
        lam = cert.nonpositive_combination
        assert all(c >= 0 for c in lam) and any(c > 0 for c in lam)

    def test_single_direction_is_consistent(self):
        cert = avoids_nonpositivity(lean())
        assert cert.avoids
        p = cert.positive_mass
        assert sum(p) == 1 and all(v > 0 for v in p)
        assert Gamble.on(S1, p).dot((Fraction(1), Fraction(-1))) > 0

    def test_empty_assessment_is_consistent(self):
        assert avoids_nonpositivity(GeneratorSet.of(S1, [])).avoids

    @pytest.mark.parametrize(
        "scope, gambles, mass",
        [
            (S1, [[1, -1]], ["2/3", "1/3"]),
            (
                S12,
                [[1, -1, 0, 0], [0, 0, 2, -1], [-1, 3, 1, -2]],
                ["5/12", "1/4", "1/6", "1/6"],
            ),
            (S3, [[2, -1, -1], [-1, 2, 0], [0, -1, 3]], ["5/12", "1/3", "1/4"]),
        ],
    )
    def test_positive_mass_is_pinned(self, scope, gambles, mass):
        cone = GeneratorSet.of(scope, [Gamble.on(scope, g) for g in gambles])
        cert = avoids_nonpositivity.__wrapped__(cone)
        assert cert.positive_mass == tuple(Fraction(m) for m in mass)

    @pytest.mark.parametrize(
        "gambles, avoids",
        [([[1, -1, 0, 0], [0, 0, 2, -1]], True), ([[1, -1, 0, 0], [-1, 1, 0, 0]], False)],
    )
    def test_uncached_check_solves_one_lp(self, monkeypatch, gambles, avoids):
        calls = []
        for name in ("strict_feasible", "solve"):
            def counted(system, _real=getattr(desirable, name), _name=name):
                calls.append(_name)
                return _real(system)

            monkeypatch.setattr(desirable, name, counted)
        cone = GeneratorSet.of(S12, [Gamble.on(S12, g) for g in gambles])
        cert = avoids_nonpositivity.__wrapped__(cone)
        assert cert.avoids is avoids
        assert calls == ["strict_feasible"]
        if not avoids:
            assert cert.nonpositive_combination == (Fraction(1, 2), Fraction(1, 2))

    def test_bad_combination_raises_engine_error(self, monkeypatch):
        # Multipliers that put all their weight on the generator row claim
        # that (1, -1) alone is nonpositive; the substitution check refuses.
        bogus = Infeasible((Fraction(0), Fraction(0), Fraction(1)))
        monkeypatch.setattr(desirable, "strict_feasible", lambda system: bogus)
        with pytest.raises(EngineError):
            avoids_nonpositivity.__wrapped__(lean())

    def test_exhausted_draws_raise_budget_error(self):
        with pytest.raises(BudgetExceededError) as info:
            random_generator_set(random.Random(0), S1, attempts=0)
        assert isinstance(info.value, DesirabilityError)

    def test_process_wide_caches_stay_bounded(self):
        for cached in (avoids_nonpositivity, lex_is_maximal, _restriction_map, _slice_map):
            assert cached.cache_info().maxsize == CACHE_MAXSIZE
        for k in range(3 * CACHE_MAXSIZE):
            avoids_nonpositivity(GeneratorSet.of(S1, [Gamble.on(S1, [k + 1, -1])]))
            assert avoids_nonpositivity.cache_info().currsize <= CACHE_MAXSIZE


class TestNaturalExtensionMembership:
    def test_scaled_generator_accepted(self):
        assert natext_member(lean(), Gamble.on(S1, [2, -2]))

    def test_dominated_by_nothing_rejected(self):
        assert not natext_member(lean(), Gamble.on(S1, [0, -1]))

    def test_positive_accepted_without_generators(self):
        assert natext_member(lean(), Gamble.on(S1, [1, 0]))

    def test_zero_rejected(self):
        assert not natext_member(lean(), Gamble.zero(S1))

    def test_inconsistent_base_refuses(self):
        gens = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [-1, 1])])
        with pytest.raises(IncoherentBaseError):
            natext_member(gens, Gamble.on(S1, [1, 0]))

    def test_membership_matches_brute_cone_search(self):
        rng = random.Random("cone-search")
        for i in range(10):
            gens = random_generator_set(rng, S1, count=2)
            g1, g2 = gens.generators
            for f in (random_gamble(rng, S1, nonzero=True) for _ in range(6)):
                brute = False
                for a in range(0, 13):
                    for b in range(0, 13):
                        dominated = g1 * Fraction(a, 4) + g2 * Fraction(b, 4)
                        if all(
                            fv >= dv
                            for fv, dv in zip(f.values, dominated.values)
                        ):
                            brute = True
                            break
                    if brute:
                        break
                if brute:
                    assert natext_member(gens, f), "i=%d f=%s" % (i, f.values)


class TestConeProgram:
    def test_weight_rows_lead_and_the_shift_is_free(self, monkeypatch):
        # lean() prices [-1, -3] at -2 (the mass (1/2, 1/2)): the shift ``mu``
        # must be free to go negative, so it carries no sign row; each
        # generator weight carries one, ahead of the outcome rows.
        cone = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [2, -1])])
        f = Gamble.on(S1, [-1, -3])
        system = cone_program(cone._negated_ints, f.nums, f.den, Gamble.constant(S1, -1))
        assert system.n_vars == 3 and len(system.rows) == 4
        assert [row.coeffs for row in system.rows[:2]] == [(0, 1, 0), (0, 0, 1)]
        assert all(row.coeffs[0] == -1 for row in system.rows[2:])
        program = cone_program(lean()._negated_ints, f.nums, f.den, Gamble.constant(S1, -1))
        assert solve(program, (1,) + (0,) * (program.n_vars - 1)).value == -2
        # Membership hands the walk's system to ``strict_feasible``: it too
        # leads with one ``>=`` unit row per generator weight.
        seen = []
        real = independence.strict_feasible
        monkeypatch.setattr(
            independence, "strict_feasible", lambda system: seen.append(system) or real(system)
        )
        assert member(cone, Gamble.on(S1, [3, -1])) is Tri.IN
        [system] = seen
        assert [(row.coeffs, row.rel) for row in system.rows[:2]] == [((1, 0), GE), ((0, 1), GE)]


class TestCellSets:
    def test_strictly_desirable_membership(self):
        credal = CredalSet.of(S1, [("1/2", "1/2")])
        cells = strictly_desirable(credal)
        assert member(cells, Gamble.on(S1, [1, -1])) is Tri.OUT
        assert member(cells, Gamble.on(S1, [2, -1])) is Tri.IN
        assert member(cells, Gamble.on(S1, [0, 1])) is Tri.IN
        assert member(cells, Gamble.zero(S1)) is Tri.OUT

    def test_audit_passes_strictly_desirable(self):
        credal = CredalSet.of(S1, [("2/5", "3/5"), ("1/2", "1/2")])
        report = cellset_coherence_audit(strictly_desirable(credal))
        assert report.passed
        assert all(f.passed for f in report.findings)

    def test_audit_flags_weak_halfspace(self):
        halfspace = CellSet(
            S1,
            (Cell((CellRow(Gamble.on(S1, [1, 0]), GE),)),),
            include_positive=False,
        )
        report = cellset_coherence_audit(halfspace)
        assert not report.excludes_zero.passed
        assert report.excludes_zero.counterexample.is_zero()
        assert not report.passed


def _on_x2(*rows, include_positive=True):
    """The positives (unless dropped) and one cell of ``rows`` on X2, each
    row ``(functional, rel)``."""
    cell = Cell(tuple(CellRow(Gamble.on(S2, e), rel) for e, rel in rows))
    return CellSet(S2, (cell,), include_positive=include_positive)


class TestCredalProvenance:
    """A cell set's ``from_credal`` masses are read from its cells, so the
    product's support-mass filter and the credal view, which read them,
    can never disagree with the set."""

    def _open_cell(self, *functionals):
        return (Cell(tuple(CellRow(Gamble.on(S1, e), GT) for e in functionals)),)

    def test_a_mislabelled_set_is_rejected_instead_of_misjudged(self):
        lex = LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])
        h = Gamble.on(S1, [-5, 1])
        plain = CellSet(S1, self._open_cell([0, 1]), include_positive=True)
        # A mass giving ``h`` negative expectation would let the
        # support-mass filter reject ``h``; the set's mass is its own row.
        assert plain.from_credal == ((0, 1),)
        assert inex_member(independent_product([plain, lex]), h) is Tri.IN

    def test_strictly_desirable_sets_keep_their_provenance(self):
        # A credal set built directly may repeat a vertex or hold a point
        # that is not extreme; its strictly desirable set still constructs.
        ends = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        credal = CredalSet(S1, ends + ((Fraction(1, 2), Fraction(1, 2)), ends[0]))
        cells = strictly_desirable(credal)
        assert cells.from_credal == credal.vertices
        rebuilt = CellSet(S1, cells.cells, include_positive=True)
        assert rebuilt == cells
        assert member(cells, Gamble.on(S1, [1, 1])) is Tri.IN

    def test_a_hand_written_strictly_desirable_set_behaves_like_its_twin(self):
        hand = _on_x2(([1, 3], GT), ([2, 2], GT))
        twin = strictly_desirable(CredalSet.of(S2, [("1/2", "1/2"), ("1/4", "3/4")]))
        masses = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2)))
        assert hand.from_credal == twin.from_credal == masses
        assert credal_view(hand) == credal_view(twin)
        w = LexSystem.on(S1, [["1/2", "1/2"], [1, 0]])
        hand_product, twin_product = (independent_product([w, s]) for s in (hand, twin))
        hand_mass, twin_mass = (_product_mass(p, p.scope) for p in (hand_product, twin_product))
        assert hand_mass is not None and hand_mass == twin_mass
        assert len(sign_chain(hand)) == len(sign_chain(twin))
        # The rows differ by a positive scale, so their LPs may pivot
        # differently; only the verdicts must agree.
        hand_strong, twin_strong = (StrongProduct((lean(), s)) for s in (hand, twin))
        assert strong_member(hand_strong, Gamble.on(S12, [1, -1, -1, 2])) is Tri.OUT
        rng = random.Random("hand-and-twin")
        for _ in range(40):
            f = random_gamble(rng, S12)
            assert member(hand_product, f) is member(twin_product, f), f
            assert strong_member(hand_strong, f) is strong_member(twin_strong, f), f
        hand_closed = cellset_coherence_audit(hand).posi_closed
        assert hand_closed == cellset_coherence_audit(twin).posi_closed
        assert hand_closed.mode == "structural"

    @pytest.mark.parametrize(
        "cs",
        [
            _on_x2(([1, 3], GT), ([0, 0], GT)),
            _on_x2(([1, 3], GT), ([2, -1], GT)),
            CellSet(S2, (Cell((CellRow(Gamble.on(S2, [1, 3]), GT),)),) * 2, include_positive=True),
            _on_x2(([1, 3], GT), ([2, 2], GT), include_positive=False),
            _on_x2(([1, 3], GT), ([2, 2], GE)),
        ],
        ids=["zero-functional", "negative-entry", "two-cells", "no-positives", "weak-row"],
    )
    def test_other_shapes_have_no_masses(self, cs):
        assert cs.from_credal is None
        with pytest.raises(UnsupportedQueryError, match="no credal view"):
            credal_view(cs)


def _cells(*cells, include_positive=False):
    """A cell set on X1 from cells given as ``((functional, rel), ...)``."""
    return CellSet(
        S1,
        tuple(
            Cell(tuple(CellRow(Gamble.on(S1, e), rel) for e, rel in rows), exclude_zero=True)
            for rows in cells
        ),
        include_positive=include_positive,
    )


class TestCellSetAudit:
    """The audit's branches on small cell sets; every counterexample it
    reports is re-checked by membership."""

    def test_exact_positives_check_negates_strict_and_equality_rows(self):
        # f1 > f2, f1 = f2 and f2 > f1 cover every positive gamble; the
        # negations of the strict rows (>= on the negated functional) and of
        # the equality (> on either side) leave no positive gamble.
        covered = _cells([([1, -1], GT)], [([1, -1], EQ)], [([-1, 1], GT)])
        finding = cellset_coherence_audit(covered).accepts_positives
        assert (finding.passed, finding.mode) == (True, "exact")
        # Without the last cell a positive gamble with f2 > f1 is left out.
        gap = _cells([([1, -1], GT)], [([1, -1], EQ)])
        finding = cellset_coherence_audit(gap).accepts_positives
        assert (finding.passed, finding.mode) == (False, "exact")
        witness = finding.counterexample
        assert witness.is_positive() and witness.values[1] > witness.values[0]
        assert member(gap, witness) is Tri.OUT

    @pytest.mark.parametrize(
        "cells, passed",
        [
            # f1 > 0 with f2 >= 0, or f2 > 0: every positive gamble.
            ([[([1, 0], GT), ([0, 1], GE)], [([0, 1], GT)]], True),
            # Both values positive: (1, 0) is left out.
            ([[([1, 0], GT), ([0, 1], GT)]], False),
        ],
    )
    def test_positives_fall_back_to_samples_over_the_branch_budget(
        self, monkeypatch, cells, passed
    ):
        cs = _cells(*cells)
        assert desirable._positives_covered(cs, 1) == (None, None)
        exact, _ = desirable._positives_covered(cs, desirable.AUDIT_BRANCH_BUDGET)
        assert exact is passed
        monkeypatch.setattr(desirable, "AUDIT_BRANCH_BUDGET", 1)
        finding = cellset_coherence_audit(cs).accepts_positives
        assert (finding.passed, finding.mode) == (passed, "sampled")
        if not passed:
            bad = finding.counterexample
            assert bad.is_positive() and member(cs, bad) is Tri.OUT

    @pytest.mark.parametrize("exclude_zero", [True, False])
    def test_zero_is_held_by_a_weak_cell_unless_it_excludes_zero(self, exclude_zero):
        # Zero meets every ``>=`` and ``=`` row; only ``exclude_zero`` or a
        # ``>`` row keeps it out.
        rows = (CellRow(Gamble.on(S1, [1, -1]), EQ), CellRow(Gamble.on(S1, [1, 0]), GE))
        cs = CellSet(S1, (Cell(rows, exclude_zero=exclude_zero),))
        finding = cellset_coherence_audit(cs).excludes_zero
        assert finding.passed is exclude_zero
        assert (member(cs, Gamble.zero(S1)) is Tri.OUT) is exclude_zero

    def test_positives_with_one_strict_nonnegative_cell_are_posi_closed(self):
        cs = _cells([([1, 2], GT)], include_positive=True)
        finding = cellset_coherence_audit(cs).posi_closed
        assert (finding.passed, finding.mode) == (True, "structural")
        assert finding.detail == "strict lower-envelope family: combinations keep every strict row"

    def test_positives_with_a_rowless_cell_are_not_called_posi_closed(self):
        # With zero excluded the row-less cell is every nonzero gamble,
        # which f + (-f) = 0 leaves: the set has no masses to lean on.
        cs = CellSet(S1, (Cell((), exclude_zero=True),), include_positive=True)
        assert cs.from_credal is None
        finding = cellset_coherence_audit(cs).posi_closed
        assert (finding.passed, finding.mode) == (False, "sampled")
        assert member(cs, finding.counterexample) is Tri.OUT

    def test_sampled_posi_closure_finds_a_sum_outside_the_set(self):
        # Two open rays: each is closed, their union is not.
        rays = _cells([([1, 0], GT), ([0, 1], EQ)], [([0, 1], GT), ([1, 0], EQ)])
        finding = cellset_coherence_audit(rays).posi_closed
        assert (finding.passed, finding.mode) == (False, "sampled")
        assert finding.detail == "sum of two members left the set"
        assert member(rays, finding.counterexample) is Tri.OUT


# -- sign cells: the one decomposition that prices and products read --------

_SIGN_SCOPES = [Scope.of([Variable("Y", tuple("abc"[:n]))]) for n in (1, 2, 3)]


def _null_projection(g, functionals):
    """``g`` minus its exact projection onto the span of ``functionals``:
    a gamble on the boundary of every sign row among them."""
    basis = []
    for e in functionals:
        u = list(e)
        for b in basis:
            c = sum(x * y for x, y in zip(e, b)) / sum(y * y for y in b)
            u = [x - c * y for x, y in zip(u, b)]
        if any(u):
            basis.append(u)
    values = list(g.values)
    for b in basis:
        c = sum(x * y for x, y in zip(values, b)) / sum(y * y for y in b)
        values = [x - c * y for x, y in zip(values, b)]
    return Gamble(g.scope, tuple(values))


def _model_functionals(model):
    if isinstance(model, LexSystem):
        return list(model.levels)
    return [row.functional.values for cell in model.cells for row in cell.rows]


def _assert_sign_cell_contract(model, f):
    """The contract on ``f``; returns whether ``f`` is in the set.  An
    incoherent lex system is gated on every query, so its set is read by
    ``lex_accepts``."""
    cells = sign_cells(model)
    if isinstance(model, LexSystem) and not lex_is_coherent(model):
        with pytest.raises(IncoherentBaseError, match="incoherent lex system"):
            member(model, f)
        inside = lex_accepts(model.int_levels, f.nums)
    else:
        inside = member(model, f) is Tri.IN
    assert any(_in_cell(model.scope, cell, f) for cell in cells) == inside, (model, f)
    admitted = any(_in_cell(model.scope, Cell(cell.rows), f) for cell in cells)
    assert admitted == (inside or f.is_zero()), (model, f)
    return inside


def _in_cell(scope, cell, f):
    """Does ``cell`` on ``scope`` hold ``f``?  Asked of the one-cell set."""
    return member(CellSet(scope, (cell,)), f) is Tri.IN


def _random_sign_model(rng, scope):
    """A cell set (incoherent ones included) or a lex system, maximal or not."""
    if rng.random() < 0.5:
        levels = []
        for _ in range(rng.randint(1, 4)):
            weights = [rng.randint(0, 3) for _ in range(scope.size)]
            if not any(weights):
                weights[rng.randrange(scope.size)] = 1
            levels.append([Fraction(w, sum(weights)) for w in weights])
        return LexSystem.on(scope, levels)
    cells = []
    for _ in range(rng.randint(0, 3)):
        rows = tuple(
            CellRow(random_gamble(rng, scope, -2, 2), rng.choice([GE, GT, EQ]))
            for _ in range(rng.randint(0, 3))
        )
        cells.append(Cell(rows, exclude_zero=rng.random() < 0.5))
    return CellSet(scope, tuple(cells), include_positive=rng.random() < 0.5)


class TestSignCells:
    def test_union_is_the_set_honouring_exclusion_and_adds_zero_ignoring_it(self):
        rng = random.Random("sign-cells")
        seen = set()
        for _ in range(400):
            model = _random_sign_model(rng, rng.choice(_SIGN_SCOPES))
            functionals = _model_functionals(model)
            gambles = [Gamble.zero(model.scope)]
            for _ in range(4):
                g = random_gamble(rng, model.scope)
                gambles.append(g)
                if functionals:
                    k = rng.randint(1, len(functionals))
                    gambles.append(_null_projection(g, functionals[:k]))
            for f in gambles:
                seen.add((type(model).__name__, _assert_sign_cell_contract(model, f)))
            if isinstance(model, LexSystem):
                seen.add(("maximal", lex_is_maximal(model)))
        assert seen >= {
            ("CellSet", True), ("CellSet", False), ("LexSystem", True),
            ("LexSystem", False), ("maximal", True), ("maximal", False),
        }

    @given(st.data())
    def test_contract_on_drawn_models_and_boundary_gambles(self, data):
        scope = data.draw(st.sampled_from(_SIGN_SCOPES))
        ints = st.lists(
            st.integers(-2, 2), min_size=scope.size, max_size=scope.size
        ).map(lambda v: Gamble.on(scope, v))
        if data.draw(st.booleans()):
            masses = st.lists(
                st.integers(0, 3), min_size=scope.size, max_size=scope.size
            ).filter(any)
            levels = data.draw(st.lists(masses, min_size=1, max_size=4))
            model = LexSystem.on(scope, [[Fraction(w, sum(m)) for w in m] for m in levels])
        else:
            row = st.builds(CellRow, ints, st.sampled_from([GE, GT, EQ]))
            cell = st.builds(Cell, st.lists(row, max_size=3).map(tuple), st.booleans())
            model = CellSet(
                scope,
                tuple(data.draw(st.lists(cell, max_size=3))),
                include_positive=data.draw(st.booleans()),
            )
        g = data.draw(ints)
        functionals = _model_functionals(model)
        k = data.draw(st.integers(0, len(functionals)))
        for f in (g, _null_projection(g, functionals[:k]), Gamble.zero(scope)):
            _assert_sign_cell_contract(model, f)

    def test_cell_order(self):
        row = CellRow(Gamble.on(S1, [1, -1]), GT)
        own = (Cell((row,)),)
        with_positives = sign_cells(CellSet(S1, own, include_positive=True))
        assert with_positives[1:] == own
        assert [r.rel for r in with_positives[0].rows] == [GE, GE]
        assert with_positives[0].exclude_zero
        without = sign_cells(CellSet(S1, own))
        assert without[:-1] == own
        assert [r.rel for r in without[-1].rows] == [EQ, EQ]
        maximal = LexSystem.on(S1, [["1/2", "1/2"], [1, 0]])
        assert [[r.rel for r in c.rows] for c in sign_cells(maximal)] == [[GT], [EQ, GE]]
        assert [c.exclude_zero for c in sign_cells(maximal)] == [False, True]
        flat = LexSystem.on(S1, [["1/2", "1/2"]])
        assert [[r.rel for r in c.rows] for c in sign_cells(flat)] == [[GT], [EQ, EQ]]

    def test_chain_order(self):
        # Lex cells are a chain as listed, and so are those of one cell
        # without the positives: the cell, then the zero cell.  A strictly
        # desirable credal set's are one in reverse, its open cell first.
        # A set with the positives and two cells, or with a row that is not
        # ``>`` over a nonnegative functional, has none.
        maximal = LexSystem.on(S1, [["1/2", "1/2"], [1, 0]])
        assert sign_chain(maximal) == sign_cells(maximal)
        strict = strictly_desirable(CredalSet.of(S1, [("1/3", "2/3"), ("3/4", "1/4")]))
        assert sign_chain(strict) == sign_cells(strict)[::-1]
        assert sign_chain(strict)[0] == strict.cells[0]
        open_cell = Cell((CellRow(Gamble.on(S1, [1, 2]), GT),))
        alone = CellSet(S1, (open_cell,))
        assert sign_chain(alone) == sign_cells(alone) == (open_cell, sign_cells(alone)[1])
        assert all(row.rel == EQ for row in sign_chain(alone)[1].rows)
        for other in (
            Cell((CellRow(Gamble.on(S1, [1, -1]), GT),)),
            Cell((CellRow(Gamble.on(S1, [1, 2]), GE),)),
        ):
            assert sign_chain(CellSet(S1, (other,), include_positive=True)) is None
            assert sign_chain(CellSet(S1, (open_cell, other), include_positive=True)) is None

    def test_chain_cells_lie_in_each_earlier_weak_relaxation(self):
        # What the product walk relies on: a gamble that a later cell admits
        # satisfies every row of each earlier cell with ``>`` read as
        # ``>=``, and the last cell has no ``>`` row.
        rng = random.Random("sign-chain")
        chains = 0
        for _ in range(300):
            scope = rng.choice(_SIGN_SCOPES)
            if rng.random() < 0.3:
                credal = random_credal(rng, scope, rng.randint(1, 3))
                model = strictly_desirable(credal)
            else:
                model = _random_sign_model(rng, scope)
            chain = sign_chain(model)
            if chain is None:
                continue
            chains += 1
            assert all(row.rel != GT for row in chain[-1].rows)
            functionals = [row.functional.values for cell in chain for row in cell.rows]
            for _ in range(6):
                g = random_gamble(rng, scope)
                k = rng.randint(0, len(functionals))
                f = _null_projection(g, functionals[:k])
                admitted = [_in_cell(scope, Cell(cell.rows), f) for cell in chain]
                for j in range(len(chain)):
                    if not admitted[j]:
                        continue
                    for cell in chain[:j]:
                        for row in cell.rows:
                            weak = CellRow(row.functional, GE if row.rel == GT else row.rel)
                            assert _in_cell(scope, Cell((weak,)), f), (model, f)
        assert chains > 100


class TestDispatch:
    def test_extension_node_rejects_slice_violations(self):
        base = strictly_desirable(CredalSet.of(S2, [("1/2", "1/2")]))
        node = IrrExt(base, Scope.empty(), S12)
        lifted = Gamble.on(S2, [1, -1]).embed(S12)
        assert member(node, lifted) is Tri.OUT
        better = Gamble.on(S2, [2, -1]).embed(S12)
        assert member(node, better) is Tri.IN
        assert member(node, Gamble.on(S12, [1, -1, 0, 0])) is Tri.OUT

    def test_conditional_family_misses_loudly(self):
        family = ConditionalFamily(
            on=S1,
            entries=((S1.assignment_at(0), lean(S2)),),
        )
        with pytest.raises(MissingConditionError):
            family.at(S1.assignment_at(1))
        assert family.at(S1.assignment_at(0)) == lean(S2)

    def test_conditional_family_answers_no_plain_query_and_keeps_nothing(self):
        # ``member`` and ``scaled_member`` raise the one message on every
        # query, and the family keeps no test.
        family = ConditionalFamily(on=S1, entries=((S1.assignment_at(0), lean(S2)),))
        message = (
            "conditional families answer only conditioned queries; "
            "condition on an assignment of ('X1',) first"
        )
        f = Gamble.on(S2, [3, 1])
        for query in (
            lambda: member(family, f),
            lambda: scaled_member(family, f.nums, 100000),
        ):
            for _ in range(2):
                with pytest.raises(UnsupportedQueryError) as info:
                    query()
                assert str(info.value) == message
                assert "_int_test" not in vars(family)


HALF1 = CredalSet.of(S1, [("1/2", "1/2")])
HALF2 = CredalSet.of(S2, [("1/2", "1/2")])
SURE1 = LexSystem.on(S1, [[1, 0], [0, 1]])
SURE2 = LexSystem.on(S2, [[1, 0], [0, 1]])
FOREIGN_ENTRY_POINTS = {
    "member": lambda f: member(lean(S1), f),
    "irr_member": lambda f: member(IrrExt(lean(S2), S1, S12), f),
    "inex_member": lambda f: inex_member(
        IndepProduct((lean(S1), strictly_desirable(HALF2))), f
    ),
    "lower_prevision": lambda f: lower_prevision(lean(S1), f),
    "lower_expectation": lambda f: lower_expectation(HALF1, f),
    "inex_lower_prevision": lambda f: inex_lower_prevision([HALF1, HALF2], f),
    "strong_product_lower": lambda f: strong_product_lower([HALF1, HALF2], f),
    "strong_member": lambda f: strong_member(StrongProduct((lean(S1), lean(S2))), f),
    "strong_member_lex": lambda f: strong_member(StrongProduct((SURE1, SURE2)), f),
    "condition_bar_member": lambda f: condition_bar_member(
        GeneratorSet.of(S12, []), S1.assignment_at(0), f
    ),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_ENTRY_POINTS))
def test_gamble_on_a_foreign_variable_raises_scope_error(entry):
    with pytest.raises(ScopeError):
        FOREIGN_ENTRY_POINTS[entry](Gamble.on(S3, [1, -1, 0]))


EMPTY_PRODUCT_SITES = {
    "IndepProduct": lambda: IndepProduct(()),
    "StrongProduct": lambda: StrongProduct(()),
    "independent_product": lambda: independent_product([]),
    "conditional_inex": lambda: conditional_inex([]),
    "inex_lower_prevision": lambda: inex_lower_prevision([], Gamble.on(S1, [1, 0])),
    "strong_product_lower": lambda: strong_product_lower([], Gamble.on(S1, [1, 0])),
}


@pytest.mark.parametrize("site", sorted(EMPTY_PRODUCT_SITES))
def test_a_product_of_no_blocks_raises_a_typed_error(site):
    # The product of no blocks has no joint scope to price on.
    with pytest.raises(DesirabilityError):
        EMPTY_PRODUCT_SITES[site]()


# ``BAD``'s two generators sum to zero, so it fails the consistency check;
# ``LBAD`` gives X1 = b no mass at any level.  ``check_coherent`` is the one
# gate for both, with one message each, on every query path.
BAD = GeneratorSet.of(S1, [Gamble.on(S1, [1, -1]), Gamble.on(S1, [-1, 1])])
LBAD = LexSystem.on(S1, [[1, 0]])
TIED2 = LexSystem.on(S2, [["1/2", "1/2"], [1, 0]])
GENERATOR_MESSAGE = r"assessment admits a nonpositive combination \(\d+/\d+(,\d+/\d+)*\)"
LEX_MESSAGE = re.escape("incoherent lex system: its levels leave an outcome without mass")
POSITIVE12 = Gamble.on(S12, [1, 1, 1, 1])
# Products built once, so that their second query meets whatever the first
# one kept.
BAD_PRODUCT = IndepProduct((BAD, TIED2))
LBAD_PRODUCT = IndepProduct((LBAD, TIED2))
BAD_STRONG = StrongProduct((BAD, TIED2))
LBAD_STRONG = StrongProduct((LBAD, strictly_desirable(HALF2)))
GATED_PATHS = {
    "member": (lambda: member(BAD, Gamble.on(S1, [1, 0])), GENERATOR_MESSAGE),
    "lower_prevision": (
        lambda: lower_prevision(BAD, Gamble.on(S1, [1, 0])), GENERATOR_MESSAGE
    ),
    "conditional_lower_prevision": (
        lambda: conditional_lower_prevision(
            cyl_ext(BAD, S12), S2.assignment_at(0), Gamble.on(S1, [1, 0])
        ),
        GENERATOR_MESSAGE,
    ),
    "inex_member_generators": (
        lambda: inex_member(BAD_PRODUCT, POSITIVE12), GENERATOR_MESSAGE
    ),
    "inex_member_lex": (lambda: inex_member(LBAD_PRODUCT, POSITIVE12), LEX_MESSAGE),
    "member_product": (lambda: member(BAD_PRODUCT, POSITIVE12), GENERATOR_MESSAGE),
    "strong_member_generators": (
        lambda: strong_member(BAD_STRONG, POSITIVE12), GENERATOR_MESSAGE
    ),
    "strong_member_lex": (lambda: strong_member(LBAD_STRONG, POSITIVE12), LEX_MESSAGE),
    "member_lex": (lambda: member(LBAD, Gamble.on(S1, [0, 1])), LEX_MESSAGE),
    "lower_prevision_lex": (lambda: lower_prevision(LBAD, Gamble.on(S1, [0, 1])), LEX_MESSAGE),
    "member_lex_extension": (
        lambda: member(cyl_ext(LBAD, S12), Gamble.on(S12, [0, 1, 0, 1])), LEX_MESSAGE
    ),
}


@pytest.mark.parametrize("path", sorted(GATED_PATHS))
def test_an_incoherent_model_fails_one_gate_with_one_message(path):
    # A gate that raises keeps nothing, so the second query raises too.
    query, message = GATED_PATHS[path]
    for _ in range(2):
        with pytest.raises(IncoherentBaseError) as info:
            query()
        assert re.fullmatch(message, str(info.value)), str(info.value)


def test_a_product_over_a_non_leaf_marginal_answers_its_filters_first():
    # The sign filters decide before the marginal's kind is looked at, on
    # every query; a gamble they leave open raises, also the second time.
    S13 = S1.union(S3)
    levels = [["1/6"] * 6, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    conditioned = Conditioned(LexSystem.on(S13, levels), S3.assignment_at(0))
    node = IndepProduct((conditioned, TIED2))
    for _ in range(2):
        assert inex_member(node, POSITIVE12) is Tri.IN
        assert member(node, Gamble.on(S12, [0, -1, 0, 0])) is Tri.OUT
        with pytest.raises(UnsupportedQueryError, match="leaf marginals"):
            member(node, Gamble.on(S12, [1, -1, 1, -1]))


def test_an_extension_keeps_its_base_gate_but_never_an_error(monkeypatch):
    # An incoherent base raises on every query of the same node, with the
    # gate's message; a coherent base passes the gate once per node.
    f = Gamble.on(S12, [0, 1, 0, 1])
    for base, message in ((BAD, GENERATOR_MESSAGE), (LBAD, LEX_MESSAGE)):
        node = cyl_ext(base, S12)
        for _ in range(2):
            with pytest.raises(IncoherentBaseError) as info:
                member(node, f)
            assert re.fullmatch(message, str(info.value)), str(info.value)
    calls = []
    gate = desirable.check_coherent
    monkeypatch.setattr(desirable, "check_coherent", lambda model: calls.append(model) or gate(model))
    flipped = LexSystem.on(S1, [["1/2", "1/2"], [1, 0]])
    node = cyl_ext(flipped, S12)
    for g in (f, -f, Gamble.on(S12, [1, -1, 1, -1])):
        member(node, g)
    assert calls == [flipped]


def test_a_nested_extension_reaches_its_leaf_gate_only_through_a_slice():
    # ``check_coherent`` passes an extension base, so an extension of an
    # extension of an incoherent leaf decides the gambles whose slices are
    # all nonnegative on their signs; the leaf's gate raises once a slice
    # reaches it, with the leaf's message, for lexicographic and generator
    # leaves alike.
    S123 = S12.union(S3)
    for leaf, message in ((LBAD, LEX_MESSAGE), (BAD, GENERATOR_MESSAGE)):
        node = IrrExt(IrrExt(leaf, S2, S12), S3, S123)
        assert member(node, Gamble.on(S123, [0, 1] * 6)) is Tri.IN
        assert member(node, Gamble.zero(S123)) is Tri.OUT
        for _ in range(2):
            with pytest.raises(IncoherentBaseError) as info:
                member(node, Gamble.on(S123, [-1] + [1] * 11))
            assert re.fullmatch(message, str(info.value)), str(info.value)


def test_the_gate_returns_a_generator_certificate_and_passes_other_models():
    assert check_coherent(lean()) is avoids_nonpositivity(lean())
    for model in (TIED2, strictly_desirable(HALF2), IndepProduct((LBAD, TIED2))):
        assert check_coherent(model) is None


@pytest.mark.parametrize("kind", [IndepProduct, StrongProduct])
def test_product_nodes_share_one_body_and_stay_distinct(kind):
    parts = (lean(S1), TIED2)
    node = kind(parts)
    other = StrongProduct(parts) if kind is IndepProduct else IndepProduct(parts)
    assert node == kind(parts) and node != other
    assert node.scope == S12 and scope_of(node) == S12
    assert hash(node) == hash((parts,))
    assert repr(node) == "%s(parts=%r)" % (kind.__name__, parts)
    copy = pickle.loads(pickle.dumps(node))
    assert copy == node and hash(copy) == hash(node) and type(copy) is kind
    for name in ("parts", "scope"):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, parts)
