"""Irrelevant and independent natural extensions, and independence tests.

The irrelevant natural extension of a marginal model along some extra
variables is the smallest coherent joint that marginalises back to the
model and keeps those variables irrelevant to it.  For generator leaves it
collapses to a plain generator set: each generator, multiplied by the
indicator of each assignment of the irrelevant variables.  Other leaves
keep an ``IrrExt`` node, decided sliceswise by the membership dispatcher.
Its constructor, ``irrelevant_extension``, is defined in ``structure``
next to ``cyl_ext``, its case with no irrelevant variables, and is bound
here as well.

The independent natural extension of marginal models on disjoint scopes is
the smallest coherent joint making all blocks mutually irrelevant.  Its
membership reduction: a nonzero ``h`` belongs iff it dominates a sum, one
summand per block, where every summand's slices along the other blocks lie
in that block's model (or vanish).  Generator marginals therefore collapse
to one joint generator set.  Cell and lexicographic marginals are decided
by a signature search: each (block, slice) constraint is a finite
disjunction of linear sign patterns, and ``h`` belongs iff some combined
choice is strictly feasible.  The choices are walked depth first, within a
configurable budget on their number, and the checked Farkas certificate of
an infeasible choice prunes, after a re-check, every later choice that
contains its rows.  The product's layout (its joint scope, block and slice
indices) comes from ``space``, and each (block, slice, branch) row is built
once per query, not once per choice.

Irrelevance and independence of an arbitrary expression are refutation
checks — sampled or exhaustive-grid scans of the membership biconditional
``f in model  iff  indicator(event) * f in model`` — never proofs.  A scan
works on index tables built once: each sampled gamble is lifted to the
joint scope of the two groups once, and its masks copy the lifted values
at the precomputed slice indices of each event.  The queries it sends go
down to ``IrrExt`` nodes, which read their slices from a per-node table,
and to lexicographic and cell leaves, which decide by integer sign tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .desirable import (
    CellSet,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    Tri,
    avoids_nonpositivity,
    member,
    scope_of,
)
from . import exactlp
from .errors import (
    BudgetExceededError,
    EngineError,
    IncoherentBaseError,
    ScopeError,
    UnsupportedQueryError,
)
from .exactlp import EQ, GE, GT, Feasible, LinRow, LinSystem, strict_feasible
from .maximal import LexSystem, lex_is_coherent, lex_is_maximal
from .space import (
    Assignment,
    Gamble,
    Scope,
    _restriction_map,
    _slice_map,
    disjoint_union,
)
# ``irrelevant_extension`` is bound here for callers that build extensions
# and products from one module.
from .structure import irrelevant_extension, masked_generators, sample_gambles  # noqa: F401

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Most (irrelevant, onto) block-union pairs one independence scan checks;
# five blocks need 180 pairs and six need 602.
PAIR_BUDGET = 200


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def independent_product(parts: Sequence[DesirableSetExpr]) -> DesirableSetExpr:
    """Independent natural extension of marginal models on disjoint scopes.

    Nested products flatten.  All-generator marginals collapse to a single
    generator set on the joint scope: each generator masked by the
    indicators of every assignment of the other blocks.
    """
    flat: list[DesirableSetExpr] = []
    for part in parts:
        if isinstance(part, IndepProduct):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        raise ScopeError("a product needs at least one marginal")
    if len(flat) == 1:
        return flat[0]
    joint = disjoint_union(scope_of(part) for part in flat)
    if all(isinstance(part, GeneratorSet) for part in flat):
        masked: list[Gamble] = []
        for part in flat:
            masked.extend(masked_generators(part, joint.difference(part.scope)))
        return GeneratorSet.of(joint, masked)
    return IndepProduct(tuple(flat))


def conditional_inex(families: Sequence[ConditionalFamily]) -> ConditionalFamily:
    """Pointwise independent product of per-block conditional families.

    All families must share the conditioning scope and table keys; the
    result maps each assignment to the product of the per-block entries.
    """
    if not families:
        raise ScopeError("need at least one conditional family")
    on = families[0].on
    keys = [at for at, _ in families[0].entries]
    for family in families[1:]:
        if family.on != on:
            raise ScopeError("conditional families must share the conditioning scope")
        if [at for at, _ in family.entries] != keys:
            raise ScopeError("conditional families must share their table keys")
    entries = tuple(
        (at, independent_product([family.at(at) for family in families]))
        for at in keys
    )
    return ConditionalFamily(on, entries)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


# -- signature enumeration for products of cell/lex marginals ---------------

# A branch row ``slice_coeffs . s + aux_coeffs . lam  rel  0`` on the slice
# ``s`` of one summand and the marginal's nonnegative auxiliary weights.
_Row = tuple[tuple[Fraction, ...], tuple[Fraction, ...], str]


def _unit(size: int, at: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if j == at else _ZERO for j in range(size))


def _check_generator_marginals(parts: Sequence[DesirableSetExpr]) -> None:
    """Raise ``IncoherentBaseError`` if a generator marginal fails the
    consistency check.  Product membership calls it before any sign filter,
    so an incoherent marginal is an error whatever the gamble."""
    for part in parts:
        if isinstance(part, GeneratorSet) and not avoids_nonpositivity(part).avoids:
            raise IncoherentBaseError(
                "product marginal admits a nonpositive combination"
            )


def _leaf_branches(part: DesirableSetExpr) -> tuple[int, list[tuple[_Row, ...]]]:
    """The marginal's auxiliary weight count, and the sign patterns (branches)
    whose union is exactly (part's set) together with 0.

    Only a generator marginal has auxiliary weights, and it has exactly one
    branch, so a product's auxiliary columns do not depend on the signature.
    A generator marginal must have passed ``_check_generator_marginals``.
    """
    if isinstance(part, GeneratorSet):
        size = part.scope.size
        gens = part.generators
        rows = tuple(
            (_unit(size, w), tuple(-g.values[w] for g in gens), GE)
            for w in range(size)
        )
        return len(gens), [rows]
    if isinstance(part, LexSystem):
        if not lex_is_coherent(part):
            raise IncoherentBaseError("product marginal is an incoherent lex system")
        branches = []
        levels = part.levels
        maximal = lex_is_maximal(part)
        for lead in range(len(levels)):
            rows = [(levels[i], (), EQ) for i in range(lead)]
            merged = maximal and lead == len(levels) - 1
            rows.append((levels[lead], (), GE if merged else GT))
            branches.append(tuple(rows))
        if not maximal:
            size = part.scope.size
            branches.append(tuple((_unit(size, w), (), EQ) for w in range(size)))
        return 0, branches
    if isinstance(part, CellSet):
        size = part.scope.size
        branches = []
        if part.include_positive:
            branches.append(tuple((_unit(size, w), (), GE) for w in range(size)))
        for cell in part.cells:
            branches.append(
                tuple((row.functional.values, (), row.rel) for row in cell.rows)
            )
        if not part.include_positive:
            branches.append(tuple((_unit(size, w), (), EQ) for w in range(size)))
        return 0, branches
    raise UnsupportedQueryError(
        "product membership needs leaf marginals (generators, cells, or lex)"
    )


def _support_mass(part: DesirableSetExpr) -> Optional[tuple[Fraction, ...]]:
    """A nonnegative mass giving every member nonnegative expectation."""
    if isinstance(part, GeneratorSet):
        return avoids_nonpositivity(part).positive_mass
    if isinstance(part, LexSystem):
        return part.levels[0]
    if isinstance(part, CellSet) and part.from_credal:
        return part.from_credal[0]
    return None


def _product_mass(product: IndepProduct, joint: Scope) -> Optional[Gamble]:
    masses = [_support_mass(part) for part in product.parts]
    if any(m is None for m in masses):
        return None
    block_maps = [_restriction_map(joint, scope_of(part)) for part in product.parts]
    values = []
    for w in range(joint.size):
        v = _ONE
        for block_map, mass in zip(block_maps, masses):
            v *= mass[block_map[w]]
        values.append(v)
    return Gamble(joint, tuple(values))


def inex_member(expr: DesirableSetExpr, h: Gamble, *, budget: int = 100000) -> Tri:
    """Membership in an independent natural extension.

    Collapsed (generator) products answer through the plain dispatcher.
    A generator marginal that fails the consistency check raises
    ``IncoherentBaseError`` before any sign filter.  Products over cell,
    lexicographic or generator marginals choose one sign pattern
    (branch) per (block, slice) pair; ``h`` belongs iff some combined
    choice, a signature, is strictly feasible.  ``budget`` caps the number
    of signatures, counted before any LP is solved.

    The signatures are searched depth first in lexicographic order (see
    ``_signature_search``), and an infeasible one leaves a nogood that
    prunes every later signature containing its rows.  So at most one LP
    is solved per signature, the LPs that are solved come in the order of
    a plain enumeration, and the verdict is the enumeration's.  Nogoods
    live for one call, and each is re-checked with ``verify_farkas`` on
    the system it prunes before anything is skipped.

    Each (block, slice) pair reads its joint indices from ``_slice_map``.
    The auxiliary columns do not depend on the signature, so every (block,
    slice, branch) row is built once per query, and a signature only joins
    its rows to the domination and auxiliary rows.
    """
    if not isinstance(expr, IndepProduct):
        return member(expr, h)
    parts = expr.parts
    _check_generator_marginals(parts)
    joint = scope_of(expr)
    h = h.embed(joint)
    if h.is_zero():
        return Tri.OUT
    if h.is_positive():
        return Tri.IN
    if h.is_nonpositive():
        return Tri.OUT
    mass = _product_mass(expr, joint)
    if mass is not None and h.dot(mass.values) < 0:
        return Tri.OUT

    # One entry per (block, slice) pair: block, joint indices of the slice,
    # auxiliary weight count and branches of the block's marginal.
    pairs: list[tuple[int, tuple[int, ...], int, list[tuple[_Row, ...]]]] = []
    for n, part in enumerate(parts):
        aux, branches = _leaf_branches(part)
        rest = joint.difference(scope_of(part))
        for z in rest.assignments():
            pairs.append((n, _slice_map(joint, z)[0], aux, branches))

    if math.prod(len(branches) for *_, branches in pairs) > budget:
        raise BudgetExceededError(
            "signature enumeration needs more than %d problems" % budget
        )

    size = joint.size
    block = len(parts) * size
    aux_total = sum(aux for _, _, aux, _ in pairs)
    width = block + aux_total
    fixed: list[LinRow] = []
    for w in range(size):
        coeffs = [_ZERO] * width
        for n in range(len(parts)):
            coeffs[n * size + w] = -_ONE
        fixed.append(LinRow(tuple(coeffs), GE, -h.values[w]))
    for j in range(aux_total):
        fixed.append(LinRow(_unit(width, block + j), GE, _ZERO))
    menu: list[list[list[LinRow]]] = []
    aux_offset = block
    for n, indices, aux, branches in pairs:
        options = []
        for branch in branches:
            rendered = []
            for slice_coeffs, aux_coeffs, rel in branch:
                coeffs = [_ZERO] * width
                for j, idx in enumerate(indices):
                    coeffs[n * size + idx] = slice_coeffs[j]
                for j, c in enumerate(aux_coeffs):
                    coeffs[aux_offset + j] = c
                rendered.append(LinRow(tuple(coeffs), rel, _ZERO))
            options.append(rendered)
        menu.append(options)
        aux_offset += aux

    return Tri.IN if _signature_search(width, fixed, menu) else Tri.OUT


# A nogood learnt from an infeasible signature: the multipliers of its
# Farkas certificate on the fixed rows, and one (pair, branch, multipliers
# on that branch's rows) entry per pair whose rows carry a nonzero one.
_Nogood = tuple[
    tuple[Fraction, ...], tuple[tuple[int, int, tuple[Fraction, ...]], ...]
]


def _nogood(
    farkas: tuple[Fraction, ...],
    fixed: Sequence[LinRow],
    menu: Sequence[Sequence[Sequence[LinRow]]],
    chosen: Sequence[int],
) -> _Nogood:
    """Split the checked certificate ``farkas`` of the signature ``chosen``
    into the choices that carry it: only their rows, with these multipliers,
    are needed for the contradiction."""
    choices = []
    at = len(fixed)
    for pair, branch in enumerate(chosen):
        end = at + len(menu[pair][branch])
        lams = farkas[at:end]
        if any(lams):
            choices.append((pair, branch, lams))
        at = end
    return farkas[: len(fixed)], tuple(choices)


def _signature_search(
    width: int, fixed: Sequence[LinRow], menu: Sequence[Sequence[Sequence[LinRow]]]
) -> bool:
    """Whether the ``fixed`` rows and some signature (one branch of ``menu``
    per pair) are strictly feasible together.

    The walk is depth first over the pairs, branches in order, so its
    leaves come in the order of ``itertools.product(*menu)``; each leaf not
    pruned solves one strict LP.  The gate-checked Farkas certificate of an
    infeasible leaf becomes a nogood (``_nogood``), bucketed by its deepest
    (pair, branch) choice.  Each choice made is looked up in its bucket; on
    a match with the prefix, the stored multipliers, zero on every row
    outside the nogood, are re-checked by ``verify_farkas`` on the prefix
    system (the fixed rows and the rows chosen so far), and only then is
    the subtree skipped: a contradiction among some rows holds in every
    system that contains them.  A new nogood whose deepest pair lies above
    the leaf sends the walk back to that pair, where the lookup closes its
    current branch.
    """
    last = len(menu) - 1
    # Nogoods by their deepest (pair, branch) choice.  A checked certificate
    # always weights some branch row, because the fixed rows alone are
    # feasible (every summand very negative), so every nogood has one.
    buckets: dict[tuple[int, int], list[_Nogood]] = {}
    chosen = [0]

    def prefix_rows() -> tuple[LinRow, ...]:
        return tuple(itertools.chain(fixed, *[menu[p][b] for p, b in enumerate(chosen)]))

    def closed(depth: int) -> bool:
        for fixed_lams, choices in buckets.get((depth, chosen[depth]), ()):
            if any(chosen[p] != b for p, b, _ in choices):
                continue
            lams = {p: pair_lams for p, _, pair_lams in choices}
            mapped = list(fixed_lams)
            for p, b in enumerate(chosen):
                mapped.extend(lams.get(p) or (_ZERO,) * len(menu[p][b]))
            # Through the module, as the engine calls its gates, so that a
            # rebound gate sees these checks too.
            if not exactlp.verify_farkas(LinSystem(width, prefix_rows()), mapped):
                raise EngineError(
                    "a stored nogood failed its re-check on a prefix system (engine bug)"
                )
            return True
        return False

    while chosen:
        depth = len(chosen) - 1
        if chosen[depth] == len(menu[depth]):
            chosen.pop()
            if chosen:
                chosen[-1] += 1
        elif closed(depth):
            chosen[depth] += 1
        elif depth < last:
            chosen.append(0)
        else:
            outcome = strict_feasible(LinSystem(width, prefix_rows()))
            if isinstance(outcome, Feasible):
                return True
            nogood = _nogood(outcome.farkas, fixed, menu, chosen)
            deepest, branch, _ = nogood[1][-1]
            buckets.setdefault((deepest, branch), []).append(nogood)
            if deepest < depth:
                # The prefix down to ``deepest`` agrees with the nogood; the
                # lookup there re-checks it and closes that branch.
                del chosen[deepest + 1 :]
            else:
                chosen[depth] += 1
    return False


# ---------------------------------------------------------------------------
# irrelevance / independence predicates (refutation checks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sampled or exhaustive refutation scan."""

    passed: bool
    mode: str  # "exhaustive" | "sampled" | "vacuous"
    checked: int
    detail: str
    counterexample: Optional[tuple[Gamble, Optional[Assignment]]] = None


def _scan_mode(scope: Scope, budget: int, lo: int, hi: int) -> str:
    return "exhaustive" if (hi - lo + 1) ** scope.size <= budget else "sampled"


def _check_budget(budget: int) -> None:
    """A scan must sample at least one gamble; a smaller budget checks nothing."""
    if budget < 1:
        raise BudgetExceededError(
            "a scan needs a budget of at least 1 gamble, got %d" % budget
        )


def is_irrelevant(
    expr: DesirableSetExpr,
    irrelevant: Scope,
    onto: Scope,
    *,
    budget: int = 2000,
    seed: int = 0,
) -> Verdict:
    """Scan for violations of irrelevance of one variable group to another.

    For sampled gambles on the target group and every assignment of the
    irrelevant group, membership of the gamble and of its indicator-masked
    lift must agree.  A mismatch is a definitive counterexample; agreement
    is a pass of the scan, not a proof.  ``budget`` caps the sampled
    gambles and must be at least 1.

    The masks come from an index table built once per scan: for each
    assignment ``at``, the indices of ``_slice_map(joint, at)`` on the
    joint scope of both groups.  Each sampled gamble is lifted to that
    scope once; its mask at ``at`` copies the lifted values at those
    indices and is zero elsewhere, which is ``indicator(at) * f`` exactly.
    """
    _check_budget(budget)
    full = scope_of(expr)
    if not irrelevant.issubset(full) or not onto.issubset(full):
        raise ScopeError("irrelevance scopes must be part of the expression scope")
    if not irrelevant.isdisjoint(onto):
        raise ScopeError("irrelevance scopes must be disjoint")
    if not irrelevant.variables or not onto.variables:
        return Verdict(True, "vacuous", 0, "an empty variable group is always irrelevant")
    joint = irrelevant.union(onto)
    size = joint.size
    masks = [(at, _slice_map(joint, at)[0]) for at in irrelevant.assignments()]
    checked = 0
    skipped = 0
    for f in sample_gambles(onto, budget=budget, seed=seed):
        plain = member(expr, f)
        if plain is Tri.UNKNOWN:
            skipped += 1
            continue
        lifted = f.embed(joint).values
        for at, indices in masks:
            values = [_ZERO] * size
            for i in indices:
                values[i] = lifted[i]
            masked = member(expr, Gamble(joint, tuple(values)))
            if masked is Tri.UNKNOWN:
                skipped += 1
                continue
            checked += 1
            if plain is not masked:
                return Verdict(
                    False,
                    _scan_mode(onto, budget, -3, 3),
                    checked,
                    "membership changes after observing %s" % (at,),
                    (f, at),
                )
    detail = "%d membership pairs agree" % checked
    if skipped:
        detail += " (%d boundary queries skipped)" % skipped
    return Verdict(True, _scan_mode(onto, budget, -3, 3), checked, detail)


def is_independent(
    expr: DesirableSetExpr,
    blocks: Sequence[Scope],
    *,
    budget: int = 2000,
    seed: int = 0,
) -> Verdict:
    """Scan every disjoint pair of block unions for an irrelevance failure.

    Each pair runs ``is_irrelevant`` with the same ``budget`` (at least 1);
    more than ``PAIR_BUDGET`` pairs raise ``BudgetExceededError``.
    """
    _check_budget(budget)
    if disjoint_union(blocks) != scope_of(expr):
        raise ScopeError("blocks must partition the expression scope")
    if len(blocks) <= 1:
        return Verdict(True, "vacuous", 0, "a single block is trivially independent")
    # Labellings of the blocks as irrelevant (1), onto (2) or unused (0)
    # that use both 1 and 2; counted before any is enumerated.
    needed = 3 ** len(blocks) - 2 * 2 ** len(blocks) + 1
    if needed > PAIR_BUDGET:
        raise BudgetExceededError(
            "independence scan needs %d irrelevance checks" % needed
        )
    pairs: list[tuple[Scope, Scope]] = []
    for labels in itertools.product((0, 1, 2), repeat=len(blocks)):
        if 1 in labels and 2 in labels:
            side_i = disjoint_union(b for k, b in zip(labels, blocks) if k == 1)
            side_o = disjoint_union(b for k, b in zip(labels, blocks) if k == 2)
            pairs.append((side_i, side_o))
    total = 0
    mode = "exhaustive"
    for side_i, side_o in pairs:
        verdict = is_irrelevant(expr, side_i, side_o, budget=budget, seed=seed)
        total += verdict.checked
        if verdict.mode == "sampled":
            mode = "sampled"
        if not verdict.passed:
            return Verdict(
                False,
                verdict.mode,
                total,
                "%s fails for irrelevant=%r onto=%r"
                % (verdict.detail, side_i.names, side_o.names),
                verdict.counterexample,
            )
    return Verdict(True, mode, total, "%d membership pairs agree" % total)


def factorisation_check(
    expr: DesirableSetExpr,
    factor_scope: Scope,
    onto: Scope,
    *,
    budget: int = 60,
    seed: int = 0,
) -> Verdict:
    """Members stay members after multiplication by positive factors.

    Samples members on ``onto`` and positive gambles on ``factor_scope``;
    asserts the products are members, and re-checks the sampled members
    against the constant factor one.  ``budget`` caps each sample and must
    be at least 1.
    """
    _check_budget(budget)
    full = scope_of(expr)
    if not factor_scope.issubset(full) or not onto.issubset(full):
        raise ScopeError("factorisation scopes must be part of the expression scope")
    if not factor_scope.isdisjoint(onto):
        raise ScopeError("factorisation scopes must be disjoint")
    members = [
        f
        for f in sample_gambles(onto, budget=budget * 4, seed=seed)
        if member(expr, f) is Tri.IN
    ][:budget]
    factors = [
        g
        for g in sample_gambles(factor_scope, budget=budget * 4, seed=seed + 1, lo=0, hi=3)
        if g.is_positive()
    ][:budget]
    checked = 0
    for f in members:
        if member(expr, f * Gamble.constant(factor_scope, _ONE)) is not Tri.IN:
            return Verdict(
                False, "sampled", checked, "member rejected after unit factor", (f, None)
            )
        checked += 1
        for g in factors:
            if member(expr, f * g) is not Tri.IN:
                return Verdict(
                    False,
                    "sampled",
                    checked,
                    "member rejected after a positive factor",
                    (f * g, None),
                )
            checked += 1
    return Verdict(True, "sampled", checked, "%d factored members accepted" % checked)
