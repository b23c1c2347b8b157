"""Irrelevant and independent natural extensions, and independence tests.

The irrelevant natural extension of a marginal model along some extra
variables is the smallest coherent joint that marginalises back to the
model and keeps those variables irrelevant to it.  For generator leaves it
collapses to a plain generator set: each generator, multiplied by the
indicator of each assignment of the irrelevant variables.  Other leaves
keep an ``IrrExt`` node, decided sliceswise by the membership dispatcher.

The independent natural extension of marginal models on disjoint scopes is
the smallest coherent joint making all blocks mutually irrelevant.  Its
membership reduction: a nonzero ``h`` belongs iff it dominates a sum, one
summand per block, where every summand's slices along the other blocks lie
in that block's model (or vanish).  Generator marginals therefore collapse
to one joint generator set.  Cell and lexicographic marginals are decided
by signature enumeration: each (block, slice) constraint is a finite
disjunction of linear sign patterns; one feasibility problem is solved per
combined choice, within a configurable budget.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .desirable import (
    CellSet,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    IrrExt,
    Tri,
    avoids_nonpositivity,
    member,
    scope_of,
    slice_verdict,
)
from .errors import (
    BudgetExceededError,
    IncoherentBaseError,
    ScopeError,
    UnsupportedQueryError,
)
from .exactlp import EQ, GE, GT, Feasible, LinRow, LinSystem, strict_feasible
from .maximal import LexSystem, lex_is_coherent, lex_is_maximal
from .space import Assignment, Gamble, Scope, _slice_map
from .structure import cyl_ext, sample_gambles

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def irrelevant_extension(
    base: DesirableSetExpr, irrelevant: Scope, target: Scope
) -> DesirableSetExpr:
    """Smallest coherent joint on ``target`` with ``irrelevant`` irrelevant
    to the base model's variables.

    Generator leaves collapse: the family of indicator-masked generators
    spans the same cone, one LP per membership query.
    """
    base_scope = scope_of(base)
    if not base_scope.isdisjoint(irrelevant):
        raise ScopeError("irrelevant variables overlap the base scope")
    if not base_scope.union(irrelevant).issubset(target):
        raise ScopeError("extension target must contain base and irrelevant scopes")
    if not irrelevant.variables:
        return cyl_ext(base, target)
    if isinstance(base, GeneratorSet):
        masked = [
            g.mask(at) for at in irrelevant.assignments() for g in base.generators
        ]
        return GeneratorSet.of(target, masked)
    return IrrExt(base, irrelevant, target)


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
        raise ValueError("a product needs at least one marginal")
    if len(flat) == 1:
        return flat[0]
    joint = Scope.empty()
    for part in flat:
        s = scope_of(part)
        if not joint.isdisjoint(s):
            raise ScopeError("product marginals must have pairwise disjoint scopes")
        joint = joint.union(s)
    if all(isinstance(part, GeneratorSet) for part in flat):
        masked: list[Gamble] = []
        for part in flat:
            rest = joint.difference(part.scope)
            for at in rest.assignments():
                for g in part.generators:
                    masked.append(g.mask(at))
        return GeneratorSet.of(joint, masked)
    return IndepProduct(tuple(flat))


def conditional_inex(families: Sequence[ConditionalFamily]) -> ConditionalFamily:
    """Pointwise independent product of per-block conditional families.

    All families must share the conditioning scope and table keys; the
    result maps each assignment to the product of the per-block entries.
    """
    if not families:
        raise ValueError("need at least one conditional family")
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


def irr_member(ext: IrrExt, h: Gamble) -> Tri:
    """Membership in the pre-extension family of slice-constrained gambles.

    In iff ``h`` is nonzero and every slice along the irrelevant variables
    lies in the base model or vanishes.  ``h`` must live on the irrelevant
    and base variables; lifted to the target, its floor is itself, so the
    slice loop of extension membership decides it, skipping zero slices
    instead of nonnegative ones.
    """
    h = h.embed(ext.irrelevant.union(scope_of(ext.base)))
    return slice_verdict(ext, h.embed(ext.target), Gamble.is_zero, member)


# -- signature enumeration for products of cell/lex marginals ---------------


@dataclass(frozen=True)
class _Branch:
    """One sign pattern of the disjunction covering a marginal's slices.

    Rows constrain the slice vector ``s`` of one summand and the branch's
    own nonnegative auxiliary weights: slice_coeffs . s + aux_coeffs . lam
    rel 0.
    """

    aux: int
    rows: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...], str], ...]


def _unit(size: int, at: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if j == at else _ZERO for j in range(size))


def _leaf_branches(part: DesirableSetExpr) -> list[_Branch]:
    """Branches whose union is exactly (part's set) together with 0."""
    if isinstance(part, GeneratorSet):
        certificate = avoids_nonpositivity(part)
        if not certificate.avoids:
            raise IncoherentBaseError(
                "product marginal admits a nonpositive combination"
            )
        size = part.scope.size
        gens = part.generators
        rows = tuple(
            (_unit(size, w), tuple(-g.values[w] for g in gens), GE)
            for w in range(size)
        )
        return [_Branch(len(gens), rows)]
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
            branches.append(_Branch(0, tuple(rows)))
        if not maximal:
            size = part.scope.size
            branches.append(
                _Branch(0, tuple((_unit(size, w), (), EQ) for w in range(size)))
            )
        return branches
    if isinstance(part, CellSet):
        size = part.scope.size
        branches = []
        if part.include_positive:
            branches.append(
                _Branch(0, tuple((_unit(size, w), (), GE) for w in range(size)))
            )
        for cell in part.cells:
            branches.append(
                _Branch(
                    0,
                    tuple((row.functional.values, (), row.rel) for row in cell.rows),
                )
            )
        if not part.include_positive:
            branches.append(
                _Branch(0, tuple((_unit(size, w), (), EQ) for w in range(size)))
            )
        return branches
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
    values = []
    for w in range(joint.size):
        at = joint.assignment_at(w)
        v = _ONE
        for part, mass in zip(product.parts, masses):
            part_scope = scope_of(part)
            v *= mass[part_scope.index_of(at.restrict(part_scope))]
        values.append(v)
    return Gamble(joint, tuple(values))


def inex_member(expr: DesirableSetExpr, h: Gamble, *, budget: int = 100000) -> Tri:
    """Membership in an independent natural extension.

    Collapsed (generator) products answer through the plain dispatcher.
    Products over cell or lexicographic marginals enumerate one sign
    pattern per (block, slice) pair and solve a feasibility problem per
    combined signature; ``budget`` caps the number of signatures.
    """
    if not isinstance(expr, IndepProduct):
        return member(expr, h)
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

    parts = expr.parts
    branch_menu: list[list[_Branch]] = []
    slice_tables: list[list[list[int]]] = []
    pair_index: list[tuple[int, int]] = []
    for n, part in enumerate(parts):
        branches = _leaf_branches(part)
        part_scope = scope_of(part)
        rest = joint.difference(part_scope)
        table = []
        for z in rest.assignments():
            table.append(
                [joint.index_of(at.union(z)) for at in part_scope.assignments()]
            )
            branch_menu.append(branches)
            pair_index.append((n, len(table) - 1))
        slice_tables.append(table)

    count = 1
    for branches in branch_menu:
        count *= len(branches)
        if count > budget:
            raise BudgetExceededError(
                "signature enumeration needs more than %d problems" % budget
            )

    size = joint.size
    block = len(parts) * size
    for signature in itertools.product(*branch_menu):
        aux_total = sum(br.aux for br in signature)
        width = block + aux_total
        names = tuple("v%d" % j for j in range(width))
        rows: list[LinRow] = []
        for w in range(size):
            coeffs = [_ZERO] * width
            for n in range(len(parts)):
                coeffs[n * size + w] = -_ONE
            rows.append(LinRow(tuple(coeffs), GE, -h.values[w]))
        for j in range(aux_total):
            rows.append(LinRow(_unit(width, block + j), GE, _ZERO))
        aux_offset = block
        for (n, zi), branch in zip(pair_index, signature):
            indices = slice_tables[n][zi]
            for slice_coeffs, aux_coeffs, rel in branch.rows:
                coeffs = [_ZERO] * width
                for j, idx in enumerate(indices):
                    coeffs[n * size + idx] = slice_coeffs[j]
                for j, c in enumerate(aux_coeffs):
                    coeffs[aux_offset + j] = c
                rows.append(LinRow(tuple(coeffs), rel, _ZERO))
            aux_offset += branch.aux
        outcome = strict_feasible(LinSystem(names, tuple(rows)))
        if isinstance(outcome, Feasible):
            return Tri.IN
    return Tri.OUT


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
    pair_budget: int = 200,
) -> Verdict:
    """Scan every disjoint pair of block unions for an irrelevance failure.

    Each pair runs ``is_irrelevant`` with the same ``budget`` (at least 1).
    """
    _check_budget(budget)
    full = scope_of(expr)
    union = Scope.empty()
    for block in blocks:
        if not union.isdisjoint(block):
            raise ScopeError("blocks must be pairwise disjoint")
        union = union.union(block)
    if union != full:
        raise ScopeError("blocks must partition the expression scope")
    if len(blocks) <= 1:
        return Verdict(True, "vacuous", 0, "a single block is trivially independent")
    pairs: list[tuple[Scope, Scope]] = []
    for labels in itertools.product((0, 1, 2), repeat=len(blocks)):
        if 1 not in labels or 2 not in labels:
            continue
        side_i = Scope.empty()
        side_o = Scope.empty()
        for label, block in zip(labels, blocks):
            if label == 1:
                side_i = side_i.union(block)
            elif label == 2:
                side_o = side_o.union(block)
        pairs.append((side_i, side_o))
    if len(pairs) > pair_budget:
        raise BudgetExceededError(
            "independence scan needs %d irrelevance checks" % len(pairs)
        )
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
