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
in that block's model (or vanish).  A generator marginal's summands
therefore range over one cone, its generators masked by every assignment
of the other blocks: all-generator products collapse to it, and a mixed
product weighs them in its domination rows; a generator set is the
one-block case, decided by the same walk.  For a cell or lexicographic
marginal each (block, slice) constraint is a finite disjunction of linear
sign patterns, the rows of the marginal's sign cells (the cells that
prices read too, here with zero admitted), and ``h`` belongs iff some
combined choice, a signature, is strictly feasible.  Every marginal
passes ``desirable.check_coherent`` first, so an inconsistent generator
marginal or an incoherent lexicographic one is an error whatever the
gamble.  The number of signatures is capped by a configurable budget.

A coherent marginal's summand set is a convex cone, so membership is the
feasibility of one convex set.  Every pair walks a chain of cells, in
which each cell's weak relaxation contains every later cell: it starts
at its first cell and only moves on.  The gate-checked Farkas vector of
an infeasible signature either shows the weak relaxation empty, and no
decomposition within these chains, or weights strict rows that every
such decomposition must meet with equality; the pairs of those rows move
one cell on.  A marginal whose cells form a chain (``desirable.sign_chain``:
lexicographic systems, strictly desirable credal sets and cell sets of
one cell without the positives) gives each of its pairs that chain; any
other gives each pair one single-cell chain per cell, and the walk runs
once per choice of one chain per pair, so that together the walks cover
every signature.  The product's layout (its joint scope, block and slice
indices) comes from ``space``.  Each product builds its rows once per
product, on its first query, and keeps them in its integer test: only
the domination rows read ``h``, so a query builds those and walks.

Irrelevance and independence of an arbitrary expression are refutation
checks — sampled or exhaustive-grid scans of the membership biconditional
``f in model  iff  indicator(event) * f in model`` — never proofs.  A scan
works on index tables built once on the expression's full scope: each
sampled int vector (``structure.sample_ints``) is lifted onto that scope
once, and its masks copy the lifted ints at the precomputed slice indices
of each event.  Every query goes to ``desirable.scaled_member`` as ints,
and a gamble is built only for a counterexample.  Every node kind decides
it on an integer test that each node builds once, on its first query, and
keeps: sign tests on the leaves' ints, mask and slice tables that hand the
base its ints, the walk rows of a product or a generator set, and a strong
product's marginals.  A conditional family keeps none and raises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .desirable import (
    CellSet,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    Tri,
    _support_mass,
    avoids_nonpositivity,  # noqa: F401 - perfbench/tracer.py wraps this binding
    member,  # noqa: F401 - perfbench/tracer.py wraps this binding
    scaled_member,
    scope_of,
    sign_cells,
    sign_chain,
    sign_verdict,
)
from .errors import BudgetExceededError, ScopeError, UnsupportedQueryError
from .exactlp import (
    GE, GT, Feasible, LinRow, LinSystem, scaled_to_ints, strict_feasible, unit_rows,
)
from .maximal import LexSystem
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
from .structure import irrelevant_extension, masked_generators, sample_ints  # noqa: F401

# Most (irrelevant, onto) block-union pairs one independence scan checks;
# five blocks need 180 pairs and six need 602.
PAIR_BUDGET = 200

# The enumeration budget of each scan query: ``member``'s default.
_QUERY_BUDGET = 100000


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def independent_product(parts: Sequence[DesirableSetExpr]) -> DesirableSetExpr:
    """Independent natural extension of marginal models on disjoint scopes.

    ``IndepProduct`` itself flattens nested products; this only unwraps a
    product of one marginal and collapses all-generator marginals to a
    single generator set on the joint scope: each generator masked by the
    indicators of every assignment of the other blocks.
    """
    product = IndepProduct(tuple(parts))
    if len(product.parts) == 1:
        return product.parts[0]
    if all(isinstance(part, GeneratorSet) for part in product.parts):
        joint = product.scope
        masked: list[Gamble] = []
        for part in product.parts:
            masked.extend(masked_generators(part, joint.difference(part.scope)))
        return GeneratorSet.of(joint, masked)
    return product


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


# -- product membership over cell and lex marginals ------------------------


def inex_member(expr: DesirableSetExpr, h: Gamble, *, budget: int = 100000) -> Tri:
    """Membership in an independent natural extension: ``scaled_member`` on
    ``h``'s ints on the scope of ``expr``, with the same ``budget``.  A
    product decides on the test it builds once every marginal passes
    ``check_coherent`` (``_walk_data`` and ``_walk_test``)."""
    return scaled_member(expr, h.embed(scope_of(expr)).nums, budget)


def _walk_data(parts: Sequence[DesirableSetExpr], joint: Scope) -> tuple:
    """What ``_walk_test`` reads for the product of ``parts`` on ``joint``
    (a generator set is its one part), built once after the gates:
    ``(mass, floor, signatures, rows)``.

    ``mass`` is the product of the marginals' support masses
    (``desirable._support_mass``), each scaled to ints, or ``None`` when a
    marginal has none.  Every member's expectation under it reaches
    ``floor``: 1 over generator marginals alone, whose mass is strictly
    positive, and 0 otherwise.  ``signatures`` counts the choices of one
    sign cell per (block, slice) pair, of which generator marginals have
    none.  ``rows``, ``None`` when a marginal is not a leaf, are:
    the column count; the rows ``lam_k >= 0`` of the masked generators of
    all generator marginals; per outcome, the ints of its domination row
    over ``den``, the generators' lcm, in which each cell or lexicographic
    marginal's summand enters at -1; ``den``, over which a query puts its
    ints; and each (block, slice) pair's chains of sign cells
    (``sign_chain``, or one single-cell chain per cell), their rows read
    with zero admitted, since a summand's slice may vanish.
    """
    size = joint.size
    masses = [_support_mass(part) for part in parts]
    mass = None
    if all(m is not None for m in masses):
        blocks = [_restriction_map(joint, scope_of(part)) for part in parts]
        masses = [scaled_to_ints(m)[0] for m in masses]
        mass = [math.prod([m[block[w]] for block, m in zip(blocks, masses)]) for w in range(size)]
    branched = [part for part in parts if not isinstance(part, GeneratorSet)]
    floor = 0 if branched else 1
    if not all(isinstance(part, (CellSet, LexSystem)) for part in branched):
        return mass, floor, 0, None
    # A generator set alone is its own cone: no other block masks it.
    cone = parts[0] if len(parts) == 1 and not branched else GeneratorSet(joint, tuple([
        g
        for part in parts
        if isinstance(part, GeneratorSet)
        for g in masked_generators(part, joint.difference(part.scope))
    ]))
    weights = len(cone.generators)
    width = weights + len(branched) * size
    negated, den = cone._negated_ints
    outcomes = tuple([
        gs + ((0,) * w + (-den,) + (0,) * (size - 1 - w)) * len(branched)
        for w, gs in enumerate(negated)
    ])
    signatures = 1
    walks: list[list[list[list[LinRow]]]] = []
    for n, part in enumerate(branched):
        chain = sign_chain(part)
        cells = sign_cells(part) if chain is None else chain
        first = weights + n * size
        for z in joint.difference(part.scope).assignments():
            indices = _slice_map(joint, z)[0]
            options = []
            for cell in cells:
                rendered = []
                for row in cell.rows:
                    coeffs = [0] * (width + 1)
                    for idx, c in zip(indices, row.functional.nums):
                        coeffs[first + idx] = c
                    rendered.append(LinRow._from_ints(tuple(coeffs), row.rel, row.functional.den))
                options.append(rendered)
            walks.append([options] if chain is not None else [[option] for option in options])
            signatures *= len(cells)
    rows = width, unit_rows(width, GE)[:weights], outcomes, den, walks
    return mass, floor, signatures, rows


def _walk_test(data: tuple, nums: Sequence[int], budget: int) -> Tri:
    """Product membership of the gamble ``h = nums``: it belongs iff it
    dominates a sum of one summand per block whose slices lie in the
    marginals.  ``sign_verdict`` and the support mass, under which every
    member's expectation reaches the floor, decide first; then a marginal
    that is not a leaf raises, and with pairs to walk, more signatures
    than ``budget`` raise ``BudgetExceededError`` naming both counts.
    Only the domination rows read ``h``.  ``h`` belongs iff a walk
    (``_chain_walk``) finds a decomposition for some choice of one chain
    per pair."""
    mass, floor, signatures, rows = data
    verdict = sign_verdict(nums)
    if verdict is not None:
        return Tri.of(verdict)
    if mass is not None and sum(map(mul, mass, nums)) < floor:
        return Tri.OUT
    if rows is None:
        raise UnsupportedQueryError(
            "product membership needs leaf marginals (generators, cells, or lex)"
        )
    width, fixed, outcomes, den, walks = rows
    if walks and signatures > budget:
        raise BudgetExceededError(
            "product membership needs %d sign-cell signatures, over the budget of %d"
            % (signatures, budget)
        )
    fixed = list(fixed)
    for coeffs, v in zip(outcomes, nums):
        fixed.append(LinRow._from_ints((*coeffs, -den * v), GE, den))
    return Tri.of(any(_chain_walk(width, fixed, menu) for menu in itertools.product(*walks)))


def _chain_walk(
    width: int, fixed: Sequence[LinRow], menu: Sequence[Sequence[Sequence[LinRow]]]
) -> bool:
    """Whether the ``fixed`` rows and some signature, one cell of each
    pair's chain in ``menu``, are strictly feasible.

    In a chain each cell's weak relaxation contains every later cell
    (``desirable.sign_chain``); a single cell is a chain too.  Every pair
    starts at its first cell; no decomposition of ``h`` within these chains
    puts a pair's slice in a cell before the pair's current one.  Each
    round solves the current signature, and a feasible one is a
    decomposition.  An infeasible one gives a gate-checked Farkas vector
    ``y``: ``y >= 0`` on inequality rows, ``y.A = 0`` and ``y.b >= 0``.
    Every decomposition within the chains meets the current rows with
    ``>`` read as ``>=``, since later cells lie in each cell's weak
    relaxation.  So ``y.b > 0`` leaves no decomposition within these
    chains.  With ``y.b = 0`` every row that ``y`` weights is tight on every
    such decomposition (``0 = y.A x >= y.b = 0``), so a weighted ``>`` row
    puts its pair's slice in a later cell: each such pair moves one cell
    on, and there is no decomposition within these chains when one has
    none left.  The gate asks ``y`` to weight a ``>`` row when ``y.b = 0``,
    and only pair rows are strict, so each round answers or moves a pair:
    at most ``1 + sum(len(chain) - 1)`` LPs.  Only pair rows are read for
    the moves, and when no pair moves the gate has already shown
    ``y.b > 0``, so the sum is not taken.
    """
    at, start = [0] * len(menu), len(fixed)
    while True:
        rows, owners = list(fixed), []
        for pair, (options, cell) in enumerate(zip(menu, at)):
            rows.extend(options[cell])
            owners.extend([pair] * len(options[cell]))
        outcome = strict_feasible(LinSystem(width, tuple(rows)))
        if isinstance(outcome, Feasible):
            return True
        y = outcome.farkas
        moved = {p for lam, row, p in zip(y[start:], rows[start:], owners) if lam and row.rel == GT}
        if not moved or sum(lam * row.rhs for lam, row in zip(y, rows)) > 0:
            return False
        for pair in moved:
            at[pair] += 1
            if at[pair] == len(menu[pair]):
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

    Every query is a vector of ints on the expression's full scope, handed
    to ``scaled_member``.  Each sampled int vector (``sample_ints``) is
    lifted onto that scope once (``_restriction_map(full, onto)``), and
    the lift is what the plain query asks.  Its mask at an assignment
    ``at`` gathers the lifted ints through a table built once per scan:
    for each outcome of the full scope, the outcome itself where ``at``
    holds (``_slice_map(full, at)``) and a zero entry elsewhere, which is
    ``indicator(at) * f`` exactly.  A gamble is built only for a
    counterexample.
    """
    _check_budget(budget)
    full = scope_of(expr)
    if not irrelevant.issubset(full) or not onto.issubset(full):
        raise ScopeError("irrelevance scopes must be part of the expression scope")
    if not irrelevant.isdisjoint(onto):
        raise ScopeError("irrelevance scopes must be disjoint")
    if not irrelevant.variables or not onto.variables:
        return Verdict(True, "vacuous", 0, "an empty variable group is always irrelevant")
    size = full.size
    lift = _restriction_map(full, onto)
    masks = []
    for at in irrelevant.assignments():
        table = [size] * size
        for i in _slice_map(full, at)[0]:
            table[i] = i
        masks.append((at, table))
    checked = 0
    skipped = 0
    for nums in sample_ints(onto, budget=budget, seed=seed):
        lifted = [nums[k] for k in lift]
        plain = scaled_member(expr, lifted, _QUERY_BUDGET)
        if plain is Tri.UNKNOWN:
            skipped += 1
            continue
        lifted.append(0)
        for at, table in masks:
            masked = scaled_member(expr, [lifted[i] for i in table], _QUERY_BUDGET)
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
                    (Gamble._from_ints(onto, nums), at),
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
    be at least 1: of the ``4 * budget`` gambles drawn on ``onto``, only
    those up to the ``budget``-th member are queried.

    Like ``is_irrelevant``, it queries ``scaled_member`` on the full
    scope with sampled int vectors: each member and each factor is lifted
    there once, and a product query is their pointwise product.  A gamble
    is built only for a counterexample.
    """
    _check_budget(budget)
    full = scope_of(expr)
    if not factor_scope.issubset(full) or not onto.issubset(full):
        raise ScopeError("factorisation scopes must be part of the expression scope")
    if not factor_scope.isdisjoint(onto):
        raise ScopeError("factorisation scopes must be disjoint")
    lift = _restriction_map(full, onto)
    members = []
    for f in sample_ints(onto, budget=budget * 4, seed=seed):
        lifted = [f[k] for k in lift]
        if scaled_member(expr, lifted, _QUERY_BUDGET) is Tri.IN:
            members.append((f, lifted))
            if len(members) == budget:
                break
    factor_lift = _restriction_map(full, factor_scope)
    factors = [
        (g, [g[k] for k in factor_lift])
        for g in sample_ints(factor_scope, budget=budget * 4, seed=seed + 1, lo=0, hi=3)
        if min(g) >= 0 and any(g)
    ][:budget]
    checked = 0
    for f, f_ints in members:
        if scaled_member(expr, f_ints, _QUERY_BUDGET) is not Tri.IN:
            found = (Gamble._from_ints(onto, f), None)
            return Verdict(False, "sampled", checked, "member rejected after unit factor", found)
        checked += 1
        for g, g_ints in factors:
            if scaled_member(expr, list(map(mul, f_ints, g_ints)), _QUERY_BUDGET) is not Tri.IN:
                return Verdict(
                    False,
                    "sampled",
                    checked,
                    "member rejected after a positive factor",
                    (Gamble._from_ints(onto, f) * Gamble._from_ints(factor_scope, g), None),
                )
            checked += 1
    return Verdict(True, "sampled", checked, "%d factored members accepted" % checked)
