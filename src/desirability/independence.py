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
product takes its ``cone_program`` rows.  For a cell or lexicographic
marginal each (block, slice) constraint is a finite disjunction of linear
sign patterns, the rows of the marginal's sign cells (the cells that
prices read too, here with zero admitted), and ``h`` belongs iff some
combined choice, a signature, is strictly feasible.  Every marginal
passes ``desirable.check_coherent`` first, so an inconsistent generator
marginal or an incoherent lexicographic one is an error whatever the
gamble.  The number of signatures is capped by a configurable budget.

A coherent marginal's summand set is a convex cone, so membership is the
feasibility of one convex set.  It needs no search over the disjunction
when every marginal's cells form a chain (``desirable.sign_chain``:
lexicographic systems, strictly desirable credal sets and cell sets of
one cell without the positives), in which each cell's weak relaxation
contains every later cell.  Every pair then
starts at its first cell and only moves on.  The gate-checked Farkas
vector of an infeasible signature either shows the weak relaxation
empty, and ``h`` out, or weights strict rows that every decomposition
must meet with equality; the pairs of those rows move one cell on.
Products over any other cell set walk the signatures depth first, and
the checked Farkas certificate of an infeasible one prunes, after a
re-check, every later signature that contains its rows.  The product's
layout (its joint scope, block and slice indices) comes from ``space``,
and each (block, slice, branch) row is built once per query, not once
per signature.

Irrelevance and independence of an arbitrary expression are refutation
checks — sampled or exhaustive-grid scans of the membership biconditional
``f in model  iff  indicator(event) * f in model`` — never proofs.  A scan
works on index tables built once on the expression's full scope: each
sampled gamble's ints are lifted onto that scope once, and its masks copy
the lifted ints at the precomputed slice indices of each event.  Every
query goes to ``desirable.scaled_member`` as ints over the sample's
denominator, with no gamble built: ``IrrExt`` nodes read their slices
from a per-node table, lexicographic and cell leaves decide by integer
sign tests, and the other nodes receive their gamble through ``member``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .desirable import (
    Cell,
    CellSet,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    Tri,
    avoids_nonpositivity,  # noqa: F401 - perfbench/tracer.py wraps this binding
    check_coherent,
    cone_program,
    member,
    scaled_member,
    scope_of,
    sign_cells,
    sign_chain,
    sign_verdict,
)
from . import exactlp
from .errors import (
    BudgetExceededError,
    EngineError,
    ScopeError,
    UnsupportedQueryError,
)
from .exactlp import GT, Feasible, LinRow, LinSystem, strict_feasible
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
from .structure import irrelevant_extension, masked_generators, sample_gambles  # noqa: F401

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


# -- product membership over cell and lex marginals ------------------------


def inex_member(expr: DesirableSetExpr, h: Gamble, *, budget: int = 100000) -> Tri:
    """Membership in an independent natural extension.

    Any other expression answers through the plain dispatcher, with the
    same ``budget``.  Each marginal passes ``check_coherent`` before any
    sign filter, so a generator marginal that fails the consistency check,
    or a lexicographic marginal that is not coherent, raises
    ``IncoherentBaseError`` whatever ``h`` is.
    The sign filters read ``h``'s ints; the last of them dots them with the
    product's ``support_mass``, built once per product.
    The masked generators of all generator marginals give the weight and
    domination rows of ``cone_program``, to which each cell or
    lexicographic marginal adds one column per outcome for its summand.
    Each (block, slice) pair of those marginals lies in one of the
    marginal's sign cells (a branch), its rows read with zero admitted,
    since a summand's slice may vanish; ``h`` belongs iff some combined
    choice, a signature, is strictly feasible.  ``budget`` caps the number
    of signatures, counted before any LP is solved.

    When every such marginal has a ``sign_chain``, the pairs advance along
    their chains (``_chain_walk``): at most one LP per cell past the first,
    over all pairs, and one more.  Otherwise the signatures are searched
    depth first (``_signature_search``).

    Each (block, slice) pair reads its joint indices from ``_slice_map``.
    The cone rows do not depend on the signature, so every (block, slice,
    branch) row is built once per query, and a signature only joins its
    rows to the cone rows.
    """
    if not isinstance(expr, IndepProduct):
        return member(expr, h, budget=budget)
    parts = expr.parts
    for part in parts:
        check_coherent(part)
    joint = scope_of(expr)
    h = h.embed(joint)
    verdict = sign_verdict(h)
    if verdict is not None:
        return Tri.of(verdict)
    mass = expr.support_mass
    if mass is not None and sum(map(mul, mass, h.nums)) < 0:
        return Tri.OUT

    masked = tuple([
        g
        for part in parts
        if isinstance(part, GeneratorSet)
        for g in masked_generators(part, joint.difference(part.scope))
    ])
    branched = [part for part in parts if not isinstance(part, GeneratorSet)]
    if not all(isinstance(part, (CellSet, LexSystem)) for part in branched):
        raise UnsupportedQueryError(
            "product membership needs leaf marginals (generators, cells, or lex)"
        )
    chains = [sign_chain(part) for part in branched]
    walk = None not in chains
    weights, size = len(masked), joint.size
    # One entry per (block, slice) pair of a cell or lex marginal: the first
    # column of its summand, joint indices of the slice and the marginal's
    # sign cells, one branch each, in chain order when the pairs walk.
    pairs: list[tuple[int, tuple[int, ...], tuple[Cell, ...]]] = []
    for n, (part, chain) in enumerate(zip(branched, chains)):
        cells = chain if walk else sign_cells(part)
        for z in joint.difference(scope_of(part)).assignments():
            pairs.append((weights + n * size, _slice_map(joint, z)[0], cells))

    if math.prod(len(cells) for *_, cells in pairs) > budget:
        raise BudgetExceededError(
            "signature enumeration needs more than %d problems" % budget
        )

    cone = cone_program(GeneratorSet(joint, masked), h)
    cols = len(branched) * size
    width = weights + cols
    # The weight rows, then one domination row per outcome, in which every
    # summand enters at -1.
    fixed: list[LinRow] = []
    for i, row in enumerate(cone.rows):
        extra = [-_ONE if j % size == i - weights else _ZERO for j in range(cols)]
        fixed.append(LinRow(row.coeffs + tuple(extra), row.rel, row.rhs))
    menu: list[list[list[LinRow]]] = []
    for first, indices, cells in pairs:
        options = []
        for cell in cells:
            rendered = []
            for row in cell.rows:
                coeffs = [_ZERO] * width
                for idx, c in zip(indices, row.functional.values):
                    coeffs[first + idx] = c
                rendered.append(LinRow(tuple(coeffs), row.rel, _ZERO))
            options.append(rendered)
        menu.append(options)

    decide = _chain_walk if walk else _signature_search
    return Tri.of(decide(width, fixed, menu))


def _chain_walk(
    width: int, fixed: Sequence[LinRow], menu: Sequence[Sequence[Sequence[LinRow]]]
) -> bool:
    """Whether the ``fixed`` rows and some signature are strictly feasible,
    when each pair's branches form a chain (``desirable.sign_chain``).

    Every pair starts at its first cell; no decomposition of ``h`` puts a
    pair's slice in a cell before the pair's current one.  Each round
    solves the current signature, and a feasible one is a decomposition.
    An infeasible one gives a gate-checked Farkas vector ``y``: ``y >= 0``
    on inequality rows, ``y.A = 0`` and ``y.b >= 0``.  Every decomposition
    meets the current rows with ``>`` read as ``>=``, since later cells lie
    in each cell's weak relaxation.  So ``y.b > 0`` leaves none, and ``h``
    is out.  With ``y.b = 0`` every row that ``y`` weights is tight on every
    decomposition (``0 = y.A x >= y.b = 0``), so a weighted ``>`` row puts
    its pair's slice in a later cell: each such pair moves one cell on, and
    ``h`` is out when one has none left.  The gate asks ``y`` to weight a
    ``>`` row when ``y.b = 0``, and only pair rows are strict, so each round
    answers or moves a pair: at most ``1 + sum(len(chain) - 1)`` LPs.
    """
    at = [0] * len(menu)
    while True:
        rows, owners = list(fixed), [None] * len(fixed)
        for pair, (options, cell) in enumerate(zip(menu, at)):
            rows.extend(options[cell])
            owners.extend([pair] * len(options[cell]))
        outcome = strict_feasible(LinSystem(width, tuple(rows)))
        if isinstance(outcome, Feasible):
            return True
        y = outcome.farkas
        if sum(lam * row.rhs for lam, row in zip(y, rows)) > 0:
            return False
        for pair in {p for lam, row, p in zip(y, rows, owners) if lam and row.rel == GT}:
            at[pair] += 1
            if at[pair] == len(menu[pair]):
                return False


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

    Every query is a vector of ints on the expression's full scope, handed
    to ``scaled_member`` over the sample's denominator.  Each sampled
    gamble is lifted onto that scope once (``_restriction_map(full,
    onto)``), and the lift is what the plain query asks.  Its mask at an
    assignment ``at`` gathers the lifted ints through a table built once
    per scan: for each outcome of the full scope, the outcome itself where
    ``at`` holds (``_slice_map(full, at)``) and a zero entry elsewhere,
    which is ``indicator(at) * f`` exactly.
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
    for f in sample_gambles(onto, budget=budget, seed=seed):
        nums, den = f.nums, f.den
        lifted = [nums[k] for k in lift]
        plain = scaled_member(expr, lifted, den, _QUERY_BUDGET)
        if plain is Tri.UNKNOWN:
            skipped += 1
            continue
        lifted.append(0)
        for at, table in masks:
            masked = scaled_member(expr, [lifted[i] for i in table], den, _QUERY_BUDGET)
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

    Like ``is_irrelevant``, it queries ``scaled_member`` on the full
    scope: each member and each factor is lifted there once, and a
    product query is their pointwise product over ``f.den * g.den``.  The
    product gamble ``f * g`` is built only for a counterexample.
    """
    _check_budget(budget)
    full = scope_of(expr)
    if not factor_scope.issubset(full) or not onto.issubset(full):
        raise ScopeError("factorisation scopes must be part of the expression scope")
    if not factor_scope.isdisjoint(onto):
        raise ScopeError("factorisation scopes must be disjoint")
    lift = _restriction_map(full, onto)
    members = []
    for f in sample_gambles(onto, budget=budget * 4, seed=seed):
        lifted = [f.nums[k] for k in lift]
        if scaled_member(expr, lifted, f.den, _QUERY_BUDGET) is Tri.IN:
            members.append((f, lifted))
    factor_lift = _restriction_map(full, factor_scope)
    factors = [
        (g, [g.nums[k] for k in factor_lift])
        for g in sample_gambles(factor_scope, budget=budget * 4, seed=seed + 1, lo=0, hi=3)
        if g.is_positive()
    ][:budget]
    checked = 0
    for f, f_ints in members[:budget]:
        if scaled_member(expr, f_ints, f.den, _QUERY_BUDGET) is not Tri.IN:
            return Verdict(
                False, "sampled", checked, "member rejected after unit factor", (f, None)
            )
        checked += 1
        for g, g_ints in factors:
            product = list(map(mul, f_ints, g_ints))
            if scaled_member(expr, product, f.den * g.den, _QUERY_BUDGET) is not Tri.IN:
                return Verdict(
                    False,
                    "sampled",
                    checked,
                    "member rejected after a positive factor",
                    (f * g, None),
                )
            checked += 1
    return Verdict(True, "sampled", checked, "%d factored members accepted" % checked)
