"""Seeded request streams, request execution and oracles for each workload.

Generation is engine-free: it builds gambles, generator sets, lexicographic
systems, credal sets and model documents from a seeded ``random.Random``
without calling any decision procedure of the library, so set-up time does
not move with engine changes and the engine's caches start cold.

* Generator sets are consistent by construction: every generator has
  positive expectation under a drawn strictly positive mass, so no
  nonnegative combination can be everywhere nonpositive.
* Lexicographic systems are maximal by a rank construction: a first mass
  followed by unit masses on every outcome but one the first mass charges,
  so the levels span the gamble space and their supports cover it.

Library functions are looked up at call time, through their defining module
(``previsions.lower_prevision(...)``) or through this module's own binding
(``member``), so the tracer can rebind them at each caller.

Each workload is a ``Workload``: ``stream(seed)`` yields an endless
deterministic list of requests, ``run(state, request)`` executes one request
and returns its answer (the only part that is timed), ``check(request,
answer)`` returns a list of oracle failures, and the optional
``prepare(state, request)`` runs untimed before a request.  ``state`` is a
dict that starts as ``{"workdir": <scratch directory>}``.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
import itertools
from itertools import combinations
from typing import Any, Callable, Iterator, Optional

from desirability import cli, independence, maximal, previsions, structure
from desirability.desirable import GeneratorSet, IndepProduct, StrongProduct, Tri, member
from desirability.maximal import LexSystem
from desirability.previsions import CredalSet
from desirability.space import Assignment, Gamble, Scope, Variable

F = Fraction
_ZERO = F(0)
_ONE = F(1)


@dataclass(frozen=True)
class Request:
    """One request: a kind tag, the model key it runs against, and its data."""

    kind: str
    key: Any
    data: Any


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int], Iterator[Request]]
    run: Callable[[dict, Request], Any]
    check: Callable[[Request, Any], list]
    # Untimed step before a request, given the same state as ``run``.
    prepare: Optional[Callable[[dict, Request], Any]] = None


# ---------------------------------------------------------------------------
# engine-free generation helpers
# ---------------------------------------------------------------------------


def _variables(sizes, tag="X"):
    return [Variable("%s%d" % (tag, i + 1), tuple("abc"[:k])) for i, k in enumerate(sizes)]


def _mass(rng: random.Random, size: int, floor: int = 1) -> tuple:
    while True:
        weights = [rng.randint(floor, 5) for _ in range(size)]
        total = sum(weights)
        if total:
            return tuple(F(w, total) for w in weights)


def _gamble(rng: random.Random, scope: Scope, span: int = 2, denom: int = 4) -> Gamble:
    return Gamble(
        scope,
        tuple(F(rng.randint(-span * denom, span * denom), denom) for _ in range(scope.size)),
    )


def _dot(values, mass) -> Fraction:
    return sum((v * p for v, p in zip(values, mass)), _ZERO)


def _consistent_generators(rng: random.Random, scope: Scope, count: int, positives: int = 0) -> GeneratorSet:
    """Generators with positive expectation under one strictly positive mass.

    With ``positives`` set, each generator is positive on exactly that many
    outcomes and negative on the rest, which fixes the vertex count of the
    credal set of a single generator (and so the size of the price programs).
    """
    mass = _mass(rng, scope.size)
    gens = []
    while len(gens) < count:
        if positives:
            signs = [1] * positives + [-1] * (scope.size - positives)
            rng.shuffle(signs)
            g = Gamble(scope, tuple(sign * F(rng.randint(1, 12), 4) for sign in signs))
            if _dot(g.values, mass) > 0:
                gens.append(g)
            continue
        g = _gamble(rng, scope, span=3)
        e = _dot(g.values, mass)
        if e == 0:
            continue
        gens.append(g if e > 0 else -g)
    return GeneratorSet.of(scope, gens)


def _maximal_lex(rng: random.Random, scope: Scope, degenerate: bool = None) -> LexSystem:
    """First mass, then unit masses on every outcome but one it charges.

    A degenerate first mass is a point mass; left unset, one draw in four is.
    """
    d = scope.size
    if degenerate is None:
        degenerate = rng.random() < 0.25
    if degenerate:
        pick = rng.randrange(d)
        first = tuple(_ONE if w == pick else _ZERO for w in range(d))
    else:
        first = _mass(rng, d)
    charged = [w for w in range(d) if first[w] != 0]
    dropped = rng.choice(charged)
    rest = [w for w in range(d) if w != dropped]
    rng.shuffle(rest)
    units = [tuple(_ONE if w == u else _ZERO for w in range(d)) for u in rest]
    return LexSystem(scope, (first,) + tuple(units))


def _lex_product_levels(m1: LexSystem, m2: LexSystem) -> tuple:
    """Levels p_i (x) q_j in lexicographic order, on the joint of two scopes.

    The resulting system has the two marginals as its conditionals both ways,
    so it is an independent product of them and contains their independent
    natural extension.
    """
    levels = []
    for p in m1.levels:
        for q in m2.levels:
            levels.append(tuple(a * b for a in p for b in q))
    return tuple(levels)


def _credal(rng: random.Random, scope: Scope, count: int) -> CredalSet:
    """A credal set held by strictly positive masses (not canonicalised)."""
    vertices = []
    while len(vertices) < count:
        p = _mass(rng, scope.size)
        if p not in vertices:
            vertices.append(p)
    return CredalSet(scope, tuple(vertices))


# ---------------------------------------------------------------------------
# oracle helpers: own arithmetic, independent of the engine
# ---------------------------------------------------------------------------


def _lex_accepts(levels, values) -> bool:
    for level in levels:
        e = _dot(values, level)
        if e != 0:
            return e > 0
    return False


def _solve_square(matrix, rhs):
    n = len(matrix)
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                k = rows[r][col]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _vertices(size: int, generators) -> list:
    """Brute-force vertex list of {p >= 0, sum p = 1, p.g >= 0}."""
    if size == 1:
        return [(_ONE,)]
    constraints = [tuple(_ONE if j == w else _ZERO for j in range(size)) for w in range(size)]
    constraints += [tuple(g) for g in generators]
    found = set()
    for chosen in combinations(constraints, size - 1):
        point = _solve_square([[_ONE] * size] + [list(c) for c in chosen], [_ONE] + [_ZERO] * (size - 1))
        if point is None or any(v < 0 for v in point):
            continue
        if any(_dot(g, point) < 0 for g in generators):
            continue
        found.add(tuple(point))
    return sorted(found)


def _fails(cond: bool, message: str) -> list:
    return [] if cond else [message]


# ---------------------------------------------------------------------------
# cone-prices
# ---------------------------------------------------------------------------

# Each slot fixes the joint's shape, the generator count of each marginal,
# each generator's number of positive outcomes, and how many gambles the cone
# prices; only the numbers are random, so every seed runs the same mix of
# price-program sizes.  Per round, 2x2 cones take 73 % of the requests, 2x3
# cones 24 % and one 3x3 cone the last 3 %: the median falls inside the 2x2
# class and p90 inside the 2x3 class, away from the jumps between classes.
# (With p90 inside the 3x3 class it hung on a few large programs and spread
# over 15-20 % between seeds.)
_P22 = (((2, 2), (2, 2), (1, 1), 4), ((2, 2), (1, 2), (1, 1), 4), ((2, 2), (1, 1), (1, 1), 4), ((2, 2), (2, 1), (1, 1), 4))
_P23 = (((2, 3), (1, 1), (1, 2), 4), ((2, 3), (2, 1), (1, 2), 4))
CONE_PLAN = (
    _P22[0], _P23[0], _P22[1], _P22[2], _P22[3], _P23[1], _P22[0], _P22[1],
    ((3, 3), (1, 1), (2, 2), 2),
    _P22[2], _P23[0], _P22[3], _P22[0], _P22[1], _P23[1], _P22[2], _P22[3],
)


def cone_stream(seed: int) -> Iterator[Request]:
    """Rounds of one cone per plan slot; each cone prices a few gambles.

    A round's requests are spread evenly over the round (the k-th of the
    n gambles of the cone in slot s sits at (k + (s + 1/2) / slots) / n), so
    every prefix of the stream holds the plan's mix of cone shapes.  The credal program prices ``f``
    on even requests and ``-f`` on odd ones, so both price identities are
    checked.
    """
    rng = random.Random("cone-prices/%d" % seed)
    n = 0
    for round_ in itertools.count():
        schedule = []
        for slot, (sizes, counts, positives, gambles) in enumerate(CONE_PLAN):
            variables = _variables(sizes)
            parts = tuple(
                _consistent_generators(rng, Scope.of([v]), c, k)
                for v, c, k in zip(variables, counts, positives)
            )
            joint = Scope.of(variables)
            for k in range(gambles):
                at = (k + (slot + 0.5) / len(CONE_PLAN)) / gambles
                schedule.append((at, slot, ((round_, slot), parts), _gamble(rng, joint)))
        schedule.sort(key=lambda item: item[:2])
        for _, _, key, f in schedule:
            yield Request("price", key, (f, n % 2 == 1))
            n += 1


def _cone(state: dict, key) -> tuple:
    """Collapsed cone and credal views, built on the cone's first request."""
    cone, parts = key
    built = state.get(cone)
    if built is None:
        for old in [k for k in state if k != "workdir" and k[0] < cone[0]]:
            del state[old]
        product_ = independence.independent_product(parts)
        credals = [previsions.credal_view(p) for p in parts]
        built = state[cone] = (product_, credals)
    return built


def cone_run(state: dict, req: Request) -> dict:
    product_, credals = _cone(state, req.key)
    f, negate = req.data
    lower = previsions.lower_prevision(product_, f)
    upper = previsions.upper_prevision(product_, f)
    if negate:
        credal_price = -previsions.inex_lower_prevision(credals, -f)
    else:
        credal_price = previsions.inex_lower_prevision(credals, f)
    strong = previsions.strong_product_lower(credals, f)
    # A price strictly above the lower price is never acceptable.
    above = member(product_, f.shift(-((lower + upper) / 2 + F(1, 8))))
    return {"lower": lower, "upper": upper, "credal": credal_price, "strong": strong, "above": above}


def cone_check(req: Request, ans: dict) -> list:
    _, negate = req.data
    if negate:
        errors = _fails(ans["upper"] == ans["credal"], "upper price != -lower(-f) of the credal program")
    else:
        errors = _fails(ans["lower"] == ans["credal"], "collapsed-cone lower price != credal program price")
    return (
        errors
        + _fails(ans["lower"] <= ans["upper"], "lower price above upper price")
        + _fails(ans["strong"] >= ans["lower"], "strong price below the independent price")
        + _fails(ans["above"] is Tri.OUT, "gamble priced above its lower price accepted")
    )


# ---------------------------------------------------------------------------
# lex-products
# ---------------------------------------------------------------------------

GROUP_PLAN = ("lexlex", "celllex", "lexlex", "genlex", "celllex")
# On lex and cell products, three of every four offers lose under the
# product's support mass and one gains under it.
QUERIES_PER_GROUP = 12
# Which first levels of a lex x lex pair are point masses, cycling over the
# lex x lex groups: the witness construction splits on these cases.
DEGENERATE_PLAN = ((False, False), (True, False), (False, False), (False, True), (True, True))


def _support_mass(part) -> tuple:
    """The mass the engine's product filter uses for a lex or cell marginal."""
    return part.levels[0] if isinstance(part, LexSystem) else part.from_credal[0]


def _offer(rng: random.Random, joint: Scope, mass, favourable: bool) -> Gamble:
    """A random integer gamble; with a support mass, one of a fixed sign.

    Offers that lose under the product's support mass are rejected by the
    engine's mass filter without a linear program; offers that gain under it
    (and are not nonnegative) go to the signature search.  Fixing the share
    of each keeps the LP-free share of requests the same in every run.
    Generator marginals have an engine-computed support mass, so their
    offers are drawn without a sign.
    """
    while True:
        h = _gamble(rng, joint, span=3, denom=1)
        if mass is None:
            return h
        e = _dot(h.values, mass)
        if favourable and e > 0 and not h.is_nonnegative():
            return h
        if not favourable and e < 0:
            return h


def lex_stream(seed: int) -> Iterator[Request]:
    rng = random.Random("lex-products/%d" % seed)
    lexlex = 0
    for group in itertools.count():
        kind = GROUP_PLAN[group % len(GROUP_PLAN)]
        x1, x2 = _variables((2, 2))
        s1, s2 = Scope.of([x1]), Scope.of([x2])
        joint = Scope.of([x1, x2])
        if kind == "lexlex":
            deg1, deg2 = DEGENERATE_PLAN[lexlex % len(DEGENERATE_PLAN)]
            lexlex += 1
            m1, m2 = _maximal_lex(rng, s1, deg1), _maximal_lex(rng, s2, deg2)
        elif kind == "celllex":
            m1 = previsions.strictly_desirable(_credal(rng, s1, 1 + group % 2))
            m2 = _maximal_lex(rng, s2, False)
        else:
            m1 = _consistent_generators(rng, s1, 1 + group % 2)
            m2 = _maximal_lex(rng, s2, False)
        parts = (m1, m2)
        refined = None
        if kind == "lexlex":
            refined = LexSystem(joint, _lex_product_levels(m1, m2))
        key = (group, parts, refined)
        mass = None
        if kind != "genlex":
            mass = tuple(a * b for a in _support_mass(m1) for b in _support_mass(m2))
        for q in range(QUERIES_PER_GROUP):
            h = _offer(rng, joint, mass, favourable=q % 4 == 3)
            if kind == "lexlex" and q == 0:
                yield Request("witness", key, None)
            if kind == "lexlex" and q % 4 == 1:
                yield Request("strong", key, h)
            else:
                yield Request("inex", key, h)


def _product(state: dict, key) -> IndepProduct:
    group, parts, _ = key
    if state.get("group") != group:
        state["group"], state["product"] = group, IndepProduct(parts)
    return state["product"]


def lex_run(state: dict, req: Request) -> dict:
    prod = _product(state, req.key)
    if req.kind == "witness":
        m1, m2 = req.key[1]
        return {"witness": maximal.nonmaximality_witness(m1, m2)}
    if req.kind == "strong":
        return {"verdict": previsions.strong_member(StrongProduct(prod.parts), req.data)}
    return {"verdict": independence.inex_member(prod, req.data)}


def lex_check(req: Request, ans: dict) -> list:
    _, parts, refined = req.key
    if req.kind == "witness":
        w = ans["witness"]
        prod = IndepProduct(parts)
        return _fails(
            any(w.values)
            and independence.inex_member(prod, w) is Tri.OUT
            and independence.inex_member(prod, -w) is Tri.OUT,
            "non-maximality witness accepted in some orientation",
        )
    h = req.data
    verdict = ans["verdict"]
    errors = _fails(verdict in (Tri.IN, Tri.OUT), "product verdict is not exact")
    if verdict is Tri.IN:
        # Product membership is one-sided against the refined independent
        # product, and coherence forbids accepting both h and -h.
        if refined is not None:
            errors += _fails(
                _lex_accepts(refined.levels, h.values),
                "product accepts a gamble its refined superset rejects",
            )
        errors += _fails(
            independence.inex_member(IndepProduct(parts), -h) is not Tri.IN,
            "product accepts both h and -h",
        )
    return errors


# ---------------------------------------------------------------------------
# irrelevance-scans
# ---------------------------------------------------------------------------

# (kind, outcome counts of X1 and X2).  Sizes are fixed per slot because the
# scan grids grow as 7 ** |X1|; only the model numbers are random.  Six cheap
# slots (prices, conditioning, scans that stop at a counterexample), eight
# scans on binary X1 and six on ternary X1 put the median inside the binary
# scans and p90 inside the ternary ones, away from the jumps between groups.
SCAN_PLAN = (
    ("irr-lex", (2, 2)),
    ("condprice-lex", (3, 3)),
    ("indep", (2, 3)),
    ("dependent", (2, 3)),
    ("indep", (2, 2)),
    ("irr-lex", (3, 2)),
    ("condprice-cell", (3, 3)),
    ("factor", (2, 2)),
    ("cond-irr", (2, 2)),
    ("irr-cell", (3, 2)),
    ("lex-condition", (3, 3)),
    ("cond-irr", (2, 2)),
    ("indep", (2, 3)),
    ("cyl", (2, 3)),
    ("irr-lex", (2, 2)),
    ("irr-lex", (3, 2)),
    ("indep", (2, 2)),
    ("dependent", (2, 2)),
    ("cond-irr", (2, 2)),
    ("irr-cell", (3, 2)),
)


def _dependent_lex(rng: random.Random, x1: Variable, x2: Variable) -> LexSystem:
    """A maximal joint lex model under which X2 is relevant to binary X1.

    The first level gives X1 = a a conditional mass of at least 2/3 after
    one outcome of X2 and at most 1/3 after another, so the gamble (1, -1)
    on X1 changes verdict after observing X2.
    """
    joint = Scope.of([x1, x2])
    py = _mass(rng, x2.size)
    cond = []
    for k in range(x2.size):
        if k == 0:
            cond.append(F(rng.randint(2, 3), 3) if rng.random() < 0.5 else F(rng.randint(7, 9), 10))
        elif k == 1:
            cond.append(F(rng.randint(0, 1), 3) if rng.random() < 0.5 else F(rng.randint(1, 3), 10))
        else:
            cond.append(F(rng.randint(0, 4), 4))
    order = list(range(x2.size))
    rng.shuffle(order)
    first = [_ZERO] * joint.size
    for k in range(x2.size):
        y = order[k]
        first[0 * x2.size + y] = py[y] * cond[k]
        first[1 * x2.size + y] = py[y] * (1 - cond[k])
    charged = [w for w in range(joint.size) if first[w] != 0]
    dropped = rng.choice(charged)
    units = [tuple(_ONE if w == u else _ZERO for w in range(joint.size)) for u in range(joint.size) if u != dropped]
    rng.shuffle(units)
    return LexSystem(joint, (tuple(first),) + tuple(units))


def scan_stream(seed: int) -> Iterator[Request]:
    rng = random.Random("irrelevance-scans/%d" % seed)
    for n in itertools.count():
        kind, sizes = SCAN_PLAN[n % len(SCAN_PLAN)]
        x1, x2 = _variables(sizes)
        s1, s2 = Scope.of([x1]), Scope.of([x2])
        joint = Scope.of([x1, x2])
        if kind in ("irr-lex", "factor"):
            yield Request(kind, (s1, s2), _maximal_lex(rng, s1))
        elif kind == "irr-cell":
            yield Request(kind, (s1, s2), previsions.strictly_desirable(_credal(rng, s1, 2)))
        elif kind == "cond-irr":
            (x3,) = _variables((2,), tag="Z")
            given = Assignment.of({x3: rng.choice(x3.outcomes)})
            yield Request(kind, (s1, s2, Scope.of([x3]), given), _maximal_lex(rng, s1))
        elif kind == "indep" or kind == "lex-condition":
            m1, m2 = _maximal_lex(rng, s1), _maximal_lex(rng, s2)
            at = Assignment.of({x1: rng.choice(x1.outcomes)})
            yield Request(kind, (s1, s2, at), (m1, m2, LexSystem(joint, _lex_product_levels(m1, m2))))
        elif kind == "cyl":
            yield Request(kind, (s1, s2), _maximal_lex(rng, s1))
        elif kind == "dependent":
            yield Request(kind, (s1, s2), _dependent_lex(rng, x1, x2))
        elif kind == "condprice-lex":
            model = LexSystem(joint, _lex_product_levels(_maximal_lex(rng, s1), _maximal_lex(rng, s2)))
            at = Assignment.of({x2: rng.choice(x2.outcomes)})
            yield Request(kind, at, (model, _gamble(rng, s1)))
        else:  # condprice-cell
            model = previsions.strictly_desirable(_credal(rng, joint, 3))
            at = Assignment.of({x2: rng.choice(x2.outcomes)})
            yield Request(kind, at, (model, _gamble(rng, s1)))


def scan_run(state: dict, req: Request) -> dict:
    kind = req.kind
    if kind in ("irr-lex", "irr-cell", "factor"):
        s1, s2 = req.key
        expr = independence.irrelevant_extension(req.data, s2, s1.union(s2))
        if kind == "factor":
            return {"verdict": independence.factorisation_check(expr, s2, s1)}
        return {"verdict": independence.is_irrelevant(expr, s2, s1)}
    if kind == "cond-irr":
        s1, s2, s3, given = req.key
        expr = independence.irrelevant_extension(req.data, s2.union(s3), s1.union(s2).union(s3))
        return {"verdict": independence.is_irrelevant(structure.condition(expr, given), s2, s1)}
    if kind == "indep":
        s1, s2, _ = req.key
        return {"verdict": independence.is_independent(req.data[2], [s1, s2])}
    if kind == "lex-condition":
        _, _, at = req.key
        m1, m2, joint_model = req.data
        conditioned = maximal.lex_condition(joint_model, at)
        return {
            "levels": conditioned.levels,
            "canonical": maximal.lex_canonical(conditioned),
            "marginal": maximal.lex_canonical(m2),
        }
    if kind == "cyl":
        s1, s2 = req.key
        return {"verdict": independence.is_irrelevant(structure.cyl_ext(req.data, s1.union(s2)), s2, s1)}
    if kind == "dependent":
        s1, s2 = req.key
        return {"verdict": independence.is_irrelevant(req.data, s2, s1)}
    model, g = req.data
    return {"price": previsions.conditional_lower_prevision(model, req.key, g)}


def _conditioned_masses(masses, scope: Scope, at: Assignment) -> list:
    """Slice each mass at ``at`` and renormalise, dropping massless ones."""
    keep = [w for w in range(scope.size) if scope.assignment_at(w).restrict(at.scope) == at]
    out = []
    for p in masses:
        total = sum((p[w] for w in keep), _ZERO)
        if total:
            out.append(tuple(p[w] / total for w in keep))
    return out


def scan_check(req: Request, ans: dict) -> list:
    kind = req.kind
    if kind in ("irr-lex", "irr-cell", "factor", "cond-irr", "indep"):
        v = ans["verdict"]
        return _fails(v.passed and v.checked > 0, "%s: irrelevant-by-construction model failed its scan" % kind)
    if kind in ("cyl", "dependent"):
        v = ans["verdict"]
        if v.passed or v.counterexample is None or v.counterexample[1] is None:
            return ["%s: planted dependence not detected" % kind]
        f, at = v.counterexample
        if kind == "dependent":
            joint = req.data.scope
            lifted = f.embed(joint).values
            mask = [
                _ONE if joint.assignment_at(w).restrict(at.scope) == at else _ZERO
                for w in range(joint.size)
            ]
            plain = _lex_accepts(req.data.levels, lifted)
            after = _lex_accepts(req.data.levels, [m * x for m, x in zip(mask, lifted)])
        else:
            # Vacuous extension of a coherent base: a nonzero gamble is in when
            # its floor over X2 is nonnegative or in the base; the masked
            # gamble's floor is min(f, 0).
            def extended(floor):
                return all(x >= 0 for x in floor) or _lex_accepts(req.data.levels, floor)

            plain = extended(f.values)
            after = extended([min(x, _ZERO) for x in f.values])
        return _fails(plain != after, "%s: reported counterexample does not change verdict" % kind)
    if kind == "lex-condition":
        _, _, at = req.key
        joint_model = req.data[2]
        expect = _conditioned_masses(joint_model.levels, joint_model.scope, at)
        return _fails(tuple(expect) == tuple(ans["levels"]), "conditioned levels differ from restriction") + _fails(
            ans["canonical"] == ans["marginal"], "conditional of the product differs from its marginal"
        )
    model, g = req.data
    at = req.key
    if kind == "condprice-lex":
        first = _conditioned_masses(model.levels, model.scope, at)[0]
        expected = _dot(g.values, first)
    else:
        expected = min(_dot(g.values, p) for p in _conditioned_masses(model.from_credal, model.scope, at))
    return _fails(ans["price"] == expected, "%s: conditional price %s != %s" % (kind, ans["price"], expected))


# ---------------------------------------------------------------------------
# fresh-models
# ---------------------------------------------------------------------------

# (outcome counts of X1 and X2, generator counts of g1, g2 and the joint gj).
FRESH_PLAN = (
    ((2, 2), (1, 2, 2)),
    ((2, 3), (2, 1, 3)),
    ((2, 2), (2, 2, 3)),
    ((3, 2), (1, 1, 2)),
)


def _rows(gens: GeneratorSet) -> list:
    return [[str(v) for v in g.values] for g in gens.generators]


def fresh_stream(seed: int) -> Iterator[Request]:
    rng = random.Random("fresh-models/%d" % seed)
    for n in itertools.count():
        sizes, (c1, c2, cj) = FRESH_PLAN[n % len(FRESH_PLAN)]
        x1, x2 = _variables(sizes)
        s1, s2 = Scope.of([x1]), Scope.of([x2])
        joint = Scope.of([x1, x2])
        g1 = _consistent_generators(rng, s1, c1)
        g2 = _consistent_generators(rng, s2, c2)
        gj = _consistent_generators(rng, joint, cj)
        doc = {
            "variables": [{"id": v.name, "outcomes": list(v.outcomes)} for v in (x1, x2)],
            "sets": {
                "g1": {"kind": "generators", "scope": ["X1"], "rows": _rows(g1)},
                "g2": {"kind": "generators", "scope": ["X2"], "rows": _rows(g2)},
                "gj": {"kind": "generators", "scope": ["X1", "X2"], "rows": _rows(gj)},
                "product": {"kind": "expr", "op": "inex", "of": ["g1", "g2"]},
            },
        }
        f = _gamble(rng, joint)
        h = _gamble(rng, joint)
        text = json.dumps(doc, sort_keys=True)
        yield Request("document", n, (text, (g1, g2, gj), f, h))


def _cli(argv: list) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue().strip()
    return code, (json.loads(text) if text else None)


def _fmt(g: Gamble) -> str:
    return "[" + ",".join(str(v) for v in g.values) + "]"


def fresh_prepare(state: dict, req: Request) -> str:
    """Write the request's document; not part of the timed request."""
    path = state["path"] = os.path.join(state["workdir"], "model-%d.json" % req.key)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(req.data[0])
    return path


def fresh_run(state: dict, req: Request) -> dict:
    _, _, f, h = req.data
    base = ["--model", state["path"], "--json"]
    return {
        "check": _cli(base + ["check", "gj"]),
        "check_product": _cli(base + ["check", "product"]),
        "lowprev": _cli(base + ["lowprev", "gj", _fmt(f)]),
        "strong": _cli(base + ["strong-member", "g1,g2", _fmt(h)]),
    }


def fresh_check(req: Request, ans: dict) -> list:
    _, (g1, g2, gj), f, h = req.data
    errors = []
    for key in ("check", "check_product"):
        code, payload = ans[key]
        errors += _fails(code == 0 and payload and payload["passed"], "%s fails on a consistent document" % key)
    code, payload = ans["lowprev"]
    if code != 0 or not payload:
        return errors + ["lowprev exited %s" % code]
    vertices = _vertices(gj.scope.size, [g.values for g in gj.generators])
    lower = min(_dot(f.values, p) for p in vertices)
    upper = max(_dot(f.values, p) for p in vertices)
    errors += _fails(F(payload["lower"]) == lower, "lowprev lower != minimum over enumerated vertices")
    errors += _fails(F(payload["upper"]) == upper, "lowprev upper != maximum over enumerated vertices")
    # Strong product: lower envelope over products of marginal vertices.
    v1 = _vertices(g1.scope.size, [g.values for g in g1.generators])
    v2 = _vertices(g2.scope.size, [g.values for g in g2.generators])
    n2 = g2.scope.size
    strong = min(
        sum((h.values[a * n2 + b] * p[a] * q[b] for a in range(len(p)) for b in range(n2)), _ZERO)
        for p in v1
        for q in v2
    )
    if not any(h.values):
        want = "out"
    elif all(v >= 0 for v in h.values):
        want = "in"
    else:
        want = "in" if strong > 0 else "out" if strong < 0 else "unknown"
    code, payload = ans["strong"]
    errors += _fails(payload is not None and payload["verdict"] == want, "strong-member verdict %r != %r" % (payload and payload["verdict"], want))
    return errors


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cone-prices", cone_stream, cone_run, cone_check),
        Workload("lex-products", lex_stream, lex_run, lex_check),
        Workload("irrelevance-scans", scan_stream, scan_run, scan_check),
        Workload("fresh-models", fresh_stream, fresh_run, fresh_check, fresh_prepare),
    )
}
