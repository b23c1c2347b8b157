"""Canonical JSON documents describing named models over shared variables.

A document declares variables and a dictionary of named sets.  Leaf kinds
hold explicit numbers (``generators``, ``cells``, ``lex``,
``strict_from_credal``); the ``expr`` kind combines previously named sets
by reference (conditioning, cylindrical extension, irrelevant extension,
independent and strong products, conditional families).

Parsing rejects every floating-point literal: numbers are integers or
rational strings such as ``"-5/7"``.  Loading validates every set and
runs every constructor that can reject its payload, so a malformed
document fails on load whichever sets are queried.  Work that cannot fail
on a validated document waits for the first read of the set: sorting and
deduplicating generators, collapsing a product of generator sets, and
the canonical payload (sorted generators, string-formatted rationals,
defaults materialised).  ``dumps`` after ``loads`` is a fixed point byte
for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .desirable import (
    Cell,
    CellRow,
    CellSet,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    StrongProduct,
)
from .errors import ExactnessError, ModelFormatError
from .exactlp import EQ, GE, GT
from .independence import independent_product, irrelevant_extension
from .maximal import LexSystem
from .previsions import CredalSet, strictly_desirable
from .space import (
    Assignment,
    Gamble,
    Scope,
    Variable,
    as_rational,
    disjoint_union,
    format_rational,
)
from .structure import cyl_ext, condition

__all__ = [
    "ModelDocument",
    "dump",
    "dumps",
    "load",
    "loads",
    "parse_assignment",
]

def _rel_from_name(text: object, where: str) -> str:
    if not (isinstance(text, str) and text in (GE, GT, EQ)):
        raise ModelFormatError(
            "%s: relation must be one of '>=', '>', '=' (got %r)" % (where, text)
        )
    return text


@dataclass(frozen=True)
class ModelDocument:
    """Declared variables, named sets, and their canonical payloads.

    Every set was validated when the document was loaded.  ``sets`` and
    ``entries`` are read-only mappings that build each name on its first
    read and keep it for the life of the document.
    """

    variables: tuple[Variable, ...]
    sets: Mapping[str, DesirableSetExpr]
    entries: Mapping[str, object]


class _BuiltOnRead(Mapping):
    """Named values, each made by its builder on the first read and kept.

    A builder takes ``source``, by default this mapping itself, so a
    composite set reads the sets it is made of through the same memo.
    Threads that read a name at once may each build it, but every read
    returns the value stored first.
    """

    def __init__(
        self, builders: Mapping[str, Callable], source: Optional[Mapping] = None
    ) -> None:
        self._builders = builders
        self._source = source
        self._built: dict[str, object] = {}

    def __getitem__(self, name: str) -> object:
        if name in self._built:
            return self._built[name]
        source = self if self._source is None else self._source
        return self._built.setdefault(name, self._builders[name](source))

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)


def _ready(built: DesirableSetExpr) -> Callable:
    return lambda sets: built


def parse_assignment(text: str, by_id: Mapping[str, Variable]) -> Assignment:
    """Parse ``"X1=a,X2=b"`` (or ``"()"`` for the empty assignment)."""
    text = text.strip()
    if text in ("", "()"):
        return Assignment(())
    pairs = []
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ModelFormatError(
                "assignment %r is not of the form 'X=label,...'" % text
            )
        key, _, label = chunk.partition("=")
        pairs.append((key.strip(), label.strip()))
    return _assignment(pairs, by_id)


def _assignment(pairs: Iterable[tuple], by_id: Mapping[str, Variable]) -> Assignment:
    """Labels are taken verbatim: each must equal a declared outcome."""
    out = {}
    for key, label in pairs:
        if key not in by_id:
            raise ModelFormatError("assignment names unknown variable %r" % (key,))
        if key in (v.name for v in out):
            raise ModelFormatError("assignment repeats variable %r" % (key,))
        var = by_id[key]
        if label not in var.outcomes:
            raise ModelFormatError(
                "variable %r has no outcome %r" % (key, label)
            )
        out[var] = label
    return Assignment.of(out)


def _reject_float(literal: str) -> Fraction:
    raise ModelFormatError(
        "non-exact numeric literal %r; use integers or rational strings "
        "like '1/3'" % literal
    )


def _need(payload: Mapping[str, object], key: str, where: str) -> object:
    if key not in payload:
        raise ModelFormatError("%s is missing the %r field" % (where, key))
    return payload[key]


def _rational(value: object, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelFormatError(
            "%s must be an integer or a rational string (got %r)" % (where, value)
        )
    try:
        return as_rational(value)
    except ExactnessError as exc:
        raise ModelFormatError("%s: %s" % (where, exc)) from None


def _rational_list(values: object, where: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise ModelFormatError("%s must be a list of rationals" % where)
    return tuple(
        _rational(v, "%s[%d]" % (where, k)) for k, v in enumerate(values)
    )


def _parse_variables(raw: object) -> tuple[Variable, ...]:
    if not isinstance(raw, list) or not raw:
        raise ModelFormatError("'variables' must be a nonempty list")
    seen: set[str] = set()
    out: list[Variable] = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ModelFormatError("variable %d must be an object" % k)
        name = _need(entry, "id", "variable %d" % k)
        outcomes = _need(entry, "outcomes", "variable %d" % k)
        if not isinstance(name, str) or not name:
            raise ModelFormatError("variable %d has a bad id %r" % (k, name))
        if name in seen:
            raise ModelFormatError("variable %r declared twice" % name)
        if (
            not isinstance(outcomes, list)
            or not outcomes
            or not all(isinstance(o, str) for o in outcomes)
        ):
            raise ModelFormatError(
                "variable %r needs a nonempty list of outcome labels" % name
            )
        if len(set(outcomes)) != len(outcomes):
            raise ModelFormatError("variable %r repeats an outcome label" % name)
        seen.add(name)
        out.append(Variable(name, tuple(outcomes)))
    return tuple(out)


class _Resolver:
    """The eager pass: validates each set once, its references first.

    Each set gets a builder, which makes the set from the memo of built
    sets, and a canonical form, which makes its payload from the built
    set.  Constructors that can reject a payload run here; a builder
    defers only work that cannot fail on a validated document.
    """

    def __init__(
        self, variables: tuple[Variable, ...], raw_sets: Mapping[str, object]
    ) -> None:
        self.by_id = {v.name: v for v in variables}
        self.raw = raw_sets
        self.builders: dict[str, Optional[Callable]] = dict.fromkeys(raw_sets)
        self.entries: dict[str, Optional[Callable]] = dict.fromkeys(raw_sets)
        self.sets = _BuiltOnRead(self.builders)
        # The scope of each set whose deferred build is a generator set: the
        # generator leaves and the products that collapse to one.
        self.generator_scopes: dict[str, Scope] = {}
        self.visiting: list[str] = []

    # -- scopes and references ------------------------------------------

    def scope(self, raw: object, where: str) -> Scope:
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(i, str) for i in raw)
        ):
            raise ModelFormatError("%s: scope must be a list of variable ids" % where)
        missing = [i for i in raw if i not in self.by_id]
        if missing:
            raise ModelFormatError(
                "%s: unknown variable id %r" % (where, missing[0])
            )
        if len(set(raw)) != len(raw):
            raise ModelFormatError("%s: scope repeats a variable" % where)
        return Scope.of([self.by_id[i] for i in raw])

    def ref(self, name: object, where: str) -> str:
        if not isinstance(name, str):
            raise ModelFormatError("%s: set reference must be a string" % where)
        self.resolve(name)
        return name

    def part(self, name: object, where: str) -> DesirableSetExpr:
        """A referenced set, built now for a constructor that reads it."""
        return self.sets[self.ref(name, where)]

    def resolve(self, name: str) -> None:
        if self.builders.get(name) is not None:
            return
        if name in self.visiting:
            raise ModelFormatError(
                "cyclic reference: %s" % " -> ".join(self.visiting + [name])
            )
        if name not in self.raw:
            raise ModelFormatError("reference to undeclared set %r" % name)
        payload = self.raw[name]
        if not isinstance(payload, dict):
            raise ModelFormatError("set %r must be an object" % name)
        self.visiting.append(name)
        try:
            builder, canonical = self.build(name, payload)
        except ModelFormatError:
            raise
        except ValueError as exc:
            # A payload the constructors reject (zero generator, bad masses,
            # scope or length mismatch) is a malformed document.
            raise ModelFormatError("set %r: %s" % (name, exc)) from None
        finally:
            self.visiting.pop()
        self.builders[name] = builder
        self.entries[name] = lambda sets: canonical(sets[name])

    # -- kinds ------------------------------------------------------------

    def build(
        self, name: str, payload: Mapping[str, object]
    ) -> tuple[Callable, Callable]:
        kind = _need(payload, "kind", "set %r" % name)
        where = "set %r" % name
        if kind == "generators":
            return self.build_generators(name, payload, where)
        if kind == "cells":
            return self.build_cells(payload, where)
        if kind == "lex":
            return self.build_lex(payload, where)
        if kind == "strict_from_credal":
            return self.build_strict(payload, where)
        if kind == "expr":
            return self.build_expr(name, payload, where)
        raise ModelFormatError("%s has unknown kind %r" % (where, kind))

    def build_generators(
        self, name: str, payload: Mapping[str, object], where: str
    ) -> tuple[Callable, Callable]:
        scope = self.scope(_need(payload, "scope", where), where)
        raw_rows = _need(payload, "rows", where)
        if not isinstance(raw_rows, list):
            raise ModelFormatError("%s: 'rows' must be a list" % where)
        gambles = tuple(
            Gamble(scope, _rational_list(row, "%s rows[%d]" % (where, k)))
            for k, row in enumerate(raw_rows)
        )
        # The constructor's checks run now; the canonical order waits.
        GeneratorSet(scope, gambles)
        self.generator_scopes[name] = scope

        def canonical(built: GeneratorSet) -> object:
            return {
                "kind": "generators",
                "scope": list(scope.names),
                "rows": [
                    [format_rational(v) for v in g.values] for g in built.generators
                ],
            }

        return (lambda sets: GeneratorSet.of(scope, gambles)), canonical

    def build_cells(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[Callable, Callable]:
        scope = self.scope(_need(payload, "scope", where), where)
        include_positive = payload.get("include_positive", False)
        if not isinstance(include_positive, bool):
            raise ModelFormatError("%s: 'include_positive' must be a boolean" % where)
        raw_cells = _need(payload, "cells", where)
        if not isinstance(raw_cells, list):
            raise ModelFormatError("%s: 'cells' must be a list" % where)
        cells = []
        for k, raw_cell in enumerate(raw_cells):
            cwhere = "%s cells[%d]" % (where, k)
            if not isinstance(raw_cell, dict):
                raise ModelFormatError("%s must be an object" % cwhere)
            exclude_zero = raw_cell.get("exclude_zero", False)
            if not isinstance(exclude_zero, bool):
                raise ModelFormatError("%s: 'exclude_zero' must be a boolean" % cwhere)
            raw_rows = _need(raw_cell, "rows", cwhere)
            if not isinstance(raw_rows, list):
                raise ModelFormatError("%s: 'rows' must be a list" % cwhere)
            rows = []
            for j, raw_row in enumerate(raw_rows):
                rwhere = "%s rows[%d]" % (cwhere, j)
                if not isinstance(raw_row, dict):
                    raise ModelFormatError("%s must be an object" % rwhere)
                functional = Gamble(
                    scope,
                    _rational_list(_need(raw_row, "functional", rwhere), rwhere),
                )
                rel = _rel_from_name(_need(raw_row, "rel", rwhere), rwhere)
                rows.append(CellRow(functional, rel))
            cells.append(Cell(tuple(rows), exclude_zero=exclude_zero))
        built = CellSet(scope, tuple(cells), include_positive=include_positive)

        def canonical(built: CellSet) -> object:
            return {
                "kind": "cells",
                "scope": list(scope.names),
                "include_positive": include_positive,
                "cells": [
                    {
                        "exclude_zero": cell.exclude_zero,
                        "rows": [
                            {
                                "functional": [
                                    format_rational(v) for v in row.functional.values
                                ],
                                "rel": row.rel,
                            }
                            for row in cell.rows
                        ],
                    }
                    for cell in built.cells
                ],
            }

        return _ready(built), canonical

    def build_lex(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[Callable, Callable]:
        scope = self.scope(_need(payload, "scope", where), where)
        raw_levels = _need(payload, "levels", where)
        if not isinstance(raw_levels, list) or not raw_levels:
            raise ModelFormatError("%s: 'levels' must be a nonempty list" % where)
        levels = tuple(
            _rational_list(level, "%s levels[%d]" % (where, k))
            for k, level in enumerate(raw_levels)
        )
        built = LexSystem(scope, levels)

        def canonical(built: LexSystem) -> object:
            return {
                "kind": "lex",
                "scope": list(scope.names),
                "levels": [
                    [format_rational(v) for v in level] for level in built.levels
                ],
            }

        return _ready(built), canonical

    def build_strict(
        self, payload: Mapping[str, object], where: str
    ) -> tuple[Callable, Callable]:
        scope = self.scope(_need(payload, "scope", where), where)
        raw_vertices = _need(payload, "vertices", where)
        if not isinstance(raw_vertices, list) or not raw_vertices:
            raise ModelFormatError("%s: 'vertices' must be a nonempty list" % where)
        vertices = tuple(
            _rational_list(v, "%s vertices[%d]" % (where, k))
            for k, v in enumerate(raw_vertices)
        )
        credal = CredalSet.of(scope, vertices)
        built = strictly_desirable(credal)

        def canonical(built: CellSet) -> object:
            return {
                "kind": "strict_from_credal",
                "scope": list(scope.names),
                "vertices": [
                    [format_rational(v) for v in vertex] for vertex in credal.vertices
                ],
            }

        return _ready(built), canonical

    # -- composite expressions ---------------------------------------------

    def build_expr(
        self, name: str, payload: Mapping[str, object], where: str
    ) -> tuple[Callable, Callable]:
        op = _need(payload, "op", where)
        if op == "condition":
            base = self.part(_need(payload, "of", where), where)
            raw_given = _need(payload, "given", where)
            if not isinstance(raw_given, dict):
                raise ModelFormatError(
                    "%s: 'given' must map variable ids to outcome labels" % where
                )
            given = _assignment(raw_given.items(), self.by_id)
            built = condition(base, given)
            canonical = {
                "kind": "expr",
                "op": "condition",
                "of": payload["of"],
                "given": {v.name: label for v, label in given.items},
            }
        elif op == "cyl_ext":
            base = self.part(_need(payload, "of", where), where)
            target = self.scope(_need(payload, "target", where), where)
            built = cyl_ext(base, target)
            canonical = {
                "kind": "expr",
                "op": "cyl_ext",
                "of": payload["of"],
                "target": list(target.names),
            }
        elif op == "irr_ext":
            base = self.part(_need(payload, "of", where), where)
            irrelevant = self.scope(_need(payload, "irrelevant", where), where)
            target = self.scope(_need(payload, "target", where), where)
            built = irrelevant_extension(base, irrelevant, target)
            canonical = {
                "kind": "expr",
                "op": "irr_ext",
                "of": payload["of"],
                "irrelevant": list(irrelevant.names),
                "target": list(target.names),
            }
        elif op in ("inex", "strong"):
            raw_parts = _need(payload, "of", where)
            if not isinstance(raw_parts, list) or not raw_parts:
                raise ModelFormatError(
                    "%s: 'of' must be a nonempty list of set names" % where
                )
            names = [self.ref(p, where) for p in raw_parts]
            canonical = {"kind": "expr", "op": op, "of": list(raw_parts)}
            if op == "inex" and all(p in self.generator_scopes for p in names):
                # Generator marginals collapse to one generator set, which
                # cannot fail once their scopes are disjoint.
                self.generator_scopes[name] = disjoint_union(
                    self.generator_scopes[p] for p in names
                )
                return (
                    lambda sets: independent_product([sets[p] for p in names]),
                    lambda built: canonical,
                )
            parts = tuple(self.sets[p] for p in names)
            built = (
                independent_product(parts)
                if op == "inex"
                else StrongProduct(parts)
            )
        elif op == "conditional_family":
            on = self.scope(_need(payload, "on", where), where)
            raw_table = _need(payload, "table", where)
            if not isinstance(raw_table, dict) or not raw_table:
                raise ModelFormatError(
                    "%s: 'table' must map assignments to set names" % where
                )
            entries = []
            canon_table: dict[str, object] = {}
            for key, ref_name in raw_table.items():
                at = parse_assignment(key, self.by_id)
                if str(at) in canon_table:
                    raise ModelFormatError(
                        "%s: table repeats the assignment %s" % (where, at)
                    )
                canon_table[str(at)] = ref_name
                entries.append((at, self.part(ref_name, where)))
            entries.sort(key=lambda pair: str(pair[0]))
            built = ConditionalFamily(on, tuple(entries))
            canonical = {
                "kind": "expr",
                "op": "conditional_family",
                "on": list(on.names),
                "table": canon_table,
            }
        else:
            raise ModelFormatError("%s has unknown op %r" % (where, op))
        return _ready(built), lambda built: canonical


def loads(text: str) -> ModelDocument:
    """Parse and validate a document; its sets are built on first read.

    A malformed document raises ``ModelFormatError``, whichever sets are
    later read; when a set's constructor rejects its payload, the message
    names the set.
    """
    try:
        raw = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("invalid JSON: %s" % exc) from None
    if not isinstance(raw, dict):
        raise ModelFormatError("the document root must be an object")
    variables = _parse_variables(_need(raw, "variables", "document"))
    raw_sets = _need(raw, "sets", "document")
    if not isinstance(raw_sets, dict):
        raise ModelFormatError("'sets' must be an object of named sets")
    for name in raw_sets:
        if not isinstance(name, str) or not name:
            raise ModelFormatError("set names must be nonempty strings")
    resolver = _Resolver(variables, raw_sets)
    for name in raw_sets:
        resolver.resolve(name)
    sets = resolver.sets
    return ModelDocument(variables, sets, _BuiltOnRead(resolver.entries, sets))


def load(path: str) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(doc: ModelDocument) -> str:
    """Canonical serialisation: sorted keys, rationals as strings."""
    payload = {
        "variables": [
            {"id": v.name, "outcomes": list(v.outcomes)} for v in doc.variables
        ],
        "sets": {name: doc.entries[name] for name in doc.entries},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def dump(doc: ModelDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))
