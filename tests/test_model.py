"""Canonical JSON model documents: loading, validation, round-trips."""

import copy
import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from desirability import CellSet, GeneratorSet, LexSystem, ModelFormatError, Tri, member
from desirability.desirable import Conditioned
from desirability.model import dumps, load, loads, parse_assignment

from references import loads_eagerly

DEMO = str(Path(__file__).resolve().parent.parent / "models" / "demo.json")


def minimal(sets_payload):
    return json.dumps(
        {
            "variables": [
                {"id": "X1", "outcomes": ["a", "b"]},
                {"id": "X2", "outcomes": ["a", "b"]},
            ],
            "sets": sets_payload,
        }
    )


LEAN_PAYLOAD = {"lean": {"kind": "generators", "scope": ["X1"], "rows": [["1", "-1"]]}}


class TestLoading:
    def test_demo_document_loads_with_expected_kinds(self):
        doc = load(DEMO)
        assert isinstance(doc.sets["coin-lean"], GeneratorSet)
        assert isinstance(doc.sets["fair-window"], LexSystem)
        assert isinstance(doc.sets["two-vertex"], CellSet)
        assert isinstance(doc.sets["updated"], Conditioned)

    def test_loaded_sets_answer_queries(self):
        doc = load(DEMO)
        two_vertex = doc.sets["two-vertex"]
        from desirability import Gamble
        from desirability.desirable import scope_of

        g = Gamble.on(scope_of(two_vertex), [2, -1, 0, 0])
        assert member(two_vertex, g) is Tri.OUT

    def test_rational_strings_parse(self):
        doc = loads(minimal(LEAN_PAYLOAD))
        gens = doc.sets["lean"]
        assert isinstance(gens, GeneratorSet)

    def test_round_trip_is_idempotent(self):
        with open(DEMO, "r", encoding="utf-8") as handle:
            text = handle.read()
        once = dumps(loads(text))
        reloaded = loads(once)
        assert dumps(reloaded) == once
        assert set(reloaded.sets) == set(loads(text).sets)
        assert [v.name for v in reloaded.variables] == ["X1", "X2"]


class TestRejection:
    def test_floats_rejected(self):
        bad = minimal(
            {"lean": {"kind": "generators", "scope": ["X1"], "rows": [[0.5, -1]]}}
        )
        with pytest.raises(ModelFormatError):
            loads(bad)

    def test_float_strings_rejected(self):
        bad = minimal(
            {"lean": {"kind": "generators", "scope": ["X1"], "rows": [["0.5", "-1"]]}}
        )
        with pytest.raises(ModelFormatError):
            loads(bad)

    def test_duplicate_outcome_label_rejected(self):
        bad = json.dumps(
            {"variables": [{"id": "X1", "outcomes": ["a", "b", "a"]}], "sets": {}}
        )
        with pytest.raises(
            ModelFormatError, match=r"^variable 'X1' repeats an outcome label$"
        ):
            loads(bad)

    def test_missing_reference_rejected(self):
        bad = minimal(
            {
                "ext": {
                    "kind": "expr",
                    "op": "cyl_ext",
                    "base": "ghost",
                    "scope": ["X1", "X2"],
                }
            }
        )
        with pytest.raises(ModelFormatError):
            loads(bad)

    def test_cycles_rejected(self):
        bad = minimal(
            {
                "a": {"kind": "expr", "op": "cyl_ext", "of": "b", "target": ["X1", "X2"]},
                "b": {"kind": "expr", "op": "cyl_ext", "of": "a", "target": ["X1", "X2"]},
            }
        )
        with pytest.raises(ModelFormatError, match="cyclic"):
            loads(bad)

    def test_unknown_kind_rejected(self):
        bad = minimal({"odd": {"kind": "mystery", "scope": ["X1"]}})
        with pytest.raises(ModelFormatError):
            loads(bad)

    def test_duplicate_variable_rejected(self):
        bad = json.dumps(
            {
                "variables": [
                    {"id": "X1", "outcomes": ["a", "b"]},
                    {"id": "X1", "outcomes": ["a", "c"]},
                ],
                "sets": {},
            }
        )
        with pytest.raises(ModelFormatError):
            loads(bad)

    def test_malformed_json_rejected(self):
        with pytest.raises(ModelFormatError):
            loads("{not json")

    @pytest.mark.parametrize(
        "name, payload, message",
        [
            (
                "lean",
                {"kind": "generators", "scope": ["X1"], "rows": [["1", "-1"], [0, 0]]},
                "the zero gamble cannot be a generator",
            ),
            (
                "lean",
                {"kind": "generators", "scope": ["X1"], "rows": [["1", "-1", "2"]]},
                "expected 2 values",
            ),
            (
                "strict",
                {"kind": "strict_from_credal", "scope": ["X1"], "vertices": [["1/2", "1/3"]]},
                "vertex masses sum to 5/6, not 1",
            ),
            (
                "strict",
                {"kind": "strict_from_credal", "scope": ["X1"], "vertices": [["3/2", "-1/2"]]},
                "vertex has a negative mass",
            ),
            (
                "window",
                {"kind": "lex", "scope": ["X1"], "levels": [["3/2", "-1/2"], ["1", "0"]]},
                "level 0 has a negative mass",
            ),
            (
                "ext",
                {"kind": "expr", "op": "cyl_ext", "of": "base", "target": ["X2"]},
                "must contain",
            ),
            (
                "strict",
                {"kind": "strict_from_credal", "scope": ["X1"], "vertices": [["1/2", "1/2"], [1]]},
                "vertex of length 1 on a 2-outcome scope",
            ),
        ],
    )
    def test_payloads_the_constructors_reject(self, name, payload, message):
        sets = {name: payload, "base": LEAN_PAYLOAD["lean"]}
        with pytest.raises(ModelFormatError) as caught:
            loads(minimal(sets))
        assert str(caught.value).startswith("set %r: " % name)
        assert message in str(caught.value)

    @pytest.mark.parametrize("rel", [[">"], {"rel": ">"}, 1, "GT"])
    def test_cell_relation_must_be_a_relation_string(self, rel):
        cells = {
            "kind": "cells",
            "scope": ["X1"],
            "cells": [{"rows": [{"functional": ["1", "-1"], "rel": rel}]}],
        }
        with pytest.raises(ModelFormatError, match="relation must be one of"):
            loads(minimal({"window": cells}))

    def test_bad_relation_names_its_row(self):
        cells = {
            "kind": "cells",
            "scope": ["X1"],
            "cells": [{"rows": [{"functional": ["1", "-1"], "rel": "<"}]}],
        }
        with pytest.raises(
            ModelFormatError,
            match=r"^set 'window' cells\[0\] rows\[0\]: relation must be one of ",
        ):
            loads(minimal({"window": cells}))

    def test_rejection_names_the_set_that_failed_once(self):
        bad = minimal(
            {
                "ext": {"kind": "expr", "op": "cyl_ext", "of": "zero", "target": ["X1", "X2"]},
                "zero": {"kind": "generators", "scope": ["X1"], "rows": [[0, 0]]},
            }
        )
        with pytest.raises(
            ModelFormatError,
            match=r"^set 'zero': the zero gamble cannot be a generator$",
        ):
            loads(bad)


class TestAssignments:
    def test_parse_pairs_and_empty(self):
        doc = load(DEMO)
        by_id = {v.name: v for v in doc.variables}
        at = parse_assignment("X1=a,X2=b", by_id)
        assert str(at) == "X1=a,X2=b"
        assert parse_assignment("()", by_id).items == ()

    def test_unknown_variable_rejected(self):
        doc = load(DEMO)
        by_id = {v.name: v for v in doc.variables}
        with pytest.raises(ModelFormatError):
            parse_assignment("X9=a", by_id)


class TestConditionGiven:
    """The ``given`` of a ``condition`` op is read as a mapping, verbatim."""

    @staticmethod
    def document(outcomes, given):
        return json.dumps(
            {
                "variables": [
                    {"id": "X1", "outcomes": outcomes},
                    {"id": "X2", "outcomes": ["a", "b"]},
                ],
                "sets": {
                    "joint": {"kind": "generators", "scope": ["X1", "X2"], "rows": [["1", "-1", "1", "-1"]]},
                    "updated": {"kind": "expr", "op": "condition", "of": "joint", "given": given},
                },
            }
        )

    def test_label_with_a_comma_loads(self):
        doc = loads(self.document(["a,b", "c"], {"X1": "a,b"}))
        updated = doc.sets["updated"]
        assert isinstance(updated, Conditioned)
        assert updated.given.items == ((doc.variables[0], "a,b"),)
        assert json.loads(dumps(doc))["sets"]["updated"]["given"] == {"X1": "a,b"}

    def test_label_is_not_stripped(self):
        with pytest.raises(ModelFormatError, match=r"has no outcome ' a'"):
            loads(self.document(["a", "b"], {"X1": " a"}))

    def test_int_label_rejected(self):
        with pytest.raises(ModelFormatError, match=r"has no outcome 1$"):
            loads(self.document(["0", "1"], {"X1": 1}))
        assert isinstance(loads(self.document(["0", "1"], {"X1": "1"})).sets["updated"], Conditioned)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ModelFormatError, match=r"unknown variable 'X9'"):
            loads(self.document(["a", "b"], {"X9": "a"}))


# ---------------------------------------------------------------------------
# mutation fuzzing of the demo document
# ---------------------------------------------------------------------------

# Values a mutated field may take: wrong types, empty containers, a float
# string, a short mass list.  Fields are also deleted, or replaced by a copy
# of another field of the same document.
REPLACEMENTS = (None, True, 0, 1, -1, "", "x", "1/2", "0.5", [], {}, [1], ["1/2", "1/2"])


def _paths(value, path=()):
    """The path to every field below ``value``, parents before children."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, rng):
    """Delete one field, or replace it by a listed value or another field."""
    paths = list(_paths(doc))
    path = rng.choice(paths)
    parent = _at(doc, path[:-1])
    roll = rng.randrange(3)
    if roll == 0:
        del parent[path[-1]]
    elif roll == 1:
        parent[path[-1]] = copy.deepcopy(rng.choice(REPLACEMENTS))
    else:
        parent[path[-1]] = copy.deepcopy(_at(doc, rng.choice(paths)))


def _mutated_demos():
    """2000 seeded documents, each the demo with one to three mutations."""
    with open(DEMO, "r", encoding="utf-8") as handle:
        demo = json.load(handle)
    rng = random.Random("model-fuzz")
    for _ in range(2000):
        doc = copy.deepcopy(demo)
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng)
        yield doc


def test_mutated_demo_documents_fail_only_as_format_errors():
    outcomes = {"loaded": 0, "rejected": 0}
    for k, doc in enumerate(_mutated_demos()):
        try:
            loads(json.dumps(doc))
        except ModelFormatError:
            outcomes["rejected"] += 1
        except Exception as exc:  # noqa: BLE001 - any other type is the defect
            pytest.fail(
                "document %d raised %s: %s\n%s"
                % (k, type(exc).__name__, exc, json.dumps(doc, sort_keys=True))
            )
        else:
            outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["rejected"]


# ---------------------------------------------------------------------------
# differential against the eager loader
# ---------------------------------------------------------------------------


def _fresh_rows(rng, size, count):
    """Generator rows of small integers and rationals; now and then a zero
    row, a repeated row or a row of the wrong length."""
    rows = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.01:
            rows.append(["0"] * size)
        elif roll < 0.05 and rows:
            rows.append(list(rows[0]))
        elif roll < 0.06:
            rows.append([str(rng.randint(-3, 3)) for _ in range(size + 1)])
        else:
            rows.append(
                [rng.choice([str(rng.randint(-3, 3)), "%d/%d" % (rng.randint(-5, 5), rng.randint(1, 4))]) for _ in range(size)]
            )
    return rows


def _fresh_documents():
    """Seeded documents shaped like the fresh-models benchmark: generator
    leaves on X1, X2, X3 and the joint, and products over them, some of
    which overlap, nest, take a single part or mix in a lex marginal."""
    rng = random.Random("fresh-differential")
    products = (
        ["g1", "g2"], ["g2", "g1"], ["g1", "gj"], ["g1"], ["g1", "g1"],
        ["product", "g3"], ["g3", "product"], ["product", "gj"], ["lex3", "g1"],
        ["g1", "g2", "g3"], ["product", "lex3"],
    )
    for _ in range(300):
        sizes = [rng.randint(2, 3) for _ in range(3)]
        variables = [
            {"id": "X%d" % (k + 1), "outcomes": ["o%d" % j for j in range(n)]}
            for k, n in enumerate(sizes)
        ]
        sets = {
            "g1": {"kind": "generators", "scope": ["X1"], "rows": _fresh_rows(rng, sizes[0], rng.randint(0, 3))},
            "g2": {"kind": "generators", "scope": ["X2"], "rows": _fresh_rows(rng, sizes[1], rng.randint(1, 3))},
            "gj": {"kind": "generators", "scope": ["X2", "X1"], "rows": _fresh_rows(rng, sizes[0] * sizes[1], rng.randint(1, 4))},
            "g3": {"kind": "generators", "scope": ["X3"], "rows": _fresh_rows(rng, sizes[2], rng.randint(1, 2))},
            "lex3": {"kind": "lex", "scope": ["X3"], "levels": [["1"] + ["0"] * (sizes[2] - 1)]},
            "product": {"kind": "expr", "op": "inex", "of": ["g1", "g2"]},
            "outer": {"kind": "expr", "op": "inex", "of": list(rng.choice(products))},
            "strong": {"kind": "expr", "op": "strong", "of": ["g1", "g2"]},
            "ext": {"kind": "expr", "op": "cyl_ext", "of": rng.choice(["g1", "product", "outer"]), "target": ["X1", "X2", "X3"]},
        }
        if rng.random() < 0.3:
            sets["nested"] = {"kind": "expr", "op": "inex", "of": ["outer", rng.choice(["g2", "g3", "gj"])]}
        names = list(sets)
        rng.shuffle(names)
        doc = {"variables": variables, "sets": {name: sets[name] for name in names}}
        for _ in range(rng.choice([0, 0, 0, 1])):
            _mutate(doc, rng)
        yield doc


def test_loader_agrees_with_the_eager_loader():
    """The same documents are rejected, with the same message; an accepted
    one gives equal sets, read in any order, and the same ``dumps`` bytes."""
    rng = random.Random("read-order")
    outcomes = {"loaded": 0, "rejected": 0}
    documents = itertools.chain(_mutated_demos(), _fresh_documents())
    for k, raw in enumerate(documents):
        text = json.dumps(raw)
        try:
            expected = loads_eagerly(text)
        except ModelFormatError as exc:
            with pytest.raises(ModelFormatError) as caught:
                loads(text)
            assert str(caught.value) == str(exc), "document %d" % k
            outcomes["rejected"] += 1
            continue
        doc = loads(text)
        assert list(doc.sets) == list(expected.sets) == list(doc.entries)
        names = list(expected.sets)
        rng.shuffle(names)
        for name in names:
            assert doc.sets[name] == expected.sets[name], "document %d set %r" % (k, name)
            assert type(doc.sets[name]) is type(expected.sets[name])
        assert dumps(doc) == dumps(expected), "document %d" % k
        outcomes["loaded"] += 1
    assert outcomes["loaded"] > 100 and outcomes["rejected"] > 100


def test_threads_reading_at_once_see_one_value_per_name():
    text = minimal(
        {
            "g1": {"kind": "generators", "scope": ["X1"], "rows": [["2", "-1"]]},
            "g2": {"kind": "generators", "scope": ["X2"], "rows": [["1", "-1"], ["-1", "3"]]},
            "product": {"kind": "expr", "op": "inex", "of": ["g1", "g2"]},
        }
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            doc = loads(text)
            names = ["product", "g1", "g2"] * 4
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(doc.sets.__getitem__, name) for name in names]
                seen = [future.result(timeout=60) for future in futures]
            for name, value in zip(names, seen):
                assert value is doc.sets[name]
            assert doc.sets["product"] == loads_eagerly(text).sets["product"]
    finally:
        sys.setswitchinterval(interval)
