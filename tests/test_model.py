"""Canonical JSON model documents: loading, validation, round-trips."""

import json
from pathlib import Path

import pytest

from desirability import (
    CellSet,
    Conditioned,
    GeneratorSet,
    LexSystem,
    ModelFormatError,
    Tri,
    dumps,
    load,
    loads,
    member,
)
from desirability.model import parse_assignment

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
        from desirability import Gamble, scope_of

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
