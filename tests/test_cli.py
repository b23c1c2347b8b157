"""The command-line interface: verdicts, exit codes, determinism."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from desirability import DesirabilityError, Tri, cli, desirable, exactlp, model
from test_model import _mutated_demos

ROOT = Path(__file__).resolve().parent.parent
DEMO = str(ROOT / "models" / "demo.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def lex_pair_model(tmp_path):
    doc = {
        "variables": [
            {"id": "X1", "outcomes": ["a", "b"]},
            {"id": "X2", "outcomes": ["a", "b"]},
        ],
        "sets": {
            "first": {
                "kind": "lex",
                "scope": ["X1"],
                "levels": [["1/2", "1/2"], ["1", "0"]],
            },
            "second": {
                "kind": "lex",
                "scope": ["X2"],
                "levels": [["2/5", "3/5"], ["0", "1"]],
            },
        },
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def incoherent_lex_model(tmp_path):
    """``lbad`` gives X1 = b no mass, so it fails ``lex_is_coherent``;
    ``w`` is coherent and maximal."""
    doc = {
        "variables": [
            {"id": "X1", "outcomes": ["a", "b"]},
            {"id": "X2", "outcomes": ["a", "b"]},
        ],
        "sets": {
            "lbad": {"kind": "lex", "scope": ["X1"], "levels": [["1", "0"]]},
            "s": {"kind": "strict_from_credal", "scope": ["X2"], "vertices": [["1/2", "1/2"]]},
            "w": {"kind": "lex", "scope": ["X2"], "levels": [["1/2", "1/2"], ["1", "0"]]},
            "lproduct": {"kind": "expr", "op": "inex", "of": ["lbad", "w"]},
            "ext": {"kind": "expr", "op": "cyl_ext", "of": "lbad", "target": ["X1", "X2"]},
            "wext": {
                "kind": "expr", "op": "irr_ext", "of": "w",
                "irrelevant": ["X1"], "target": ["X1", "X2"],
            },
        },
    }
    path = tmp_path / "incoherent-lex.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestMembership:
    def test_member_in_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "--model", DEMO, "member", "coin-lean", "[2,-2]"
        )
        assert code == 0 and out.strip() == "In"

    def test_member_out_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "--model", DEMO, "member", "two-vertex", "[2,-1,0,0]"
        )
        assert code == 1 and out.strip() == "Out"

    def test_unknown_verdict_exits_two(self, capsys):
        code, out, _ = run(
            capsys,
            "--model",
            DEMO,
            "strong-member",
            "coin-lean,fair-window",
            "[1,-1,1,-1]",
        )
        assert code == 2 and out.strip() == "Unknown"


class TestPrices:
    def test_lowprev_prints_exact_rationals(self, capsys):
        code, out, _ = run(
            capsys, "--model", DEMO, "lowprev", "two-vertex", "[0,0,4,0]"
        )
        assert code == 0
        assert out.splitlines() == ["lower: 1", "upper: 2"]

    def test_condlowprev_after_observation(self, capsys):
        code, out, _ = run(
            capsys,
            "--model",
            DEMO,
            "condlowprev",
            "widened",
            "X1=a",
            "[3,-1]",
        )
        assert code == 0
        assert out.splitlines()[0] == "lower: 1"

    def test_condlowprev_on_a_conditional_family_prices_its_entry(self, capsys):
        code, out, err = run(
            capsys, "--model", DEMO, "condlowprev", "by-coin", "X1=a", "[3,1]"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["lower: 2", "upper: 2"]
        assert run(capsys, "--model", DEMO, "lowprev", "fair-window", "[3,1]") == (
            0,
            out,
            "",
        )

    def test_condlowprev_on_a_family_without_its_key_names_the_key(self, capsys):
        # The gamble lives on the family's entry scope plus its key, minus
        # the observed variables; observing only X2 leaves it on X1, and
        # conditioning then asks for the missing key.
        code, out, err = run(
            capsys, "--model", DEMO, "condlowprev", "by-coin", "X2=a", "[3,1]"
        )
        assert (code, out) == (3, "")
        assert err == "error: conditional family needs an assignment of all of ('X1',)\n"

    def test_json_output_is_machine_readable(self, capsys):
        code, out, _ = run(
            capsys,
            "--model",
            DEMO,
            "--json",
            "lowprev",
            "two-vertex",
            "[0,0,4,0]",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == "1" and payload["upper"] == "2"
        assert list(payload) == sorted(payload)


class TestChecks:
    def test_consistent_set_passes(self, capsys):
        code, out, _ = run(capsys, "--model", DEMO, "check", "coin-lean")
        assert code == 0
        assert "certificate" in out and out.splitlines()[-1] == "result: pass"

    def test_inconsistent_set_fails_with_combination(self, capsys, tmp_path):
        bad = {
            "variables": [{"id": "X1", "outcomes": ["a", "b"]}],
            "sets": {
                "clash": {
                    "kind": "generators",
                    "scope": ["X1"],
                    "rows": [["1", "-1"], ["-1", "1"]],
                }
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, _ = run(capsys, "--model", str(path), "check", "clash")
        assert code == 1
        assert "fails" in out and out.splitlines()[-1] == "result: fail"

    @pytest.mark.parametrize(
        "name, findings",
        [
            (
                "widened",
                [
                    ("widened", "excludes-zero", "no cell accepts the zero gamble (exact)"),
                    ("widened", "accepts-positives", "positives included wholesale (structural)"),
                    ("widened", "posi-closed",
                     "no violation among 200 sampled combinations (sampled)"),
                ],
            ),
            (
                "updated",
                [
                    ("updated.base", "excludes-zero", "no cell accepts the zero gamble (exact)"),
                    ("updated.base", "accepts-positives",
                     "positives included wholesale (structural)"),
                    ("updated.base", "posi-closed",
                     "no violation among 200 sampled combinations (sampled)"),
                ],
            ),
            (
                "by-coin",
                [
                    ("by-coin[X1=a]", "levels-cover-outcomes", "maximal"),
                    ("by-coin[X1=b]", "levels-cover-outcomes", "maximal"),
                ],
            ),
        ],
    )
    def test_check_walks_cell_sets_and_composite_nodes(self, capsys, name, findings):
        text = ["pass %s %s: %s" % finding for finding in findings] + ["result: pass"]
        assert run(capsys, "--model", DEMO, "check", name) == (0, "\n".join(text) + "\n", "")
        payload = {
            "findings": [
                {"check": check, "detail": detail, "node": node, "passed": True}
                for node, check, detail in findings
            ],
            "name": name,
            "passed": True,
        }
        assert run(capsys, "--model", DEMO, "--json", "check", name) == (
            0, json.dumps(payload, sort_keys=True) + "\n", ""
        )

    @pytest.mark.parametrize(
        "name, code, text",
        [
            ("wext", 0, "pass wext.base levels-cover-outcomes: maximal\nresult: pass\n"),
            ("lbad", 1, "FAIL lbad levels-cover-outcomes: not maximal\nresult: fail\n"),
            ("ext", 1, "FAIL ext.base levels-cover-outcomes: not maximal\nresult: fail\n"),
        ],
    )
    def test_check_reads_an_extension_of_a_lex_base(
        self, capsys, incoherent_lex_model, name, code, text
    ):
        # ``check`` reports an incoherent lex base as a failed finding; it is
        # the one command that does not raise on it.
        assert run(capsys, "--model", incoherent_lex_model, "check", name) == (code, text, "")

    def test_irrelevance_scan_passes_for_extension(self, capsys):
        code, out, _ = run(
            capsys,
            "--model",
            DEMO,
            "--budget",
            "60",
            "irr-check",
            "lean-extended",
            "X2",
            "X1",
        )
        assert code == 0 and out.startswith("irrelevant")

    def test_independence_scan_on_product(self, capsys):
        code, out, _ = run(
            capsys,
            "--model",
            DEMO,
            "--budget",
            "40",
            "indep-check",
            "product",
            "X1|X2",
        )
        assert code == 0 and out.startswith("independent")

    def test_witness_command_prints_a_rejected_gamble(
        self, capsys, lex_pair_model
    ):
        code, out, _ = run(
            capsys,
            "--model",
            lex_pair_model,
            "witness-nonmaximal",
            "first",
            "second",
        )
        assert code == 0 and out.startswith("witness:")

    def test_witness_requires_lexicographic_inputs(self, capsys):
        code, _, err = run(
            capsys,
            "--model",
            DEMO,
            "witness-nonmaximal",
            "coin-lean",
            "fair-window",
        )
        assert code == 3 and "lexicographic" in err


class TestSuiteAndDescribe:
    def test_paper_suite_reports_all_passing(self, capsys):
        code, out, _ = run(capsys, "--model", DEMO, "paper-suite")
        assert code == 0
        assert out.splitlines()[-1] == "result: 5/5 passed"
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_describe_prints_kind_and_outcome_order(self, capsys):
        code, out, _ = run(capsys, "--model", DEMO, "describe", "two-vertex")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name: two-vertex"
        assert "kind: CellSet" in lines
        assert any(l.startswith("outcomes: X1=a,X2=a;") for l in lines)

    def test_byte_determinism(self, capsys):
        first = run(capsys, "--model", DEMO, "describe", "product")
        second = run(capsys, "--model", DEMO, "describe", "product")
        assert first == second


class TestErrors:
    def test_missing_model_file_exits_three(self, capsys):
        code, _, err = run(
            capsys, "--model", "no-such.json", "member", "x", "[1]"
        )
        assert code == 3 and "error:" in err

    def test_unknown_set_name_exits_three(self, capsys):
        code, _, err = run(capsys, "--model", DEMO, "member", "ghost", "[1,0]")
        assert code == 3 and "ghost" in err

    def test_wrong_gamble_length_exits_three(self, capsys):
        code, _, err = run(
            capsys, "--model", DEMO, "member", "coin-lean", "[1,0,0]"
        )
        assert code == 3 and "error:" in err

    def test_float_gamble_rejected(self, capsys):
        code, _, err = run(
            capsys, "--model", DEMO, "member", "coin-lean", "[0.5,1]"
        )
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [("member", "product"), ("frobnicate",), ("--budget", "x", "member", "product", "[1,0,0,0]")],
    )
    def test_usage_error_exits_three_with_one_line(self, capsys, argv):
        # argparse would exit 2, which is the code of Unknown.
        code, out, err = run(capsys, "--model", DEMO, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "fair-window", "[3,,-1]"),
            ("member", "fair-window", "3,-1,"),
            ("strong-member", "coin-lean,,fair-window", "[1,-1,2,0]"),
            ("irr-check", "joint-lean", "X2,", "X1"),
            ("indep-check", "product", "X1||X2"),
        ],
    )
    def test_an_empty_list_entry_exits_three_with_one_line(self, capsys, argv):
        # Dropping the entry would answer for another list than the one given.
        code, out, err = run(capsys, "--model", DEMO, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: empty entry in ") and err.count("\n") == 1

    def test_an_empty_gamble_is_read_as_no_values(self, capsys):
        code, _, err = run(capsys, "--model", DEMO, "member", "fair-window", "[]")
        assert (code, err) == (3, "error: expected 2 values for scope ('X2',), got 0\n")

    def test_member_without_model_flag(self, capsys):
        code, _, err = run(capsys, "member", "coin-lean", "[1,-1]")
        assert code == 3 and "--model" in err

    @pytest.mark.parametrize(
        "scan", [("irr-check", "lean-extended", "X2", "X1"), ("indep-check", "product", "X1|X2")]
    )
    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_scan_budget_below_one_exits_three(self, capsys, scan, budget):
        code, out, err = run(capsys, "--model", DEMO, "--budget", budget, *scan)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "budget" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, message",
        [
            ("product", "error: signature enumeration needs more than 0 problems\n"),
            ("strong-pair", "error: vertex enumeration needs 3 basis candidates, over the budget of 0\n"),
        ],
    )
    def test_member_budget_reaches_products(self, capsys, name, message):
        # The query passes the sign filters, so it needs the product's own
        # enumeration; without --budget it is decided.
        code, out, _ = run(capsys, "--model", DEMO, "member", name, "[-1,-1,2,2]")
        assert code == 1 and out.strip() == "Out"
        code, out, err = run(
            capsys, "--model", DEMO, "--budget", "0", "member", name, "[-1,-1,2,2]"
        )
        assert code == 3 and out == ""
        assert err == message

    @pytest.mark.parametrize(
        "gamble, code, verdict",
        [("[0,0,4,0]", 0, "In"), ("[0,0,0,0]", 1, "Out"), ("[0,0,-1,0]", 1, "Out")],
    )
    def test_budget_does_not_stop_positive_or_zero_strong_queries(
        self, capsys, gamble, code, verdict
    ):
        # Decided by sign alone, before any marginal's vertices are enumerated.
        assert run(
            capsys, "--model", DEMO, "--budget", "0", "member", "strong-pair", gamble
        ) == (code, verdict + "\n", "")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                {"kind": "generators", "scope": ["X1"], "rows": [["1", "-1"], ["0", "0"]]},
                "error: set 'bad': the zero gamble cannot be a generator\n",
            ),
            (
                {"kind": "expr", "op": "inex", "of": ["good", "good"]},
                "error: set 'bad': blocks must have pairwise disjoint scopes; they share X1\n",
            ),
        ],
    )
    def test_a_set_never_queried_is_still_validated(self, capsys, tmp_path, bad, message):
        doc = {
            "variables": [{"id": "X1", "outcomes": ["a", "b"]}],
            "sets": {
                "good": {"kind": "generators", "scope": ["X1"], "rows": [["1", "-1"]]},
                "bad": bad,
            },
        }
        path = tmp_path / "half-bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "--model", str(path), "check", "good") == (3, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "bad", "[1,1]"),
            ("member", "product", "[1,1,1,1]"),
            ("member", "product", "[-1,-1,-1,-1]"),
            ("strong-member", "bad,w", "[1,1,1,1]"),
            ("strong-member", "bad,w", "[0,0,0,0]"),
        ],
    )
    def test_incoherent_generator_marginal_is_an_error_on_every_path(
        self, capsys, tmp_path, argv
    ):
        # [1,-1] and [-1,1] sum to zero, so ``bad`` fails the consistency
        # check; a product over it is an error before any sign filter, as
        # ``bad`` itself is.
        doc = {
            "variables": [
                {"id": "X1", "outcomes": ["a", "b"]},
                {"id": "X2", "outcomes": ["a", "b"]},
            ],
            "sets": {
                "bad": {"kind": "generators", "scope": ["X1"], "rows": [["1", "-1"], ["-1", "1"]]},
                "w": {"kind": "lex", "scope": ["X2"], "levels": [["1/2", "1/2"], ["1", "0"]]},
                "product": {"kind": "expr", "op": "inex", "of": ["bad", "w"]},
            },
        }
        path = tmp_path / "incoherent-marginal.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "--model", str(path), *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "nonpositive combination" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "lproduct", "[1,1,1,1]"),
            ("member", "lproduct", "[1,-1,2,-1]"),
            ("strong-member", "lbad,s", "[1,1,1,1]"),
            ("member", "lbad", "[0,1]"),
            ("lowprev", "lbad", "[0,1]"),
            ("member", "ext", "[0,1,0,1]"),
            ("irr-check", "ext", "X2", "X1"),
        ],
    )
    def test_incoherent_lex_marginal_is_an_error_on_every_path(
        self, capsys, incoherent_lex_model, argv
    ):
        # A product over ``lbad``, ``lbad`` itself and its extension are
        # errors before any sign filter.
        code, out, err = run(capsys, "--model", incoherent_lex_model, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "incoherent lex system" in err
        assert err.count("\n") == 1

    def test_budget_does_not_stop_positive_product_queries(self, capsys):
        # The consistency check of a generator marginal is one cached LP, not
        # part of the enumeration that ``--budget`` caps.
        for name in ("product", "strong-pair"):
            assert run(
                capsys, "--model", DEMO, "--budget", "0", "member", name, "[1,1,1,1]"
            ) == (0, "In\n", "")

    def test_non_string_relation_exits_three_with_one_line(self, capsys, tmp_path):
        doc = {
            "variables": [{"id": "X1", "outcomes": ["a", "b"]}],
            "sets": {
                "c": {
                    "kind": "cells",
                    "scope": ["X1"],
                    "cells": [{"rows": [{"functional": ["1", "-1"], "rel": [">"]}]}],
                }
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "--model", str(path), "describe", "c")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "relation" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_short_credal_vertex_exits_three_with_one_line(self, capsys, tmp_path):
        doc = {
            "variables": [{"id": "X1", "outcomes": ["a", "b"]}],
            "sets": {
                "s": {
                    "kind": "strict_from_credal",
                    "scope": ["X1"],
                    "vertices": [["1/2", "1/2"], [1]],
                }
            },
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "--model", str(path), "describe", "s")
        assert code == 3 and out == ""
        assert err == "error: set 's': vertex of length 1 on a 2-outcome scope\n"

    def test_bad_relation_message_names_its_row(self, capsys, tmp_path):
        doc = {
            "variables": [{"id": "X1", "outcomes": ["a", "b"]}],
            "sets": {
                "c": {
                    "kind": "cells",
                    "scope": ["X1"],
                    "cells": [
                        {"rows": [{"functional": ["1", "-1"], "rel": ">"}]},
                        {"rows": [{"functional": ["1", "0"], "rel": [">"]}]},
                    ],
                }
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "--model", str(path), "describe", "c")
        assert code == 3 and out == ""
        assert err == (
            "error: set 'c' cells[1] rows[0]: relation must be one of "
            "'>=', '>', '=' (got ['>'])\n"
        )

    def test_engine_error_exits_three_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(exactlp, "verify_point", lambda system, point: False)
        code, _, err = run(capsys, "--model", DEMO, "lowprev", "coin-lean", "[1,0]")
        assert code == 3
        assert err.startswith("error: ") and "engine bug" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_failed_witness_check_exits_three_with_one_line(
        self, capsys, monkeypatch, lex_pair_model
    ):
        monkeypatch.setattr(desirable, "member", lambda expr, f: Tri.IN)
        code, out, err = run(
            capsys, "--model", lex_pair_model, "witness-nonmaximal", "first", "second"
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "witness" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_iteration_cap_exits_three_with_one_line(self, capsys, monkeypatch):
        # The first run fills the process-wide caches, so the second one
        # stops in an LP that the query itself solves.
        argv = ("--model", DEMO, "lowprev", "coin-lean", "[1,0]")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(exactlp, "_MAX_ITERATIONS", 1)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "failed to terminate" in err
        assert err.count("\n") == 1 and "Traceback" not in err


def _gamble_arg(doc, name):
    """A mixed-sign gamble on the set's scope, or on two outcomes when the
    set cannot be read."""
    try:
        size = desirable.scope_of(doc.sets[name]).size
    except DesirabilityError:
        size = 2
    return "[%s]" % ",".join(str((-1) ** k * (k + 1)) for k in range(size))


def test_mutated_demo_documents_exit_with_a_code_and_one_error_line(capsys, tmp_path):
    """Every command on every set of a seeded slice of the mutated demo
    documents (``test_model._mutated_demos``) exits 0 to 3, an error with
    exactly one stderr line, and no exception leaves ``main``."""
    codes = set()
    for k, raw in enumerate(itertools.islice(_mutated_demos(), 0, None, 8)):
        text = json.dumps(raw)
        path = tmp_path / ("mutated-%d.json" % k)
        path.write_text(text, encoding="utf-8")
        try:
            doc = model.loads(text)
        except DesirabilityError:
            # Every command fails on loading, whatever it asks.
            gambles = {"coin-lean": "[1,-1]"}
        else:
            gambles = {name: _gamble_arg(doc, name) for name in doc.entries}
        for name, gamble in gambles.items():
            for command in (
                ["check", name], ["member", name, gamble], ["lowprev", name, gamble], ["describe", name],
            ):
                argv = ["--model", str(path)] + command
                try:
                    code = cli.main(argv)
                except BaseException as exc:  # noqa: BLE001 - any escape is the defect
                    pytest.fail("%s escaped main on %r: %s\n%s" % (type(exc).__name__, argv, exc, text))
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (argv, code, text)
                if code == 3:
                    assert err.count("\n") == 1 and err.startswith("error: "), (argv, err, text)
                codes.add(code)
    assert {0, 1, 3} <= codes


class TestWork:
    def test_strong_member_on_the_demo_solves_three_lps(self, capsys, monkeypatch):
        # Two are convex-combination LPs that canonicalise the ``two-vertex``
        # entry at load time; the third is coin-lean's consistency LP, from
        # ``strong_member``'s gate.  The marginals' credal vertices are
        # enumerated without an LP.  The consistency certificate is cached
        # process-wide, so the cache is cleared to count a cold command.
        desirable.avoids_nonpositivity.cache_clear()
        solved = []
        engine = exactlp._solve_engine

        def counted(system, objective=None):
            solved.append(system)
            return engine(system, objective)

        monkeypatch.setattr(exactlp, "_solve_engine", counted)
        code, out, _ = run(
            capsys, "--model", DEMO, "strong-member", "coin-lean,fair-window", "[1,-1,2,0]"
        )
        assert (code, out) == (2, "Unknown\n")
        assert len(solved) == 3


class TestBuildsOnRead:
    """A command builds only the sets it reads, each once per document."""

    @pytest.fixture()
    def fresh_model(self, tmp_path):
        # The shape of a fresh-models benchmark document.
        doc = {
            "variables": [
                {"id": "X1", "outcomes": ["a", "b"]},
                {"id": "X2", "outcomes": ["a", "b", "c"]},
            ],
            "sets": {
                "g1": {"kind": "generators", "scope": ["X1"], "rows": [["2", "-1"]]},
                "g2": {"kind": "generators", "scope": ["X2"], "rows": [["1", "-1", "1"]]},
                "gj": {
                    "kind": "generators",
                    "scope": ["X1", "X2"],
                    "rows": [["1", "0", "-1", "2", "0", "0"], ["0", "1", "1", "-1", "1", "0"]],
                },
                "product": {"kind": "expr", "op": "inex", "of": ["g1", "g2"]},
            },
        }
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.fixture()
    def builds(self, monkeypatch):
        counts = {"GeneratorSet.of": 0, "independent_product": 0}
        canonicalise = desirable.GeneratorSet.of
        collapse = model.independent_product

        def counted_of(*args, **kwargs):
            counts["GeneratorSet.of"] += 1
            return canonicalise(*args, **kwargs)

        def counted_product(*args, **kwargs):
            counts["independent_product"] += 1
            return collapse(*args, **kwargs)

        monkeypatch.setattr(desirable.GeneratorSet, "of", staticmethod(counted_of))
        monkeypatch.setattr(model, "independent_product", counted_product)
        return counts

    def test_check_of_a_leaf_builds_one_generator_set(self, capsys, fresh_model, builds):
        assert run(capsys, "--model", fresh_model, "check", "gj")[0] == 0
        assert builds == {"GeneratorSet.of": 1, "independent_product": 0}

    def test_check_of_the_product_builds_one_product(self, capsys, fresh_model, builds):
        # The product reads its two marginals, then collapses them into one
        # more generator set.
        assert run(capsys, "--model", fresh_model, "check", "product")[0] == 0
        assert builds == {"GeneratorSet.of": 3, "independent_product": 1}

    def test_loading_builds_nothing(self, fresh_model, builds):
        model.load(fresh_model)
        assert builds == {"GeneratorSet.of": 0, "independent_product": 0}

    def test_reading_a_name_twice_builds_it_once(self, fresh_model, builds):
        doc = model.load(fresh_model)
        assert doc.sets["gj"] is doc.sets["gj"]
        assert builds == {"GeneratorSet.of": 1, "independent_product": 0}
        assert doc.sets["product"] is doc.sets["product"]
        assert doc.sets["g1"] is doc.sets["g1"]
        assert builds == {"GeneratorSet.of": 4, "independent_product": 1}
        model.dumps(doc)
        assert builds == {"GeneratorSet.of": 4, "independent_product": 1}


# Every subcommand on the demo model, in text and JSON, with usage errors
# and an engine-level error in between: all exit 3 with one ``error:`` line.
REUSE_SEQUENCE = [
    ["check", "product"],
    ["member", "coin-lean", "[2,-2]"],
    ["member", "two-vertex", "[2,-1,0,0]"],
    ["member", "coin-lean"],
    ["lowprev", "two-vertex", "[0,0,4,0]"],
    ["condlowprev", "widened", "X1=a", "[3,-1]"],
    ["--budget", "40", "irr-check", "lean-extended", "X2", "X1"],
    ["--budget", "40", "indep-check", "product", "X1|X2"],
    ["witness-nonmaximal", "coin-lean", "fair-window"],
    ["strong-member", "coin-lean,fair-window", "[1,-1,2,0]"],
    ["frobnicate"],
    ["paper-suite"],
    ["describe", "two-vertex"],
    ["member", "ghost", "[1,0]"],
]


def _fresh_process(argv, env):
    done = subprocess.run(
        [sys.executable, "-m", "desirability.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


class TestParserReuse:
    def test_reused_parser_answers_like_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        commands = [
            ["--model", DEMO, *mode, *argv]
            for argv in REUSE_SEQUENCE
            for mode in ([], ["--json"])
        ]
        roots = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            if kwargs.get("prog") == "desirability":
                roots.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        in_process = []
        for argv in commands:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert len(roots) == 1

        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        with ThreadPoolExecutor(max_workers=4) as pool:
            fresh = list(pool.map(lambda argv: _fresh_process(argv, env), commands))
        for argv, mine, theirs in zip(commands, in_process, fresh):
            assert mine == theirs, argv
        assert {code for code, _, _ in fresh} == {0, 1, 2, 3}
