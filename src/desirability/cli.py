"""Command-line front end for exact queries against JSON model documents.

Exit codes: 0 pass/In, 1 fail/Out, 2 Unknown, 3 error, usage errors
included.  All output is deterministic; ``--json`` switches to
machine-readable payloads with sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .desirable import (
    CellSet,
    Conditioned,
    ConditionalFamily,
    DesirableSetExpr,
    GeneratorSet,
    IndepProduct,
    IrrExt,
    StrongProduct,
    Tri,
    avoids_nonpositivity,
    cellset_coherence_audit,
    member,
    scope_of,
)
from .errors import DesirabilityError
from .fixtures import run_all
from .independence import Verdict, is_independent, is_irrelevant
from .maximal import LexSystem, lex_is_coherent, lex_is_maximal, nonmaximality_witness
from .model import ModelDocument, load, parse_assignment
from .previsions import (
    conditional_lower_prevision,
    lower_prevision,
    strong_member,
    upper_prevision,
)
from .space import Gamble, Scope, as_rational, format_rational
from .structure import conditioning_scope

__all__ = ["main"]

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_UNKNOWN = 2
_EXIT_ERROR = 3

_VERDICT_EXIT = {Tri.IN: _EXIT_PASS, Tri.OUT: _EXIT_FAIL, Tri.UNKNOWN: _EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, where argparse would exit 2 (the code of
    Unknown), so that ``main`` reports it like every other failure.
    Subcommand parsers share the class."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


# Built on the first ``main`` call and reused: parsing keeps no state in it.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="desirability",
        description="Exact queries against models of desirable gambles.",
    )
    parser.add_argument("--model", help="path to a JSON model document")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled scans")
    parser.add_argument(
        "--budget", type=int, default=100000, help="cap for enumerative queries"
    )
    parser.add_argument(
        "--json", dest="as_json", action="store_true", help="JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="consistency/coherence check of a named set")
    p.add_argument("name")

    p = sub.add_parser("member", help="exact membership of a gamble")
    p.add_argument("name")
    p.add_argument("gamble")

    p = sub.add_parser("lowprev", help="exact lower and upper buying prices")
    p.add_argument("name")
    p.add_argument("gamble")

    p = sub.add_parser(
        "condlowprev", help="prices after observing an assignment"
    )
    p.add_argument("name")
    p.add_argument("given", help="assignment like 'X1=a'")
    p.add_argument("gamble", help="gamble on the remaining variables")

    p = sub.add_parser("irr-check", help="scan for an irrelevance counterexample")
    p.add_argument("name")
    p.add_argument("irrelevant", help="comma-separated variable ids")
    p.add_argument("onto", help="comma-separated variable ids")

    p = sub.add_parser("indep-check", help="scan for an independence counterexample")
    p.add_argument("name")
    p.add_argument("blocks", help="blocks like 'X1|X2,X3'")

    p = sub.add_parser(
        "witness-nonmaximal",
        help="gamble rejected in both orientations by a binary product",
    )
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser(
        "strong-member", help="membership in the strong product of named marginals"
    )
    p.add_argument("parts", help="comma-separated set names")
    p.add_argument("gamble")

    sub.add_parser("paper-suite", help="run the built-in worked examples")

    p = sub.add_parser("describe", help="canonical summary of a named set")
    p.add_argument("name")

    return parser


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _require_model(args: argparse.Namespace) -> ModelDocument:
    if not args.model:
        raise DesirabilityError("this command needs --model")
    return load(args.model)


def _named(doc: ModelDocument, name: str) -> DesirableSetExpr:
    if name not in doc.sets:
        raise DesirabilityError(
            "no set named %r in the model (available: %s)"
            % (name, ", ".join(sorted(doc.sets)))
        )
    return doc.sets[name]


def _split(text: str, sep: str = ",") -> list[str]:
    """The stripped entries of a ``sep``-separated list: none for blank
    text, and an error naming the text for a blank entry anywhere else."""
    if not text.strip():
        return []
    entries = [entry.strip() for entry in text.split(sep)]
    if not all(entries):
        raise DesirabilityError("empty entry in %r" % text)
    return entries


def _parse_gamble(text: str, scope: Scope) -> Gamble:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    return Gamble.on(scope, [as_rational(c) for c in _split(body)])


def _parse_vars(text: str, doc: ModelDocument) -> Scope:
    by_id = {v.name: v for v in doc.variables}
    names = _split(text)
    missing = [n for n in names if n not in by_id]
    if missing:
        raise DesirabilityError("unknown variable id %r" % missing[0])
    return Scope.of([by_id[n] for n in names])


def _fmt_gamble(g: Gamble) -> str:
    return ",".join(format_rational(v) for v in g.values)


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_prices(
    args: argparse.Namespace, payload: dict, low: Fraction, up: Fraction
) -> int:
    """Print a lower and an upper price after the query's own fields."""
    lower, upper = format_rational(low), format_rational(up)
    _emit(
        args,
        dict(payload, lower=lower, upper=upper),
        ["lower: %s" % lower, "upper: %s" % upper],
    )
    return _EXIT_PASS


def _emit_scan(args: argparse.Namespace, verdict: Verdict, holds: str) -> int:
    """Print a scan verdict; ``holds`` names the property that passed."""
    _emit(
        args,
        {
            "name": args.name,
            "passed": verdict.passed,
            "mode": verdict.mode,
            "checked": verdict.checked,
            "detail": verdict.detail,
        },
        [
            "%s (%s, %d gambles checked): %s"
            % (
                holds if verdict.passed else "NOT " + holds,
                verdict.mode,
                verdict.checked,
                verdict.detail,
            )
        ],
    )
    return _EXIT_PASS if verdict.passed else _EXIT_FAIL


# ---------------------------------------------------------------------------
# the check walk
# ---------------------------------------------------------------------------


def _check_expr(expr: DesirableSetExpr, label: str, findings: list[dict]) -> None:
    if isinstance(expr, GeneratorSet):
        certificate = avoids_nonpositivity(expr)
        if certificate.avoids:
            findings.append(
                {
                    "node": label,
                    "check": "avoids-nonpositivity",
                    "passed": True,
                    "detail": "certificate mass (%s)"
                    % ",".join(format_rational(v) for v in certificate.positive_mass),
                }
            )
        else:
            findings.append(
                {
                    "node": label,
                    "check": "avoids-nonpositivity",
                    "passed": False,
                    "detail": "fails: combination (%s) is nonpositive"
                    % ",".join(
                        format_rational(v)
                        for v in certificate.nonpositive_combination
                    ),
                }
            )
    elif isinstance(expr, CellSet):
        report = cellset_coherence_audit(expr)
        for finding in report.findings:
            findings.append(
                {
                    "node": label,
                    "check": finding.axiom,
                    "passed": finding.passed,
                    "detail": "%s (%s)" % (finding.detail, finding.mode),
                }
            )
    elif isinstance(expr, LexSystem):
        coherent = lex_is_coherent(expr)
        findings.append(
            {
                "node": label,
                "check": "levels-cover-outcomes",
                "passed": coherent,
                "detail": "maximal" if lex_is_maximal(expr) else "not maximal",
            }
        )
    elif isinstance(expr, (Conditioned, IrrExt)):
        _check_expr(expr.base, label + ".base", findings)
    elif isinstance(expr, (IndepProduct, StrongProduct)):
        for k, part in enumerate(expr.parts):
            _check_expr(part, "%s.parts[%d]" % (label, k), findings)
    elif isinstance(expr, ConditionalFamily):
        for at, entry in expr.entries:
            _check_expr(entry, "%s[%s]" % (label, at), findings)
    else:  # pragma: no cover - the union is closed
        raise DesirabilityError("cannot check %r" % type(expr).__name__)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    findings: list[dict] = []
    _check_expr(expr, args.name, findings)
    passed = all(f["passed"] for f in findings)
    lines = [
        "%s %s %s: %s"
        % ("pass" if f["passed"] else "FAIL", f["node"], f["check"], f["detail"])
        for f in findings
    ]
    lines.append("result: %s" % ("pass" if passed else "fail"))
    _emit(args, {"name": args.name, "passed": passed, "findings": findings}, lines)
    return _EXIT_PASS if passed else _EXIT_FAIL


def _cmd_member(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    f = _parse_gamble(args.gamble, scope_of(expr))
    verdict = member(expr, f, budget=args.budget)
    _emit(
        args,
        {"name": args.name, "gamble": _fmt_gamble(f), "verdict": verdict.value},
        ["%s" % verdict.value.capitalize()],
    )
    return _VERDICT_EXIT[verdict]


def _cmd_lowprev(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    f = _parse_gamble(args.gamble, scope_of(expr))
    low = lower_prevision(expr, f)
    up = upper_prevision(expr, f)
    return _emit_prices(args, {"name": args.name, "gamble": _fmt_gamble(f)}, low, up)


def _cmd_condlowprev(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    by_id = {v.name: v for v in doc.variables}
    given = parse_assignment(args.given, by_id)
    rest = conditioning_scope(expr).difference(given.scope)
    g = _parse_gamble(args.gamble, rest)
    low = conditional_lower_prevision(expr, given, g)
    up = -conditional_lower_prevision(expr, given, -g)
    return _emit_prices(
        args,
        {"name": args.name, "given": str(given), "gamble": _fmt_gamble(g)},
        low,
        up,
    )


def _cmd_irr_check(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    irrelevant = _parse_vars(args.irrelevant, doc)
    onto = _parse_vars(args.onto, doc)
    verdict = is_irrelevant(
        expr, irrelevant, onto, budget=args.budget, seed=args.seed
    )
    return _emit_scan(args, verdict, "irrelevant")


def _cmd_indep_check(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    blocks = [_parse_vars(chunk, doc) for chunk in _split(args.blocks, "|")]
    verdict = is_independent(expr, blocks, budget=args.budget, seed=args.seed)
    return _emit_scan(args, verdict, "independent")


def _cmd_witness(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    first = _named(doc, args.first)
    second = _named(doc, args.second)
    if not isinstance(first, LexSystem) or not isinstance(second, LexSystem):
        raise DesirabilityError(
            "witness construction needs two lexicographic sets"
        )
    w = nonmaximality_witness(first, second)
    _emit(
        args,
        {"witness": _fmt_gamble(w)},
        ["witness: %s (both orientations rejected by the product)" % _fmt_gamble(w)],
    )
    return _EXIT_PASS


def _cmd_strong_member(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    names = _split(args.parts)
    parts = tuple(_named(doc, n) for n in names)
    product = StrongProduct(parts)
    f = _parse_gamble(args.gamble, scope_of(product))
    verdict = strong_member(product, f, budget=args.budget)
    _emit(
        args,
        {"parts": names, "gamble": _fmt_gamble(f), "verdict": verdict.value},
        ["%s" % verdict.value.capitalize()],
    )
    return _VERDICT_EXIT[verdict]


def _cmd_paper_suite(args: argparse.Namespace) -> int:
    results = run_all(args.budget)
    width = max(len(r.name) for r in results)
    lines = [
        "%s  %-*s  %s" % ("PASS" if r.passed else "FAIL", width, r.name, r.detail)
        for r in results
    ]
    passed = all(r.passed for r in results)
    lines.append("result: %d/%d passed" % (sum(r.passed for r in results), len(results)))
    _emit(
        args,
        {
            "passed": passed,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        },
        lines,
    )
    return _EXIT_PASS if passed else _EXIT_FAIL


def _cmd_describe(args: argparse.Namespace) -> int:
    doc = _require_model(args)
    expr = _named(doc, args.name)
    entry = doc.entries[args.name]
    scope = scope_of(expr)
    outcomes = [str(at) for at in scope.assignments()]
    lines = [
        "name: %s" % args.name,
        "kind: %s" % type(expr).__name__,
        "scope: %s" % ",".join(scope.names),
        "outcomes: %s" % "; ".join(outcomes),
        "payload: %s" % json.dumps(entry, sort_keys=True),
    ]
    _emit(
        args,
        {
            "name": args.name,
            "kind": type(expr).__name__,
            "scope": list(scope.names),
            "outcomes": outcomes,
            "payload": entry,
        },
        lines,
    )
    return _EXIT_PASS


_COMMANDS = {
    "check": _cmd_check,
    "member": _cmd_member,
    "lowprev": _cmd_lowprev,
    "condlowprev": _cmd_condlowprev,
    "irr-check": _cmd_irr_check,
    "indep-check": _cmd_indep_check,
    "witness-nonmaximal": _cmd_witness,
    "strong-member": _cmd_strong_member,
    "paper-suite": _cmd_paper_suite,
    "describe": _cmd_describe,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DesirabilityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _EXIT_ERROR
    except (OSError, ValueError, argparse.ArgumentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
