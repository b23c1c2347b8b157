"""Tests of the benchmark itself: seeded inputs, oracles, and span analysis.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from dataclasses import replace
from fractions import Fraction
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from desirability.desirable import Tri  # noqa: E402
from desirability.space import Gamble  # noqa: E402


def _take(name: str, seed: int, n: int) -> list:
    return list(islice(workloads.WORKLOADS[name].stream(seed), n))


def _answered(name: str, seed: int, n: int, kinds=None, workdir=None):
    """Run the first ``n`` requests (of the given kinds) and keep the answers."""
    w = workloads.WORKLOADS[name]
    state = {"workdir": workdir}
    out = []
    for req in _take(name, seed, n):
        if kinds is not None and req.kind not in kinds:
            continue
        if w.prepare:
            w.prepare(state, req)
        out.append((req, w.run(state, req)))
    return out


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert _take(name, 7, 40) == _take(name, 7, 40)
    assert _take(name, 7, 40) != _take(name, 8, 40)


def test_generated_models_are_consistent_and_maximal_by_construction():
    from desirability import avoids_nonpositivity, lex_is_coherent, lex_is_maximal
    import random

    from desirability.space import Scope, Variable

    rng = random.Random(3)
    for size in (2, 3, 4, 6):
        scope = Scope.of([Variable("X", tuple("abcdef"[:size]))])
        for _ in range(20):
            assert avoids_nonpositivity(workloads._consistent_generators(rng, scope, 3)).avoids
            lex = workloads._maximal_lex(rng, scope)
            assert lex_is_maximal(lex) and lex_is_coherent(lex)


# ---------------------------------------------------------------------------
# oracles: genuine answers pass, planted wrong answers are flagged
# ---------------------------------------------------------------------------


def test_cone_prices_oracle_flags_planted_answers():
    check = workloads.WORKLOADS["cone-prices"].check
    for req, ans in _answered("cone-prices", 1, 4):
        assert check(req, ans) == []
        shifted = "upper" if req.data[1] else "lower"
        assert check(req, dict(ans, **{shifted: ans[shifted] + Fraction(1, 3)}))
        assert check(req, dict(ans, strong=ans["lower"] - 1))
        assert check(req, dict(ans, above=Tri.IN))


def test_lex_products_oracle_flags_planted_answers():
    check = workloads.WORKLOADS["lex-products"].check
    planted = 0
    for req, ans in _answered("lex-products", 2, 60):
        assert check(req, ans) == []
        if req.kind == "witness":
            w = ans["witness"]
            assert check(req, {"witness": Gamble.constant(w.scope, 1)})
            assert check(req, {"witness": Gamble.zero(w.scope)})
            continue
        assert check(req, {"verdict": Tri.UNKNOWN})
        if ans["verdict"] is Tri.OUT:
            _, parts, refined = req.key
            rejected_by_refined = refined is not None and not workloads._lex_accepts(refined.levels, req.data.values)
            negation_in = workloads.independence.inex_member(workloads.IndepProduct(parts), -req.data) is Tri.IN
            if rejected_by_refined or negation_in:
                assert check(req, {"verdict": Tri.IN})
                planted += 1
    assert planted >= 5


def test_irrelevance_scans_oracle_flags_planted_answers():
    check = workloads.WORKLOADS["irrelevance-scans"].check
    n = len(workloads.SCAN_PLAN)
    seen = set()
    for req, ans in _answered("irrelevance-scans", 3, n):
        assert check(req, ans) == [], req.kind
        seen.add(req.kind)
        if "verdict" in ans:
            v = ans["verdict"]
            flipped = replace(v, passed=not v.passed, counterexample=None)
            assert check(req, {"verdict": flipped})
            if not v.passed:
                f, at = v.counterexample
                bogus = replace(v, counterexample=(Gamble.constant(f.scope, 1), at))
                assert check(req, {"verdict": bogus})
        elif "price" in ans:
            assert check(req, {"price": ans["price"] + Fraction(1, 7)})
        else:
            m1 = req.data[0]
            assert check(req, dict(ans, canonical=workloads.maximal.lex_canonical(m1)))
            assert check(req, dict(ans, levels=ans["levels"][::-1] + ans["levels"][:1]))
    assert seen == {kind for kind, _ in workloads.SCAN_PLAN}


def test_fresh_models_oracle_flags_planted_answers(tmp_path):
    check = workloads.WORKLOADS["fresh-models"].check
    for req, ans in _answered("fresh-models", 4, 4, workdir=str(tmp_path)):
        assert check(req, ans) == []
        code, payload = ans["lowprev"]
        wrong = dict(payload, lower=str(Fraction(payload["lower"]) - 1))
        assert check(req, dict(ans, lowprev=(code, wrong)))
        assert check(req, dict(ans, check=(1, dict(ans["check"][1], passed=False))))
        code, payload = ans["strong"]
        other = {"in": "out", "out": "unknown", "unknown": "in"}[payload["verdict"]]
        assert check(req, dict(ans, strong=(code, dict(payload, verdict=other))))
    # The zero gamble is never desirable, whatever its strong price (0).
    text, models, f, h = req.data
    zero = replace(req, data=(text, models, f, Gamble.zero(h.scope)))
    for verdict, flagged in (("out", False), ("unknown", True)):
        planted = dict(ans, strong=(1, dict(payload, verdict=verdict)))
        assert bool(check(zero, planted)) is flagged


def test_wrong_answers_count_as_failed_requests():
    real = workloads.WORKLOADS["irrelevance-scans"]

    def lying_run(state, req):
        ans = real.run(state, req)
        return {"price": ans["price"] + 1} if "price" in ans else ans

    def raising_run(state, req):
        raise RuntimeError("boom")

    priced = sum(kind.startswith("condprice") for kind, _ in workloads.SCAN_PLAN[:12])
    assert priced
    for run, expected in ((lying_run, priced), (raising_run, 12)):
        stream = real.stream(5)
        loop = worker.run_loop(
            replace(real, run=run), {"workdir": None}, lambda: next(stream), worker._Hooks(), count=12
        )
        assert len(loop["cpu_ns"]) == 12
        assert loop["failed"] == expected
        assert loop["failures"]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def _span(sid, parent, name, start, end, attrs=None, request=0):
    return [sid, parent, request, name, start, end, attrs]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, None, "request", 0, 100),
        _span(1, 0, "a.outer", 10, 40),
        _span(2, 1, "b.inner", 15, 25),
        _span(3, 0, "a.outer", 50, 70),
        _span(4, None, "request", 200, 260),
        # Overlapping children count once; a child leaking past its parent
        # is clipped to the parent's interval.
        _span(5, 4, "c.x", 210, 230),
        _span(6, 4, "c.y", 220, 240),
        _span(7, 4, "c.z", 250, 280),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20, 20, 20, 20, 30]
    layers = tracing.self_ms_by_layer(spans)
    assert layers == pytest.approx({"request": 70e-6, "a": 40e-6, "b": 10e-6, "c": 70e-6})


def test_span_metrics_on_a_synthetic_trace():
    lp = lambda kind: {"rows": 4, "cols": 3, "kind": kind, "bits": 5}  # noqa: E731
    spans = [
        _span(0, None, "request", 0, 100, request=0),
        _span(1, 0, "independence.inex_member", 0, 90),
        _span(2, 1, "exactlp.strict_feasible", 0, 2_000_000, lp("Infeasible")),
        _span(3, 1, "exactlp.strict_feasible", 0, 4_000_000, lp("Feasible")),
        _span(4, None, "request", 100, 200, request=1),
        _span(5, 4, "independence.inex_member", 100, 110, request=1),
    ]
    m = tracing.span_metrics(spans, requests=2)
    assert m["exactlp.lps_per_request"] == 1
    assert m["exactlp.ms_per_lp"] == 3
    assert m["exactlp.infeasible_ratio"] == 0.5
    assert m["exactlp.lp_free_request_ratio"] == 0.5
    assert m["independence.lps_per_inex"] == 1
    assert m["independence.inex_lp_free_ratio"] == 0.5
    assert m["independence.inex_feasible_ratio"] == 0.5
    assert m["previsions.lps_per_price"] == 0


def test_tracer_records_nested_spans_and_restores_bindings():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2

    class Box:
        @staticmethod
        def of(x):
            return x

    originals = (ns.inner, ns.outer, Box.__dict__["of"])
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.wrap(ns, "inner", "m.inner", lambda args, kwargs, out: {"out": out})
    tracer.wrap(ns, "outer", "m.outer")
    tracer.wrap(Box, "of", "m.of")
    assert ns.outer(1) == 4 and not tracer.spans  # disabled outside requests
    tracer.begin_request(0)
    assert ns.outer(1) == 4 and Box.of(3) == 3
    tracer.end_request()
    names = [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans]
    assert names == [("request", None), ("m.outer", 0), ("m.inner", 1), ("m.of", 0)]
    assert tracer.spans[2][tracing.ATTRS] == {"out": 2}
    tracer.uninstall()
    assert (ns.inner, ns.outer, Box.__dict__["of"]) == originals


def test_module_shares_group_self_time_by_module():
    pkg = os.path.join("x", "desirability")
    stats = {
        (os.path.join(pkg, "exactlp.py"), 1, "f"): (1, 1, 3.0, 3.0, {}),
        (os.path.join(pkg, "exactlp.py"), 9, "g"): (1, 1, 1.0, 1.0, {}),
        ("/usr/lib/python3/fractions.py", 1, "h"): (1, 1, 4.0, 4.0, {}),
        ("~", 0, "<built-in>"): (1, 1, 2.0, 2.0, {}),
    }
    assert tracing.module_shares(stats, pkg) == {"exactlp": 0.4, "fractions": 0.4}


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def test_probe_scaling():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.scaled(2.0, calibrate.REFERENCE_NS) == 2.0
    slow = calibrate.REFERENCE_NS * 2 ** (1 / calibrate.EXPONENT)
    assert abs(calibrate.scaled(2.0, slow) - 1.0) < 1e-12


def test_percentiles_from_cpu_times():
    summary = worker.summarise([i * 1_000_000 for i in range(1, 101)])
    assert summary["request_p50_ms"] == 50.5
    assert abs(summary["request_p90_ms"] - 90.1) < 1e-9
    assert abs(summary["requests_per_s"] - 100 / 5.05) < 1e-9


def test_benchmark_refuses_to_run_without_library_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cone-prices", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert done.returncode != 0
    last = done.stdout.strip().splitlines()[-1:] or [""]
    assert not last[0].startswith("{")


def test_benchmark_json_matches_the_reported_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
