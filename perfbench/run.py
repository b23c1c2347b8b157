"""Benchmark for the exact desirability engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy.  Each pass runs in its own
fresh single-threaded interpreter, one after another.

``--trace 0`` measures the end-to-end metrics with tracing off: the set-up
time of several fresh interpreters (median), then one closed-loop pass of
``--seconds``.  ``--trace 1`` measures the per-layer metrics in three passes
over the same requests: untimed by spans (for the tracing overhead), traced,
and profiled.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload both ways and prints a table.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cone-prices", "lex-products", "irrelevance-scans", "fresh-models")

# Fresh interpreters whose set-up time is measured; the timed pass adds one.
SETUP_SAMPLES = 4
# Share of --seconds given to the untraced pass of a traced run; the traced
# and profiled passes repeat its requests and take longer.
TRACE_SHARE = 0.25
# Every pass of one run must end within this many seconds of its start.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Module shares of profiled self time reported as ``<module>.self_share``.
SHARE_MODULES = (
    "fractions",
    "exactlp",
    "desirable",
    "independence",
    "previsions",
    "space",
    "maximal",
    "structure",
    "cli",
)

LAYER_UNITS = {
    "exactlp.ms_per_lp": "ms",
    "exactlp.rows_mean": "count",
    "exactlp.cols_mean": "count",
    "exactlp.answer_bits_max": "bits",
    "exactlp.lps_per_request": "count",
    "exactlp.infeasible_ratio": "ratio",
    "exactlp.lp_free_request_ratio": "ratio",
    "independence.lps_per_inex": "count",
    "independence.inex_lp_free_ratio": "ratio",
    "independence.inex_feasible_ratio": "ratio",
    "independence.members_per_scan": "count",
    "desirable.member_calls_per_request": "count",
    "desirable.natext_lp_free_ratio": "ratio",
    "desirable.consistency_hit_ratio": "ratio",
    "desirable.consistency_cache_entries": "count",
    "previsions.lps_per_price": "count",
    "previsions.vertex_bases_per_model": "count",
    "previsions.vertex_yield_ratio": "ratio",
    "previsions.canonical_lps_per_model": "count",
    "previsions.strong_combos_per_request": "count",
    "space.restriction_hit_ratio": "ratio",
    "space.slice_hit_ratio": "ratio",
    "space.cache_entries": "count",
    "maximal.lex_maximal_hit_ratio": "ratio",
    "model.load_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
LAYER_UNITS.update({m + ".self_share": "ratio" for m in SHARE_MODULES})


class BenchError(Exception):
    """A pass could not run; the benchmark prints no result."""


def _spawn(workload: str, seed: int, mode: str, workdir: str, deadline: float, **extra) -> dict:
    argv = [sys.executable, "-s", WORKER, "--root", ROOT, "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    for key, value in extra.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    argv += ["--spawned", str(time.monotonic_ns())]
    try:
        done = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass of %s timed out" % (mode, workload)) from None
    if done.returncode != 0:
        raise BenchError("%s pass of %s failed: %s" % (mode, workload, done.stderr.strip()[-2000:]))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s pass of %s printed nothing" % (mode, workload))
    return json.loads(lines[-1])


def measure_end_to_end(workload: str, seed: int, seconds: float, workdir: str, deadline: float) -> tuple:
    setups = [_spawn(workload, seed, "setup", workdir, deadline) for _ in range(SETUP_SAMPLES)]
    timed = _spawn(workload, seed, "timed", workdir, deadline, seconds=seconds)
    setups.append(timed)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "requests_per_s": timed["requests_per_s"],
        "request_p50_ms": timed["request_p50_ms"],
        "request_p90_ms": timed["request_p90_ms"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    raw = timed["raw"]
    notes = {
        "setup samples, scaled (s)": ", ".join("%.4f" % s["setup_s"] for s in setups),
        "setup samples, raw (s)": ", ".join("%.4f" % s["setup_raw_s"] for s in setups),
        "median speed probe (ms)": "%.3f (reference %.3f)" % (timed["probe_ns"] / 1e6, calibrate.REFERENCE_NS / 1e6),
        "raw requests_per_s, p50, p90": "%.4f 1/s, %.4f ms, %.4f ms"
        % (raw["requests_per_s"], raw["request_p50_ms"], raw["request_p90_ms"]),
        "wall time of timed requests (s)": "%.3f" % timed["wall_s"],
        "CPU time of timed requests (s)": "%.3f" % timed["cpu_s"],
    }
    return metrics, [timed], notes


def measure_layers(workload: str, seed: int, seconds: float, workdir: str, deadline: float) -> tuple:
    plain = _spawn(workload, seed, "timed", workdir, deadline, seconds=seconds * TRACE_SHARE)
    count = plain["attempted"]
    spans_out = os.path.join(os.path.dirname(workdir), "spans-%s.jsonl" % workload)
    traced = _spawn(workload, seed, "traced", workdir, deadline, count=count, spans_out=spans_out)
    profiled = _spawn(workload, seed, "profiled", workdir, deadline, count=count)
    metrics = dict(traced["layers"])
    for module in SHARE_MODULES:
        metrics[module + ".self_share"] = profiled["shares"].get(module, 0.0)
    metrics["trace.overhead_ratio"] = traced["scaled_cpu_s"] / plain["scaled_cpu_s"] - 1
    notes = {
        "requests per pass": str(count),
        "span self time by layer (ms)": ", ".join(
            "%s %.1f" % kv for kv in sorted(traced["span_self_ms"].items(), key=lambda kv: -kv[1])
        ),
        "spans written to": os.path.relpath(spans_out, ROOT),
    }
    return metrics, [plain, traced, profiled], notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "desirability", "__init__.py")):
        raise BenchError("no library sources under %s" % os.path.join(ROOT, "src"))
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, passes, notes = measure(workload, seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, notes, failures


def environment() -> dict:
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "request timer": "time.process_time_ns (process CPU time), scaled by the speed probe; "
        "raw CPU and wall time recorded as diagnostics",
        "setup timer": "time.monotonic_ns from spawn to the first request, scaled by the speed probe",
        "span timer": "time.perf_counter_ns",
    }


def _print_report(workload: str, trace: bool, result: dict, notes: dict, failures: list) -> None:
    print("== %s (trace %d) ==" % (workload, int(trace)))
    for name, metric in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print("  %-40s %14.6g %s" % ("failed_ratio", ratio, "ratio"))
    for key, value in notes.items():
        print("  %s: %s" % (key, value))
    for failure in failures:
        print("  FAILED %s" % failure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for key, value in environment().items():
        print("%s: %s" % (key, value))
    plan = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    results = {}
    try:
        for workload, trace in plan:
            result, notes, failures = run_workload(workload, args.seed, args.seconds, trace)
            _print_report(workload, trace, result, notes, failures)
            results["%s/trace%d" % (workload, int(trace))] = result
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    last = next(iter(results.values())) if len(results) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k + "/" + n: m for k, r in results.items() for n, m in r["metrics"].items()},
    }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
