"""One benchmark pass in a fresh single-threaded interpreter.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N --mode MODE
        [--seconds S] [--count N] [--workdir DIR] [--spawned NS] [--spans-out PATH]

Modes:

* ``setup``: import ``desirability`` from ``ROOT/src`` and generate the
  first inputs, then stop;
* ``timed``: run the closed loop for ``--seconds`` of wall time (or for
  ``--count`` requests), timing each request with process CPU time;
* ``traced``: run ``--count`` requests with spans recorded at the library's
  entry points, and derive the per-layer counts;
* ``profiled``: run ``--count`` requests under ``cProfile`` and report each
  module's share of self time.

Every answer is checked by the workload's oracle outside the timed region.
The worker prints one JSON object as its last line and exits 0, or exits
non-zero when it cannot import the library from ``ROOT/src``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import sys
import time

import calibrate

# Requests generated before the first request is sent; they count in setup.
PREFETCH = 100
# Machine-speed probes: after set-up, and between requests every interval.
SETUP_PROBES = 5
PROBE_INTERVAL_S = 0.1


def _import_library(root: str):
    """Import ``desirability`` from the checkout's sources, nowhere else."""
    src = os.path.join(root, "src")
    package = os.path.join(src, "desirability")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit("no library sources at %s" % package)
    sys.path.insert(0, src)
    import desirability

    if os.path.realpath(os.path.dirname(desirability.__file__)) != os.path.realpath(package):
        raise SystemExit("desirability was imported from %s, not %s" % (desirability.__file__, package))
    return desirability


def summarise(cpu_ns: list) -> dict:
    """Throughput and latency percentiles from per-request CPU times (ns)."""
    ms = [t / 1e6 for t in cpu_ns]
    cuts = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
    return {
        "requests_per_s": len(ms) / (sum(ms) / 1e3) if sum(ms) else 0.0,
        "request_p50_ms": statistics.median(ms),
        "request_p90_ms": cuts[89],
    }


class _Hooks:
    """Called around each timed request; the default does nothing."""

    def before(self, index: int) -> None:
        pass

    def after(self) -> None:
        pass


def run_loop(workload, state, requests, hooks, seconds=None, count=None) -> dict:
    cpu_ns: list = []
    probes: list = []
    wall_ns = 0
    failures: list = []
    failed = 0
    start = time.monotonic()
    next_probe = start
    while True:
        now = time.monotonic()
        if count is not None and len(cpu_ns) >= count:
            break
        if seconds is not None and now - start >= seconds:
            break
        if now >= next_probe:
            probes.append(calibrate.probe())
            next_probe = time.monotonic() + PROBE_INTERVAL_S
        req = requests()
        path = workload.prepare(state, req) if workload.prepare else None
        hooks.before(len(cpu_ns))
        w0 = time.perf_counter_ns()
        c0 = time.process_time_ns()
        try:
            answer = workload.run(state, req)
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            answer, error = None, "%s: %s" % (type(exc).__name__, exc)
        c1 = time.process_time_ns()
        w1 = time.perf_counter_ns()
        hooks.after()
        cpu_ns.append(c1 - c0)
        wall_ns += w1 - w0
        if error is None:
            try:
                problems = workload.check(req, answer)
            except Exception as exc:
                problems = ["oracle raised %s: %s" % (type(exc).__name__, exc)]
        else:
            problems = [error]
        if problems:
            failed += 1
            if len(failures) < 5:
                failures.append("%s #%d: %s" % (req.kind, len(cpu_ns) - 1, "; ".join(problems)))
        if path:
            os.remove(path)
    probes.append(calibrate.probe())
    probe_ns = statistics.median(probes)
    return {
        "cpu_ns": cpu_ns,
        "scaled_ns": [calibrate.scaled(t, probe_ns) for t in cpu_ns],
        "probe_ns": probe_ns,
        "wall_s": wall_ns / 1e9,
        "failed": failed,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced", "profiled"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--spawned", type=int, default=None, help="time.monotonic_ns() at spawn")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.monotonic_ns()

    library = _import_library(args.root)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    stream = workload.stream(args.seed)
    pending = collections.deque(next(stream) for _ in range(PREFETCH))
    state = {"workdir": args.workdir}
    ready = time.monotonic_ns()
    probe_ns = statistics.median(calibrate.probe() for _ in range(SETUP_PROBES))
    result = {
        "setup_raw_s": (ready - spawned) / 1e9,
        "setup_s": calibrate.scaled((ready - spawned) / 1e9, probe_ns),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    def requests():
        return pending.popleft() if pending else next(stream)

    hooks = _Hooks()
    if args.mode in ("traced", "profiled"):
        import tracer as tracing
    if args.mode == "traced":
        from desirability import cli, desirable, independence, maximal, previsions, space, structure

        modules = {
            "cli": cli,
            "desirable": desirable,
            "independence": independence,
            "maximal": maximal,
            "previsions": previsions,
            "structure": structure,
        }
        caches = {
            "avoids_nonpositivity": desirable.avoids_nonpositivity,
            "_restriction_map": space._restriction_map,
            "_slice_map": space._slice_map,
            "lex_is_maximal": maximal.lex_is_maximal,
        }
        # Cache hits and misses are counted inside requests only, so the
        # oracles' own engine calls do not show in the ratios.
        counts = {k: (0, 0) for k in caches}
        snapshot = {}
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)
        tracer.wrap(workloads, "member", "desirable.member")

        def before(index):
            snapshot.update((k, f.cache_info()) for k, f in caches.items())
            tracer.begin_request(index)

        def after():
            tracer.end_request()
            for k, f in caches.items():
                info, then = f.cache_info(), snapshot[k]
                hits, misses = counts[k]
                counts[k] = (hits + info.hits - then.hits, misses + info.misses - then.misses)

        hooks.before, hooks.after = before, after
    elif args.mode == "profiled":
        import cProfile

        profiler = cProfile.Profile()
        hooks.before = lambda index: profiler.enable()
        hooks.after = profiler.disable

    loop = run_loop(workload, state, requests, hooks, seconds=args.seconds, count=args.count)
    cpu_ns = loop["cpu_ns"]
    result.update(
        attempted=len(cpu_ns),
        failed=loop["failed"],
        failures=loop["failures"],
        cpu_s=sum(cpu_ns) / 1e9,
        scaled_cpu_s=sum(loop["scaled_ns"]) / 1e9,
        probe_ns=loop["probe_ns"],
        wall_s=loop["wall_s"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if cpu_ns:
        result.update(summarise(loop["scaled_ns"]))
        result["raw"] = summarise(cpu_ns)
    if args.mode == "traced":
        tracer.uninstall()
        result["layers"] = tracing.span_metrics(tracer.spans, len(cpu_ns))
        result["layers"].update(tracing.cache_metrics(caches, counts))
        result["span_self_ms"] = tracing.self_ms_by_layer(tracer.spans)
        if args.spans_out:
            tracer.dump(args.spans_out)
    elif args.mode == "profiled":
        profiler.create_stats()
        package_dir = os.path.dirname(os.path.abspath(library.__file__))
        result["shares"] = tracing.module_shares(profiler.stats, package_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
