"""In-memory spans around the library's public entry points, and the
per-layer metrics derived from them.

The tracer rebinds functions in the library's module namespaces from the
outside, at each caller module's binding: ``desirable.solve`` is the LP entry
point as ``desirable`` calls it, ``independence.strict_feasible`` as
``independence`` calls it, and so on.  A span records its name, its parent,
the request it belongs to, start and end (``time.perf_counter_ns``), and a
few counts read from the arguments and the result at the boundary.  Nothing
inside the library is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

# Span tuple layout, kept as a list while the span is open.
SID, PARENT, REQUEST, NAME, START, END, ATTRS = range(7)

LP_SPANS = ("exactlp.solve", "exactlp.strict_feasible")
PRICE_SPANS = (
    "previsions.lower_prevision",
    "previsions.inex_lower_prevision",
    "previsions.conditional_lower_prevision",
)
SCAN_SPANS = (
    "independence.is_irrelevant",
    "independence.is_independent",
    "independence.factorisation_check",
)


class Tracer:
    """Collects spans while ``enabled``; one request at a time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.request = -1
        self.enabled = False
        self._patches: list = []

    # -- installation --------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, attrs: Optional[Callable] = None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                    tracer.request, name, 0, 0, None]
            tracer.spans.append(span)
            tracer.stack.append(span[SID])
            span[START] = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = tracer.clock()
                tracer.stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- requests ------------------------------------------------------------

    def begin_request(self, index: int) -> None:
        self.request = index
        self.enabled = True
        span = [len(self.spans), None, index, "request", 0, 0, None]
        self.spans.append(span)
        self.stack.append(span[SID])
        span[START] = self.clock()

    def end_request(self) -> None:
        sid = self.stack.pop()
        self.spans[sid][END] = self.clock()
        self.enabled = False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# attributes read at the boundaries
# ---------------------------------------------------------------------------


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def lp_attrs(args, kwargs, result) -> dict:
    """Shape of the system, outcome kind and largest answer bit length."""
    system = args[0]
    numbers = []
    for field in ("witness", "farkas", "ray"):
        numbers.extend(getattr(result, field, ()))
    if hasattr(result, "value"):
        numbers.append(result.value)
    return {
        "rows": len(system.rows),
        "cols": system.n_vars,
        "kind": type(result).__name__,
        "bits": max((_bits(v) for v in numbers), default=0),
    }


def vertex_attrs(args, kwargs, result) -> dict:
    """Basis candidates scanned by ``credal_vertices`` and vertices found."""
    assessment = args[0]
    d = assessment.scope.size
    bases = math.comb(d + len(assessment.generators), d - 1) if d > 1 else 1
    return {"bases": bases, "vertices": len(result.vertices)}


def combo_attrs(args, kwargs, result) -> dict:
    return {"combos": math.prod(len(c.vertices) for c in args[0])}


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the entry points each caller module binds.

    ``modules`` maps short names (``desirable``, ``cli``, ...) to the
    imported library modules.
    """
    m = modules
    for caller, attr in (("desirable", "solve"), ("previsions", "solve")):
        tracer.wrap(m[caller], attr, "exactlp.solve", lp_attrs)
    for caller in ("desirable", "independence"):
        tracer.wrap(m[caller], "strict_feasible", "exactlp.strict_feasible", lp_attrs)
    for caller in ("independence", "structure", "cli"):
        tracer.wrap(m[caller], "member", "desirable.member")
    tracer.wrap(m["desirable"], "natext_member", "desirable.natext_member")
    for caller in ("desirable", "independence", "previsions", "cli"):
        tracer.wrap(m[caller], "avoids_nonpositivity", "desirable.avoids_nonpositivity")
    # Late-bound entry points: callers import these at call time from the
    # defining module, so the defining module's binding is the boundary.
    tracer.wrap(m["independence"], "inex_member", "independence.inex_member")
    for attr in ("is_irrelevant", "is_independent", "factorisation_check"):
        tracer.wrap(m["independence"], attr, "independence." + attr)
    for attr in ("lower_prevision", "conditional_lower_prevision"):
        for caller in ("previsions", "cli"):
            tracer.wrap(m[caller], attr, "previsions." + attr)
    tracer.wrap(m["previsions"], "upper_prevision", "previsions.upper_prevision")
    tracer.wrap(m["cli"], "upper_prevision", "previsions.upper_prevision")
    tracer.wrap(m["previsions"], "inex_lower_prevision", "previsions.inex_lower_prevision")
    tracer.wrap(m["previsions"], "strong_product_lower", "previsions.strong_product_lower", combo_attrs)
    tracer.wrap(m["previsions"], "credal_vertices", "previsions.credal_vertices", vertex_attrs)
    tracer.wrap(m["previsions"], "credal_view", "previsions.credal_view")
    for caller in ("previsions", "cli"):
        tracer.wrap(m[caller], "strong_member", "previsions.strong_member")
    tracer.wrap(m["previsions"].CredalSet, "of", "previsions.CredalSet.of")
    for attr in ("lex_condition", "lex_canonical", "nonmaximality_witness"):
        tracer.wrap(m["maximal"], attr, "maximal." + attr)
    tracer.wrap(m["structure"], "lex_condition", "maximal.lex_condition")
    tracer.wrap(m["cli"], "nonmaximality_witness", "maximal.nonmaximality_witness")
    for attr in ("condition", "cyl_ext"):
        tracer.wrap(m["structure"], attr, "structure." + attr)
    tracer.wrap(m["cli"], "load", "model.load")
    tracer.wrap(m["cli"], "main", "cli.main")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its children cover."""
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(span[SID], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _ancestor(spans: list, span: list, names: Iterable[str]) -> Optional[list]:
    """The outermost ancestor whose name is in ``names``."""
    found = None
    parent = span[PARENT]
    while parent is not None:
        up = spans[parent]
        if up[NAME] in names:
            found = up
        parent = up[PARENT]
    return found


def _outermost(spans: list, names: Iterable[str]) -> list:
    names = tuple(names)
    return [s for s in spans if s[NAME] in names and _ancestor(spans, s, names) is None]


def _ratio(num: float, den: float) -> float:
    """``num / den``, reported as 0 when nothing was attempted."""
    return num / den if den else 0.0


def span_metrics(spans: list, requests: int) -> dict:
    """Per-layer counts and times from one traced pass."""
    lps = [s for s in spans if s[NAME] in LP_SPANS]
    durations_ms = [(s[END] - s[START]) / 1e6 for s in lps]
    requests_with_lp = {s[REQUEST] for s in lps}

    inex = _outermost(spans, ("independence.inex_member",))
    inex_ids = {s[SID] for s in inex}
    lps_under_inex = [s for s in lps if (a := _ancestor(spans, s, ("independence.inex_member",))) and a[SID] in inex_ids]
    inex_with_lp = {_ancestor(spans, s, ("independence.inex_member",))[SID] for s in lps_under_inex}

    natext = [s for s in spans if s[NAME] == "desirable.natext_member"]
    natext_with_lp = {
        _ancestor(spans, s, ("desirable.natext_member",))[SID]
        for s in lps
        if _ancestor(spans, s, ("desirable.natext_member",)) is not None
    }

    members = [s for s in spans if s[NAME] == "desirable.member"]
    scans = _outermost(spans, SCAN_SPANS)
    members_in_scans = [s for s in members if _ancestor(spans, s, SCAN_SPANS) is not None]

    prices = _outermost(spans, PRICE_SPANS)
    lps_in_prices = [s for s in lps if _ancestor(spans, s, PRICE_SPANS) is not None]

    vertex_calls = [s for s in spans if s[NAME] == "previsions.credal_vertices"]
    bases = sum(s[ATTRS]["bases"] for s in vertex_calls)
    canon = [s for s in spans if s[NAME] == "previsions.CredalSet.of"]
    canon_lps = [s for s in lps if _ancestor(spans, s, ("previsions.CredalSet.of",)) is not None]
    combos = sum(s[ATTRS]["combos"] for s in spans if s[NAME] == "previsions.strong_product_lower")
    loads = [(s[END] - s[START]) / 1e6 for s in spans if s[NAME] == "model.load"]

    return {
        "exactlp.ms_per_lp": _ratio(sum(durations_ms), len(lps)),
        "exactlp.rows_mean": _ratio(sum(s[ATTRS]["rows"] for s in lps), len(lps)),
        "exactlp.cols_mean": _ratio(sum(s[ATTRS]["cols"] for s in lps), len(lps)),
        "exactlp.answer_bits_max": max((s[ATTRS]["bits"] for s in lps), default=0),
        "exactlp.lps_per_request": _ratio(len(lps), requests),
        "exactlp.infeasible_ratio": _ratio(sum(s[ATTRS]["kind"] == "Infeasible" for s in lps), len(lps)),
        "exactlp.lp_free_request_ratio": _ratio(requests - len(requests_with_lp), requests),
        "independence.lps_per_inex": _ratio(len(lps_under_inex), len(inex)),
        "independence.inex_lp_free_ratio": _ratio(len(inex) - len(inex_with_lp), len(inex)),
        "independence.inex_feasible_ratio": _ratio(
            sum(s[ATTRS]["kind"] == "Feasible" for s in lps_under_inex), len(lps_under_inex)
        ),
        "independence.members_per_scan": _ratio(len(members_in_scans), len(scans)),
        "desirable.member_calls_per_request": _ratio(len(members), requests),
        "desirable.natext_lp_free_ratio": _ratio(len(natext) - len(natext_with_lp), len(natext)),
        "previsions.lps_per_price": _ratio(len(lps_in_prices), len(prices)),
        "previsions.vertex_bases_per_model": _ratio(bases, len(vertex_calls)),
        "previsions.vertex_yield_ratio": _ratio(sum(s[ATTRS]["vertices"] for s in vertex_calls), bases),
        "previsions.canonical_lps_per_model": _ratio(len(canon_lps), len(canon)),
        "previsions.strong_combos_per_request": _ratio(combos, requests),
        "model.load_ms": _ratio(sum(loads), len(loads)),
    }


def cache_metrics(caches: dict, counts: dict) -> dict:
    """Hit ratios from (hits, misses) counted inside requests, and sizes."""
    size = {k: f.cache_info().currsize for k, f in caches.items()}

    def hit_ratio(name):
        hits, misses = counts[name]
        return _ratio(hits, hits + misses)

    return {
        "desirable.consistency_hit_ratio": hit_ratio("avoids_nonpositivity"),
        "desirable.consistency_cache_entries": size["avoids_nonpositivity"],
        "space.restriction_hit_ratio": hit_ratio("_restriction_map"),
        "space.slice_hit_ratio": hit_ratio("_slice_map"),
        "space.cache_entries": size["_restriction_map"] + size["_slice_map"],
        "maximal.lex_maximal_hit_ratio": hit_ratio("lex_is_maximal"),
    }


def module_shares(stats: dict, package_dir: str) -> dict:
    """Share of profiled self time per module, from ``pstats`` raw stats."""
    totals: dict = {}
    grand = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        grand += tottime
        if filename.startswith(package_dir):
            module = filename[len(package_dir):].lstrip("/\\").rsplit(".", 1)[0]
        elif filename.endswith("fractions.py"):
            module = "fractions"
        else:
            continue
        totals[module] = totals.get(module, 0.0) + tottime
    return {m: _ratio(t, grand) for m, t in totals.items()}


def self_ms_by_layer(spans: list) -> dict:
    """Span self time summed per layer (the span name's first part), in ms.

    The ``request`` layer holds time spent outside every traced entry point.
    """
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[NAME].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own / 1e6
    return out
