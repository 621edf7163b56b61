"""Per-layer tracing from outside the library.

install() wraps the public entry points of each deltamatroids module in
every module namespace that holds them (several modules import names by
value), so a call is counted whichever module makes it.  Spans are
aggregated in memory per name: calls, total time and self time, where self
time is a span's duration minus the time covered by its child spans.
Hot primitives (det_gf2, iter_bits, _canon_key_raw) are not wrapped; their
work is counted from the inputs of the wrapped caller instead.

Cache hit ratios come from call counts and the growth of the module caches
over the traced window; a cache a later version renames or removes is
reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module, attribute path); a method is "Class.method".
ENTRY_POINTS = (
    ("setsystem.twist", "setsystem", "SetSystem.twist"),
    ("setsystem.loop_complement", "setsystem", "SetSystem.loop_complement"),
    ("setsystem.three_minor", "setsystem", "SetSystem.three_minor"),
    ("setsystem.canonical_key", "setsystem", "canonical_key"),
    ("exchange.check_symmetric_exchange", "exchange", "check_symmetric_exchange"),
    ("exchange.is_delta_matroid_cached", "exchange", "is_delta_matroid_cached"),
    ("duality.is_vf_safe", "duality", "is_vf_safe"),
    ("duality.find_catalog_3_minor", "duality", "find_catalog_3_minor"),
    ("catalog.s3_twisted_duals", "catalog", "s3_twisted_duals"),
    ("gf2.feasible_masks", "gf2", "SymmetricBinaryMatrix.feasible_masks"),
    ("gf2.ppt", "gf2", "SymmetricBinaryMatrix.ppt"),
    ("gf2.is_binary", "gf2", "is_binary"),
    ("graphs.connected_graph_keys", "graphs", "connected_graph_keys"),
    ("graphs.graph_canonical_key", "graphs", "graph_canonical_key"),
    ("graphs.is_circle_graph", "graphs", "is_circle_graph"),
    ("graphs.lc_orbit_keys", "graphs", "lc_orbit_keys"),
    ("graphs.is_ribbon_graphic", "graphs", "is_ribbon_graphic"),
    ("graphs.delta_matroid", "graphs", "LoopedSimpleGraph.delta_matroid"),
    ("formats.loads", "formats", "loads"),
    ("formats.load_obstruction_cache", "formats", "load_obstruction_cache"),
    ("cli.main", "cli", "main"),
    ("verify.suite", "verify", "verify_main_theorem"),
    ("verify.suite", "verify", "verify_ppt"),
    ("verify.suite", "verify", "verify_circle_obstructions"),
)

# cache name -> (module, attribute)
CACHES = {
    "canon": ("setsystem", "_canon_cache"),
    "vf": ("duality", "_vf_cache"),
    "se": ("exchange", "_se_cache"),
    "graph_canon": ("graphs", "_graph_canon_cache"),
    "circle": ("graphs", "_circle_cache"),
}

# Work counted from the inputs of a wrapped call: span -> (counter, args -> amount).
# feasible_masks evaluates one principal determinant per subset.
WORK = {"gf2.feasible_masks": ("gf2.principal_minors", lambda args: 1 << args[0].size)}
PACKAGE = "deltamatroids"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s, errors]
        self.work = {counter: 0 for counter, _ in WORK.values()}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._cache_start = self._cache_sizes()

    def _module(self, short: str):
        return importlib.import_module(f"{PACKAGE}.{short}")

    def _cache_sizes(self) -> dict[str, int | None]:
        out = {}
        for name, (mod, attr) in CACHES.items():
            cache = getattr(self._module(mod), attr, None)
            out[name] = len(cache) if cache is not None else None
        return out

    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        counter, amount = WORK.get(span, (None, None))
        counters = self.work

        def traced(*args, **kwargs):
            if counter:
                counters[counter] += amount(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for span, mod, path in ENTRY_POINTS:
            owner = self._module(mod)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod}.{path}")
                continue
            wrapper = self._wrap(span, original)
            if outer:  # a method: one patch on the class serves every caller
                setattr(owner, attr, wrapper)
                continue
            for module in modules:  # a function: patch every by-value import
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return self

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: <span>.calls and <span>.self_s for every
        entry point, work counts, and the cache ratios."""
        out: dict[str, float] = {}
        for span, (calls, _total, self_s, _errors) in sorted(self.stats.items()):
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = self_s
        out.update(self.work)
        calls = {span: s[0] for span, s in self.stats.items()}
        three = self.stats.get("setsystem.three_minor")
        if three:
            out["setsystem.three_minor.realizable_ratio"] = 1 - three[3] / three[0] if three[0] else 0.0
        end = self._cache_sizes()
        growth = {name: end[name] - self._cache_start[name]
                  for name in CACHES if end[name] is not None and self._cache_start[name] is not None}

        def hit_ratio(metric: str, cache: str, span: str) -> None:
            if cache in growth and span in calls:
                n = calls[span]
                out[metric] = 1 - growth[cache] / n if n else 0.0

        hit_ratio("setsystem.canonical_key.hit_ratio", "canon", "setsystem.canonical_key")
        hit_ratio("exchange.se_cache.hit_ratio", "se", "exchange.is_delta_matroid_cached")
        hit_ratio("graphs.circle_cache.hit_ratio", "circle", "graphs.is_circle_graph")
        if "vf" in growth:  # one entry per labeled state of every closure is_vf_safe computes
            out["duality.closure_states"] = growth["vf"]
        if "graph_canon" in growth:  # one entry per graph canonical labeling computed
            out["graphs.canonical_labelings"] = growth["graph_canon"]
        return out
