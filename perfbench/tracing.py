"""Outside-in tracing of parafusion's layers.

The wrappers live here, not in the program.  `Tracer.install` replaces each
traced function in every parafusion module namespace that bound it: a name
imported with `from .codes import dual_code` is a separate binding in
`parafusion.ud`, `parafusion.cli` and `parafusion.verify`, and patching
only the defining module would miss those calls.  Two methods are patched
on their classes instead: `FusionSum.__init__` and `Code.__hash__`.

A span is (name index, parent span index, start, end).  Spans are kept in
memory in the request's process and handed to the benchmark when the
request ends.  A span's self time is its duration minus the durations of
its direct children; the program is single-threaded, so children never
overlap.  `arith.mod1` is called too often for a span per call, so it is
only counted.
"""

from __future__ import annotations

import sys
import time

SPANNED = {
    "cli": ("main",),
    "ud": ("orbits", "_orbit_of", "stabilizer", "character_of", "_canonical_eta",
           "induce", "all_irr_labels", "case_b_inventory", "count_twisted"),
    "codes": ("dual_code", "enumerate_code", "generating_subset", "split_even_odd",
              "load_code"),
    "u0": ("fuse_u0", "top_level", "summand_weight", "weight_mod1"),
    "lattice": ("verify_coset_inner_congruence", "verify_coset_inner_congruence_vec",
                "verify_pairing_matches_b_form", "verify_coset_index",
                "random_n_element", "discriminant_group"),
    "arith": ("smith_normal_form",),
    "verify": ("suite_fusion_axioms", "suite_appendix_a", "suite_lattice_lemmas",
               "suite_discriminant", "suite_counting"),
}
METHODS = {
    "fusion.FusionSum": ("fusion", "FusionSum", "__init__"),
    "codes.Code.hash": ("codes", "Code", "__hash__"),
}
COUNTED = {"arith.mod1": ("arith", "mod1")}
CACHES = {
    "ud.canonical_eta": ("ud", "_canonical_eta"),
    "u0.fuse_terms": ("u0", "_fuse_u0_terms"),
    "codes.element_set": ("codes", "_element_set"),
}


SPAN_NAMES = tuple(
    [f"{layer}.{attr.lstrip('_')}" for layer, attrs in SPANNED.items() for attr in attrs]
    + list(METHODS)
)


def _program_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "parafusion" or name.startswith("parafusion."))]


def caches_empty() -> bool:
    """True when no lru cache in any program module holds an entry."""
    for module in _program_modules():
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                return False
    return True


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = [0] * len(COUNTED)
        self._caches = {}

    def _span(self, fn, index: int):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, parent, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, index: int):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[index] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every traced name in every program module that bound it."""
        self._caches = {name: getattr(sys.modules[f"parafusion.{layer}"], attr)
                        for name, (layer, attr) in CACHES.items()}
        modules = _program_modules()
        replace = {}
        index = 0
        for layer, attrs in SPANNED.items():
            defining = sys.modules[f"parafusion.{layer}"]
            for attr in attrs:
                fn = getattr(defining, attr)
                replace[id(fn)] = (fn, self._span(fn, index))
                index += 1
        for i, (layer, attr) in enumerate(COUNTED.values()):
            fn = getattr(sys.modules[f"parafusion.{layer}"], attr)
            replace[id(fn)] = (fn, self._counter(fn, i))
        for namespace in [vars(m) for m in modules] + [sys.modules["parafusion.verify"].SUITES]:
            for name, value in list(namespace.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[name] = hit[1]
        for layer, cls, attr in METHODS.values():
            klass = getattr(sys.modules[f"parafusion.{layer}"], cls)
            setattr(klass, attr, self._span(getattr(klass, attr), index))
            index += 1

    def payload(self) -> tuple:
        """What one request's process hands back: spans, counts, cache stats."""
        caches = {name: tuple(fn.cache_info()[:2]) for name, fn in self._caches.items()}
        return self.spans, self.counts, caches


class Aggregate:
    """Per-layer totals over the requests of a traced round."""

    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts = [0] * len(COUNTED)
        self.cache = {name: [0, 0] for name in CACHES}
        self.spans = 0

    def add(self, request_id: int, payload, out) -> None:
        """Fold one request's payload in and write its spans to `out`."""
        spans, counts, caches = payload
        child = [0.0] * len(spans)
        for index, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (index, parent, start, end) in enumerate(spans):
            self.calls[index] += 1
            self.self_s[index] += end - start - child[sid]
            out.write(f"{request_id},{sid},{parent},{SPAN_NAMES[index]},"
                      f"{start:.9f},{end:.9f}\n")
        self.spans += len(spans)
        for i, c in enumerate(counts):
            self.counts[i] += c
        for name, (hits, misses) in caches.items():
            self.cache[name][0] += hits
            self.cache[name][1] += misses

    def metrics(self) -> dict:
        out = {}
        for name, calls, self_s in zip(SPAN_NAMES, self.calls, self.self_s):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, count in zip(COUNTED, self.counts):
            out[f"{name}.calls"] = (count, "count")
        for name, (hits, misses) in self.cache.items():
            out[f"{name}.hits"] = (hits, "count")
            out[f"{name}.misses"] = (misses, "count")
        censused = out["ud.orbits.calls"][0]
        per_code = out["codes.dual_code.calls"][0] / censused if censused else 0.0
        out["codes.dual_code.calls_per_code"] = (per_code, "calls/code")
        out["trace.spans"] = (self.spans, "count")
        return out
