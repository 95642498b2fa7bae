"""Per-layer spans recorded from outside the library.

`Tracer.install` wraps every public module-level function of the seven
layer modules, plus `FinMap.__post_init__` (the validation every map
construction pays), and rebinds each wrapper wherever a finkite module
holds the same function object under a name or in a module-level dict,
so calls across layers nest as child spans.  Each span records its
name, layer, start, end, parent and op id.  Spans stay in memory (up to
a cap; aggregates are always exact) and are written out at the end.

A layer's self time is the sum, over its spans, of the span's duration
minus the time covered by its child spans.  Its busy time is the wall
time during which at least one of its spans is open.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("finmaps", "limits", "internal", "kitecond", "algebra", "schemas",
          "cli")

SPAN_CAP = 100_000

# Hot spots reported by name, besides the per-layer totals.
HOT_SELF = (
    "limits.pullback", "limits.check_local_product_intrinsic",
    "internal.kpc", "internal.kpc_swapped", "internal.composable_pairs",
    "internal.validate_category", "kitecond.solve_m",
    "kitecond.pregroupoid_solutions", "kitecond.maltsev_mu", "kitecond.theta",
    "kitecond.delta_identity_check", "algebra.maltsev_table",
    "algebra.relation_closure", "algebra.admissibility_count_variety",
    "cli.build_parser", "finmaps.FinMap",
)
HOT_CALLS = ("algebra.relation_closure", "algebra.admissibility_count_variety",
             "algebra.homomorphism_witness", "finmaps.FinMap")


def _pullback_yield(args, res):
    g, f = args
    return res.size, f.dom * g.dom


def _kpc_yield(args, res):
    return res.size, args[0].D ** 3


def _composable_pairs_yield(args, res):
    return res.size, args[0].C1 ** 2


# name -> (args, result) -> (useful, attempted), summed over calls
YIELD_HOOKS = {
    "limits.pullback": _pullback_yield,
    "internal.kpc": _kpc_yield,
    "internal.composable_pairs": _composable_pairs_yield,
    "algebra.reflexive_relations": lambda args, res: (len(res), 0),
    "algebra.wm_witness_search": lambda args, res: (res is not None, 0),
}
# child name -> parent name: each child call made under the parent counts
# as one attempt in the parent's yield
YIELD_ATTEMPTS = {
    "algebra.relation_closure": "algebra.reflexive_relations",
    "algebra.admissibility_count_variety": "algebra.wm_witness_search",
}


class Tracer:
    def __init__(self):
        self.op_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []          # [span id, child seconds]
        self._open = Counter()                # name -> open spans
        self._depth = Counter()               # layer -> open spans
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)      # per layer
        self.layer_calls = Counter()
        self.layer_self_s = defaultdict(float)
        self.yields = defaultdict(lambda: [0, 0])

    # -- installation -----------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap the layer modules given as {layer name: module}."""
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        finmap = modules["finmaps"].FinMap
        finmap.__post_init__ = self._wrap("finmaps.FinMap", "finmaps",
                                          finmap.__post_init__)
        for name, mod in list(sys.modules.items()):
            if name != "finkite" and not name.startswith("finkite."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]

    def _wrap(self, name, layer, fn):
        hook = YIELD_HOOKS.get(name)
        attempt_of = YIELD_ATTEMPTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if attempt_of and self._open[attempt_of]:
                self.yields[attempt_of][1] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self._open[name] += 1
            self._depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self._depth[layer] -= 1
                dur = end - start
                own = dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += own
                self.layer_calls[layer] += 1
                self.layer_self_s[layer] += own
                if not self._depth[layer]:
                    self.busy_s[layer] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, layer,
                                       self.op_id, start, end))
                else:
                    self.dropped += 1
            if hook:
                useful, attempted = hook(args, result)
                acc = self.yields[name]
                acc[0] += useful
                acc[1] += attempted
            return result
        return traced

    # -- results ----------------------------------------------------------
    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, times and counts per pass of the op multiset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls[layer] / passes, "count")
            out[f"{layer}.busy_s"] = (self.busy_s[layer] / passes, "s")
            out[f"{layer}.self_s"] = (self.layer_self_s[layer] / passes, "s")
        for name in HOT_SELF:
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for name in HOT_CALLS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
        for name in YIELD_HOOKS:
            useful, attempted = self.yields.get(name, (0, 0))
            out[f"{name}.yield"] = (useful / attempted if attempted else 0.0,
                                    "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "layer", "op",
                                  "start", "end"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
