"""Tracing judgekit from outside: wrap the public functions of each
module, record one span per call, and fold the spans into per-layer
metrics when the run ends.

A module-level function is wrapped in every ``judgekit.*`` namespace
that bound it, because ``from .core import validate_category`` makes a
copy that patching only the defining module would miss.  Per-entry
helpers stay unwrapped (see ``UNWRAPPED``); their time counts in the
caller's self time.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

MODULES = ("core", "limits", "fibrations", "finsets", "theory", "dtt",
           "finset_topos", "ndt", "render", "dsl", "cli")

# Called once per table entry or per sorted element: wrapping them would
# swamp the trace.  FinCategory.comp/hom/into are methods and are never
# wrapped.
UNWRAPPED = {"core.sort_key", "finsets.subset_leq", "finsets.preimage"}

# The share of traced verdict time that may lie outside the root spans:
# capturing stdout and arming the request cap, around each cli.main call.
COVERAGE_GAP = 0.01


def _registry_growth(args, kwargs):
    T = args[0]
    before = len(T.registry)
    return lambda result: {"hits": int(len(T.registry) == before)}


# Counters read at a function boundary: called with the call's arguments
# before it runs, the returned function gets its result.
PROBES = {
    "core.validate_category":
        lambda a, k: lambda r: {"compose_entries": len(a[0].compose)},
    "core.validate_functor":
        lambda a, k: lambda r: {"mor_entries": len(a[0].mor_map)},
    "fibrations.is_cartesian":
        lambda a, k: lambda r: {"true": int(bool(r))},
    "limits.pullback_category":
        lambda a, k: lambda r: {"compose_entries": len(r[0].compose)},
    "dsl.parse_dsl":
        lambda a, k: lambda r: {"lines": len(a[0].splitlines())},
    "theory.close_pullback": _registry_growth,
    "theory.eager_close":
        lambda a, k: lambda r: {"registry_entries": len(a[0].registry)},
}


class Tracer:
    """Spans ``[function, start, end, parent, raised, request]`` and
    per-function counters, kept in memory for one traced loop."""

    def __init__(self):
        self.names = []              # function id -> "module.function"
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)
        self.request = -1
        self.sizes = []              # per request: [objects, morphisms, compose]
        self._patched = []           # (namespace, attribute, original)
        from judgekit.core import FinCategory, FunctorMap
        from judgekit.fibrations import Classifier
        self._types = (FinCategory, FunctorMap, Classifier)

    # -- installing --------------------------------------------------------

    def install(self):
        for m in MODULES:
            importlib.import_module(f"judgekit.{m}")
        wrappers = {}
        for m in MODULES:
            mod = sys.modules[f"judgekit.{m}"]
            for name, fn in vars(mod).items():
                key = f"{m}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and key not in UNWRAPPED):
                    wrappers[fn] = self._wrap(key, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "judgekit" and not modname.startswith("judgekit."):
                continue
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patched.append((mod, name, val))
                    setattr(mod, name, wrappers[val])

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def start_request(self):
        self.request += 1
        self.sizes.append([0, 0, 0])

    def _wrap(self, key, fn):
        fid = len(self.names)
        self.names.append(key)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe, counts, note = PROBES.get(key), self.counts[key], self._note_sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(args, kwargs) if probe else None
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, False, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                counts.update(after(result))
            note(args, result)
            return result
        return traced

    def _note_sizes(self, args, result):
        FinCategory, FunctorMap, Classifier = self._types
        best = self.sizes[-1]
        for x in (*args, *(result if isinstance(result, tuple) else (result,))):
            if isinstance(x, FunctorMap):
                cats = (x.dom, x.cod)
            elif isinstance(x, Classifier):
                cats = (x.total, x.base)
            elif isinstance(x, FinCategory):
                cats = (x,)
            else:
                continue
            for c in cats:
                best[0] = max(best[0], len(c.objects))
                best[1] = max(best[1], len(c.morphisms))
                best[2] = max(best[2], len(c.compose))

    # -- folding -----------------------------------------------------------

    def fold(self):
        """Per-function and per-module totals over every recorded span."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        fn_self, fn_calls = Counter(), Counter()
        mod_self, mod_calls, mod_raised = Counter(), Counter(), Counter()
        for i, (fid, start, end, parent, raised, _) in enumerate(self.spans):
            key = self.names[fid]
            mod = key.split(".", 1)[0]
            own = end - start - child[i]
            fn_self[key] += own
            fn_calls[key] += 1
            mod_self[mod] += own
            mod_calls[mod] += 1
            caller = self.names[self.spans[parent][0]].split(".", 1)[0] if parent >= 0 else None
            if raised and caller != mod:
                mod_raised[mod] += 1
        return fn_self, fn_calls, mod_self, mod_calls, mod_raised

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tfunction\tstart_s\tend_s\traised\n")
            for i, (fid, start, end, parent, raised, req) in enumerate(self.spans):
                fh.write(f"{req}\t{i}\t{parent}\t{self.names[fid]}\t{start:.9f}\t"
                         f"{end:.9f}\t{int(raised)}\n")


def per_layer(tracer, cycles, traced_s, untraced_s):
    """The per-layer metrics of one traced run, per cycle of requests.

    ``traced_s`` is the request time that the loop measured around each
    traced ``cli.main`` call.  The self times of all layers add up to the
    root spans' durations by construction, so they are checked against
    ``traced_s``:
    raises when they miss more than COVERAGE_GAP of it, as they would if
    a request reached the checker other than through a wrapped name."""
    fn_self, fn_calls, mod_self, mod_calls, mod_raised = tracer.fold()
    summed = sum(mod_self.values())
    if not 1.0 - COVERAGE_GAP <= summed / traced_s <= 1.0:
        raise ValueError(f"self times add up to {summed} s, "
                         f"traced verdict time is {traced_s} s")
    c = tracer.counts
    out = {}
    for m in MODULES:
        out[f"{m}.self_s"] = (mod_self[m] / cycles, "s")
        out[f"{m}.calls"] = (mod_calls[m] / cycles, "count")
        out[f"{m}.raised"] = (mod_raised[m] / cycles, "count")

    def self_s(key):
        out[f"{key}.self_s"] = (fn_self[key] / cycles, "s")

    def calls(key):
        out[f"{key}.calls"] = (fn_calls[key] / cycles, "count")

    def count(key, counter, name=None):
        out[f"{key}.{name or counter}"] = (c[key][counter] / cycles, "count")

    def ratio(key, counter, name):
        out[f"{key}.{name}"] = (c[key][counter] / fn_calls[key] if fn_calls[key] else 0.0,
                                "share")

    self_s("core.validate_category"); count("core.validate_category", "compose_entries")
    self_s("core.validate_functor"); count("core.validate_functor", "mor_entries")
    calls("fibrations.is_cartesian"); self_s("fibrations.is_cartesian")
    ratio("fibrations.is_cartesian", "true", "true_share")
    self_s("fibrations.compute_cleavage"); self_s("fibrations.compute_op_cleavage")
    calls("limits.pullback_category"); self_s("limits.pullback_category")
    count("limits.pullback_category", "compose_entries")
    self_s("theory.sharp_lift")
    calls("ndt.thin_rule"); self_s("ndt.thin_rule")
    self_s("ndt.derive_structural"); self_s("ndt.pair_comparison")
    self_s("dtt.phi_derive"); self_s("finset_topos.instantiate_constructor")
    self_s("dsl.parse_dsl"); count("dsl.parse_dsl", "lines"); self_s("dsl.load_document")
    calls("theory.close_pullback"); ratio("theory.close_pullback", "hits", "hit_share")
    self_s("theory.eager_close")
    out["theory.registry_entries"] = (c["theory.eager_close"]["registry_entries"] / cycles,
                                      "count")
    calls("limits.equalizer_category"); calls("core.make_category")
    self_s("render.render_rule_tree")
    for i, name in enumerate(("objects", "morphisms", "compose_entries")):
        out[f"request.max_{name}"] = (statistics.median(s[i] for s in tracer.sizes), "count")
    out["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")
    out["trace.coverage_share"] = ((summed - mod_self["cli"]) / traced_s, "share")
    return out
