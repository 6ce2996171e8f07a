"""Per-layer tracing installed from outside the program.

``install`` wraps the public functions and methods of every layer module of
``alcovekit`` and puts each wrapper into every module namespace that bound
the original (``cli`` imports ``census``, ``figures`` imports
``frobenius_invariant``, and so on).  No program file changes.

Every wrapped call is a frame.  A frame's self time is its duration minus
the durations of the wrapped calls directly under it; a layer's self time is
the sum over its frames.  A span is kept for each frame that crosses a layer
boundary (its caller is in another layer, or is the benchmark), with name,
start, end, parent span and request id; calls inside one layer are only
counted, which keeps the span list small.  Spans stay in memory until
``write_spans``.

Untraced runs never import this module.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "galois", "rootdata", "lattices", "monomial", "ff", "apartment",
          "weyl_affine", "figures", "loop_sim")
# dunder methods that are operations of the layer's objects
DUNDERS = {"__mul__": "mul", "__add__": "add", "__sub__": "sub", "__neg__": "neg"}


class Stat:
    __slots__ = ("calls", "busy", "depth", "since")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0
        self.since = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.layer_errors = {layer: 0 for layer in LAYERS}
        # frame = [layer, start, child_time, span_id or -1, parent span id]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.request = -1  # -1 while the request list is being generated
        self.extra = {"ff.primitive_polynomial.fields": set(),
                      "galois.census.images": 0, "galois.census.classes": 0,
                      "weyl_affine.reduced_word.in_bruhat": 0,
                      "loop_sim.TruncSeries.mul.coeff_pairs": 0,
                      "loop_sim.straighten_right.iterations": 0}

    def wrap(self, layer: str, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, Stat())
        stack, spans, layer_self = self.stack, self.spans, self.layer_self
        layer_calls, layer_errors = self.layer_calls, self.layer_errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != layer
            span_parent = -1 if parent is None else (
                parent[3] if parent[3] >= 0 else parent[4])
            start = perf_counter()
            frame = [layer, start, 0.0, len(spans) if boundary else -1, span_parent]
            if boundary:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            stat.calls += 1
            layer_calls[layer] += 1
            if stat.depth == 0:
                stat.since = start
            stat.depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if boundary:
                    layer_errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                layer_self[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                stat.depth -= 1
                if stat.depth == 0:
                    stat.busy += end - stat.since
                if boundary:
                    spans[frame[3]] = (frame[3], name, start, end, span_parent,
                                       self.request)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for s in self.spans:
                fh.write("\t".join(str(x) for x in s) + "\n")


# ------------------------------------------------------------------ hooks
# Each records a count or ratio where the work happens.

def _primitive_polynomial(t, args, result):
    t.extra["ff.primitive_polynomial.fields"].add(tuple(args[:2]))


def _weyl_order(rd) -> int:
    out = 1
    for size in rd.block_sizes:
        for k in range(2, size + 1):
            out *= k
    return out


def _census(t, args, result):
    rd, g = args[0], args[1]
    t.extra["galois.census.images"] += _weyl_order(rd) * g.e**rd.rank
    t.extra["galois.census.classes"] += result.total


def _reduced_word(t, args, result):
    if t.stats["weyl_affine.bruhat_leq"].depth:
        t.extra["weyl_affine.reduced_word.in_bruhat"] += 1


def _series_mul(t, args, result):
    t.extra["loop_sim.TruncSeries.mul.coeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _straighten(t, args, result):
    t.extra["loop_sim.straighten_right.iterations"] += result.iterations


HOOKS = {
    "ff.primitive_polynomial": _primitive_polynomial,
    "galois.census": _census,
    "weyl_affine.reduced_word": _reduced_word,
    "loop_sim.TruncSeries.mul": _series_mul,
    "loop_sim.straighten_right": _straighten,
}


def _targets(module):
    """(qualified name, owner, attribute, function, is_static) for one layer."""
    modname = module.__name__
    layer = modname.rsplit(".", 1)[1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj, False
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, mobj in sorted(vars(obj).items()):
                label = DUNDERS.get(mattr, mattr)
                if label.startswith("_"):
                    continue
                if isinstance(mobj, staticmethod):
                    yield f"{layer}.{attr}.{label}", obj, mattr, mobj.__func__, True
                elif inspect.isfunction(mobj):
                    yield f"{layer}.{attr}.{label}", obj, mattr, mobj, False


def install() -> Tracer:
    """Wrap every layer's public callables in all namespaces that bound them."""
    tracer = Tracer()
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"alcovekit.{layer}")
        for name, owner, attr, fn, static in list(_targets(module)):
            wrapper = tracer.wrap(layer, name, fn, HOOKS.get(name))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            replaced[id(fn)] = (fn, wrapper)
    for modname, module in list(sys.modules.items()):
        if modname != "alcovekit" and not modname.startswith("alcovekit."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return tracer


def metrics(t: Tracer) -> dict:
    """Flat per-layer numbers of one traced pass."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = t.layer_calls[layer]
        out[f"{layer}.self_s"] = t.layer_self[layer]
    for name, s in t.stats.items():
        out[f"{name}.calls"] = s.calls
        out[f"{name}.busy_s"] = s.busy
    x = t.extra
    fields = len(x["ff.primitive_polynomial.fields"])
    out["ff.primitive_polynomial.calls_per_field"] = (
        t.stats["ff.primitive_polynomial"].calls / fields if fields else 0.0)
    classes = x["galois.census.classes"]
    out["galois.census.images_per_class"] = (
        x["galois.census.images"] / classes if classes else 0.0)
    bruhat = t.stats["weyl_affine.bruhat_leq"].calls
    out["weyl_affine.reduced_words_per_bruhat"] = (
        x["weyl_affine.reduced_word.in_bruhat"] / bruhat if bruhat else 0.0)
    out["loop_sim.TruncSeries.mul.coeff_pairs"] = x["loop_sim.TruncSeries.mul.coeff_pairs"]
    out["loop_sim.straighten_right.iterations"] = x["loop_sim.straighten_right.iterations"]
    out["loop_sim.errors"] = t.layer_errors["loop_sim"]
    out["trace.spans"] = len(t.spans)
    return out
