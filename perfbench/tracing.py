"""Per-layer tracing from outside the library.

`Tracer.install()` replaces every public function and method of the
`jonq` layer modules with a timing wrapper, in every `jonq.*` module that
binds it (the modules import names with `from ... import`, so patching the
defining module alone would miss most calls).  Nothing inside `src/jonq`
changes.

Every wrapped call keeps a frame on one stack, which gives busy time
(outermost call of a name only) and self time (duration minus the part
covered by wrapped children).  Calls into the hot primitives (`kernel.*`,
`orders.*`, `ring.*`, and a few small groebner/linalg entry points) are
only aggregated; calls at layer boundaries also become spans
(name, start, end, parent, instance) that are kept in memory and written
out at the end.
"""

from __future__ import annotations

import json
import sys
import time
import types
from operator import itemgetter

LAYERS = (
    "kernel", "ring", "orders", "groebner", "linalg", "birational",
    "implicitize", "syzygies", "rees", "instance", "report", "cli",
)

# Dunder methods that do real work (polynomial arithmetic).
ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__",
}

# Aggregated only: called too often for one span per call.
NO_SPAN_LAYERS = {"kernel", "ring", "orders"}
NO_SPAN = {
    "groebner.IdealHandle.gb", "groebner.Budget.charge_pair",
    "groebner.normal_form", "groebner.is_member",
    "linalg.SpanTracker.add", "linalg.SpanTracker.reduce",
    "linalg.SpanTracker.contains",
}

_coeff = itemgetter(1)


class Agg:
    __slots__ = ("calls", "busy", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


# -- per-call hooks for the counts the benchmark reports ---------------------


def _merge_post(agg, args, result, before):
    agg.bump("terms_out", len(result))
    if result:
        bits = max(map(abs, map(_coeff, result))).bit_length()
        if bits > agg.extra.get("peak_coeff_bits", 0):
            agg.extra["peak_coeff_bits"] = bits


def _find_post(agg, args, result, before):
    if result >= 0:
        agg.bump("hits")


def _gb_pre(args):
    return len(args[0]._cache)


def _gb_post(agg, args, result, before):
    if len(args[0]._cache) == before:
        agg.bump("cache_hits")


def _saturate_post(agg, args, result, before):
    exponents = result[1]
    agg.bump("colon_steps", sum(exponents) + len(exponents))


def _kernel_basis_post(agg, args, result, before):
    rows, ncols = args[0], args[1]
    agg.bump("cells", len(rows) * ncols)


def _span_add_post(agg, args, result, before):
    if result:
        agg.bump("accepted")


HOOKS = {
    "kernel.merge_linear": (None, _merge_post),
    "kernel.find_reducer": (None, _find_post),
    "groebner.IdealHandle.gb": (_gb_pre, _gb_post),
    "groebner.saturate": (None, _saturate_post),
    "linalg.kernel_basis": (None, _kernel_basis_post),
    "linalg.SpanTracker.add": (None, _span_add_post),
}


class Tracer:
    def __init__(self):
        self.aggs = {}
        self.stack = []  # frames: [start, child_time, span_index]
        self.spans = []
        self.instance = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn):
        agg = self.aggs.setdefault(name, Agg())
        layer = name.split(".", 1)[0]
        spans = None if (layer in NO_SPAN_LAYERS or name in NO_SPAN) else self.spans
        pre, post = HOOKS.get(name, (None, None))
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            parent = stack[-1][2] if stack else -1
            if spans is not None:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent
            frame = [0.0, 0.0, idx]
            stack.append(frame)
            agg.depth += 1
            t0 = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg.calls += 1
                agg.self_s += dur - frame[1]
                agg.depth -= 1
                if not agg.depth:
                    agg.busy += dur
                if stack:
                    stack[-1][1] += dur
                if spans is not None:
                    spans[idx] = (tracer.instance, name, t0, t1, parent)
            if post is not None:
                post(agg, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the public callables of every layer module."""
        replace = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"jonq.{layer}"]
            if layer == "kernel":
                for attr in ("merge_linear", "mul_packed", "find_reducer", "scale_terms"):
                    fn = getattr(mod, attr)
                    replace[id(fn)] = (fn, self.wrap(f"kernel.{attr}", fn))
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    replace[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
        self._rebind(replace)

    def _wrap_class(self, layer, cls):
        done = {}
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            kind = None
            fn = value
            if isinstance(value, (classmethod, staticmethod)):
                kind, fn = type(value), value.__func__
            if not isinstance(fn, types.FunctionType):
                continue
            # aliases such as __rmul__ = __mul__ share one wrapper and name
            if id(fn) not in done:
                done[id(fn)] = self.wrap(f"{layer}.{cls.__name__}.{fn.__name__}", fn)
            wrapper = done[id(fn)]
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def _rebind(self, replace):
        for name, mod in list(sys.modules.items()):
            if not (name == "jonq" or name.startswith("jonq.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- results -------------------------------------------------------------

    def agg(self, name):
        return self.aggs.get(name) or Agg()

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(a.self_s for n, a in self.aggs.items() if n.startswith(prefix))

    def class_sum(self, layer, method):
        """calls over every class of a layer that defines `method`."""
        suffix = "." + method
        return sum(
            a.calls for n, a in self.aggs.items()
            if n.startswith(layer + ".") and n.endswith(suffix) and n.count(".") == 2
        )

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for inst, name, t0, t1, parent in self.spans:
                fh.write(json.dumps([inst, name, t0, t1, parent]) + "\n")


# -- the per-layer metrics the benchmark reports ------------------------------

_CALLS_BUSY = (
    "kernel.mul_packed", "ring.mul", "ring.substitute", "ring.poly_gcd",
    "ring.divide_exact", "groebner.buchberger", "groebner.eliminate",
    "groebner.intersect", "groebner.colon", "groebner.saturate", "groebner.lift",
    "groebner.ideal_equal", "groebner.minimalize_generators",
)
_BUSY = (
    "implicitize.closed_form", "implicitize.oracle", "syzygies.conductor_data",
    "syzygies.syzygy_basis", "syzygies.verify_syzygy_generation",
    "syzygies.regularity", "rees.downgraded", "rees.monoid_association",
    "rees.saturation_identities", "birational.verify_cremona",
    "instance.parse", "report.render",
)
# metric stem -> wrapped callable, where the two names differ
_SOURCE = {
    "ring.mul": "ring.Polynomial.__mul__",
    "ring.substitute": "ring.Polynomial.substitute",
    "groebner.gb": "groebner.IdealHandle.gb",
    "linalg.span_add": "linalg.SpanTracker.add",
    "implicitize.closed_form": "implicitize.implicitize",
    "implicitize.oracle": "implicitize.oracle_implicitize",
    "syzygies.regularity": "syzygies.regularity_dim1",
    "rees.downgraded": "rees.downgraded_rees_ideal",
    "instance.parse": "instance.parse_instance",
    "report.render": "report.Report.render_machine",
}
_SELF = ("ring", "orders", "groebner", "linalg", "cli")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [
        ("kernel.merge_linear.calls", "count", "lower"),
        ("kernel.merge_linear.busy_s", "s", "lower"),
        ("kernel.merge_linear.terms_out", "count", "lower"),
        ("kernel.merge_linear.peak_coeff_bits", "bits", "lower"),
        ("kernel.find_reducer.calls", "count", "lower"),
        ("kernel.find_reducer.busy_s", "s", "lower"),
        ("kernel.find_reducer.hit_ratio", "ratio", "higher"),
        ("orders.key.calls", "count", "lower"),
        ("orders.exponents.calls", "count", "lower"),
        ("groebner.s_pairs", "count", "lower"),
        ("groebner.gb.calls", "count", "lower"),
        ("groebner.gb.cache_hit_ratio", "ratio", "higher"),
        ("groebner.normal_form.calls", "count", "lower"),
        ("groebner.saturate.colon_steps", "count", "lower"),
        ("linalg.kernel_basis.calls", "count", "lower"),
        ("linalg.kernel_basis.busy_s", "s", "lower"),
        ("linalg.kernel_basis.cells", "count", "lower"),
        ("linalg.span_add.calls", "count", "lower"),
        ("linalg.span_add.busy_s", "s", "lower"),
        ("linalg.span_add.accept_ratio", "ratio", "higher"),
    ]
    + [(f"{stem}.{part}", unit, "lower")
       for stem in _CALLS_BUSY for part, unit in (("calls", "count"), ("busy_s", "s"))]
    + [(f"{stem}.busy_s", "s", "lower") for stem in _BUSY]
    + [(f"{layer}.self_s", "s", "lower") for layer in _SELF]
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Values for every name in PER_LAYER, totalled over the traced pass."""
    def agg(stem):
        return tracer.agg(_SOURCE.get(stem, stem))

    merge = agg("kernel.merge_linear")
    find = agg("kernel.find_reducer")
    gb = agg("groebner.gb")
    kb = agg("linalg.kernel_basis")
    span = agg("linalg.span_add")
    out = {
        "kernel.merge_linear.calls": merge.calls,
        "kernel.merge_linear.busy_s": merge.busy,
        "kernel.merge_linear.terms_out": merge.extra.get("terms_out", 0),
        "kernel.merge_linear.peak_coeff_bits": merge.extra.get("peak_coeff_bits", 0),
        "kernel.find_reducer.calls": find.calls,
        "kernel.find_reducer.busy_s": find.busy,
        "kernel.find_reducer.hit_ratio": _ratio(find.extra.get("hits", 0), find.calls),
        "orders.key.calls": tracer.class_sum("orders", "key"),
        "orders.exponents.calls": tracer.class_sum("orders", "exponents"),
        "groebner.s_pairs": tracer.agg("groebner.Budget.charge_pair").calls,
        "groebner.gb.calls": gb.calls,
        "groebner.gb.cache_hit_ratio": _ratio(gb.extra.get("cache_hits", 0), gb.calls),
        "groebner.normal_form.calls": agg("groebner.normal_form").calls,
        "groebner.saturate.colon_steps": agg("groebner.saturate").extra.get("colon_steps", 0),
        "linalg.kernel_basis.calls": kb.calls,
        "linalg.kernel_basis.busy_s": kb.busy,
        "linalg.kernel_basis.cells": kb.extra.get("cells", 0),
        "linalg.span_add.calls": span.calls,
        "linalg.span_add.busy_s": span.busy,
        "linalg.span_add.accept_ratio": _ratio(span.extra.get("accepted", 0), span.calls),
    }
    for stem in _CALLS_BUSY:
        a = agg(stem)
        out[f"{stem}.calls"] = a.calls
        out[f"{stem}.busy_s"] = a.busy
    for stem in _BUSY:
        out[f"{stem}.busy_s"] = agg(stem).busy
    for layer in _SELF:
        out[f"{layer}.self_s"] = tracer.layer_self(layer)
    return out


def is_count(name):
    """True for metrics that must repeat exactly between runs and backends."""
    return not name.endswith("_s")
