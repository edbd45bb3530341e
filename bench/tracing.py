"""Per-layer tracing from outside the program.

install() wraps the public functions of each qgeom module.  A wrapper
replaces the name in every qgeom module namespace that holds it, because
modules bind names with `from .projective import rref`; methods are
replaced on their class.  Span wrappers record name, start, end and parent
span in memory; counters only count (the field ops run millions of times).
Self time is a span's duration minus the time its child spans cover.
Closures inside EmbedSearcher.find cannot be wrapped, so their time is
embed.find self time.  A name the program no longer has is skipped and its
metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self.self_s = []
        self.calls = []
        self.counts = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._child = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    def cell(self, key):
        return self.counts.setdefault(key, [0])

    def span(self, name, fn, on_return=None):
        nid = self._name_id(name)
        stack, child, self_s, calls = (self._stack, self._child, self.self_s,
                                       self.calls)
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                s_start[idx] = t0
                s_end[idx] = t1
                self_s[nid] += (t1 - t0) - inner
                calls[nid] += 1
                if child:
                    child[-1] += t1 - t0
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def counter(self, key, fn):
        cell = self.cell(key)

        def wrapped(*args):
            cell[0] += 1
            return fn(*args)

        wrapped.__wrapped__ = fn
        return wrapped

    def yields(self, key, fn):
        cell = self.cell(key)

        def wrapped(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        wrapped.__wrapped__ = fn
        return wrapped

    def stat(self, name, what):
        if name not in self.names:
            return 0
        i = self.names.index(name)
        return self.self_s[i] if what == "self_s" else self.calls[i]

    def count(self, key):
        return self.counts.get(key, [0])[0]

    def write(self, stem):
        """Write the spans: stem.bin holds the name ids, parent positions
        (-1 for a root), start and end times as four native arrays of the
        length given in stem.json, in that order."""
        arrays = (self.span_name, self.span_parent, self.span_start,
                  self.span_end)
        with open(str(stem) + ".bin", "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        with open(str(stem) + ".json", "w") as fh:
            json.dump({"spans": len(self.span_name), "names": self.names,
                       "typecodes": [a.typecode for a in arrays],
                       "counts": {k: v[0] for k, v in self.counts.items()}},
                      fh)


def qgeom_modules():
    """Every imported module of the qgeom package."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qgeom" or name.startswith("qgeom."))]


def _replace(original, wrapper):
    for mod in qgeom_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _wrap_function(module, attr, make):
    fn = getattr(sys.modules.get(module), attr, None)
    if fn is not None:
        _replace(fn, make(fn))


def _wrap_method(cls, attr, make):
    fn = cls.__dict__.get(attr) if cls is not None else None
    if fn is not None:
        setattr(cls, attr, make(fn))


def install(tracer):
    """Wrap every traced qgeom function; returns the tracer."""
    import qgeom.bounds
    import qgeom.cli
    import qgeom.embed
    import qgeom.extremal
    import qgeom.field
    import qgeom.geometry
    import qgeom.projective  # noqa: F401

    span, counter = tracer.span, tracer.counter
    for op in ("add", "sub", "mul", "inv"):
        _wrap_method(getattr(qgeom.field, "FieldSpec", None), op,
                     lambda fn, op=op: counter("field.%s.calls" % op, fn))

    P = "qgeom.projective"
    for attr in ("rref", "point_index", "enumerate_points", "flat_points"):
        _wrap_function(P, attr,
                       lambda fn, a=attr: span("projective." + a, fn))
    _wrap_function(P, "canonical_vec",
                   lambda fn: counter("projective.canonical_vec.calls", fn))
    _wrap_function(P, "iter_flats",
                   lambda fn: tracer.yields("projective.iter_flats.yielded",
                                            fn))

    G = "qgeom.geometry"
    _wrap_function(G, "geometry_from_json",
                   lambda fn: span("geometry.from_json", fn))
    _wrap_function(G, "critical_exponent",
                   lambda fn: span("geometry.critical_exponent", fn))
    for attr in ("make_pg", "make_ag", "make_g"):
        _wrap_function(G, attr, lambda fn: span("geometry.make", fn))
    _wrap_method(getattr(qgeom.geometry, "Geometry", None), "__post_init__",
                 lambda fn: counter("geometry.Geometry.calls", fn))

    searcher = getattr(qgeom.embed, "EmbedSearcher", None)
    _wrap_method(searcher, "__init__",
                 lambda fn: span("embed.searcher_init", fn))
    hits, anchored = tracer.cell("embed.find.hits"), \
        tracer.cell("embed.find.anchored_calls")

    def on_find(args, kwargs, result):
        hits[0] += result is not None
        anchor = kwargs.get("anchor", args[3] if len(args) > 3 else None)
        anchored[0] += anchor is not None

    _wrap_method(searcher, "find", lambda fn: span("embed.find", fn, on_find))
    _wrap_function("qgeom.embed", "verify_witness",
                   lambda fn: span("embed.verify_witness", fn))

    nodes = tracer.cell("extremal.nodes")

    def on_ex(args, kwargs, result):
        nodes[0] += result.nodes

    X = "qgeom.extremal"
    _wrap_function(X, "ex_exact",
                   lambda fn: span("extremal.ex_exact", fn, on_ex))
    for attr in ("find_sparse_flat", "density_table"):
        _wrap_function(X, attr,
                       lambda fn, a=attr: span("extremal." + a, fn))

    for attr, fn in list(vars(qgeom.bounds).items()):
        if callable(fn) and not attr.startswith("_") and \
                not isinstance(fn, type) and \
                getattr(fn, "__module__", None) == "qgeom.bounds":
            _replace(fn, span("bounds", fn))

    _wrap_function("qgeom.cli", "main",
                   lambda fn: span("cli.main", fn))
    return tracer


def layer_metrics(tracer):
    """Every per-layer metric the traced run measures, by name."""
    t = tracer
    find_calls = t.stat("embed.find", "calls")
    ex_total = _total_time(t, "extremal.ex_exact")
    nodes = t.count("extremal.nodes")
    out = {}
    for op in ("mul", "add", "sub", "inv"):
        out["field.%s.calls" % op] = t.count("field.%s.calls" % op)
    out.update({
        "projective.rref.calls": t.stat("projective.rref", "calls"),
        "projective.rref.self_s": t.stat("projective.rref", "self_s"),
        "projective.point_index.calls": t.stat("projective.point_index",
                                               "calls"),
        "projective.point_index.self_s": t.stat("projective.point_index",
                                                "self_s"),
        "projective.canonical_vec.calls":
            t.count("projective.canonical_vec.calls"),
        "projective.enumerate_points.self_s":
            t.stat("projective.enumerate_points", "self_s"),
        "projective.flat_points.calls": t.stat("projective.flat_points",
                                               "calls"),
        "projective.flat_points.self_s": t.stat("projective.flat_points",
                                                "self_s"),
        "projective.iter_flats.yielded":
            t.count("projective.iter_flats.yielded"),
        "geometry.from_json.self_s": t.stat("geometry.from_json", "self_s"),
        "geometry.Geometry.calls": t.count("geometry.Geometry.calls"),
        "geometry.critical_exponent.self_s":
            t.stat("geometry.critical_exponent", "self_s"),
        "geometry.make.self_s": t.stat("geometry.make", "self_s"),
        "embed.searcher_init.calls": t.stat("embed.searcher_init", "calls"),
        "embed.searcher_init.self_s": t.stat("embed.searcher_init", "self_s"),
        "embed.find.calls": find_calls,
        "embed.find.self_s": t.stat("embed.find", "self_s"),
        "embed.find.hit_ratio": (t.count("embed.find.hits") / find_calls
                                 if find_calls else 0.0),
        "embed.find.anchored_calls": t.count("embed.find.anchored_calls"),
        "embed.verify_witness.self_s": t.stat("embed.verify_witness",
                                              "self_s"),
        "extremal.ex_exact.self_s": t.stat("extremal.ex_exact", "self_s"),
        "extremal.nodes": nodes,
        "extremal.nodes_per_s": nodes / ex_total if ex_total else 0.0,
        "extremal.find_sparse_flat.self_s":
            t.stat("extremal.find_sparse_flat", "self_s"),
        "extremal.density_table.self_s": t.stat("extremal.density_table",
                                                "self_s"),
        "bounds.calls": t.stat("bounds", "calls"),
        "bounds.self_s": t.stat("bounds", "self_s"),
        "cli.main.self_s": t.stat("cli.main", "self_s"),
        "trace.spans": len(t.span_name),
    })
    return out


def _total_time(tracer, name):
    """Inclusive time of the spans with this name (ex_exact never nests)."""
    if name not in tracer.names:
        return 0.0
    nid = tracer.names.index(name)
    return sum(tracer.span_end[k] - tracer.span_start[k]
               for k, i in enumerate(tracer.span_name) if i == nid)
