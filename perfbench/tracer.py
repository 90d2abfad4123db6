"""Outside-in tracer for hdrdeghost.

``Tracer.install`` replaces every public function of every ``hdrdeghost``
module in every module namespace that holds it. ``model`` imports
``head_forward`` by name and ``cli`` imports ``load_checkpoint`` by name, so
patching only the defining module would miss those calls. Each call records
a span (name, start, end, parent, unit). Tensor kernels also record the bytes
their output owns, and their output's ``vjp`` is swapped for a timed wrapper,
so backward time is charged to the kernel that made the node. Python's GC
pauses are read through ``gc.callbacks``.

A unit is one operation (id >= 0) or one set-up (id < 0). Spans stay in
flat arrays in memory, so recording allocates no GC-tracked object per span,
and are written out once, when the process finishes.

Nothing under ``src/`` knows about the tracer; ``uninstall`` restores every
original function.
"""
from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import statistics
from array import array
from time import perf_counter

MB = float(1 << 20)

# tensor-module functions that are not kernels (they make no graph node)
NOT_KERNELS = {"backward", "constant", "finite_difference_grad"}

# kernel name -> reported group; kernels missing here report under their own
# name in the results file only
KERNEL_GROUPS = {
    "conv2d": "conv2d", "deformable_conv2d": "deformable_conv2d",
    "linear": "linear", "matmul": "matmul", "softmax": "softmax",
    "layer_norm": "layer_norm", "leaky_relu": "leaky_relu",
    "sigmoid": "sigmoid", "pad2d": "pad2d", "roll2d": "roll2d",
    "concat": "concat", "narrow": "narrow",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "neg": "elementwise", "mul_scalar": "elementwise",
    "add_scalar": "elementwise", "log": "elementwise", "abs_": "elementwise",
    "clip": "elementwise",
    "reshape": "shape", "transpose": "shape",
    "sum_": "reduce", "mean": "reduce", "global_avg_pool": "reduce",
}
GROUPS = tuple(dict.fromkeys(KERNEL_GROUPS.values()))

# spans whose self time is glue around the traced work, not work of a layer
ENTRY_SPANS = {"cli.main"}


def _kernel_name(span_name):
    """'tensor.conv2d' -> 'conv2d'; None for spans that are not kernels."""
    mod, _, fn = span_name.partition(".")
    if mod != "tensor" or "." in fn or fn in NOT_KERNELS:
        return None
    return fn


class Tracer:
    """Records spans and counters for the calls it wraps."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_unit = array("l")
        self.stack = []
        self.unit = 0
        self.counters = {}
        self._patched = []
        self._gc_t0 = None

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_unit.append(self.unit)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def clear(self):
        """Forgets every span and counter; the wrappers stay installed."""
        for a in (self.name, self.start, self.end, self.parent,
                  self.span_unit):
            del a[:]
        self.stack.clear()
        self.counters = {}

    def add(self, key, value):
        c = self.counters.setdefault(self.unit, {})
        c[key] = c.get(key, 0) + value

    def _max(self, key, value):
        c = self.counters.setdefault(self.unit, {})
        c[key] = max(c.get(key, 0), value)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            self.add("gc.collections", 1)
            self.add("gc.pause_s", perf_counter() - self._gc_t0)
            self._gc_t0 = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, span_name):
        name_id = self._intern(span_name)
        tracer = self
        post = None
        if span_name == "model.forward_from_inputs":
            post = tracer._tape_stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(out)
            return out

        return traced

    def _wrap_kernel(self, fn, kernel):
        name_id = self._intern(f"tensor.{kernel}")
        vjp_id = self._intern(f"tensor.{kernel}.vjp")
        bytes_key = f"tensor.{kernel}.out_bytes"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            data = out.data
            if data.flags.owndata:
                tracer.add(bytes_key, data.nbytes)
            if out.vjp is not None:
                out.vjp = tracer._timed_vjp(out.vjp, vjp_id)
            return out

        return traced

    def _timed_vjp(self, vjp, name_id):
        def timed(g):
            idx = self._open(name_id)
            try:
                return vjp(g)
            finally:
                self._close(idx)
        return timed

    def _tape_stats(self, out):
        nodes = out.tape.nodes if out.tape is not None else []
        owned = sum(t.data.nbytes for t in nodes if t.data.flags.owndata)
        self._max("tensor.tape.nodes", len(nodes))
        self._max("tensor.tape.bytes", owned)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Wrap every public hdrdeghost function in every namespace."""
        pkg = importlib.import_module("hdrdeghost")
        modules = [importlib.import_module(f"hdrdeghost.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("hdrdeghost.")):
                    continue
                if id(obj) not in wrapped:
                    short = obj.__module__.rsplit(".", 1)[1]
                    kernel = (_kernel_name(f"tensor.{obj.__name__}")
                              if short == "tensor" else None)
                    wrapped[id(obj)] = (
                        self._wrap_kernel(obj, kernel) if kernel else
                        self._wrap(obj, f"{short}.{obj.__name__}"))
                setattr(mod, attr, wrapped[id(obj)])
                self._patched.append((mod, attr, obj))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ------------------------------------------------------------

    def records(self):
        """JSON-ready spans [name, start, end, parent, unit] and counters."""
        spans = [[self.names[self.name[i]], self.start[i], self.end[i],
                  self.parent[i], self.span_unit[i]]
                 for i in range(len(self.start))]
        counters = {str(u): c for u, c in self.counters.items()}
        return {"spans": spans, "counters": counters}


# ---------------------------------------------------------------------------
# aggregation

def unit_tables(records):
    """Per-unit totals from one process's records.

    Returns ({unit: {metric: value}}, {unit: {span name: self seconds}}).
    Kernel times and counts are grouped; other spans report inclusive
    seconds as '<module>.<function>.s'.
    """
    spans = records["spans"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, unit in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    tables, selfs = {}, {}
    for i, (name, t0, t1, parent, unit) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child_time[i]
        t = tables.setdefault(unit, {})
        s = selfs.setdefault(unit, {})
        s[name] = s.get(name, 0.0) + self_s
        base, _, suffix = name.rpartition(".")
        kernel = _kernel_name(base if suffix == "vjp" else name)
        if kernel is not None:
            group = KERNEL_GROUPS.get(kernel, kernel)
            if suffix == "vjp":
                _acc(t, f"tensor.{group}.bwd_s", dur)
            else:
                _acc(t, f"tensor.{group}.calls", 1)
                _acc(t, f"tensor.{group}.fwd_s", dur)
        elif name == "tensor.backward":
            _acc(t, "tensor.backward.self_s", self_s)
        else:
            _acc(t, f"{name}.s", dur)
        if name not in ENTRY_SPANS:
            _acc(t, "trace.covered_s", self_s)
    for unit, counters in records["counters"].items():
        t = tables.setdefault(int(unit), {})
        for key, value in counters.items():
            if key.endswith(".out_bytes"):
                kernel = key.split(".")[1]
                group = KERNEL_GROUPS.get(kernel, kernel)
                _acc(t, f"tensor.{group}.out_mb", value / MB)
            elif key == "tensor.tape.bytes":
                t["tensor.tape.mb"] = value / MB
            else:
                t[key] = value
    return tables, selfs


def _acc(table, key, value):
    table[key] = table.get(key, 0) + value


def layer_metrics(names, tables, op_units, setup_units):
    """Each per-layer metric as (median over traced ops of the op's total)
    plus (median over traced set-ups of the set-up's total); 0 when the
    layer never ran."""
    out = {}
    for name in names:
        value = 0.0
        for units in (op_units, setup_units):
            if units:
                value += statistics.median(
                    tables.get(u, {}).get(name, 0.0) for u in units)
        out[name] = value
    return out
