"""In-memory span tracer that wraps qcong's public functions from outside.

Every public function of the layer modules (``series``, ``eta``, ``basis``,
``hecke``, ``congruence``) is replaced by a wrapper at its module attribute
and at every other module attribute bound to the same object (the
``from .x import y`` bindings and the package re-exports), and the arithmetic
methods of ``QSeries`` and ``PhiPolynomial`` are patched on their classes.
Nothing under ``src/`` is edited.

A span is ``(name, parent, start, end, attrs)``; all spans of one tracer share
its run id.  Time spent inside the tracer's own size hooks is kept off the
span clock, so self times are not inflated by measuring operand sizes.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("series", "eta", "basis", "hecke", "congruence")

# class -> methods patched on it, keyed by the module that defines the class
METHODS = {
    "series": ("QSeries", ("__mul__", "__add__", "__pow__", "invert", "u_op", "dilate", "ramify")),
    "basis": ("PhiPolynomial", ("__mul__", "__add__", "evaluate")),
}

LEN_BUCKETS = ((64, "len_le64"), (512, "len_le512"), (4096, "len_le4096"), (None, "len_gt4096"))
BITS_BUCKETS = ((64, "bits_le64"), (512, "bits_le512"), (None, "bits_gt512"))


def _bucket(value, buckets):
    return next(label for limit, label in buckets if limit is None or value <= limit)


def _max_bits(ints):
    return max((abs(c) for c in ints), default=0).bit_length()


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (name, parent index or None, start, end, attrs)
        self.counters = defaultdict(int)
        self.power_sum_ns = set()
        self._stack = []
        self._hidden = 0.0  # hook time removed from the span clock
        self._patches = []  # (owner, attribute, original) to undo

    # -- clock -------------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._hidden

    def _hide_since(self, t0: float) -> None:
        self._hidden += time.perf_counter() - t0

    def hide(self, seconds: float) -> None:
        """Take time spent outside the program (host-speed samples) off the clock."""
        self._hidden += seconds

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so that each call records a span; hooks run off the clock.

        ``before(args, kwargs)`` may return a dict stored as the span's attrs;
        ``after(result)`` sees the return value.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if before is not None:
                t0 = time.perf_counter()
                attrs = before(args, kwargs)
                self._hide_since(t0)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, parent, start, self.clock(), attrs)
                stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(result)
                self._hide_since(t0)
            return result

        return wrapper

    def counter(self, fn, hook):
        """Wrap fn with an off-clock hook and no span of its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            hook(args, kwargs)
            self._hide_since(t0)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {name: getattr(package, name) for name in LAYERS}
        hooks = self._hooks()
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                before, after = hooks.get(f"{short}.{attr}", (None, None))
                replaced[obj] = self.span(f"{short}.{attr}", obj, before, after)
        kron = getattr(modules["series"], "_kronecker_mul", None)
        if kron is not None:
            replaced[kron] = self.counter(kron, self._kronecker_hook)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
        for short, (cls_name, methods) in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                self._set(cls, meth, self.span(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        qseries = modules["series"].QSeries
        self._set(qseries, "__init__", self.counter(qseries.__init__, self._new_hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------

    def _hooks(self):
        counters = self.counters

        def kernel_before(args, kwargs):
            a, b = args[0], args[1]
            return {"len": max(len(a), len(b)), "bits": max(_max_bits(a), _max_bits(b))}

        def power_sum_before(args, kwargs):
            eq = args[0]
            n = args[1] if len(args) > 1 else kwargs["n"]
            counters["hecke.power_sum.steps"] += n
            self.power_sum_ns.add((eq.ctx.p, n))

        def basis_family_after(family):
            bits = max(
                (abs(c.numerator).bit_length() for e in family for c in e.series.coeffs),
                default=0,
            )
            counters["basis.basis_family.max_bits"] = max(
                counters["basis.basis_family.max_bits"], bits
            )

        def closure_after(report):
            counters["hecke.closure.trials"] += len(report.trials)

        def theorem2_after(report):
            counters["congruence.cases"] += len(report.cases)

        return {
            "series.mul_int_lists": (kernel_before, None),
            "hecke.power_sum": (power_sum_before, None),
            "basis.basis_family": (None, basis_family_after),
            "hecke.verify_up_closure": (None, closure_after),
            "congruence.verify_theorem2": (None, theorem2_after),
        }

    def _kronecker_hook(self, args, kwargs):
        a, b = args[0], args[1]
        # limb width as the kernel sizes it: product bound rounded up to bytes
        bits = _max_bits(a) + _max_bits(b) + min(len(a), len(b)).bit_length() + 2
        limb = 8 * ((bits + 7) // 8)
        self.counters["series.mul.kronecker_calls"] += 1
        self.counters["series.mul.packed_bits"] += (len(a) + len(b)) * limb

    def _new_hook(self, args, kwargs):
        coeffs = args[1] if len(args) > 1 else kwargs.get("coeffs", ())
        self.counters["series.new.calls"] += 1
        if hasattr(coeffs, "__len__"):
            self.counters["series.new.coeffs"] += len(coeffs)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, (name, parent, start, end, attrs) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def summarize(spans):
    """Per span name: calls, inclusive seconds (outermost spans only) and self
    seconds."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, (name, parent, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own[sid]
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc is None:
            row["s"] += end - start
    return out


def top_level_seconds(spans) -> float:
    return sum(end - start for _, parent, start, end, _ in spans if parent is None)


def kernel_rows(spans):
    """Kernel calls and self time bucketed by operand length and coefficient bits."""
    own = self_times(spans)
    rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid, (name, _, _, _, attrs) in enumerate(spans):
        if name != "series.mul_int_lists":
            continue
        for label in (_bucket(attrs["len"], LEN_BUCKETS), _bucket(attrs["bits"], BITS_BUCKETS)):
            rows[label]["calls"] += 1
            rows[label]["self_s"] += own[sid]
    return rows
