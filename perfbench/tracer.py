"""Span tracer installed around the layer boundaries of the jetbrackets engine.

Boundaries come from a rule applied at run time, not from a fixed list:

* every module-level function without a leading underscore defined in
  ``jetbrackets/<layer>.py``;
* every public method (plain, static, class method or property getter) of a
  public class defined there;
* the ring operators of ``SuperPolynomial``.

Each wrapper is rebound in every ``jetbrackets`` module namespace that holds
the original object, because the modules import functions by name.  Spans
(name, start, end, parent) are kept in flat arrays in memory and written out
once at the end.  Outside a benchmark operation the wrappers call straight
through and record nothing.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("algebra", "variational", "schouten", "deform", "dkdv", "parsing", "cli")
RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__neg__", "__pow__")

# hardware-independent counts; each is filled by a hook on one boundary and
# reported as 0 when that boundary no longer exists
COUNTS = (
    "algebra.mul_term_pairs",
    "algebra.dtot_terms_in",
    "variational.canonical_class_calls",
    "variational.normalize_terms_in",
    "schouten.bracket_calls",
    "schouten.bracket_terms_out",
    "deform.primitive_solve_calls",
    "deform.slices_tried",
    "deform.basis_cols",
    "deform.basis_cols_max",
    "parsing.chars_in",
    "cli.stdout_bytes",
)


class Tracer:
    """Records one span per boundary call made inside a benchmark operation."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._op_ids: dict[str, int] = {}
        self._hooks = {
            "algebra.SuperPolynomial.__mul__": self._count_mul,
            "algebra.SuperPolynomial.total_derivative": self._count_dtot,
            "variational.normalize_N": self._count_normalize,
            "schouten.schouten_bracket": self._count_bracket,
            "deform.enumerate_basis": self._count_basis,
        }

    # -- boundary discovery -------------------------------------------------

    def install(self):
        """Wrap every boundary the rule finds; returns the boundary names."""
        import jetbrackets

        ring_class = getattr(jetbrackets, "SuperPolynomial", None)
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"jetbrackets.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj, obj is ring_class)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "jetbrackets" or mname.startswith("jetbrackets.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        return list(self.names)

    def _wrap_class(self, layer, cls, ring):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and not (ring and name in RING_OPS):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(qual, layer, obj.__func__))
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(qual, layer, obj.__func__))
            elif isinstance(obj, property) and obj.fget is not None:
                new = property(self._wrap(qual, layer, obj.fget), obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, types.FunctionType):
                new = self._wrap(qual, layer, obj)
            else:
                continue
            setattr(cls, name, new)

    def _wrap(self, qual, layer, fn):
        nid = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer)
        hook = self._hooks.get(qual)
        if layer == "parsing" and qual.split(".")[-1].startswith("parse_"):
            hook = self._count_parse
        stack = self.stack
        names_a, parent_a = self.span_name, self.span_parent
        start_a, end_a = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(names_a)
            names_a.append(nid)
            parent_a.append(stack[-1])
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = perf_counter()
                start_a[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- count hooks --------------------------------------------------------

    def _count_mul(self, args, result):
        a, b = args[0], args[1]
        other = len(b.terms) if hasattr(b, "terms") else 1
        self.counts["algebra.mul_term_pairs"] += len(a.terms) * other

    def _count_dtot(self, args, result):
        self.counts["algebra.dtot_terms_in"] += len(args[0].terms)

    def _count_normalize(self, args, result):
        self.counts["variational.normalize_terms_in"] += len(args[0].terms)

    def _count_bracket(self, args, result):
        self.counts["schouten.bracket_terms_out"] += len(result.rep.terms)

    def _count_basis(self, args, result):
        n = len(result)
        self.counts["deform.basis_cols"] += n
        self.counts["deform.basis_cols_max"] = max(self.counts["deform.basis_cols_max"], n)
        if self._on_stack(lambda q: q == "deform.primitive_solve"):
            self.counts["deform.slices_tried"] += 1

    def _count_parse(self, args, result):
        # outermost parsing call only, so nested parses count their text once
        if args and isinstance(args[0], str) and \
                not self._on_stack(lambda q: q.startswith("parsing.")):
            self.counts["parsing.chars_in"] += len(args[0])

    def _on_stack(self, pred):
        return any(pred(self.names[self.span_name[s]]) for s in self.stack)

    # -- benchmark operations -------------------------------------------------

    def begin_op(self, label):
        """Open the root span of one benchmark operation."""
        nid = self._op_ids.get(label)
        if nid is None:
            nid = self._op_ids[label] = len(self.names)
            self.names.append("bench." + label)
            self.layer_of.append("bench")
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(-1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)

    def end_op(self):
        self.span_end[self.stack.pop()] = perf_counter()

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer calls, self time and self-time share, plus the counts."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = Counter()
        self_s = Counter()
        by_name = Counter()
        total = 0.0
        for i in range(n):
            nid = self.span_name[i]
            layer = self.layer_of[nid]
            dur = self.span_end[i] - self.span_start[i]
            if layer == "bench":
                total += dur
            else:
                calls[layer] += 1
            self_s[layer] += dur - child[i]
            by_name[nid] += 1
        for count, boundary in (("variational.canonical_class_calls", "variational.canonical_class"),
                                ("schouten.bracket_calls", "schouten.schouten_bracket"),
                                ("deform.primitive_solve_calls", "deform.primitive_solve")):
            if boundary in self.names:
                self.counts[count] = by_name[self.names.index(boundary)]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.self_share"] = (self_s[layer] / total if total else 0.0, "1")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out, total

    def write_spans(self, path):
        """Write every span as `name,start,end,parent` lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f},{self.span_parent[i]}\n")
