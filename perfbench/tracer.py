"""Spans around planecurves' public functions, recorded from outside.

The tracer wraps every public function of the traced modules, plus
MultiPoly.substitute and blowup._chart_transform (the blow-up itself), in
every planecurves namespace that holds it, so a call is seen wherever its
caller looks the name up (noether's roots_with_extension, invariants'
joint_tree, cli's resolve_tree, ...).
Scalar arithmetic is counted, never timed.  Spans live in memory as
parallel lists (name, parent, start, end) and are aggregated or written
out after each pass; uninstall() restores every original attribute.
"""

from __future__ import annotations

import gzip
import sys
import time

MODULES = ("cli", "poly", "fields", "linalg", "blowup", "invariants", "noether")
METHODS = (("poly", "MultiPoly", "substitute"),)
# private functions that mark a layer boundary: every blow-up of every tree
# goes through _chart_transform, while the public blow_up_chart is API only
PRIVATE = (("blowup", "_chart_transform"),)
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse")


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.stack = [-1]
        self.scalar_ops = 0
        self.degree_sum = 0
        self._patches = []
        self._installed = False

    # ---- installing ----

    def install(self, package="planecurves"):
        """Put the wrappers in place; the first call builds them."""
        if self._patches:
            for owner, key, _, new in self._patches:
                setattr(owner, key, new)
            self._installed = True
            return
        mods = {n: sys.modules[f"{package}.{n}"] for n in MODULES}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == package or n.startswith(package + "."))]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") and (short, attr) not in PRIVATE:
                    continue
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(fn, f"{short}.{attr}")
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, key, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._wrap(vars(cls)[meth], f"{short}.{cls_name}.{meth}"))
        scalar = mods["fields"].Scalar
        for op in SCALAR_OPS:
            self._patch(scalar, op, self._count(vars(scalar)[op]))
        self._installed = True

    def uninstall(self):
        """Restore every original attribute; install() puts the same wrappers back."""
        if self._installed:
            for owner, key, old, _ in reversed(self._patches):
                setattr(owner, key, old)
            self._installed = False

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, getattr(owner, key), new))
        setattr(owner, key, new)

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.scalar_ops += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        is_extend = name == "fields.extend_field"

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            if is_extend:
                self.degree_sum += int(args[1].degree)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    # ---- per pass ----

    def take_pass(self):
        """Aggregate the spans held now and reset the counters.

        Returns {name: [calls, total_s, self_s]} and the two counters.
        total_s sums only spans with no ancestor of the same name, so a
        recursive function is not counted twice; self_s is a span's
        duration minus its direct child spans.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        outer = [True] * n
        for i in range(n):
            par = self.span_parent[i]
            if par >= 0:
                child[par] += dur[i]
        for i in range(n):
            par, name = self.span_parent[i], self.span_name[i]
            while par >= 0:
                if self.span_name[par] == name:
                    outer[i] = False
                    break
                par = self.span_parent[par]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            s[0] += 1
            if outer[i]:
                s[1] += dur[i]
            s[2] += dur[i] - child[i]
        counters = {"fields.Scalar.ops": self.scalar_ops,
                    "fields.extend_field.degree_sum": self.degree_sum}
        self.scalar_ops = self.degree_sum = 0
        return stats, counters

    def write_spans(self, path):
        """Write the spans held now as gzip TSV: id, parent, name, start_s, dur_s."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tdur_s\n")
            for i, (nm, par, st, en) in enumerate(zip(self.span_name, self.span_parent,
                                                     self.span_start, self.span_end)):
                fh.write(f"{i}\t{par}\t{self.names[nm]}\t{st - t0:.6f}\t{en - st:.6f}\n")

    def clear(self):
        for lst in (self.span_name, self.span_parent, self.span_start, self.span_end):
            lst.clear()
