"""Spans and counters around calls into homalgebra's modules, installed from
outside the package by rebinding names.

Modules import each other's functions with `from .x import y`, so a function
is wrapped under every module-level name bound to it (`algebra.mul` and
`identities.mul` alike).  Methods are wrapped on their class.

A span records name, start, end, parent span and op number in flat arrays;
self time (duration minus the time child spans cover) is computed after the
run.  The hottest scalar operations are counted only: a span per call would
swamp the run.  A name the program no longer defines is skipped and listed
in `missing`, so its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, function): span name; `identities.check` is named per strategy
SPANNED = (
    ("cli", "main"),
    ("fileio", "load"),
    ("fileio", "save"),
    ("parser", "parse_identity"),
    ("identities", "check"),
    ("identities", "evaluate"),
    ("algebra", "mul"),
    ("algebra", "apply_map"),
    ("algebra", "compose"),
    ("algebra", "is_endomorphism"),
    ("algebra", "yau_twist"),
    ("scalars", "normalize"),
    ("scalars", "poly_gcd"),
    ("scalars", "exact_div"),
)
# (module, function) or (module, class, methods): counter name
COUNTED = (
    (("parser", "parse_scalar_expr"), "parser.parse_scalar_expr"),
    (("scalars", "Scalar", ("__mul__", "__rmul__")), "scalars.Scalar.mul"),
    (("scalars", "Scalar", ("__add__", "__radd__", "__sub__")),
     "scalars.Scalar.add"),
    (("scalars", "Polynomial", ("__mul__",)), "scalars.Polynomial.mul"),
)


class Tracer:
    """Spans and counters for one traced run; `install` patches the loaded
    homalgebra modules and `uninstall` restores them."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self.gcd_nontrivial = 0
        self.op = -1
        self.missing = []   # names the program no longer defines
        self._stack = []
        self._undo = []

    # --- patching -----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "homalgebra" or n.startswith("homalgebra."))
                   and m is not None]
        owners = {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
                  if n.startswith("homalgebra.") and m is not None}
        for mod, func in SPANNED:
            original = getattr(owners[mod], func, None)
            if original is None:
                self.missing.append("%s.%s" % (mod, func))
                continue
            self._rebind(modules, original, self._spanned(mod, func, original))
        for where, counter in COUNTED:
            if len(where) == 2:
                original = getattr(owners[where[0]], where[1], None)
                if original is None:
                    self.missing.append(counter)
                    continue
                self._rebind(modules, original, self._counted(counter, original))
                continue
            cls = getattr(owners[where[0]], where[1])
            for method in where[2]:
                original = cls.__dict__.get(method)
                if original is None:
                    self.missing.append("%s.%s" % (counter, method))
                    continue
                self._undo.append((cls, method, original))
                setattr(cls, method, self._counted(counter, original))

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- wrappers -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _spanned(self, mod, func, fn):
        if (mod, func) == ("identities", "check"):
            ids = {s: self._name_id("identities.check." + s)
                   for s in ("generic", "basis")}

            def name_of(args, kwargs):
                strategy = args[2] if len(args) > 2 else kwargs.get(
                    "strategy", "generic")
                return ids.get(strategy, ids["generic"])
        else:
            nid = self._name_id("%s.%s" % (mod, func))

            def name_of(args, kwargs):
                return nid
        gcd = (mod, func) == ("scalars", "poly_gcd")
        clock = time.perf_counter
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if gcd and not result.is_one():
                self.gcd_nontrivial += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ------------------------------------------------------------

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return {name: (calls[name], total[name], own[name]) for name in self.names}
