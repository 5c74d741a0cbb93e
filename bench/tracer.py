"""Spans and counters recorded around the library's public functions.

Nothing here edits the library: :meth:`Tracer.install` rebinds chosen names
at runtime (in every ``cylgraph`` module that imported them, and on the
classes that own the traced methods) and :meth:`Tracer.uninstall` puts the
originals back.  Untraced runs never call ``install``.

A span is ``[name, op, id, parent, start, end, busy, child]``: ``busy`` is the
time spent inside the call (for a generator, the sum over its ``next()``
calls), ``child`` the part of it covered by nested spans.  Self time is
``busy - child``.  Spans are only recorded while :attr:`Tracer.op` names an
operation, so oracle checks run between operations stay out of the trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

NAME, OP, ID, PARENT, START, END, BUSY, CHILD = range(8)

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._expo_depth = 0
        self._saved: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [name, self.op, len(self.spans), None if parent is None else parent[ID], _now(), 0.0, 0.0, 0.0]
        self.spans.append(span)
        return span

    def _run(self, span: list, fn, args, kwargs):
        """Call ``fn`` with ``span`` on top of the stack; charge its duration
        to the span and to whichever span is below it."""
        self.stack.append(span)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            self.stack.pop()
            span[END] = t1
            span[BUSY] += t1 - t0
            if self.stack:
                self.stack[-1][CHILD] += t1 - t0

    def call(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            out = self._run(self._open(name), fn, args, kwargs)
            if after is not None:
                after(self, out)
            return out
        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function: one span per generator, timed only
        while the consumer is inside ``next()``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            return self._iterate(name, fn(*args, **kwargs))
        return wrapper

    def _iterate(self, name: str, it):
        span = None
        while True:
            if span is None:
                span = self._open(name)
            try:
                item = self._run(span, next, (it,), {})
            except StopIteration:
                return
            self.counts[name + ".yielded"] += 1
            if self._expo_depth:
                self.counts["construct.exponential.homs_enumerated"] += 1
            yield item

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, home: str, attr: str, wrapped, modules: dict, *, in_home: bool) -> None:
        original = getattr(modules[home], attr)
        for modname, mod in modules.items():
            if modname == home and not in_home:
                continue
            if getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def _patch_method(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> dict:
        """Wrap the traced layers; return the wrapped public functions by
        name (``cli.main`` as ``cli_main``) so the benchmark calls them too."""
        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name == "cylgraph" or name.startswith("cylgraph.")}
        core, cylinder, perm = modules["core"], modules["cylinder"], modules["perm"]
        out = {}

        def span(home, attr, after=None, gen=False):
            fn = getattr(modules[home], attr)
            label = f"{home}.{attr}"
            w = self.generator(label, fn) if gen else self.call(label, fn, after)
            self._rebind(home, attr, w, modules, in_home=False)
            out["cli_main" if attr == "main" else attr] = w

        span("hom", "iter_homs", gen=True)
        span("hom", "find_hom")
        span("hom", "check_hom")
        count = modules["hom"].count_homs
        plain = self.call("hom.count_homs", count)
        gamma = self.call("hom.count_homs.gamma", count)

        @functools.wraps(count)
        def count_homs(g, h, mode="labeled", *args, **kwargs):
            return (gamma if mode == "gamma" else plain)(g, h, mode, *args, **kwargs)
        self._rebind("hom", "count_homs", count_homs, modules, in_home=False)
        out["count_homs"] = count_homs

        span("core", "isomorphic")
        span("construct", "cyl_product", after=_after_product)
        expo = modules["construct"].exponential

        @functools.wraps(expo)
        def exponential(*args, **kwargs):
            if self.op is None:
                return expo(*args, **kwargs)
            self._expo_depth += 1
            try:
                et = self._run(self._open("construct.exponential"), expo, args, kwargs)
            finally:
                self._expo_depth -= 1
            self.counts["construct.exponential.edges_out"] += len(et.graph.edges)
            self.counts["construct.exponential.reps_out"] += len(et.tuple_of)
            return et
        self._rebind("construct", "exponential", exponential, modules, in_home=False)
        out["exponential"] = exponential

        for attr in ("section", "retraction", "gamma_acts_freely", "is_lower_closed", "is_upper_closed"):
            span("duality", attr)
        for attr in ("walk_power", "function_power", "looped_line_graph", "fractional_power",
                     "subdivision", "neps_product"):
            span("catalog", attr)
        span("cli", "main")

        for attr in ("validate", "to_json"):
            self._patch_method(core.Graph, attr, self.call(f"core.Graph.{attr}", getattr(core.Graph, attr)))
        self._patch_method(core.Graph, "from_json", classmethod(
            self.call("core.Graph.from_json", core.Graph.__dict__["from_json"].__func__)))
        self._patch_method(cylinder.CylinderSet, "from_json", classmethod(
            self.call("cylinder.CylinderSet.from_json", cylinder.CylinderSet.__dict__["from_json"].__func__)))

        self._patch_method(perm.Perm, "act", self.counter("perm.act.calls", perm.Perm.act))
        self._patch_method(perm.PermGroup, "__contains__",
                           self.counter("perm.group_contains.calls", perm.PermGroup.__contains__))
        self._rebind("perm", "compose", self.counter("perm.compose.calls", perm.compose), modules, in_home=True)
        return out

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """Busy and self seconds and call counts per span name, plus the
        counters."""
        busy_s: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for s in self.spans:
            busy_s[s[NAME]] += s[BUSY]
            self_s[s[NAME]] += s[BUSY] - s[CHILD]
            calls[s[NAME]] += 1
        return {"busy_s": dict(busy_s), "self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """One JSON line per span: name, op, parent, start, end, busy, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "op": s[OP], "id": s[ID], "parent": s[PARENT],
                    "start": s[START], "end": s[END], "busy": s[BUSY], "self": s[BUSY] - s[CHILD],
                }) + "\n")


def _after_product(tracer: Tracer, trace) -> None:
    tracer.counts["construct.cyl_product.edges_out"] += len(trace.graph.edges)
