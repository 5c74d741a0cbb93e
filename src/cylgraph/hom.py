"""Homomorphism search, listing, and counting.

Three matching modes:

- ``plain``    — incidence only; edge labels are ignored.
- ``labeled``  — edge labels must be preserved exactly.
- ``gamma``    — labels are attachment triples (:class:`~cylgraph.core.GammaLabel`);
  a map is valid when a per-vertex twist from the given group reconciles the
  source labels with the target labels: the edge u->v labeled (pre, j, post)
  must land on an edge labeled (d_pre, j, d_post) with
  ``pre == alpha[u] * d_pre`` and ``post == alpha[v] * d_post``.
  The twists are uniquely determined on every edge-incident vertex.

Between symmetric graphs a homomorphism is a map of twin *pairs*: the edge map
commutes with the pairing, and two directed images of one pair count once.

Counting in the plain and labeled modes does not enumerate vertex maps — the
count is a sum-product over per-edge weight tables, contracted by variable
elimination — so hom counts far beyond enumeration range stay exact.  The
next variable summed out is always the remaining source vertex with the fewest
neighbours in the current factors (ties broken by ``str`` of its name), found
from a heap that each step updates only around the eliminated vertex.  The
cost therefore grows with the source's width along that order (the size of
the largest joined table, at most ``|V(h)|`` to the power of the largest
neighbourhood plus one), times the source's size, not with its size cubed.

Vertex-map search maps pinned vertices first, then the others by falling
degree (ties broken by ``str`` of the name), except that each next vertex is
the first in that ranking adjacent to an already-mapped one whenever such a
vertex remains, so every edge check can fail early.  The order comes from
:func:`~cylgraph.core.connected_order` in O((V + E) log V).  Vertex-map and
edge-choice search keep an explicit stack, so sources of any size are
searched without hitting the interpreter's recursion limit.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import count
from typing import Iterator, Mapping

from .core import GammaLabel, Graph, connected_order, default_budget
from .errors import DomainError, ResourceLimit
from .perm import Perm, PermGroup, compose

MODES = ("plain", "labeled", "gamma")


class _Budget:
    __slots__ = ("left", "what")

    def __init__(self, n: int | None, what: str = "homomorphism search"):
        self.left = default_budget() if n is None else n
        self.what = what

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise ResourceLimit(f"{self.what} exceeded its node budget")


class Homomorphism:
    """A vertex map plus an edge map; gamma-mode maps also carry the
    per-vertex twists on edge-incident vertices."""

    __slots__ = ("vmap", "emap", "alphas")

    def __init__(self, vmap: Mapping, emap: Mapping, alphas: Mapping | None = None):
        self.vmap = dict(vmap)
        self.emap = dict(emap)
        self.alphas = dict(alphas) if alphas is not None else None

    def vertex(self, v):
        return self.vmap[v]

    def edge(self, e):
        return self.emap[e]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Homomorphism)
            and self.vmap == other.vmap
            and self.emap == other.emap
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.vmap.items()), frozenset(self.emap.items())))

    def __repr__(self) -> str:
        return f"Homomorphism({len(self.vmap)} vertices, {len(self.emap)} edges)"

    def key(self) -> tuple:
        return (
            tuple(sorted(self.vmap.items(), key=str)),
            tuple(sorted(self.emap.items(), key=str)),
        )

    def to_json(self) -> dict:
        data = {
            "vertices": {str(v): self.vmap[v] for v in sorted(self.vmap, key=str)},
            "edges": {eid: self.emap[eid] for eid in sorted(self.emap)},
        }
        if self.alphas is not None:
            data["twists"] = {
                str(v): list(self.alphas[v].images) for v in sorted(self.alphas, key=str)
            }
        return data


def compose_homs(first: Homomorphism, second: Homomorphism) -> Homomorphism:
    vmap = {v: second.vmap[w] for v, w in first.vmap.items()}
    emap = {e: second.emap[f] for e, f in first.emap.items()}
    alphas = None
    if first.alphas is not None and second.alphas is not None:
        alphas = {
            u: compose(a, second.alphas[first.vmap[u]])
            for u, a in first.alphas.items()
            if first.vmap[u] in second.alphas
        }
    return Homomorphism(vmap, emap, alphas)


def identity_hom(g: Graph) -> Homomorphism:
    alphas = None
    if g.has_gamma_labels() and g.edges:
        k = next(iter(g.edges.values())).label.pre.degree
        ident = Perm.identity(k)
        incident = {e.tail for e in g.edges.values()} | {e.head for e in g.edges.values()}
        alphas = {v: ident for v in incident}
    return Homomorphism({v: v for v in g.vertices}, {e: e for e in g.edges}, alphas)


def label_difference(l1: GammaLabel, l2: GammaLabel, side1: str = "pre", side2: str = "pre") -> Perm:
    """The twist carrying one attachment side onto another:
    ``inverse(side of l1) * (side of l2)``."""
    a = getattr(l1, side1)
    b = getattr(l2, side2)
    return compose(a.inverse(), b)


# -- shared machinery ---------------------------------------------------------


def _require_comparable(g: Graph, h: Graph, mode: str, group: PermGroup | None):
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if g.symmetric != h.symmetric:
        raise DomainError("source and target must both be symmetric or both directed")
    if mode == "gamma":
        if group is None:
            raise DomainError("gamma mode needs the slot group")
        for graph, side in ((g, "source"), (h, "target")):
            for eid, e in graph.edges.items():
                if not isinstance(e.label, GammaLabel):
                    raise DomainError(f"{side} edge {eid!r} lacks an attachment label")


def _src_edges(g: Graph) -> list[str]:
    return sorted(g.canonical_edges()) if g.symmetric else sorted(g.edges)


def _pair_index(h: Graph) -> dict:
    idx: dict = defaultdict(list)
    for eid in sorted(h.edges):
        e = h.edges[eid]
        idx[(e.tail, e.head)].append(eid)
    return idx


def _dedupe_classes(h: Graph, eids: list[str]) -> list[str]:
    """In symmetric targets keep one directed representative per twin pair."""
    if not h.symmetric:
        return eids
    seen: set = set()
    out = []
    for f in eids:
        cls = h.pair_class(f)
        if cls not in seen:
            seen.add(cls)
            out.append(f)
    return out


def _incidence(g: Graph, edge_ids: list[str]) -> dict:
    inc: dict = {v: [] for v in g.vertices}
    for eid in edge_ids:
        e = g.edges[eid]
        inc[e.tail].append(eid)
        if e.head != e.tail:
            inc[e.head].append(eid)
    return inc


def _vertex_order(g: Graph, pins: Mapping) -> list:
    def key(v):
        return v not in pins, -len(g.out_edges(v)) - len(g.in_edges(v)), str(v)

    return connected_order(sorted(g.vertices, key=key), g.neighbour_sets(), pins)


class _Matcher:
    """Target-edge candidate computation for one (g, h, mode, group) query."""

    def __init__(self, g: Graph, h: Graph, mode: str, group: PermGroup | None):
        self.g = g
        self.h = h
        self.mode = mode
        self.group = group
        self.idx = _pair_index(h)
        # the same few (edge, images, twists) queries recur across the whole
        # backtracking tree, so both candidate computations are memoized
        self._weak_cache: dict = {}
        self._forced_cache: dict = {}
        self._coset_cache: dict = {}

    def _coset_ok(self, src: Perm, tgt: Perm) -> bool:
        # is there a group twist t with src == t * tgt?
        key = (src.images, tgt.images)
        hit = self._coset_cache.get(key)
        if hit is None:
            hit = self._coset_cache[key] = compose(src, tgt.inverse()) in self.group
        return hit

    def weak(self, eid: str, a, b) -> list[str]:
        """Candidates before any twist is fixed (used while mapping vertices)."""
        key = (eid, a, b)
        hit = self._weak_cache.get(key)
        if hit is None:
            hit = self._weak_cache[key] = self._weak(eid, a, b)
        return hit

    def _weak(self, eid: str, a, b) -> list[str]:
        e = self.g.edges[eid]
        out = []
        for f in self.idx.get((a, b), ()):
            lab = self.h.edges[f].label
            if self.mode == "plain":
                out.append(f)
            elif self.mode == "labeled":
                if lab == e.label:
                    out.append(f)
            else:
                if (
                    isinstance(lab, GammaLabel)
                    and lab.key == e.label.key
                    and self._coset_ok(e.label.pre, lab.pre)
                    and self._coset_ok(e.label.post, lab.post)
                ):
                    out.append(f)
        return _dedupe_classes(self.h, out)

    def forced(self, eid: str, a, b, alpha_tail: Perm | None, alpha_head: Perm | None) -> list[str]:
        """Gamma candidates once twists at the endpoints are (partly) known."""
        key = (eid, a, b, alpha_tail, alpha_head)
        hit = self._forced_cache.get(key)
        if hit is None:
            hit = self._forced_cache[key] = self._forced(eid, a, b, alpha_tail, alpha_head)
        return hit

    def _forced(self, eid: str, a, b, alpha_tail: Perm | None, alpha_head: Perm | None) -> list[str]:
        e = self.g.edges[eid]
        want_pre = compose(alpha_tail.inverse(), e.label.pre) if alpha_tail is not None else None
        want_post = compose(alpha_head.inverse(), e.label.post) if alpha_head is not None else None
        out = []
        for f in self.idx.get((a, b), ()):
            lab = self.h.edges[f].label
            if lab.key != e.label.key:
                continue
            if want_pre is not None:
                if lab.pre != want_pre:
                    continue
            elif not self._coset_ok(e.label.pre, lab.pre):
                continue
            if want_post is not None:
                if lab.post != want_post:
                    continue
            elif not self._coset_ok(e.label.post, lab.post):
                continue
            out.append(f)
        return _dedupe_classes(self.h, out)


def _backtrack(slots: list, cands, budget: _Budget, ok=None) -> Iterator[dict]:
    """Every assignment of a value from ``cands(slot)`` to each slot, in
    depth-first order, slot by slot.  Each value tried costs one budget node;
    ``ok(assign, slot, value)`` may reject a value given the assignment of the
    earlier slots.  The search keeps its own stack of candidate iterators, so
    its depth is not bounded by the interpreter's recursion limit."""
    if not slots:
        yield {}
        return
    assign: dict = {}
    stack = [iter(cands(slots[0]))]
    while stack:
        i = len(stack) - 1
        slot = slots[i]
        for value in stack[i]:
            budget.spend()
            if ok is None or ok(assign, slot, value):
                assign[slot] = value
                break
        else:
            stack.pop()
            if i:
                del assign[slots[i - 1]]
            continue
        if i + 1 < len(slots):
            stack.append(iter(cands(slots[i + 1])))
        else:
            yield dict(assign)
            del assign[slot]


def _iter_vmaps(g: Graph, h: Graph, matcher: _Matcher, pins: Mapping, budget: _Budget) -> Iterator[dict]:
    inc = _incidence(g, _src_edges(g))
    hverts = sorted(h.vertices, key=str)

    def ok(vmap, u, w) -> bool:
        for eid in inc[u]:
            e = g.edges[eid]
            other = e.head if e.tail == u else e.tail
            if other != u and other not in vmap:
                continue
            a = w if e.tail == u else vmap[e.tail]
            b = w if e.head == u else vmap[e.head]
            if not matcher.weak(eid, a, b):
                return False
        return True

    return _backtrack(_vertex_order(g, pins), lambda u: [pins[u]] if u in pins else hverts, budget, ok)


def _fill_twins(g: Graph, h: Graph, emap: dict) -> dict:
    if not g.symmetric:
        return emap
    full = dict(emap)
    for eid, f in emap.items():
        tw = g.pairing[eid]
        if tw not in full:
            full[tw] = h.pairing[f]
    return full


def _alpha_vertices(g: Graph) -> list:
    incident: set = set()
    for e in g.edges.values():
        incident.add(e.tail)
        incident.add(e.head)
    return sorted(incident, key=str)


def _iter_gamma(g, h, matcher: _Matcher, vmap: dict, group: PermGroup, budget: _Budget,
                count_only: bool) -> Iterator:
    """Given a vertex map, walk over twist vectors; yield homomorphisms, or
    per-(twist) counts when counting."""
    verts = _alpha_vertices(g)
    inc = _incidence(g, _src_edges(g))
    alphas: dict = {}

    def edge_cands(eid) -> list[str]:
        e = g.edges[eid]
        return matcher.forced(
            eid,
            vmap[e.tail],
            vmap[e.head],
            alphas.get(e.tail),
            alphas.get(e.head),
        )

    def rec(i: int):
        if i == len(verts):
            cands = {eid: edge_cands(eid) for eid in _src_edges(g)}
            if count_only:
                total = 1
                for c in cands.values():
                    total *= len(c)
                yield total
            else:
                for emap in _backtrack(sorted(cands), cands.__getitem__, budget):
                    yield Homomorphism(vmap, _fill_twins(g, h, emap), dict(alphas))
            return
        u = verts[i]
        for a in group:
            budget.spend()
            alphas[u] = a
            if all(edge_cands(eid) for eid in inc[u]):
                yield from rec(i + 1)
            del alphas[u]

    yield from rec(0)


# -- public API ----------------------------------------------------------------


def iter_homs(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
              pins: Mapping | None = None, budget: int | None = None) -> Iterator[Homomorphism]:
    """All homomorphisms, deterministically ordered.  ``pins`` fixes chosen
    source vertices to chosen target vertices."""
    _require_comparable(g, h, mode, group)
    pins = dict(pins or {})
    for v, w in pins.items():
        if not g.has_vertex(v):
            raise DomainError(f"pinned vertex {v!r} not in source")
        if not h.has_vertex(w):
            raise DomainError(f"pin target {w!r} not in target")
    b = _Budget(budget)
    matcher = _Matcher(g, h, mode, group)
    src = _src_edges(g)
    for vmap in _iter_vmaps(g, h, matcher, pins, b):
        if mode == "gamma":
            yield from _iter_gamma(g, h, matcher, vmap, group, b, count_only=False)
        else:
            cands = {eid: matcher.weak(eid, vmap[g.edges[eid].tail], vmap[g.edges[eid].head]) for eid in src}
            for emap in _backtrack(sorted(cands), cands.__getitem__, b):
                yield Homomorphism(vmap, _fill_twins(g, h, emap))


def find_hom(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
             pins: Mapping | None = None, budget: int | None = None) -> Homomorphism | None:
    return next(iter_homs(g, h, mode, group, pins, budget), None)


def list_homs(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
              pins: Mapping | None = None, budget: int | None = None,
              limit: int | None = None) -> list[Homomorphism]:
    out = []
    for hom in iter_homs(g, h, mode, group, pins, budget):
        out.append(hom)
        if limit is not None and len(out) >= limit:
            break
    return out


def count_homs(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
               pins: Mapping | None = None, budget: int | None = None) -> int:
    """Exact number of homomorphisms (pair-level between symmetric graphs)."""
    _require_comparable(g, h, mode, group)
    pins = dict(pins or {})
    b = _Budget(budget, "homomorphism count")
    matcher = _Matcher(g, h, mode, group)
    if mode == "gamma":
        total = 0
        for vmap in _iter_vmaps(g, h, matcher, pins, b):
            for n in _iter_gamma(g, h, matcher, vmap, group, b, count_only=True):
                total += n
        return total
    return _count_by_elimination(g, h, matcher, pins, b)


def _count_by_elimination(g: Graph, h: Graph, matcher: _Matcher, pins: Mapping, budget: _Budget) -> int:
    hverts = sorted(h.vertices, key=str)
    if not g.vertices:
        return 1
    if not hverts:
        return 0

    factors: list[tuple[tuple, dict]] = []
    for eid in _src_edges(g):
        e = g.edges[eid]
        table: dict = {}
        if e.tail == e.head:
            for a in hverts:
                c = len(matcher.weak(eid, a, a))
                if c:
                    table[(a,)] = c
            factors.append(((e.tail,), table))
        else:
            for (a, b2), _ in matcher.idx.items():
                c = len(matcher.weak(eid, a, b2))
                if c:
                    table[(a, b2)] = c
            factors.append(((e.tail, e.head), table))
    for v, w in pins.items():
        factors.append(((v,), {(w,): 1}))

    return _eliminate({v: len(hverts) for v in g.vertices}, factors, budget)


def _join(f1: tuple[tuple, dict], f2: tuple[tuple, dict], budget: _Budget) -> tuple[tuple, dict]:
    v1, t1 = f1
    v2, t2 = f2
    shared = [v for v in v1 if v in v2]
    extra = [i for i, v in enumerate(v2) if v not in v1]
    out_vars = v1 + tuple(v2[i] for i in extra)
    pos1 = [v1.index(s) for s in shared]
    pos2 = [v2.index(s) for s in shared]
    index2: dict = defaultdict(list)
    for a2, w2 in t2.items():
        index2[tuple(a2[i] for i in pos2)].append((a2, w2))
    out: dict = {}
    for a1, w1 in t1.items():
        key = tuple(a1[i] for i in pos1)
        for a2, w2 in index2.get(key, ()):
            budget.spend()
            out[a1 + tuple(a2[i] for i in extra)] = w1 * w2
    return out_vars, out


def _eliminate(domains: dict, factors: list[tuple[tuple, dict]], budget: _Budget) -> int:
    """Sum out every variable, always the remaining one of least
    ``(degree, str(name))``, where the degree counts the other variables that
    share a factor with it.  Factors are numbered in creation order; each
    variable indexes its factors by number and counts the factors it shares
    with each neighbour, so one step touches only the eliminated
    neighbourhood.  Heap entries go stale lazily: an entry counts only while
    its variable is uneliminated and its degree is current."""
    var_factors: dict = defaultdict(dict)  # variable -> {factor number: factor}, in creation order
    nbrs: dict = defaultdict(lambda: defaultdict(int))  # variable -> {neighbour: shared factors}
    heap: list = []
    seq = count()

    def push(v) -> None:
        heapq.heappush(heap, (len(nbrs[v]), str(v), next(seq), v))

    def add(f: tuple[tuple, dict]) -> None:
        i = next(seq)
        for u in f[0]:
            var_factors[u][i] = f
            for w in f[0]:
                if w != u:
                    nbrs[u][w] += 1

    def remove(i: int, f: tuple[tuple, dict]) -> tuple[tuple, dict]:
        for u in f[0]:
            del var_factors[u][i]
            for w in f[0]:
                if w != u:
                    nbrs[u][w] -= 1
                    if not nbrs[u][w]:
                        del nbrs[u][w]
        return f

    for f in factors:
        add(f)
    for v in domains:
        push(v)
    done: set = set()
    result = 1
    while heap:
        deg, _, _, v = heapq.heappop(heap)
        if v in done or deg != len(nbrs[v]):
            continue
        done.add(v)
        touching = [remove(i, f) for i, f in list(var_factors[v].items())]
        if not touching:
            result *= domains[v]
            continue
        joined = touching[0]
        for f in touching[1:]:
            joined = _join(f, joined, budget)
        jvars, jtable = joined
        idx = jvars.index(v)
        out_vars = jvars[:idx] + jvars[idx + 1 :]
        summed: dict = defaultdict(int)
        for assign, w in jtable.items():
            summed[assign[:idx] + assign[idx + 1 :]] += w
        budget.spend(len(summed) + 1)
        if out_vars:
            add((out_vars, dict(summed)))
        else:
            result *= summed.get((), 0)
        for u in out_vars:  # only v's neighbours changed degree
            push(u)
    return result


# -- validation ----------------------------------------------------------------


def extract_alphas(g: Graph, h: Graph, hom: Homomorphism, group: PermGroup) -> dict:
    """Recover the per-vertex twists of a gamma-mode map from its edge map.
    Raises :class:`DomainError` if no consistent twists inside the group exist."""
    alphas: dict = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        f = h.edges[hom.emap[eid]]
        for v, src, tgt in ((e.tail, e.label.pre, f.label.pre), (e.head, e.label.post, f.label.post)):
            a = compose(src, tgt.inverse())
            if v in alphas:
                if alphas[v] != a:
                    raise DomainError(f"inconsistent twists at vertex {v!r}")
            else:
                if a not in group:
                    raise DomainError(f"twist at vertex {v!r} falls outside the group")
                alphas[v] = a
    return alphas


def check_hom(g: Graph, h: Graph, hom: Homomorphism, mode: str = "labeled",
              group: PermGroup | None = None) -> str | None:
    """Why is this not a valid homomorphism?  None when it is valid."""
    _require_comparable(g, h, mode, group)
    for v in g.vertices:
        if v not in hom.vmap:
            return f"vertex {v!r} unmapped"
        if not h.has_vertex(hom.vmap[v]):
            return f"vertex {v!r} maps outside the target"
    for eid, e in g.edges.items():
        if eid not in hom.emap:
            return f"edge {eid!r} unmapped"
        f = hom.emap[eid]
        if f not in h.edges:
            return f"edge {eid!r} maps to unknown edge {f!r}"
        te = h.edges[f]
        if te.tail != hom.vmap[e.tail] or te.head != hom.vmap[e.head]:
            return f"edge {eid!r} image has wrong endpoints"
        if mode == "labeled" and te.label != e.label:
            return f"edge {eid!r} image changes the label"
        if mode == "gamma" and te.label.key != e.label.key:
            return f"edge {eid!r} image changes the cylinder key"
    if g.symmetric:
        for eid in g.edges:
            if hom.emap[g.pairing[eid]] != h.pairing[hom.emap[eid]]:
                return f"edge map does not respect the twin pairing at {eid!r}"
    if mode == "gamma":
        try:
            alphas = extract_alphas(g, h, hom, group)
        except DomainError as err:
            return str(err)
        if hom.alphas is not None:
            for v, a in alphas.items():
                if hom.alphas.get(v) != a:
                    return f"stored twist at {v!r} disagrees with the edge map"
    return None
